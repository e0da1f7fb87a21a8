"""Tests for the malicious-supernode security experiment."""

import pytest

from repro.experiments.parallel import run_named
from repro.experiments.security import SecurityConfig, simulate_security

FAST = SecurityConfig(n_sessions=1500)


class TestSimulateSecurity:
    def test_result_keys(self):
        out = simulate_security(True, seed=0, config=FAST)
        assert {"tampered_rate", "served_by_malicious_rate", "evictions",
                "malicious_survivors", "honest_evicted",
                "first_eviction_session"} == set(out)

    def test_no_malicious_no_tampering(self):
        cfg = SecurityConfig(malicious_fraction=0.0, n_sessions=1000)
        out = simulate_security(True, seed=0, config=cfg)
        assert out["tampered_rate"] == 0.0
        assert out["evictions"] == 0

    def test_reputation_cuts_tampering(self):
        off = simulate_security(False, seed=0, config=FAST)
        on = simulate_security(True, seed=0, config=FAST)
        assert on["tampered_rate"] < 0.5 * off["tampered_rate"]

    def test_all_malicious_evicted(self):
        on = simulate_security(True, seed=0, config=FAST)
        assert on["malicious_survivors"] == 0

    def test_few_honest_casualties(self):
        on = simulate_security(True, seed=0, config=FAST)
        n_honest = FAST.n_supernodes * (1 - FAST.malicious_fraction)
        assert on["honest_evicted"] <= 0.15 * n_honest

    def test_no_reputation_no_evictions(self):
        off = simulate_security(False, seed=0, config=FAST)
        assert off["evictions"] == 0
        assert off["malicious_survivors"] > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SecurityConfig(malicious_fraction=1.5)
        with pytest.raises(ValueError):
            SecurityConfig(tamper_rate=-0.1)

    def test_deterministic(self):
        a = simulate_security(True, seed=4, config=FAST)
        b = simulate_security(True, seed=4, config=FAST)
        assert a == b


@pytest.fixture(scope="module")
def security():
    return run_named("security", 0.02, 0).series


class TestSecuritySweep:
    def test_series_shape(self, security):
        assert [s.label for s in security] == [
            "no reputation system", "with reputation + eviction"]
        for s in security:
            assert s.x == [0.0, 0.1, 0.2, 0.3, 0.4]

    def test_tampering_grows_without_reputation(self, security):
        without, with_rep = security
        assert without.y == sorted(without.y)
        for k in range(len(without.x)):
            assert with_rep.y[k] <= without.y[k] + 1e-9
