"""Security experiment: malicious supernodes vs the reputation system.

Plants a fraction of malicious supernodes (they tamper with a share of
the sessions they serve) in a neighbourhood and measures, over a stream
of sessions, how quickly the reputation system evicts them and how many
player sessions get tampered before and after.

The headline series (the ``security`` spec): tampered-session rate vs
the malicious fraction, with the trust registry on vs off — the
quantitative case for the §III-A-1 vetting requirements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trust import TrustParams, TrustRegistry


@dataclass(frozen=True)
class SecurityConfig:
    """Parameters of the malicious-supernode experiment."""

    n_supernodes: int = 30
    #: Fraction of supernodes that are malicious.
    malicious_fraction: float = 0.2
    #: Probability a malicious supernode tampers with one session.
    tamper_rate: float = 0.5
    #: Sessions simulated (each lands on a uniformly random active
    #: supernode — assignment spreads load in the real system).
    n_sessions: int = 3000
    trust: TrustParams = TrustParams()

    def __post_init__(self) -> None:
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ValueError("malicious_fraction must lie in [0, 1]")
        if not 0.0 <= self.tamper_rate <= 1.0:
            raise ValueError("tamper_rate must lie in [0, 1]")


def simulate_security(
    use_reputation: bool,
    seed: int = 0,
    config: SecurityConfig | None = None,
) -> dict[str, float]:
    """Run the session stream; returns tamper/eviction aggregates."""
    cfg = config or SecurityConfig()
    rng = np.random.default_rng(seed)
    registry = TrustRegistry(cfg.trust)

    n_bad = int(round(cfg.malicious_fraction * cfg.n_supernodes))
    malicious = set(rng.choice(cfg.n_supernodes, size=n_bad,
                               replace=False).tolist())
    for sid in range(cfg.n_supernodes):
        registry.register(sid)

    tampered_sessions = 0
    served_by_malicious = 0
    first_eviction_session = None
    for k in range(cfg.n_sessions):
        active = registry.active_ids() if use_reputation \
            else list(range(cfg.n_supernodes))
        if not active:
            break
        sid = int(active[int(rng.integers(len(active)))])
        is_bad = sid in malicious
        tampers = is_bad and rng.uniform() < cfg.tamper_rate
        if is_bad:
            served_by_malicious += 1
        if tampers:
            tampered_sessions += 1
        if use_reputation:
            evicted = registry.observe_session(sid, tampers, rng)
            if evicted and first_eviction_session is None:
                first_eviction_session = k

    survivors = (sum(1 for sid in malicious if registry.is_active(sid))
                 if use_reputation else len(malicious))
    honest_evicted = (
        sum(1 for sid in range(cfg.n_supernodes)
            if sid not in malicious and not registry.is_active(sid))
        if use_reputation else 0)
    return {
        "tampered_rate": tampered_sessions / cfg.n_sessions,
        "served_by_malicious_rate": served_by_malicious / cfg.n_sessions,
        "evictions": float(registry.evictions if use_reputation else 0),
        "malicious_survivors": float(survivors),
        "honest_evicted": float(honest_evicted),
        "first_eviction_session": float(
            -1 if first_eviction_session is None
            else first_eviction_session),
    }

