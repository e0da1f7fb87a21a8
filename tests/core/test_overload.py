"""Overload ladder watermarks shared with the dynamics kernel."""

import pytest

from repro.core.overload import OVERLOAD_BUCKETS, OverloadParams


class TestOverloadParams:
    def test_defaults_are_ordered(self):
        p = OverloadParams()
        assert p.admit_watermark <= p.shed_watermark <= p.evict_watermark

    @pytest.mark.parametrize("kwargs", [
        dict(admit_watermark=0.0),
        dict(admit_watermark=1.0, shed_watermark=0.9),
        dict(shed_watermark=1.0, evict_watermark=0.9),
        dict(shed_fraction=0.0),
        dict(shed_fraction=1.5),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            OverloadParams(**kwargs)

    def test_buckets_match_failover_grid(self):
        from repro.faults.failover import RECOVERY_BUCKETS

        assert OVERLOAD_BUCKETS == RECOVERY_BUCKETS
