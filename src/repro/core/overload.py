"""Overload-graceful degradation: the watermarks of the ladder.

A flash crowd should degrade QoE smoothly, never crash assignment
invariants (Stimpack's quality-vs-capacity trade, PAPERS.md).
:class:`~repro.dynamics.kernel.DynamicsKernel` runs the ladder on the
cohort: each tick it compares every region's utilisation (the previous
tick's served head-count over ``capacity_factor`` × the home
head-count) with the :class:`OverloadParams` watermarks, refusing joins
past the admit watermark, stepping players down a tier past the shed
watermark and evicting floor-tier players past the evict watermark.
Shed and evict pick players by counter hash, so each set is a pure
function of ``(seed, tick)`` and identical in cohort and per-player
modes.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bucket bounds for overload recovery-time histograms (seconds).
#: Same grid as ``repro.faults.failover.RECOVERY_BUCKETS`` so failover
#: and overload recovery distributions are directly comparable.
OVERLOAD_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True, slots=True)
class OverloadParams:
    """Watermarks of the graceful-degradation ladder.

    Utilisation is a region's tick load over its cohort capacity. The
    ladder must be ordered: admit ≤ shed ≤ evict.
    """

    #: Above this utilisation new admissions are refused (the player is
    #: served by direct cloud streaming instead of the fog).
    admit_watermark: float = 0.95
    #: Above this utilisation players are stepped down one quality tier
    #: (shed).
    shed_watermark: float = 1.0
    #: Above this utilisation floor-tier players are evicted.
    evict_watermark: float = 1.25
    #: Fraction of eligible players shed/evicted per overloaded tick
    #: (counter-hash selected).
    shed_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.admit_watermark <= 0:
            raise ValueError("admit watermark must be positive")
        if self.shed_watermark < self.admit_watermark:
            raise ValueError("shed watermark must be >= admit watermark")
        if self.evict_watermark < self.shed_watermark:
            raise ValueError("evict watermark must be >= shed watermark")
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ValueError("shed fraction must be in (0, 1]")
