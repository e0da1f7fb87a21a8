#!/usr/bin/env python3
"""Fog resilience: supernode churn, backups, and cooperation.

Supernodes are volunteer machines — they come and go, and their load is
whatever the neighbourhood happens to generate. This example shows the
two mechanisms that keep the fog dependable:

1. **Backups** (paper §III-A-3): each player records backup supernodes at
   assignment time; a departing supernode's players switch there in one
   short gap instead of inheriting the slow cloud path.
2. **Cooperation** (paper §V future work, implemented here): supernodes
   in a neighbourhood exchange load reports and offload players from hot
   to cool nodes, pooling their uplinks.

Run:  python examples/fog_resilience.py
"""

from repro.experiments.churn import ChurnConfig, simulate_churn
from repro.experiments.cooperation import (
    CooperationConfig,
    simulate_cooperation,
)


def main() -> None:
    print("Part 1 — supernode churn (departures per minute)\n")
    cfg = ChurnConfig(duration_s=45.0)
    print(f"{'churn rate':>10} | {'with backups':>22} | "
          f"{'cloud fallback':>22}")
    print("-" * 62)
    for rate in (0.0, 2.0, 4.0, 8.0):
        wb = simulate_churn(rate, True, seed=0, config=cfg)
        nb = simulate_churn(rate, False, seed=0, config=cfg)
        print(f"{rate:>8.0f}/m | cont={wb['continuity']:.3f} "
              f"sat={wb['satisfied']:.2f}       | "
              f"cont={nb['continuity']:.3f} sat={nb['satisfied']:.2f}")
    print("\nBackups turn a departure into a ~0.3 s gap; without them the "
          "affected players\nkeep the long cloud path for the rest of the "
          "session.\n")

    print("Part 2 — load skew and supernode cooperation\n")
    coop_cfg = CooperationConfig(duration_s=30.0)
    print(f"{'hot share':>10} | {'no cooperation':>20} | "
          f"{'with cooperation':>24}")
    print("-" * 62)
    for frac in (0.25, 0.5, 0.75, 1.0):
        solo = simulate_cooperation(16, frac, False, seed=0, config=coop_cfg)
        coop = simulate_cooperation(16, frac, True, seed=0, config=coop_cfg)
        print(f"{frac:>10.2f} | sat={solo['satisfied']:.2f} "
              f"cont={solo['continuity']:.2f}   | "
              f"sat={coop['satisfied']:.2f} cont={coop['continuity']:.2f} "
              f"({coop['offloads']:.0f} offloads)")
    # The last row is the fully skewed arrival pattern.
    print(f"\nWith cooperation the neighbourhood pools its uplinks: at hot "
          f"share {frac:.2f}\n{coop['satisfied']:.0%} of players stay "
          f"satisfied (continuity {coop['continuity']:.2f}), against "
          f"{solo['satisfied']:.0%} without it.")


if __name__ == "__main__":
    main()
