"""Session dynamics: the arrival rate, play-time mixture and diurnal shape.

"Players join the system following the Poisson distribution with an
average rate of 5 players per second. Each node leaves the system after it
finishes playing and joins the system for the next session. ... 50 % of
nodes play for a period randomly selected from (0, 2] hours a day, 30 %
from (2, 5] hours and 20 % from (5, 24] hours" (§IV, citing Hellstrom et
al. on adolescent gaming time).

The join process that uses these runs in
:mod:`repro.experiments.dynamic` and :mod:`repro.dynamics`.
"""

from __future__ import annotations

import numpy as np

#: Poisson arrival rate of joining players, per second (paper §IV).
DEFAULT_ARRIVAL_RATE_PER_S = 5.0

#: Daily play-time mixture: (probability, low hours, high hours].
PLAYTIME_MIXTURE = (
    (0.5, 0.0, 2.0),
    (0.3, 2.0, 5.0),
    (0.2, 5.0, 24.0),
)

#: Diurnal arrival shape: gaming peaks in the evening (~20:00) and
#: troughs before dawn (~05:00). Amplitude 0.75 gives a ~7x peak/trough
#: ratio, in line with published MMOG concurrency curves.
DIURNAL_PEAK_HOUR = 20.0
DIURNAL_AMPLITUDE = 0.75


def diurnal_multiplier(time_of_day_s: float,
                       peak_hour: float = DIURNAL_PEAK_HOUR,
                       amplitude: float = DIURNAL_AMPLITUDE) -> float:
    """Arrival-rate multiplier at a given second of the day.

    A raised cosine with mean 1.0: integrating over a full day recovers
    the nominal rate, so the paper's 5 players/s stays the daily average.
    The peak hour and amplitude default to the module constants; the
    dynamics DSL (``repro.dynamics.plan.DiurnalLoad``) passes its own.
    """
    hours = (time_of_day_s / 3600.0) % 24.0
    phase = 2.0 * np.pi * (hours - peak_hour) / 24.0
    return 1.0 + amplitude * np.cos(phase)


def sample_daily_play_s(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw daily play times (seconds) from the paper's three-band mixture."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    probs = np.array([p for p, _, _ in PLAYTIME_MIXTURE])
    bands = rng.choice(len(PLAYTIME_MIXTURE), size=n, p=probs)
    lows = np.array([lo for _, lo, _ in PLAYTIME_MIXTURE])[bands]
    highs = np.array([hi for _, _, hi in PLAYTIME_MIXTURE])[bands]
    # "randomly selected from (lo, hi]": uniform on the half-open interval.
    u = rng.uniform(0.0, 1.0, size=n)
    hours = highs - u * (highs - lows)  # in (lo, hi]
    return hours * 3600.0
