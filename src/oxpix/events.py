"""Events of a transient, and ``detect``, which finds them in its samples.

Discrete happenings are recorded as events: filament switching transitions
(threshold crossings of the gap across fractions of its span, stamped where
the step's interpolant crosses the threshold), abrupt VPD falls (a drop of
half the available swing inside a sliding window of samples), full well
saturation and the ground clamp.  ``detect`` finds the first two in the
finished samples of a transient; the stepper records the last two itself.

The interpolant is the DOPRI5 continuous extension (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.6): order 4, built from a step's own seven
stages.  The stepper samples the output grid with it too.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

import numpy as np

from .pixel import PixelConfig

# Switching thresholds, as fractions of the gap span.
GAP_LO_FRAC = 0.10
GAP_HI_FRAC = 0.90
# An abrupt fall drops ABRUPT_FRAC of the swing available above the VPD
# floor within ABRUPT_WINDOW, which is also the output grid's spacing.
ABRUPT_WINDOW = 100e-9  # s
ABRUPT_FRAC = 0.50
VPD_FLOOR = 0.0         # V, the ground clamp

# Continuous extension: the fifth Hermite coefficient of Hairer's DOPRI5
# dense output (D2 = 0).
D1, D3, D4, D5, D6, D7 = (
    -12715105075 / 11282082432, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423)
# Bisection halvings of a step locating a gap-threshold crossing.
_CROSSING_HALVINGS = 50


def dense(theta: float, h: float, y0: float, y1: float, k1: float,
          k3: float, k4: float, k5: float, k6: float, k7: float) -> float:
    """One component of the DOPRI5 continuous extension at ``t0 + theta*h``
    of a step from ``y0`` to ``y1`` with stages ``k1..k7``."""
    dy = y1 - y0
    a = h * k1 - dy
    b = dy - h * k7 - a
    c = h * (D1 * k1 + D3 * k3 + D4 * k4 + D5 * k5 + D6 * k6 + D7 * k7)
    s = 1.0 - theta
    return y0 + theta * (dy + s * (a + theta * (b + s * c)))


class EventKind(enum.Enum):
    SET_TO_RESET = "SetToReset"
    RESET_TO_SET = "ResetToSet"
    SOFT_TO_HARD_RESET = "SoftToHardReset"
    ABRUPT_FALL = "AbruptFall"
    FWC_SATURATION = "FwcSaturation"
    VPD_FLOOR_CLAMP = "VpdFloorClamp"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    t_event: float
    detail: str = ""


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry of ``mask``, or 0 if there is none."""
    i = int(np.argmax(mask))
    return i if mask[i] else 0


def _crossing_time(t: np.ndarray, frac: np.ndarray, i: int, level: float,
                   steps: list[tuple], gap_min: float, span: float) -> float:
    """Time the gap fraction passed ``level`` between samples ``i - 1`` and
    ``i``, bisected on the interpolant of the accepted step ``(t0, h, g0,
    g1, k1, k3, k4, k5, k6, k7)`` that holds sample ``i``."""
    t_prev, t_i = float(t[i - 1]), float(t[i])
    step = steps[bisect.bisect_left(steps, t_i, key=lambda s: s[0]) - 1]
    t0, h = step[0], step[1]
    rising = frac[i] > frac[i - 1]
    lo, hi = (t_prev - t0) / h, (t_i - t0) / h
    for _ in range(_CROSSING_HALVINGS):
        mid = 0.5 * (lo + hi)
        f_mid = (dense(mid, h, *step[2:]) - gap_min) / span
        if (f_mid >= level) if rising else (f_mid <= level):
            hi = mid
        else:
            lo = mid
    return t0 + hi * h


def detect(t: np.ndarray, vpd: np.ndarray, gap: np.ndarray,
           steps: list[tuple], config: PixelConfig, vstart: float
           ) -> list[Event]:
    """The switching and abrupt-fall events of a transient's samples ``(t,
    vpd, gap)``, in time order from the initial state at sample 0.  For a
    hybrid pixel, ``steps`` are its accepted steps in time order, as
    ``_crossing_time`` takes them.

    The gap reaches 90 % of its span at its first sample there after sample
    0, a SetToReset if an earlier sample lay below 10 %, else a
    SoftToHardReset; it falls to 10 % at its first sample there after sample
    0, a ResetToSet if an earlier sample lay above 90 %.  Each is stamped at
    its crossing time.  An abrupt fall is the first sample that lies more
    than ``ABRUPT_FRAC`` of the swing above the floor below the largest VPD
    of the window ``ABRUPT_WINDOW`` back.
    """
    events = []
    if config.is_hybrid():
        p = config.oxram
        gap_min, span = p.gap_min, p.gap_max - p.gap_min
        frac = (gap - gap_min) / span
        i = _first(frac >= GAP_HI_FRAC)
        if i:
            kind = EventKind.SET_TO_RESET if frac[:i].min() < GAP_LO_FRAC \
                else EventKind.SOFT_TO_HARD_RESET
            events.append(Event(kind, _crossing_time(
                t, frac, i, GAP_HI_FRAC, steps, gap_min, span),
                f"gap={float(gap[i]):.4f}nm"))
        i = _first(frac <= GAP_LO_FRAC)
        if i and frac[:i].max() > GAP_HI_FRAC:
            events.append(Event(EventKind.RESET_TO_SET, _crossing_time(
                t, frac, i, GAP_LO_FRAC, steps, gap_min, span),
                f"gap={float(gap[i]):.4f}nm"))
    # Only a sample that far below the running maximum can qualify.
    drop = ABRUPT_FRAC * (vstart - VPD_FLOOR)
    for i in np.flatnonzero(np.maximum.accumulate(vpd) - vpd > drop):
        t_i, v_i = float(t[i]), float(vpd[i])
        # A sample exactly one window back stays: grid points one window
        # apart differ by a rounding error from ``ABRUPT_WINDOW``.
        t_out = t_i - ABRUPT_WINDOW - 1e-18 * max(1.0, t_i)
        vmax = float(vpd[np.searchsorted(t, t_out):i + 1].max())
        if vmax - v_i > drop:
            events.append(Event(
                EventKind.ABRUPT_FALL, t_i,
                f"fell {vmax - v_i:.3f}V within {ABRUPT_WINDOW * 1e9:.0f}ns"))
            break
    return events
