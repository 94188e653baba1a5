"""Events of a transient and the detector that finds them in its samples.

Discrete happenings are recorded as events: filament switching transitions
(threshold crossings of the gap across fractions of its span, stamped where
the step's interpolant crosses the threshold), abrupt VPD falls (a drop of
half the available swing inside a sliding window of samples), full well
saturation and the ground clamp.  The detector sees the first two; the
stepper records the last two itself.

The interpolant is the DOPRI5 continuous extension (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.6): order 4, built from a step's own seven
stages.  The stepper samples the output grid with it too.
"""

from __future__ import annotations

import copy
import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

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


class EventDetector:
    """Incremental detector fed one accepted sample at a time."""

    def __init__(self, config: PixelConfig, vstart: float):
        self.events: list[Event] = []
        self._hybrid = config.is_hybrid()
        if self._hybrid:
            p = config.oxram
            self._span = p.gap_max - p.gap_min
            self._gmin = p.gap_min
        self._prev: Optional[tuple[float, float]] = None  # (t, gap fraction)
        self._min_frac = math.inf
        self._max_frac = -math.inf
        self._crossed_hi = False
        self._crossed_lo = False
        self._abrupt_seen = False
        self._window: deque[tuple[float, float]] = deque()
        self._drop_ref = ABRUPT_FRAC * (vstart - VPD_FLOOR)

    def copy(self) -> "EventDetector":
        other = copy.copy(self)
        other.events = list(self.events)
        other._window = deque(self._window)
        return other

    def _frac(self, gap: float) -> float:
        return (gap - self._gmin) / self._span

    def _crossing_time(self, t: float, frac: float, level: float,
                       step: tuple) -> float:
        """Time the gap fraction passed ``level`` since the previous sample,
        bisected on the interpolant of the step ``(t0, h, g0, g1, k1, k3,
        k4, k5, k6, k7)`` that holds both samples."""
        t_prev, f_prev = self._prev
        t0, h = step[0], step[1]
        rising = frac > f_prev
        lo, hi = (t_prev - t0) / h, (t - t0) / h
        for _ in range(_CROSSING_HALVINGS):
            mid = 0.5 * (lo + hi)
            f_mid = self._frac(dense(mid, h, *step[2:]))
            if (f_mid >= level) if rising else (f_mid <= level):
                hi = mid
            else:
                lo = mid
        return t0 + hi * h

    def update(self, t: float, vpd: float, gap: float,
               step: Optional[tuple] = None) -> None:
        """Feed the sample ``(t, vpd, gap)``.  After the first sample of a
        hybrid pixel, ``step`` is the accepted step holding this sample and
        the previous one, as ``_crossing_time`` takes it."""
        if self._hybrid:
            frac = self._frac(gap)
            if self._prev is None:
                # The initial state is a starting point, not a crossing.
                self._prev = (t, frac)
                self._min_frac = self._max_frac = frac
                self._window.append((t, vpd))
                return
            prev_min = self._min_frac
            prev_max = self._max_frac
            self._min_frac = min(self._min_frac, frac)
            self._max_frac = max(self._max_frac, frac)
            if frac >= GAP_HI_FRAC and not self._crossed_hi and prev_max < GAP_HI_FRAC:
                self._crossed_hi = True
                if prev_min < GAP_LO_FRAC:
                    kind = EventKind.SET_TO_RESET
                else:
                    kind = EventKind.SOFT_TO_HARD_RESET
                self.events.append(Event(
                    kind, self._crossing_time(t, frac, GAP_HI_FRAC, step),
                    f"gap={gap:.4f}nm"))
            if frac <= GAP_LO_FRAC and not self._crossed_lo and prev_min > GAP_LO_FRAC:
                if prev_max > GAP_HI_FRAC:
                    self._crossed_lo = True
                    self.events.append(Event(
                        EventKind.RESET_TO_SET,
                        self._crossing_time(t, frac, GAP_LO_FRAC, step),
                        f"gap={gap:.4f}nm"))
            self._prev = (t, frac)
        # Abrupt-fall check over a sliding time window.
        if not self._abrupt_seen:
            w = self._window
            w.append((t, vpd))
            # A sample exactly one window back stays: grid points one window
            # apart differ by a rounding error from ``ABRUPT_WINDOW``.
            t_out = t - ABRUPT_WINDOW - 1e-18 * max(1.0, t)
            while w and w[0][0] < t_out:
                w.popleft()
            vmax = max(v for _, v in w)
            if vmax - vpd > self._drop_ref:
                self._abrupt_seen = True
                self.events.append(Event(
                    EventKind.ABRUPT_FALL, t,
                    f"fell {vmax - vpd:.3f}V within {ABRUPT_WINDOW * 1e9:.0f}ns"))
