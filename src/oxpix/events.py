"""Events of a transient, and ``detect``, which finds them in its states.

Discrete happenings are recorded as events: filament switching transitions
(threshold crossings of the gap across fractions of its span, stamped where
the step's interpolant crosses the threshold), abrupt VPD falls (a drop of
half the available swing within a sliding window), full well saturation
and the ground clamp.  ``detect`` finds the first two in the ``(t, vpd,
i_ox, gap)`` states of a finished transient, on the interpolants of the
accepted steps between them; the stepper records the last two itself.

The interpolant is the DOPRI5 continuous extension (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.6): order 4, built from a step's own seven
stages; the trace's samples inside steps lie on it too.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass

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


def vpd_at(step: tuple, t: float) -> float:
    """VPD at ``t`` on an accepted step record of ``solver._Run``: the
    continuous extension of its Lawson frame ``w``, ``t0`` to ``t0 + h``."""
    t0, h, lam, v_star = step[0], step[1], step[10], step[11]
    theta = (t - t0) / h
    return v_star + math.exp(lam * theta * h) * dense(theta, h, *step[12:20])


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


def _crossing_time(states: list[tuple], frac: list[float], i: int,
                   level: float, steps: list[tuple], gap_min: float,
                   span: float) -> float:
    """Time the gap fraction passed ``level`` between states ``i - 1`` and
    ``i``, bisected on the gap interpolant ``(t0, h, g0, g1, k1, k3..k7)``
    that opens the record of the accepted step holding state ``i``."""
    t_prev, t_i = states[i - 1][0], states[i][0]
    step = steps[bisect.bisect_left(steps, t_i, key=lambda s: s[0]) - 1]
    t0, h = step[0], step[1]
    rising = frac[i] > frac[i - 1]
    lo, hi = (t_prev - t0) / h, (t_i - t0) / h
    for _ in range(_CROSSING_HALVINGS):
        mid = 0.5 * (lo + hi)
        f_mid = (dense(mid, h, *step[2:10]) - gap_min) / span
        if (f_mid >= level) if rising else (f_mid <= level):
            hi = mid
        else:
            lo = mid
    return t0 + hi * h


def summarize(states: list[tuple], events: list[Event]) -> tuple:
    """What ``detect`` needs of ``states`` with their ``events`` to scan only
    the states after them: the events, the largest VPD, the smallest and
    largest gap and the states within two ``ABRUPT_WINDOW`` of the last."""
    gaps = [s[3] for s in states]
    t_out = states[-1][0] - 2.0 * ABRUPT_WINDOW
    return (tuple(events), max(s[1] for s in states), min(gaps), max(gaps),
            states[bisect.bisect_left(states, t_out, key=lambda s: s[0]):])


def detect(states: list[tuple], steps: list[tuple], config: PixelConfig,
           vstart: float, prefix: tuple | None = None) -> list[Event]:
    """The switching and abrupt-fall events of a transient's states ``(t,
    vpd, i_ox, gap)``, in time order from state 0, with ``steps`` the
    accepted steps' records between them (``solver._Run``).  ``prefix``, a
    ``summarize`` of the states before these (the shared reset phase),
    stands for them: the events come out as from a scan of all the states.

    The gap reaches 90 % of its span at its first state after state 0, a
    SetToReset if an earlier state lay below 10 %, else a SoftToHardReset;
    it falls to 10 % at its first state after state 0, a ResetToSet if an
    earlier state lay above 90 %.  Each is stamped at its crossing time, or
    is the prefix's event if the prefix reached the level.  An abrupt fall
    is the first state that lies more than ``ABRUPT_FRAC`` of the swing
    above the floor below the largest VPD of the window ``ABRUPT_WINDOW``
    back: of its states and of the interpolant at its start, so a fall
    within one long step is seen; a fall in the prefix is the prefix's.
    """
    known, top, gap_lo, gap_hi, tail = prefix or (
        (), -math.inf, math.inf, -math.inf, [])
    n = len(tail)
    states = tail + states
    events = []
    if config.is_hybrid():
        p = config.oxram
        gap_min, span = p.gap_min, p.gap_max - p.gap_min
        frac = [(s[3] - gap_min) / span for s in states]
        lo, hi = (gap_lo - gap_min) / span, (gap_hi - gap_min) / span

        def crossing(kind: EventKind, i: int, level: float) -> Event:
            return Event(kind, _crossing_time(states, frac, i, level, steps,
                                              gap_min, span),
                         f"gap={states[i][3]:.4f}nm")
        if hi >= GAP_HI_FRAC:
            events += [e for e in known if e.kind in (
                EventKind.SET_TO_RESET, EventKind.SOFT_TO_HARD_RESET)]
        elif i := next((i for i, f in enumerate(frac) if f >= GAP_HI_FRAC),
                       0):
            kind = EventKind.SET_TO_RESET if min(lo, *frac[:i]) < GAP_LO_FRAC \
                else EventKind.SOFT_TO_HARD_RESET
            events.append(crossing(kind, i, GAP_HI_FRAC))
        if lo <= GAP_LO_FRAC:
            events += [e for e in known if e.kind is EventKind.RESET_TO_SET]
        elif (i := next((i for i, f in enumerate(frac) if f <= GAP_LO_FRAC),
                        0)) and max(hi, *frac[:i]) > GAP_HI_FRAC:
            events.append(crossing(EventKind.RESET_TO_SET, i, GAP_LO_FRAC))
    if any(e.kind is EventKind.ABRUPT_FALL for e in known):
        return events + [known[-1]]  # a fall is found last
    drop = ABRUPT_FRAC * (vstart - VPD_FLOOR)
    for i, (t_i, v_i, _, _) in enumerate(states[n:], n):
        top = max(top, v_i)  # the running maximum of VPD
        # Only a state that far below the running maximum can qualify.
        if not top - v_i > drop:
            continue
        # A state exactly one window back stays: grid points one window
        # apart differ by a rounding error from ``ABRUPT_WINDOW``.
        t_out = t_i - ABRUPT_WINDOW - 1e-18 * max(1.0, t_i)
        first = bisect.bisect_left(states, t_out, key=lambda s: s[0])
        vmax = max(s[1] for s in states[first:i + 1])
        t_start = t_i - ABRUPT_WINDOW
        k = bisect.bisect_right(steps, t_start, key=lambda s: s[0]) - 1
        if k >= 0 and t_start <= steps[k][0] + steps[k][20]:
            vmax = max(vmax, vpd_at(steps[k], t_start))
        if vmax - v_i > drop:
            events.append(Event(
                EventKind.ABRUPT_FALL, t_i,
                f"fell {vmax - v_i:.3f}V within {ABRUPT_WINDOW * 1e9:.0f}ns"))
            break
    return events
