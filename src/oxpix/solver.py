"""Adaptive transient integration of the two-state pixel ODE.

State vector is (VPD [V], gap [nm]).  An embedded Dormand-Prince 5(4)
pair supplies the local error estimate; rejected steps are shrunk down to
``min_step`` before raising a stiffness diagnostic.  The pair is
first-same-as-last (FSAL): its seventh stage is evaluated at the end point
of the step, so it gives the recorded branch current and seeds the first
stage of the next step, and a step costs six right-hand-side evaluations.

The error estimate is only honest where the right-hand side is smooth, so
no step straddles a kink:

- the schedule is cut at phase boundaries (reset release, gate-waveform
  switch times, full-well time, end);
- a step that crosses the VPD floor is shrunk onto it;
- a step that crosses the selector's saturation/triode knee, where the
  branch current turns from flat to steep within about a millivolt, is
  shrunk onto it by the same secant rule on the margin ``vds - vov`` of
  the internal-node solve, and the next step restarts small.

The branch current may change by at most 15 % per step, which keeps the
recorded trace dense enough for its trapezoidal charge integral; the next
step is sized from the share of that allowance the last one used.  The
default step cap of 100 ns equals ``abrupt_window``, so the abrupt-fall
window always still holds the previous sample.

Discrete happenings are recorded as events: filament switching transitions
(threshold crossings of the gap across fractions of its span, stamped at the
crossing time interpolated between samples), abrupt VPD falls (a drop of
half the available swing inside a sliding window), full well saturation and
the ground clamp.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .devices import ELEMENTARY_CHARGE
from .errors import InvalidInputError, SolverError
from .pixel import PixelConfig, Stimulus, assemble_derivative

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))

# Step size the stepper restarts from after crossing the selector knee.
_KNEE_RESTART = 1e-9  # s


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


@dataclass(frozen=True)
class SolverOptions:
    rel_tol: float = 1e-6
    abs_tol_v: float = 1e-9        # V
    abs_tol_gap: float = 1e-6      # nm
    max_step: float = 1e-7         # s; equals abrupt_window
    min_step: float = 1e-12        # s
    max_trace_points: int = 400_000
    # Event thresholds; fractions of the gap span / available swing.
    gap_lo_frac: float = 0.10
    gap_hi_frac: float = 0.90
    abrupt_window: float = 100e-9  # s
    abrupt_frac: float = 0.50
    vpd_floor: float = 0.0         # V
    reset_noise: bool = False
    noise_seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.min_step <= self.max_step):
            raise InvalidInputError("require 0 < min_step <= max_step")
        for name in ("rel_tol", "abs_tol_v", "abs_tol_gap"):
            if getattr(self, name) <= 0.0:
                raise InvalidInputError(f"{name} must be > 0")
        if self.max_trace_points < 1:
            raise InvalidInputError("max_trace_points must be >= 1")


@dataclass
class SolverStats:
    """Work done by one transient: accepted steps, rejected attempts by
    cause, and right-hand-side evaluations."""

    accepted: int = 0
    rejected_error: int = 0     # error test failed or a stage overflowed
    rejected_floor: int = 0     # shrunk onto the VPD floor
    rejected_knee: int = 0      # shrunk onto the selector knee
    rejected_current: int = 0   # branch current changed by more than 15 %
    rhs_evals: int = 0


@dataclass
class TransientTrace:
    t: np.ndarray
    vpd: np.ndarray
    i_ox: np.ndarray
    gap: np.ndarray
    events: list[Event]
    final_vpd: float
    final_gap: float
    est_error_v: float = 0.0   # accumulated |local error estimate| on VPD
    i_exp: float = 0.0
    trst: float = 0.0
    vstart: float = 0.0
    stats: SolverStats = field(default_factory=SolverStats)

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]


class EventDetector:
    """Incremental detector fed one accepted sample at a time."""

    def __init__(self, config: PixelConfig, options: SolverOptions, vstart: float):
        self.options = options
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
        self._drop_ref = options.abrupt_frac * (vstart - options.vpd_floor)

    def _frac(self, gap: float) -> float:
        return (gap - self._gmin) / self._span

    def _crossing_time(self, t: float, frac: float, level: float) -> float:
        """Time the gap fraction passed ``level``, interpolated linearly
        between the previous sample and this one."""
        t0, f0 = self._prev
        return t0 + (t - t0) * (level - f0) / (frac - f0)

    def update(self, t: float, vpd: float, gap: float) -> None:
        opt = self.options
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
            if frac >= opt.gap_hi_frac and not self._crossed_hi and prev_max < opt.gap_hi_frac:
                self._crossed_hi = True
                if prev_min < opt.gap_lo_frac:
                    kind = EventKind.SET_TO_RESET
                else:
                    kind = EventKind.SOFT_TO_HARD_RESET
                self.events.append(Event(
                    kind, self._crossing_time(t, frac, opt.gap_hi_frac),
                    f"gap={gap:.4f}nm"))
            if frac <= opt.gap_lo_frac and not self._crossed_lo and prev_min > opt.gap_lo_frac:
                if prev_max > opt.gap_hi_frac:
                    self._crossed_lo = True
                    self.events.append(Event(
                        EventKind.RESET_TO_SET,
                        self._crossing_time(t, frac, opt.gap_lo_frac),
                        f"gap={gap:.4f}nm"))
            self._prev = (t, frac)
        # Abrupt-fall check over a sliding time window.
        if not self._abrupt_seen:
            w = self._window
            w.append((t, vpd))
            while w and w[0][0] < t - opt.abrupt_window:
                w.popleft()
            vmax = max(v for _, v in w)
            if vmax - vpd > self._drop_ref:
                self._abrupt_seen = True
                self.events.append(Event(
                    EventKind.ABRUPT_FALL, t,
                    f"fell {vmax - vpd:.3f}V within {opt.abrupt_window * 1e9:.0f}ns"))


def _clip_gap(gap: float, config: PixelConfig) -> float:
    if not config.is_hybrid():
        return gap
    p = config.oxram
    return min(max(gap, p.gap_min), p.gap_max)


def integrate(config: PixelConfig, stimulus: Stimulus,
              options: Optional[SolverOptions] = None) -> TransientTrace:
    """Simulate one exposure: reset phase then integration phase.

    The trace covers [0, trst + texp].  Raises SolverError on step
    underflow (stiffness) or a non-finite state (divergence).
    """
    opt = options or SolverOptions()
    pd = config.pd

    v0 = pd.vrst
    if opt.reset_noise:
        rng = np.random.default_rng(opt.noise_seed)
        v0 += float(rng.normal(0.0, pd.reset_noise_sigma))

    gap0 = config.oxram_init.gap_x if config.is_hybrid() else 0.0
    t_end = pd.trst + pd.texp

    # Phase boundaries the stepper must land on exactly: reset release,
    # gate-waveform switch times, full-well time, end of exposure.
    boundaries = {pd.trst, t_end}
    q_fwc = pd.fwc_electrons * ELEMENTARY_CHARGE
    t_fwc = None
    if stimulus.i_exp > 0.0:
        t_candidate = pd.trst + q_fwc / stimulus.i_exp
        if t_candidate < t_end:
            t_fwc = t_candidate
            boundaries.add(t_fwc)
    if config.is_hybrid():
        for t0, t1, _ in config.vg_waveform.segments:
            for edge in (t0, t1):
                if 0.0 < edge < t_end:
                    boundaries.add(edge)
    boundaries = sorted(boundaries)

    detector = EventDetector(config, opt, v0)
    stats = SolverStats()
    hybrid = config.is_hybrid()
    vth = config.selector.vth
    photo_active = True
    op_hint = [None]

    def rhs(tq: float, vq: float, gq: float) -> tuple[float, float, float]:
        stats.rhs_evals += 1
        return assemble_derivative(vq, gq, tq, config, stimulus, photo_active,
                                   op_hint)

    def knee_margin(tq: float) -> float:
        # Selector vds - vov at the last internal-node solve: >= 0 in
        # saturation, < 0 in triode.  The vs terms cancel.
        if not hybrid:
            return 1.0
        return op_hint[0] - config.vg_waveform.level_at(tq) + vth

    # First stage of the next step: (dv, dg, i) at (t, v, g) and the knee
    # margin there.  Refreshed at every phase boundary, otherwise taken
    # from the last stage of the accepted step (FSAL).
    k1 = rhs(0.0, v0, gap0)
    m1 = knee_margin(0.0)
    ts = [0.0]
    vs = [v0]
    gs = [gap0]
    cur = [k1[2]]
    detector.update(0.0, v0, gap0)

    t = 0.0
    v = v0
    g = gap0
    h = opt.max_step
    est_err_v = 0.0
    floored = False
    # Clamp tolerance: relative to the reset level; below this the node is
    # dead and the integration error estimate is pure cancellation noise.
    # The knee landing uses the same tolerance on the selector margin.
    floor_tol = max(opt.abs_tol_v, opt.rel_tol * abs(v0))

    for boundary in boundaries:
        if floored:
            break
        # Right-hand sides are discontinuous across segment boundaries;
        # stages must sample strictly inside the running segment.
        t_inside = math.nextafter(boundary, 0.0)
        while t < boundary - 1e-18 * max(1.0, boundary):
            if floored:
                break
            remaining = boundary - t
            h = min(max(h, opt.min_step), remaining, opt.max_step)
            attempts = 0
            while True:
                attempts += 1
                if attempts > 120:
                    raise SolverError(
                        "required step underflow: stiffness at "
                        f"t={t:.6e}s", detail={"t": t, "vpd": v, "gap": g,
                                               "h": h})
                k = [k1]
                try:
                    for i in range(1, 7):
                        tv = min(t + _C[i] * h, t_inside)
                        va = v
                        ga = g
                        for j, aij in enumerate(_A[i]):
                            va += h * aij * k[j][0]
                            ga += h * aij * k[j][1]
                        k.append(rhs(tv, va, _clip_gap(ga, config)))
                except (OverflowError, ValueError):
                    stats.rejected_error += 1
                    h *= 0.25
                    continue
                m7 = knee_margin(tv)
                v_new = v
                g_new = g
                err_v = 0.0
                err_g = 0.0
                for i in range(7):
                    v_new += h * _B5[i] * k[i][0]
                    g_new += h * _B5[i] * k[i][1]
                    err_v += h * _E[i] * k[i][0]
                    err_g += h * _E[i] * k[i][1]
                if not (math.isfinite(v_new) and math.isfinite(g_new)):
                    raise SolverError(
                        f"non-finite state at t={t:.6e}s",
                        detail={"t": t, "vpd": v, "gap": g})
                tol_v = opt.abs_tol_v + opt.rel_tol * max(abs(v), abs(v_new))
                tol_g = opt.abs_tol_gap + opt.rel_tol * max(abs(g), abs(g_new))
                # A step that runs the gap into one of its bounds lands there
                # exactly via the clip; the gap error estimate is then
                # polluted by the clamp kink and is ignored.
                hits_bound = hybrid and (
                    g_new <= config.oxram.gap_min or g_new >= config.oxram.gap_max)
                if hits_bound:
                    err = abs(err_v) / tol_v
                else:
                    err = math.sqrt(0.5 * ((err_v / tol_v) ** 2
                                           + (err_g / tol_g) ** 2))
                if err > 1.0:
                    if h <= opt.min_step * (1.0 + 1e-9):
                        raise SolverError(
                            "required step underflow: stiffness at "
                            f"t={t:.6e}s", detail={"t": t, "vpd": v,
                                                   "gap": g, "h": h})
                    stats.rejected_error += 1
                    h = max(h * max(0.2, 0.9 * err ** -0.2), opt.min_step)
                    continue
                # Floor crossing: shrink onto vpd = floor and redo the step
                # so the landing point keeps full integration accuracy.
                if (t + h > pd.trst and v_new < opt.vpd_floor - floor_tol
                        and v > opt.vpd_floor + floor_tol
                        and h > 2.0 * opt.min_step):
                    stats.rejected_floor += 1
                    shrink = (v - opt.vpd_floor) / (v - v_new)
                    h = max(h * min(max(shrink, 0.02), 0.98), opt.min_step)
                    continue
                # Knee crossing: the same secant landing on the selector
                # margin, so no step straddles the kink in the branch current.
                knee = (m1 >= 0.0) != (m7 >= 0.0)
                if knee and abs(m7) > floor_tol and h > 2.0 * opt.min_step:
                    stats.rejected_knee += 1
                    shrink = m1 / (m1 - m7)
                    h = max(h * min(max(shrink, 0.02), 0.98), opt.min_step)
                    continue
                # Current-change limiting keeps the recorded trace dense
                # enough that its trapezoidal charge integral converges.
                # ``load`` is the share of the 15 % allowance this step used.
                i_end = k[6][2]
                i_scale = max(abs(i_end), abs(k1[2]))
                load = 0.0
                if i_scale > 1e-12 and h > 4.0 * opt.min_step:
                    load = abs(i_end - k1[2]) / (0.15 * i_scale)
                if load > 1.0:
                    stats.rejected_current += 1
                    h = max(h * 0.9 / load, opt.min_step)
                    continue
                break

            stats.accepted += 1
            t += h
            v = max(v_new, opt.vpd_floor) if t > pd.trst else v_new
            g = _clip_gap(g_new, config)
            est_err_v += abs(err_v)
            k1 = k[6]
            m1 = m7

            if t > pd.trst and v <= opt.vpd_floor + floor_tol and not floored:
                v = opt.vpd_floor
                floored = True
                detector.events.append(Event(
                    EventKind.VPD_FLOOR_CLAMP, t, f"vpd clamped at {v:.3f}V"))
                i_end = 0.0

            ts.append(t)
            vs.append(v)
            gs.append(g)
            cur.append(i_end)
            detector.update(t, v, g)

            h_next = h * min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 \
                else h * 5.0
            if load > 0.6:
                # Predict the current change as linear in h.
                h_next = min(h_next, h * 0.9 / load)
            if knee:
                h_next = min(h_next, _KNEE_RESTART)
            h = h_next

        if floored:
            break
        t = boundary
        if t_fwc is not None and math.isclose(boundary, t_fwc, rel_tol=0.0,
                                              abs_tol=1e-18) and photo_active:
            photo_active = False
            detector.events.append(Event(
                EventKind.FWC_SATURATION, t,
                f"well full after {q_fwc / ELEMENTARY_CHARGE:.0f} e-"))
        # The drive may step at a boundary, so the next step starts from a
        # fresh first stage.  Its branch current is recorded one ulp later,
        # so the trapezoidal trace integral sees both sides of the jump.
        if t < t_end:
            k1 = rhs(t, v, g)
            m1 = knee_margin(t)
            ts.append(math.nextafter(t, math.inf))
            vs.append(v)
            gs.append(g)
            cur.append(k1[2])

    if floored and ts[-1] < t_end:
        ts.append(t_end)
        vs.append(v)
        gs.append(g)
        cur.append(0.0)

    events = sorted(detector.events, key=lambda e: e.t_event)
    trace = TransientTrace(
        t=np.asarray(ts), vpd=np.asarray(vs), i_ox=np.asarray(cur),
        gap=np.asarray(gs), events=events, final_vpd=v, final_gap=g,
        est_error_v=est_err_v, i_exp=stimulus.i_exp, trst=pd.trst,
        vstart=v0, stats=stats)
    if len(ts) > opt.max_trace_points:
        trace = _downsample(trace, opt.max_trace_points)
    return trace


def _downsample(trace: TransientTrace, max_points: int) -> TransientTrace:
    """Keep every k-th sample plus all event-adjacent ones."""
    n = len(trace.t)
    k = max(1, n // max_points + 1)
    keep = np.zeros(n, dtype=bool)
    keep[::k] = True
    keep[0] = keep[-1] = True
    for e in trace.events:
        idx = int(np.searchsorted(trace.t, e.t_event))
        for j in (idx - 1, idx, idx + 1):
            if 0 <= j < n:
                keep[j] = True
    return replace(trace, t=trace.t[keep], vpd=trace.vpd[keep],
                   i_ox=trace.i_ox[keep], gap=trace.gap[keep])


def charge_balance_error(trace: TransientTrace, config: PixelConfig) -> float:
    """Relative mismatch between the node's charge loss and the integrated
    drain over the exposure phase.

    The OxRAM branch charge is the trapezoidal integral of the recorded
    trace; the photocurrent is piecewise constant so its integral is exact,
    cut off at the full-well or floor-clamp event.
    """
    pd = config.pd
    c_total = pd.c_pd + (config.oxram.c_pox if config.is_hybrid() else 0.0)
    t = trace.t
    mask = t >= pd.trst
    tt = t[mask]
    if len(tt) < 2:
        return 0.0
    i_ox = trace.i_ox[mask]
    t_photo_end = tt[-1]
    fwc = trace.events_of(EventKind.FWC_SATURATION)
    if fwc:
        t_photo_end = min(t_photo_end, fwc[0].t_event)
    floor = trace.events_of(EventKind.VPD_FLOOR_CLAMP)
    if floor:
        t_photo_end = min(t_photo_end, floor[0].t_event)
        i_ox = np.where(tt > floor[0].t_event, 0.0, i_ox)
    q_drain = float(np.trapezoid(i_ox, tt)) \
        + trace.i_exp * (t_photo_end - pd.trst)
    v_at_release = float(trace.vpd[mask][0])
    q_node = c_total * (v_at_release - trace.final_vpd)
    scale = max(abs(q_node), abs(q_drain), c_total * 1e-6)
    return abs(q_node - q_drain) / scale
