"""Adaptive transient integration of the two-state pixel ODE.

State vector is (VPD [V], gap [nm]).  An embedded Dormand-Prince 5(4)
pair supplies the local error estimate; rejected steps are shrunk down to
``min_step`` before raising a stiffness diagnostic.  The pair is
first-same-as-last (FSAL): its seventh stage is evaluated at the end point
of the step, so it gives the recorded branch current and seeds the first
stage of the next step, and a step costs six right-hand-side evaluations.

The right-hand side of a schedule segment is one closure,
``pixel.segment_kernel``, built when the segment is entered: between two
boundaries of the schedule below nothing but the state changes, so every
stage of every step in the segment calls the same kernel with ``(VPD,
gap)`` alone.  The six stages and the fifth-order and error sums are written
out over the tableau.  The kernel clamps the gap itself, so stage inputs go
in unclipped; an accepted state is clipped to the gap bounds.

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

The reset phase is shared.  Up to the reset release the node is pinned and
no evaluation sees the stimulus, so every exposure of one configuration
steps through the same reset phase.  It is integrated once, up to but not
including the boundary refresh at ``trst``, and kept in a one-entry memo
keyed by the frozen ``(PixelConfig, SolverOptions)`` pair; the options
belong to the key because they shape every step and, through
``reset_noise``/``noise_seed``, the start voltage.  One entry suffices: a
sweep runs one configuration at a time, and its dark point fills the entry
before any pool worker forks.  Every transient continues from a copy of the
entry, and its stats include the reset-phase work, so a trace is the same
whether the entry was cold or warm.
"""

from __future__ import annotations

import bisect
import copy
import enum
import functools
import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .devices import ELEMENTARY_CHARGE
from .errors import InvalidInputError, SolverError
# ``assemble_derivative`` is not called here; perfbench/tracer.py looks it
# up by this module's name.
from .pixel import PixelConfig, Stimulus, assemble_derivative, segment_kernel

# Dormand-Prince 5(4) tableau.
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
# The same coefficients one name each, for the written-out stages.
((A21,), (A31, A32), (A41, A42, A43), (A51, A52, A53, A54),
 (A61, A62, A63, A64, A65), (A71, A72, A73, A74, A75, A76)) = _A[1:]
B1, B2, B3, B4, B5, B6, B7 = _B5
E1, E2, E3, E4, E5, E6, E7 = _E

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
    cause, right-hand-side evaluations, internal-node solves and their Newton
    evaluations, and the step-size range.
    The shared reset phase counts in every transient that starts from it."""

    accepted: int = 0
    rejected_error: int = 0     # error test failed or a stage overflowed
    rejected_floor: int = 0     # shrunk onto the VPD floor
    rejected_knee: int = 0      # shrunk onto the selector knee
    rejected_current: int = 0   # branch current changed by more than 15 %
    rhs_evals: int = 0
    kcl_solves: int = 0         # internal-node solves (hybrid pixels)
    newton_evals: int = 0       # device-kernel evaluations of the KCL solves
    h_min: float = math.inf     # smallest accepted step [s]
    h_max: float = 0.0          # largest accepted step [s]


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

    def copy(self) -> "EventDetector":
        other = copy.copy(self)
        other.events = list(self.events)
        other._window = deque(self._window)
        return other

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


def _schedule(config: PixelConfig, t_fwc: Optional[float]) -> list[float]:
    """Phase boundaries the stepper must land on exactly: reset release,
    gate-waveform switch times, full-well time, end of exposure."""
    t_end = config.t_end
    boundaries = {config.pd.trst, t_end}
    if t_fwc is not None:
        boundaries.add(t_fwc)
    if config.is_hybrid():
        for t0, t1, _ in config.vg_waveform.segments:
            for edge in (t0, t1):
                if 0.0 < edge < t_end:
                    boundaries.add(edge)
    return sorted(boundaries)


@dataclass(frozen=True)
class _ResetPhase:
    """Integration state at the reset release, before the first evaluation
    that sees the stimulus.  Shared by every exposure of one (config,
    options) pair and never mutated: ``_Run`` copies it."""

    v0: float
    t: float
    v: float
    g: float
    h: float
    est_err_v: float
    floored: bool
    stats: SolverStats
    detector: EventDetector
    ts: tuple[float, ...]
    vs: tuple[float, ...]
    gs: tuple[float, ...]
    cur: tuple[float, ...]
    op_hint: tuple


class _Run:
    """One transient in progress: the last accepted point, the next step
    size, the first stage of the next step, the samples so far, the event
    detector, the op-hint record of the internal-node solve, the right-hand
    side of the running schedule segment and the stats."""

    def __init__(self, config: PixelConfig, opt: SolverOptions,
                 stimulus: Stimulus, t_fwc: Optional[float],
                 start: _ResetPhase):
        self.config = config
        self.opt = opt
        self.stimulus = stimulus
        self.t_fwc = t_fwc
        self.photo_active = True
        self.v0 = start.v0
        self.t = start.t
        self.v = start.v
        self.g = start.g
        self.h = start.h
        self.est_err_v = start.est_err_v
        self.floored = start.floored
        self.stats = replace(start.stats)
        self.detector = start.detector.copy()
        self.ts = list(start.ts)
        self.vs = list(start.vs)
        self.gs = list(start.gs)
        self.cur = list(start.cur)
        self.op_hint = list(start.op_hint)
        self.k1 = (0.0, 0.0, 0.0)
        self.m1 = 0.0
        self.kernel = None
        self.vg = 0.0
        # Clamp tolerance: relative to the reset level; below this the node
        # is dead and the integration error estimate is pure cancellation
        # noise.  The knee landing uses the same tolerance on the selector
        # margin.
        self.floor_tol = max(opt.abs_tol_v, opt.rel_tol * abs(self.v0))

    def freeze(self) -> _ResetPhase:
        return _ResetPhase(
            v0=self.v0, t=self.t, v=self.v, g=self.g, h=self.h,
            est_err_v=self.est_err_v, floored=self.floored,
            stats=replace(self.stats), detector=self.detector.copy(),
            ts=tuple(self.ts), vs=tuple(self.vs), gs=tuple(self.gs),
            cur=tuple(self.cur), op_hint=tuple(self.op_hint))

    def _segment(self, t: float) -> None:
        """Bind the right-hand side of the schedule segment starting at
        ``t`` and evaluate the segment's first stage."""
        config = self.config
        self.kernel = segment_kernel(config, self.stimulus, t,
                                     self.photo_active, self.op_hint)
        if config.is_hybrid():
            self.vg = config.vg_waveform.level_at(t)
        self.stats.rhs_evals += 1
        self.k1 = self.kernel(self.v, self.g)
        self.m1 = self._knee_margin()

    def _knee_margin(self) -> float:
        # Selector vds - vov at the last internal-node solve: >= 0 in
        # saturation, < 0 in triode.  The vs terms cancel.
        if not self.config.is_hybrid():
            return 1.0
        return self.op_hint[0] - self.vg + self.config.selector.vth

    def _sample(self, t: float, v: float, g: float, i: float) -> None:
        self.ts.append(t)
        self.vs.append(v)
        self.gs.append(g)
        self.cur.append(i)

    def begin(self) -> None:
        """First stage and first sample at t = 0."""
        self._segment(0.0)
        self._sample(0.0, self.v, self.g, self.k1[2])
        self.detector.update(0.0, self.v, self.g)

    def enter(self, t: float) -> None:
        """Start the schedule segment at boundary ``t``.

        The drive may step at a boundary, so the next step starts from a
        fresh first stage.  Its branch current is recorded one ulp later, so
        the trapezoidal trace integral sees both sides of the jump.
        """
        self.t = t
        if self.t_fwc is not None and self.photo_active and math.isclose(
                t, self.t_fwc, rel_tol=0.0, abs_tol=1e-18):
            self.photo_active = False
            self.detector.events.append(Event(
                EventKind.FWC_SATURATION, t,
                f"well full after {self.config.pd.fwc_electrons:.0f} e-"))
        self._segment(t)
        self._sample(math.nextafter(t, math.inf), self.v, self.g, self.k1[2])

    def step_to(self, boundary: float) -> None:
        """Take accepted steps until ``boundary`` or the VPD floor.

        Every stage of a step lies inside the running schedule segment, so
        they all evaluate the segment's kernel.  The stages and the
        fifth-order and error sums are written out over the tableau, in the
        order of a left-to-right sum of ``h * a_ij * k_j`` terms.
        """
        config = self.config
        opt = self.opt
        trst = config.pd.trst
        hybrid = config.is_hybrid()
        if hybrid:
            gap_min, gap_max = config.oxram.gap_min, config.oxram.gap_max
        stats = self.stats
        detector = self.detector
        rhs = self.kernel
        knee_margin = self._knee_margin
        floor_tol = self.floor_tol
        t, v, g, h = self.t, self.v, self.g, self.h
        (k1v, k1g, k1i), m1 = self.k1, self.m1
        while t < boundary - 1e-18 * max(1.0, boundary):
            if self.floored:
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
                # ``stage`` names the stage in evaluation, so an attempt that
                # fails counts the right-hand sides it evaluated.
                stage = 2
                try:
                    k2v, k2g, _ = rhs(v + h * A21 * k1v, g + h * A21 * k1g)
                    stage = 3
                    k3v, k3g, _ = rhs(v + h * A31 * k1v + h * A32 * k2v,
                                      g + h * A31 * k1g + h * A32 * k2g)
                    stage = 4
                    k4v, k4g, _ = rhs(
                        v + h * A41 * k1v + h * A42 * k2v + h * A43 * k3v,
                        g + h * A41 * k1g + h * A42 * k2g + h * A43 * k3g)
                    stage = 5
                    k5v, k5g, _ = rhs(
                        v + h * A51 * k1v + h * A52 * k2v + h * A53 * k3v
                        + h * A54 * k4v,
                        g + h * A51 * k1g + h * A52 * k2g + h * A53 * k3g
                        + h * A54 * k4g)
                    stage = 6
                    k6v, k6g, _ = rhs(
                        v + h * A61 * k1v + h * A62 * k2v + h * A63 * k3v
                        + h * A64 * k4v + h * A65 * k5v,
                        g + h * A61 * k1g + h * A62 * k2g + h * A63 * k3g
                        + h * A64 * k4g + h * A65 * k5g)
                    stage = 7
                    k7v, k7g, k7i = rhs(
                        v + h * A71 * k1v + h * A72 * k2v + h * A73 * k3v
                        + h * A74 * k4v + h * A75 * k5v + h * A76 * k6v,
                        g + h * A71 * k1g + h * A72 * k2g + h * A73 * k3g
                        + h * A74 * k4g + h * A75 * k5g + h * A76 * k6g)
                except (OverflowError, ValueError):
                    stats.rhs_evals += stage - 1
                    stats.rejected_error += 1
                    h *= 0.25
                    continue
                stats.rhs_evals += 6
                m7 = knee_margin()
                v_new = v + h * B1 * k1v + h * B2 * k2v + h * B3 * k3v \
                    + h * B4 * k4v + h * B5 * k5v + h * B6 * k6v + h * B7 * k7v
                g_new = g + h * B1 * k1g + h * B2 * k2g + h * B3 * k3g \
                    + h * B4 * k4g + h * B5 * k5g + h * B6 * k6g + h * B7 * k7g
                err_v = h * E1 * k1v + h * E2 * k2v + h * E3 * k3v \
                    + h * E4 * k4v + h * E5 * k5v + h * E6 * k6v + h * E7 * k7v
                err_g = h * E1 * k1g + h * E2 * k2g + h * E3 * k3g \
                    + h * E4 * k4g + h * E5 * k5g + h * E6 * k6g + h * E7 * k7g
                if not (math.isfinite(v_new) and math.isfinite(g_new)):
                    raise SolverError(
                        f"non-finite state at t={t:.6e}s",
                        detail={"t": t, "vpd": v, "gap": g})
                tol_v = opt.abs_tol_v + opt.rel_tol * max(abs(v), abs(v_new))
                tol_g = opt.abs_tol_gap + opt.rel_tol * max(abs(g), abs(g_new))
                # A step that runs the gap into one of its bounds lands there
                # exactly via the clip; the gap error estimate is then
                # polluted by the clamp kink and is ignored.
                hits_bound = hybrid and (g_new <= gap_min or g_new >= gap_max)
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
                if (t + h > trst and v_new < opt.vpd_floor - floor_tol
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
                i_end = k7i
                i_scale = max(abs(i_end), abs(k1i))
                load = 0.0
                if i_scale > 1e-12 and h > 4.0 * opt.min_step:
                    load = abs(i_end - k1i) / (0.15 * i_scale)
                if load > 1.0:
                    stats.rejected_current += 1
                    h = max(h * 0.9 / load, opt.min_step)
                    continue
                break

            stats.accepted += 1
            stats.h_min = min(stats.h_min, h)
            stats.h_max = max(stats.h_max, h)
            t += h
            v = max(v_new, opt.vpd_floor) if t > trst else v_new
            g = min(max(g_new, gap_min), gap_max) if hybrid else g_new
            self.est_err_v += abs(err_v)
            k1v, k1g, k1i = k7v, k7g, k7i
            m1 = m7

            if t > trst and v <= opt.vpd_floor + floor_tol:
                v = opt.vpd_floor
                self.floored = True
                detector.events.append(Event(
                    EventKind.VPD_FLOOR_CLAMP, t, f"vpd clamped at {v:.3f}V"))
                i_end = 0.0

            self._sample(t, v, g, i_end)
            detector.update(t, v, g)

            h_next = h * min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0.0 \
                else h * 5.0
            if load > 0.6:
                # Predict the current change as linear in h.
                h_next = min(h_next, h * 0.9 / load)
            if knee:
                h_next = min(h_next, _KNEE_RESTART)
            h = h_next
        self.t, self.v, self.g, self.h = t, v, g, h
        self.k1, self.m1 = (k1v, k1g, k1i), m1

    def run(self, boundaries: list[float], first: int, stop: int) -> None:
        """Segments ``first`` .. ``stop - 1`` of the schedule; segment ``k``
        ends at ``boundaries[k]`` and starts at the boundary before it."""
        for k in range(first, stop):
            if self.floored:
                break
            if k > 0:
                self.enter(boundaries[k - 1])
            self.step_to(boundaries[k])


@functools.lru_cache(maxsize=1)
def _reset_phase(config: PixelConfig, opt: SolverOptions) -> _ResetPhase:
    """Integrate every schedule segment that ends at or before the reset
    release.  The node is pinned there, so nothing depends on the stimulus;
    the boundary refresh at ``trst``, the first evaluation that sees it,
    belongs to the exposure phase."""
    v0 = config.pd.vrst
    if opt.reset_noise:
        rng = np.random.default_rng(opt.noise_seed)
        v0 += float(rng.normal(0.0, config.pd.reset_noise_sigma))
    gap0 = config.oxram_init.gap_x if config.is_hybrid() else 0.0
    empty = _ResetPhase(
        v0=v0, t=0.0, v=v0, g=gap0, h=opt.max_step, est_err_v=0.0,
        floored=False, stats=SolverStats(),
        detector=EventDetector(config, opt, v0), ts=(), vs=(), gs=(), cur=(),
        op_hint=(None, 0.0, 0.0, 0, 0))
    run = _Run(config, opt, Stimulus(0.0), None, empty)
    run.begin()
    boundaries = _schedule(config, None)
    run.run(boundaries, 0, bisect.bisect_right(boundaries, config.pd.trst))
    return run.freeze()


def integrate(config: PixelConfig, stimulus: Stimulus,
              options: Optional[SolverOptions] = None) -> TransientTrace:
    """Simulate one exposure: reset phase then integration phase.

    The trace covers [0, trst + texp].  Raises SolverError on step
    underflow (stiffness) or a non-finite state (divergence).
    """
    opt = options or SolverOptions()
    pd = config.pd
    t_end = pd.trst + pd.texp

    t_fwc = None
    if stimulus.i_exp > 0.0:
        t_candidate = pd.trst + pd.fwc_electrons * ELEMENTARY_CHARGE / stimulus.i_exp
        if t_candidate < t_end:
            t_fwc = t_candidate
    boundaries = _schedule(config, t_fwc)

    run = _Run(config, opt, stimulus, t_fwc, _reset_phase(config, opt))
    run.run(boundaries, bisect.bisect_right(boundaries, pd.trst),
            len(boundaries))

    ts, vs, gs, cur = run.ts, run.vs, run.gs, run.cur
    if run.floored and ts[-1] < t_end:
        run._sample(t_end, run.v, run.g, 0.0)

    stats = run.stats
    stats.newton_evals = run.op_hint[3]
    stats.kcl_solves = run.op_hint[4]
    events = sorted(run.detector.events, key=lambda e: e.t_event)
    trace = TransientTrace(
        t=np.asarray(ts), vpd=np.asarray(vs), i_ox=np.asarray(cur),
        gap=np.asarray(gs), events=events, final_vpd=run.v, final_gap=run.g,
        est_error_v=run.est_err_v, i_exp=stimulus.i_exp, trst=pd.trst,
        vstart=run.v0, stats=stats)
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
