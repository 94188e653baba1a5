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
out over the tableau, without the terms whose coefficient is zero; the
seventh stage is taken at the fifth-order end point, which is its input.
The kernel clamps the gap itself, so stage inputs go in unclipped; an
accepted state is clipped to the gap bounds.  The step loop is the sweep's
hot path: it writes ``min``, ``max`` and ``abs`` as conditional expressions
with the builtins' exact results, since on CPython 3.11 each builtin call
builds an argument tuple and an attempt made about fifteen, and it keeps the
stats in locals.

The error estimate is only honest where the right-hand side is smooth, so
no step straddles a kink:

- the schedule is cut at phase boundaries (reset release, gate-waveform
  switch times, full-well time, end);
- a step that runs the gap past one of its bounds, where the gap velocity
  drops to zero, is shrunk onto the bound, predicted from the first
  stage's velocity;
- a step that crosses the selector's saturation/triode knee, where the
  branch current turns from flat to steep within about a millivolt, is
  shrunk onto it by the secant rule on the margin ``vds - vov`` of the
  internal-node solve, and the next step restarts at 7 ns at most.  While
  the margin falls toward the knee, the next step is capped at 99.9 % of
  the time the last step predicts to it, so the steps close in on the knee
  from the saturation side; a long step past it would sample deep triode,
  where the internal-node solve starts far from its answer.  A new gate
  level starts that solve from its bracket, not from the last one's node.

The VPD floor (ground) is the stepper's alone: the right-hand side is
continuous through it.  A Lawson step (below) lands at ``floor_tol / 2`` in
closed form; any other step that ends below the floor is cut at its secant
crossing, the gap interpolated there.  A step that ends within
``floor_tol`` of it stops the transient with a ``VpdFloorClamp`` event, and
a last sample holds the state at the end of the schedule.

The first step is a hundredth of the time the first stage takes to move the
state by its own size (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4);
the first step after the reset release follows the same rule where a branch
current flows.  The branch current may change by at most 15 % per step; the
next step is sized from the share of that allowance the last one used.  This
limiter is for accuracy: without it, the worst final VPD of the default case
i sweep lies 2.7e-5 V from a fine reference (``rel_tol=1e-9, max_step=1e-8``),
against 3.9e-8 V with it; past 60 % of it, the growth of the used share per
second shrinks the next step too.  It is waived while the conductance ``G =
i / VPD`` changes by less than 5 % per step (both ends above ground, after
the reset release): the node then discharges as an RC circuit, ``v' = lam (v
- v_star)``, ``lam = -G / C``, ``v_star = -i_photo / G``, and the next step,
sized by the 5 % allowance, is a Lawson step (Hochbruck & Ostermann,
*Exponential integrators*, Acta Numerica 2010) of at most ``_LAWSON_REACH``
time constants, whose VPD stages run on ``w = e^(-lam t) (v - v_star)``,
where the RC part stands still.  Case iii's collapse to the floor is such a
discharge.  ``max_step`` defaults to 10 us, beyond the default exposure, so
on the defaults only the error controller, the limiter and the landings
above size the steps.

The branch charge is a quadrature component of the state, ``q' = i_ox``
(Hairer, Norsett & Wanner, *Solving ODEs I*, II.1): each accepted step adds
the fifth-order sum of its stage currents, and the step cut at the floor the
continuous extension's share up to the cut.  The exposure's total,
``TransientTrace.q_branch``, is what ``charge_balance_error`` checks, so the
balance does not depend on how densely the trace is written.

The recorded trace does not depend on the steps being short.  The stepper
keeps the accepted states (start, step ends, each segment's first sample
and, after a floor clamp, one at the end) and a record per accepted step
with its DOPRI5 continuous extension (*Solving ODEs I*, II.6; order 4, from
the step's own seven stages), for VPD in the Lawson frame.  The first read
of ``TransientTrace.t``, ``vpd``, ``i_ox`` or ``gap`` builds the samples
from them; a sweep, which keeps the final VPD and the events, never does.
Inside a step they are the points of the output grid ``k * spacing``; a
grid point within the stepper's time resolution of a step end is that
step end.  ``spacing`` is the least whole multiple of ``ABRUPT_WINDOW``
that puts at most ``_GRID_POINTS`` grid points before the schedule's end:
``ABRUPT_WINDOW`` itself up to 40 ms, so a long exposure builds only the
rows its trace keeps.  The stats count no sample, so they do not depend on
a read.  Samples are clipped as an accepted state is; their currents come
from the segment's sample kernel, built at its first sample and called in
time order on its own op-hint record, so the stepper's internal-node start
points and work counts are untouched.

Discrete happenings are recorded as events (module ``oxpix.events``).  The
stepper records the full-well and floor events as it meets them;
``events.detect`` finds the switching and abrupt-fall events in the
exposure's ``(t, vpd, i_ox, gap)`` state tuples, on the step records
between them, with the reset phase's samples summarized
(``events.summarize``), so no transient scans them again or builds an array.

The reset phase is shared.  Up to the reset release the node is pinned and
no evaluation sees the stimulus, so every exposure of one configuration
steps through the same reset phase.  It is integrated once, up to but not
including the boundary refresh at ``trst``, and kept in a four-entry memo
keyed by the frozen ``(PixelConfig, SolverOptions)`` pair; the options
belong to the key because they shape every step and, through
``reset_noise``/``noise_seed``, the start voltage.  Four entries hold a
report's four configurations, and the sweeps fill them before they fork,
so each reset phase is integrated, sampled and summarized once per run,
not once per process.  Every transient continues from a copy of the entry,
and its stats include the reset-phase work, so a trace is the same with a
cold or a warm entry.
"""

from __future__ import annotations

import bisect
import functools
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from .devices import ELEMENTARY_CHARGE
from .errors import InvalidInputError, SolverError, require_finite
from .events import (ABRUPT_WINDOW, VPD_FLOOR, Event, EventKind, dense,
                     detect, summarize, vpd_at)
# ``assemble_derivative`` is not called here; perfbench/tracer.py looks it
# up by this module's name.
from .pixel import PixelConfig, Stimulus, assemble_derivative, segment_kernel

# numpy is imported where arrays are built: a warm report never loads it.
if TYPE_CHECKING:
    import numpy as np

# Dormand-Prince 5(4) tableau.  The stage-7 row is ``_B5`` (FSAL).
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
       187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_B5, _B4))
# The same coefficients one name each, for the written-out stages; the
# zero ones have no term there.
((A21,), (A31, A32), (A41, A42, A43), (A51, A52, A53, A54),
 (A61, A62, A63, A64, A65)) = _A[1:]
B1, _, B3, B4, B5, B6, _ = _B5
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9  # stage times 2-5, in steps
E1, _, E3, E4, E5, E6, E7 = _E

# Largest step after crossing the selector knee, and the share of the
# predicted time to the knee a step may take while the selector margin falls
# toward it: nearly all, to close in from the saturation side.  The default
# report's case i exposures take 7,496 right-hand sides, 8,606 at 0.99 and 1
# ns, on a plateau (0.999-0.9999, 6-10 ns: 7,460-7,604); 0.9985 fails the
# error estimate's tolerance test, and 11 ns takes 7,634.
_KNEE_RESTART = 7e-9  # s
_KNEE_AIM = 0.999
# Time constants a Lawson step may span; its dense output errs as (lam h)^5.
_LAWSON_REACH = 2.0
# Largest relative change per step of the branch current, and of the branch
# conductance where an RC discharge waives the current's.
_CURRENT_ALLOWANCE = 0.15
_CONDUCTANCE_ALLOWANCE = 0.05
# Most output-grid points on a schedule; see ``_samples``.
_GRID_POINTS = 400_000


@dataclass(frozen=True)
class SolverOptions:
    """``rel_tol`` is the one accuracy setting: the absolute tolerances
    follow from it, 1 mV and 1 nm per unit.  It is at least the spacing of
    doubles at 1 (``sys.float_info.epsilon``): no double step can be held to
    less, and far smaller values overflow the error norm."""

    rel_tol: float = 1e-6
    max_step: float = 1e-5         # s; beyond the default exposure
    min_step: float = 1e-12        # s
    reset_noise: bool = False
    noise_seed: int = 0

    def __post_init__(self):
        require_finite(self, positive=("rel_tol", "max_step", "min_step"))
        if self.rel_tol < math.ulp(1.0):
            raise InvalidInputError(
                f"rel_tol must be >= {math.ulp(1.0)} (the double precision "
                f"epsilon), got {self.rel_tol}")
        if not self.min_step <= self.max_step:
            raise InvalidInputError("require min_step <= max_step")
        if self.noise_seed < 0:
            raise InvalidInputError("noise_seed must be >= 0")

    @property
    def abs_tol_v(self) -> float:  # V
        return 1e-3 * self.rel_tol

    @property
    def abs_tol_gap(self) -> float:  # nm
        return self.rel_tol


@dataclass
class SolverStats:
    """Work done by one transient: accepted steps, rejected attempts by
    cause, right-hand-side evaluations, internal-node solves and their Newton
    evaluations, and the step-size range.
    The shared reset phase counts in every transient that starts from it.
    The wall time is a measurement, not work: stats compare without it."""

    accepted: int = 0
    rejected_error: int = 0     # error test failed
    rejected_knee: int = 0      # shrunk onto the selector knee
    rejected_bound: int = 0     # shrunk onto a gap bound
    rejected_current: int = 0   # current (or conductance) limit exceeded
    rhs_evals: int = 0
    kcl_solves: int = 0         # internal-node solves (hybrid pixels)
    newton_evals: int = 0       # device-kernel evaluations of the KCL solves
    h_min: float = math.inf     # smallest accepted step [s]
    h_max: float = 0.0          # largest accepted step [s]
    wall_s: float = field(default=0.0, compare=False)  # ``integrate`` [s]


@dataclass
class TransientTrace:
    # The samples; with ``_build`` given, the first read of any builds all.
    t: Optional[np.ndarray]
    vpd: Optional[np.ndarray]
    i_ox: Optional[np.ndarray]  # branch current [A]
    gap: Optional[np.ndarray]
    events: list[Event]
    final_vpd: float
    final_gap: float
    est_error_v: float = 0.0   # accumulated |local error estimate| on VPD
    i_exp: float = 0.0
    vstart: float = 0.0
    q_branch: float = 0.0      # branch charge since the reset release [C]
    stats: SolverStats = field(default_factory=SolverStats)
    _build: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._build is not None:
            del self.t, self.vpd, self.i_ox, self.gap

    def __getattr__(self, name: str):
        # Called only for an attribute not set: a sample array not built.
        build = self.__dict__.get("_build")
        if build is None or name not in ("t", "vpd", "i_ox", "gap"):
            raise AttributeError(name)
        self._build = None
        self.t, self.vpd, self.i_ox, self.gap = build()
        return getattr(self, name)


def _schedule(config: PixelConfig, t_fwc: Optional[float]) -> list[float]:
    """Phase boundaries the stepper must land on exactly: reset release,
    gate-waveform switch times, full-well time, end of exposure."""
    t_end = config.pd.t_end
    boundaries = {config.pd.trst, t_end}
    if t_fwc is not None:
        boundaries.add(t_fwc)
    if config.is_hybrid():
        for t0, t1, _ in config.vg_waveform.segments:
            for edge in (t0, t1):
                if 0.0 < edge < t_end:
                    boundaries.add(edge)
    return sorted(boundaries)


class _Run:
    """One transient in progress: the last accepted point, the next step
    size, the first stage of the next step, the states so far, a record per
    accepted step, the stepper's events, the op-hint records of the
    stepper's and the samples' internal-node solves, the right-hand side of
    the running schedule segment, the branch charge since the reset release
    and the stats.  A record holds the full step's gap interpolant ``(t0, h,
    g0, g1, k1g, k3g..k7g)``, its VPD one ``(lam, v_star, w0, w1, K1,
    K3..K7)`` in the Lawson frame, ``h_end`` (shorter if cut at the floor),
    ``eps``, its segment (start, photocurrent on) and end state's index.  A
    new run is the start of the reset phase, before its first stage."""

    def __init__(self, config: PixelConfig, opt: SolverOptions):
        self.config = config
        self.opt = opt
        self.stimulus = Stimulus(0.0)
        self.t_fwc: Optional[float] = None
        self.photo_active = True
        v0 = config.pd.vrst
        if opt.reset_noise:
            import numpy as np
            rng = np.random.default_rng(opt.noise_seed)
            v0 += float(rng.normal(0.0, config.pd.reset_noise_sigma))
        self.v0 = v0
        self.t = 0.0
        self.v = v0
        self.g = config.oxram_init.gap_x if config.is_hybrid() else 0.0
        self.est_err_v = 0.0
        self.q_branch = 0.0  # branch charge since the reset release [C]
        self.floored = False
        self.stats = SolverStats()
        self.events: list[Event] = []
        self.steps: list[tuple] = []
        self.states: list[tuple] = []  # (t, vpd, i_ox, gap)
        # The reset phase's samples and their ``summarize`` (set by
        # ``_reset_phase``).
        self.samples, self.prefix = [], None
        self.op_hint = [None, 0.0, 0.0, 0]
        self.sample_hint = [None, 0.0, 0.0, 0]
        self.vg = 0.0
        # Clamp tolerance: relative to the reset level; below this the node
        # is dead and the integration error estimate is pure cancellation
        # noise.  The knee landing uses the same tolerance on the selector
        # margin.
        self.floor_tol = max(opt.abs_tol_v, opt.rel_tol * abs(self.v0))

    def _start_step(self) -> None:
        """Size the next step as a first one: a hundredth of the time the
        first stage takes to move the state by its own size, in
        tolerance-scaled norms (Hairer, Norsett & Wanner, *Solving ODEs I*,
        II.4), at most ``max_step``."""
        opt = self.opt
        scale_v = opt.abs_tol_v + opt.rel_tol * abs(self.v)
        scale_g = opt.abs_tol_gap + opt.rel_tol * abs(self.g)
        speed = math.hypot(self.k1[0] / scale_v, self.k1[1] / scale_g)
        self.h = opt.max_step
        if speed > 0.0:
            size = math.hypot(self.v / scale_v, self.g / scale_g)
            self.h = min(self.h, 0.01 * size / speed)

    def fork(self, stimulus: Stimulus, t_fwc: Optional[float]) -> "_Run":
        """A copy that goes on under ``stimulus``; this run stays as it was.
        The copy's kernels are unbound: it must ``enter`` a segment first."""
        # One by one: a copied-in ``__dict__`` doubles attribute-load time.
        run = object.__new__(_Run)
        for name, value in vars(self).items():
            setattr(run, name, value)
        run.stimulus, run.t_fwc = stimulus, t_fwc
        run.q_branch = 0.0
        run.stats = SolverStats(**vars(self.stats))
        run.events = list(self.events)
        run.steps, run.states = [], []
        run.op_hint = list(self.op_hint)
        run.kernel = None
        return run

    def _segment(self, t: float) -> None:
        """Bind the right-hand side of the schedule segment starting at
        ``t`` and evaluate the segment's first stage."""
        config = self.config
        vg = config.vg_waveform.level_at(t) if config.is_hybrid() else 0.0
        if vg != self.vg:  # the last node voltage is no guess at a new one
            self.vg, self.op_hint[0] = vg, None
        self.segment = (t, self.photo_active)
        self.kernel = segment_kernel(config, self.stimulus, *self.segment,
                                     self.op_hint)
        self.stats.rhs_evals += 1
        self.k1 = self.kernel(self.v, self.g)
        # The knee margin: selector vds - vov at the last internal-node
        # solve, >= 0 in saturation, < 0 in triode.  The vs terms cancel.
        self.m1 = self.op_hint[0] - self.vg + config.selector.vth \
            if config.is_hybrid() else 1.0

    def enter(self, t: float) -> None:
        """Start the schedule segment at boundary ``t``.

        The drive may step at a boundary, so the next step starts from a
        fresh first stage.  Its branch current is recorded one ulp later, so
        the trace shows both sides of a jump in the current, the last step's
        end and the new segment's start; at ``t = 0`` the first state holds
        it.
        """
        self.t = t
        if self.t_fwc is not None and self.photo_active and math.isclose(
                t, self.t_fwc, rel_tol=0.0, abs_tol=1e-18):
            self.photo_active = False
            self.events.append(Event(
                EventKind.FWC_SATURATION, t,
                f"well full after {self.config.pd.fwc_electrons:.0f} e-"))
        self._segment(t)
        self.states.append((math.nextafter(t, math.inf) if t else t, self.v,
                            self.k1[2], self.g))
        if not t or t == self.config.pd.trst and self.k1[2] != 0.0:
            # A first step.  At the reset release the last step was sized
            # with the node pinned, which says nothing about the first step
            # of the exposure.  Without a branch current the exposure starts
            # as a ramp of constant slope, on which every step is exact, so
            # the carried step stays and a selector-off hybrid steps as the
            # bare pixel does.
            self._start_step()

    def step_to(self, boundary: float) -> None:
        """Take accepted steps until ``boundary`` or the VPD floor.

        Every stage of a step lies inside the running schedule segment, so
        they all evaluate the segment's kernel.  The stages and the
        fifth-order and error sums are written out over the tableau, in the
        order of a left-to-right sum of ``h * a_ij * k_j`` terms; a term
        with a zero coefficient is left out, which changes no finite sum.
        For VPD they run on the Lawson frame ``w``, stage ``i`` with slope
        ``k_i / e^(lam c_i h) - lam W_i``; ``lam = 0`` gives the plain ones.
        The seventh stage is taken at the step end ``(v_new, g_new)``, its
        input.  Each accepted step leaves its record in ``steps`` and its
        end point in the states; no sample inside it is taken here.

        ``max(a, b)`` is written ``b if b > a else a``, and ``min`` and
        ``max`` of more arguments as folds in argument order.  The stats and
        ``est_err_v`` are locals, stored once on the way out, also out of a
        raise.
        """
        config = self.config
        opt = self.opt
        trst = config.pd.trst
        hybrid = config.is_hybrid()
        if hybrid:
            gap_min, gap_max = config.oxram.gap_min, config.oxram.gap_max
        i_photo = self.stimulus.i_exp if self.photo_active else 0.0
        rhs = self.kernel
        exp, isfinite, sqrt = math.exp, math.isfinite, math.sqrt
        states = self.states
        add_step, add_state = self.steps.append, states.append
        segment = self.segment
        # The knee margin as in ``_segment``: the kernel updates ``op_hint``
        # in place.
        op_hint, vg, vth = self.op_hint, self.vg, config.selector.vth
        floor_tol = self.floor_tol
        rel_tol, abs_v, abs_g = opt.rel_tol, opt.abs_tol_v, opt.abs_tol_gap
        min_step, max_step = opt.min_step, opt.max_step
        min_step2, min_step4 = 2.0 * min_step, 4.0 * min_step
        min_step_tol = min_step * (1.0 + 1e-9)
        stats = self.stats
        accepted, rhs_evals = stats.accepted, stats.rhs_evals
        rej_error, rej_knee = stats.rejected_error, stats.rejected_knee
        rej_bound, rej_current = stats.rejected_bound, stats.rejected_current
        h_min, h_max = stats.h_min, stats.h_max
        est_err_v, q_branch = self.est_err_v, self.q_branch
        t, v, g, h = self.t, self.v, self.g, self.h
        (k1v, k1g, k1i), m1 = self.k1, self.m1
        floored = self.floored
        rc = False  # the last accepted step discharged as an RC circuit
        rate = 0.0
        # Time resolution: the boundary is reached, and a grid point this
        # close to a step end is that step end.
        eps = 1e-18 * max(1.0, boundary)
        try:
            while t < boundary - eps and not floored:
                lam = v_star = 0.0  # the Lawson frame of the module docstring
                if rc:
                    v_star = -i_photo * v / k1i
                    lam = k1v / (v - v_star)
                    h_cap = _LAWSON_REACH / -lam
                    h = h_cap if h_cap < h else h
                    h_cap = math.log(
                        (v - v_star) / (0.5 * floor_tol - v_star)) / -lam
                    h = h_cap if h_cap < h else h
                # ``min(max(h, min_step), boundary - t, max_step)``.
                h = min_step if min_step > h else h
                remaining = boundary - t
                h = remaining if remaining < h else h
                h = max_step if max_step < h else h
                w = v - v_star
                K1 = k1v - lam * w
                attempts = 0
                while True:
                    attempts += 1
                    if attempts > 120:
                        raise SolverError(
                            "required step underflow: stiffness at "
                            f"t={t:.6e}s", detail={"t": t, "vpd": v,
                                                   "gap": g, "h": h})
                    # Written out: a comprehension would make ``lam`` and
                    # ``h`` cell variables of the whole loop.  Stage 7 is at
                    # the step end.
                    if lam:
                        lh = lam * h
                        e2, e3, e4 = exp(lh * C2), exp(lh * C3), exp(lh * C4)
                        e5, e7 = exp(lh * C5), exp(lh)
                    else:
                        e2 = e3 = e4 = e5 = e7 = 1.0
                    W2 = w + h * A21 * K1
                    k2v, k2g, _ = rhs(v_star + e2 * W2, g + h * A21 * k1g)
                    K2 = k2v / e2 - lam * W2
                    W3 = w + h * A31 * K1 + h * A32 * K2
                    k3v, k3g, k3i = rhs(v_star + e3 * W3,
                                        g + h * A31 * k1g + h * A32 * k2g)
                    K3 = k3v / e3 - lam * W3
                    W4 = w + h * A41 * K1 + h * A42 * K2 + h * A43 * K3
                    k4v, k4g, k4i = rhs(v_star + e4 * W4, g + h * A41 * k1g
                                        + h * A42 * k2g + h * A43 * k3g)
                    K4 = k4v / e4 - lam * W4
                    W5 = w + h * A51 * K1 + h * A52 * K2 + h * A53 * K3 \
                        + h * A54 * K4
                    k5v, k5g, k5i = rhs(v_star + e5 * W5, g + h * A51 * k1g
                                        + h * A52 * k2g + h * A53 * k3g
                                        + h * A54 * k4g)
                    K5 = k5v / e5 - lam * W5
                    W6 = w + h * A61 * K1 + h * A62 * K2 + h * A63 * K3 \
                        + h * A64 * K4 + h * A65 * K5
                    k6v, k6g, k6i = rhs(v_star + e7 * W6, g + h * A61 * k1g
                                        + h * A62 * k2g + h * A63 * k3g
                                        + h * A64 * k4g + h * A65 * k5g)
                    K6 = k6v / e7 - lam * W6
                    W7 = w + h * B1 * K1 + h * B3 * K3 + h * B4 * K4 \
                        + h * B5 * K5 + h * B6 * K6
                    v_new = v_star + e7 * W7
                    g_new = g + h * B1 * k1g + h * B3 * k3g + h * B4 * k4g \
                        + h * B5 * k5g + h * B6 * k6g
                    k7v, k7g, k7i = rhs(v_new, g_new)
                    K7 = k7v / e7 - lam * W7
                    rhs_evals += 6
                    m7 = op_hint[0] - vg + vth if hybrid else 1.0
                    err_v = e7 * (h * E1 * K1 + h * E3 * K3 + h * E4 * K4
                                  + h * E5 * K5 + h * E6 * K6 + h * E7 * K7)
                    err_g = h * E1 * k1g + h * E3 * k3g + h * E4 * k4g \
                        + h * E5 * k5g + h * E6 * k6g + h * E7 * k7g
                    if not (isfinite(v_new) and isfinite(g_new)
                            and isfinite(k1i) and isfinite(k7i)):
                        raise SolverError(
                            f"non-finite state at t={t:.6e}s",
                            detail={"t": t, "vpd": v, "gap": g})
                    # ``max(abs(v), abs(v_new))``, and the same for the gap.
                    a = v if v >= 0.0 else -v
                    b = v_new if v_new >= 0.0 else -v_new
                    tol_v = abs_v + rel_tol * (b if b > a else a)
                    a = g if g >= 0.0 else -g
                    b = g_new if g_new >= 0.0 else -g_new
                    tol_g = abs_g + rel_tol * (b if b > a else a)
                    # A step over a kink of the right-hand side has no honest
                    # error estimate, so it lands on a gap bound or the knee
                    # before the error test.
                    # Gap-bound crossing: the gap velocity drops to zero at a
                    # bound.  Stages past the bound see no velocity, which
                    # flattens the secant; the first stage's velocity
                    # predicts the landing better.
                    if hybrid and h > min_step2:
                        if g_new > gap_max + tol_g and g < gap_max - tol_g:
                            bound = gap_max
                        elif g_new < gap_min - tol_g and g > gap_min + tol_g:
                            bound = gap_min
                        else:
                            bound = None
                        if bound is not None:
                            rej_bound += 1
                            h_land = h * (bound - g) / (g_new - g)
                            if (bound - g) * k1g > 0.0:
                                h_cap = (bound - g) / k1g
                                h_land = h_cap if h_cap < h_land else h_land
                            h_cap = 0.98 * h
                            h = h_cap if h_cap < h_land else h_land
                            h = min_step if min_step > h else h
                            continue
                    # Knee crossing: the same secant landing on the selector
                    # margin, so no step straddles the kink in the branch
                    # current.  A step that starts on the knee may leave it;
                    # a step that ends on it or crosses it restarts the next
                    # one small.
                    knee = (m7 if m7 >= 0.0 else -m7) <= floor_tol
                    if not knee and (m1 >= 0.0) != (m7 >= 0.0) \
                            and (m1 if m1 >= 0.0 else -m1) > floor_tol:
                        knee = True
                        if h > min_step2:
                            rej_knee += 1
                            shrink = m1 / (m1 - m7)
                            shrink = 0.02 if 0.02 > shrink else shrink
                            shrink = 0.98 if 0.98 < shrink else shrink
                            h = h * shrink
                            h = min_step if min_step > h else h
                            continue
                    # A step that runs the gap into one of its bounds lands
                    # there exactly via the clip; the gap error estimate is
                    # then polluted by the clamp kink and is ignored.
                    if hybrid and (g_new <= gap_min or g_new >= gap_max):
                        err = (err_v if err_v >= 0.0 else -err_v) / tol_v
                    else:
                        err = sqrt(0.5 * ((err_v / tol_v) ** 2
                                          + (err_g / tol_g) ** 2))
                    if err > 1.0:
                        if h <= min_step_tol:
                            raise SolverError(
                                "required step underflow: stiffness at "
                                f"t={t:.6e}s", detail={"t": t, "vpd": v,
                                                       "gap": g, "h": h})
                        rej_error += 1
                        shrink = 0.9 * err ** -0.2
                        h = h * (shrink if shrink > 0.2 else 0.2)
                        h = min_step if min_step > h else h
                        continue
                    # Current-change limiting: where the branch current turns
                    # fast, the error estimate alone passes steps that leave
                    # the final VPD off by up to 3e-5 V.  ``load`` is the
                    # share of the 15 % allowance this step used.  Where the
                    # branch conductance i / VPD holds within 5 %, the node
                    # discharges as an RC circuit, on which the error
                    # estimate is honest; there ``load`` is the share of that
                    # 5 % allowance.
                    i_end = k7i
                    a = i_end if i_end >= 0.0 else -i_end
                    b = k1i if k1i >= 0.0 else -k1i
                    i_scale = b if b > a else a
                    load = 0.0
                    rc = False
                    if i_scale > 1e-12 and h > min_step4:
                        load = (i_end - k1i if i_end >= k1i
                                else k1i - i_end) / (_CURRENT_ALLOWANCE
                                                     * i_scale)
                        if t >= trst and v > 0.0 and v_new > 0.0:
                            cond1, cond7 = k1i / v, i_end / v_new
                            d_cond = cond7 - cond1 if cond7 >= cond1 \
                                else cond1 - cond7
                            a = cond1 if cond1 >= 0.0 else -cond1
                            b = cond7 if cond7 >= 0.0 else -cond7
                            allowed = _CONDUCTANCE_ALLOWANCE * (
                                b if b > a else a)
                            rc = d_cond < allowed
                            if rc and d_cond / allowed < load:
                                load = d_cond / allowed
                    if load > 1.0:
                        rej_current += 1
                        h = h * 0.9 / load
                        h = min_step if min_step > h else h
                        continue
                    break

                accepted += 1
                h_min = h if h < h_min else h_min
                h_max = h if h > h_max else h_max
                t_old, v_old, g_old = t, v, g
                # The branch charge of the step: the quadrature component
                # ``q' = i_ox``, on the fifth-order weights.
                dq = h * (B1 * k1i + B3 * k3i + B4 * k4i + B5 * k5i
                          + B6 * k6i)
                # A step that runs below the floor ends where it crosses it.
                h_end, v, g = h, v_new, g_new
                if v_new < VPD_FLOOR < v_old:
                    theta = (v_old - VPD_FLOOR) / (v_old - v_new)
                    h_end, v = theta * h, VPD_FLOOR
                    if hybrid:
                        g = dense(theta, h, g_old, g_new, k1g, k3g, k4g, k5g,
                                  k6g, k7g)
                    dq = dense(theta, h, 0.0, dq, k1i, k3i, k4i, k5i, k6i,
                               k7i)
                t = t_old + h_end
                if hybrid:
                    g = gap_min if gap_min > g else g
                    g = gap_max if gap_max < g else g
                est_err_v += err_v if err_v >= 0.0 else -err_v
                q_branch += dq
                add_step((
                    t_old, h, g_old, g_new, k1g, k3g, k4g, k5g, k6g, k7g, lam,
                    v_star, w, W7, K1, K3, K4, K5, K6, K7, h_end, eps,
                    segment, len(states)))

                if t > trst and v <= VPD_FLOOR + floor_tol:
                    v = VPD_FLOOR
                    floored = self.floored = True
                    self.events.append(Event(
                        EventKind.VPD_FLOOR_CLAMP, t,
                        f"vpd clamped at {v:.3f}V"))
                    i_end = 0.0

                add_state((t, v, i_end, g))

                if err > 0.0:
                    # ``h * min(5.0, max(0.2, 0.9 * err ** -0.2))``.
                    grow = 0.9 * err ** -0.2
                    grow = grow if grow > 0.2 else 0.2
                    h_next = h * (grow if grow < 5.0 else 5.0)
                else:
                    h_next = h * 5.0
                if load > 0.6:
                    # The current change, linear in h at a rate growing as it
                    # grew.
                    growth = load / h / rate if rate else 1.0
                    h_cap = h * 0.9 / load / (growth if growth > 1.0 else 1.0)
                    h_next = h_cap if h_cap < h_next else h_next
                rate = load / h
                h_cap = h_next
                if knee:
                    h_cap = _KNEE_RESTART
                elif 0.0 < m7 < m1:
                    # Margin falling toward the knee: predict it as linear in
                    # h.
                    h_cap = _KNEE_AIM * m7 * h / (m1 - m7)
                h = h_cap if h_cap < h_next else h_next
                k1v, k1g, k1i = k7v, k7g, k7i
                m1 = m7
        finally:
            stats.accepted, stats.rhs_evals = accepted, rhs_evals
            stats.rejected_error, stats.rejected_knee = rej_error, rej_knee
            stats.rejected_bound = rej_bound
            stats.rejected_current = rej_current
            stats.h_min, stats.h_max = h_min, h_max
            self.est_err_v, self.q_branch = est_err_v, q_branch
        self.t, self.v, self.g, self.h = t, v, g, h
        self.k1, self.m1 = (k1v, k1g, k1i), m1

    def run(self, boundaries: list[float], first: int, stop: int) -> None:
        """Segments ``first`` .. ``stop - 1`` of the schedule; segment ``k``
        ends at ``boundaries[k]`` and starts at the boundary before it.  A
        ``SolverError`` leaves with the stats so far as its ``stats``, and so
        does a diverged stage, which the kernel's finiteness check reports as
        an ``InvalidInputError``; the error names the segment's start."""
        try:
            for k in range(first, stop):
                if self.floored:
                    break
                self.enter(boundaries[k - 1] if k else 0.0)
                self.step_to(boundaries[k])
        except InvalidInputError as exc:
            error = SolverError(
                f"diverged after t={self.t:.6e}s: {exc}",
                detail={"t": self.t, "vpd": self.v, "gap": self.g})
            error.stats = self.tally()
            raise error from exc
        except SolverError as exc:
            exc.stats = self.tally()
            raise

    def tally(self) -> SolverStats:
        """The stats, with the internal-node solves counted so far: every
        right-hand side of a hybrid pixel solves the internal node."""
        self.stats.newton_evals = self.op_hint[3]
        self.stats.kcl_solves = self.stats.rhs_evals \
            if self.config.is_hybrid() else 0
        return self.stats


@functools.lru_cache(maxsize=4)
def _reset_phase(config: PixelConfig, opt: SolverOptions) -> _Run:
    """Integrate every schedule segment that ends at or before the reset
    release; build its samples, and summarize them with their events for
    each transient's ``detect`` (``events.summarize``).  The node is pinned
    there, so nothing depends on the stimulus; the boundary refresh at
    ``trst``, the first evaluation that sees it, belongs to the exposure
    phase.  The run returned is shared and never stepped again: each
    transient goes on from a ``fork`` of it."""
    run = _Run(config, opt)
    boundaries = _schedule(config, None)
    run.run(boundaries, 0, bisect.bisect_right(boundaries, config.pd.trst))
    run.samples = _samples(run)
    run.prefix = summarize(run.samples, detect(run.samples, run.steps, config,
                                               run.v0))
    return run


def _grid_spacing(t_end: float) -> float:
    """The least whole multiple of ``ABRUPT_WINDOW`` that puts at most
    ``_GRID_POINTS`` output-grid points ``k * spacing`` before ``t_end``.
    The quotient only estimates it: it is checked against the grid as
    ``_samples`` computes it."""
    n = _GRID_POINTS + 1  # the first grid point that must not lie before
    m = max(1, math.ceil(t_end / (n * ABRUPT_WINDOW)))
    if n * (ABRUPT_WINDOW * m) < t_end:
        m += 1
    elif m > 1 and n * (ABRUPT_WINDOW * (m - 1)) >= t_end:
        m -= 1
    return ABRUPT_WINDOW * m


def _samples(run: _Run) -> list[tuple]:
    """The samples ``(t, vpd, i_ox, gap)`` of ``run`` in time order, which
    its sample kernels are called in: the reset phase's, then its states,
    each step end after the samples inside its step.  A segment's sample
    kernel, on ``run.sample_hint``, is built at its first sample."""
    config = run.config
    hybrid = config.is_hybrid()
    if hybrid:
        gap_min, gap_max = config.oxram.gap_min, config.oxram.gap_max
    samples = list(run.samples)
    spacing = _grid_spacing(config.pd.t_end)
    # The next output-grid point.  Those before the first step (a fork
    # starts at the reset release) lie before its start and are passed over.
    k_grid = 1
    t_grid = spacing
    n = 0
    built = kernel = None  # the segment ``kernel`` was built for
    for step in run.steps:
        t_old, h, g_old = step[:3]
        eps, segment, end = step[21:]
        samples += run.states[n:end]
        n = end
        t = run.states[end][0]
        while t_grid < t:
            t_s = t_grid
            k_grid += 1
            t_grid = k_grid * spacing
            # A grid point within the time resolution of a step end is
            # that end's state.
            if not t_old + eps < t_s < t - eps:
                continue
            # Clipped as an accepted state.
            v = vpd_at(step, t_s)
            if t_s > config.pd.trst:
                v = max(v, VPD_FLOOR)
            g = min(max(dense((t_s - t_old) / h, *step[1:10]), gap_min),
                    gap_max) if hybrid else g_old
            if segment is not built:
                built, kernel = segment, segment_kernel(
                    config, run.stimulus, *segment, run.sample_hint)
            samples.append((t_s, v, kernel(v, g)[2], g))
    return samples + run.states[n:]


def integrate(config: PixelConfig, stimulus: Stimulus,
              options: Optional[SolverOptions] = None) -> TransientTrace:
    """Simulate one exposure: reset phase then integration phase.

    The trace covers [0, trst + texp].  Raises SolverError on step
    underflow (stiffness) or a non-finite state (divergence), with the
    stats so far as its ``stats``.
    """
    t0 = time.perf_counter()
    opt = options or SolverOptions()
    pd = config.pd
    t_end = pd.t_end

    t_fwc = None
    if stimulus.i_exp > 0.0:
        t_candidate = pd.trst + pd.fwc_electrons * ELEMENTARY_CHARGE / stimulus.i_exp
        if t_candidate < t_end:
            t_fwc = t_candidate
    boundaries = _schedule(config, t_fwc)

    try:
        run = _reset_phase(config, opt).fork(stimulus, t_fwc)
        run.run(boundaries, bisect.bisect_right(boundaries, pd.trst),
                len(boundaries))
    except SolverError as exc:
        exc.stats.wall_s = time.perf_counter() - t0
        raise

    if run.floored and run.t < t_end:
        run.states.append((t_end, run.v, 0.0, run.g))

    def build(hint=run.sample_hint) -> np.ndarray:
        """The rows ``t, vpd, i_ox, gap``; each call starts from the reset
        phase's op-hint record, so a copy of an unbuilt trace builds the
        same samples."""
        import numpy as np
        run.sample_hint = list(hint)
        return np.asarray(_samples(run)).T

    stats = run.tally()
    # At equal times the stepper's events come first.
    events = sorted(run.events + detect(run.states, run.steps, config,
                                        run.v0, run.prefix),
                    key=lambda e: e.t_event)
    trace = TransientTrace(
        None, None, None, None, events=events, final_vpd=run.v,
        final_gap=run.g, est_error_v=run.est_err_v, i_exp=stimulus.i_exp,
        vstart=run.v0, q_branch=run.q_branch, stats=stats, _build=build)
    stats.wall_s = time.perf_counter() - t0
    return trace


def charge_balance_error(trace: TransientTrace, config: PixelConfig) -> float:
    """Relative mismatch between the node's charge loss and the integrated
    drain over the exposure phase.

    The OxRAM branch charge is the stepper's own quadrature,
    ``TransientTrace.q_branch``; the photocurrent is piecewise constant so
    its integral is exact, cut off at the full-well or floor-clamp event.
    On a plain step the balance holds by construction, the node's slope
    being ``-(i_photo + i_ox) / C`` on the same stages: it measures the
    Lawson steps and the floor landing.
    """
    pd = config.pd
    c_total = config.c_node
    t_photo_end = min([pd.t_end] + [e.t_event for e in trace.events if e.kind
                                    in (EventKind.FWC_SATURATION,
                                        EventKind.VPD_FLOOR_CLAMP)])
    q_drain = trace.q_branch + trace.i_exp * (t_photo_end - pd.trst)
    q_node = c_total * (trace.vstart - trace.final_vpd)
    scale = max(abs(q_node), abs(q_drain), c_total * 1e-6)
    return abs(q_node - q_drain) / scale
