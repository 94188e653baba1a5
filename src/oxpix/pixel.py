"""Node equations for the bare 3T pixel and the hybrid 3T + 1T-1R pixel.

The hybrid discharge path is photodiode node -> OxRAM -> internal node ->
selector NMOS -> Vs.  The internal node carries no charge, so its voltage
is found per evaluation from KCL: the device current (decreasing in the
node voltage) must equal the selector current (increasing in it).  Both
branches are monotone, so the operating point is a bracketed 1-D root.

The right-hand side is evaluated through ``segment_kernel``: one closure per
schedule segment of the solver, with every constant of that segment (the
reset pin, the gate level, the photocurrent, the device constants) bound
when it is built.  Its body is the KCL solve, the device and selector laws
and the gap velocity written out in the operation order of the validated
models in ``devices``, so each evaluation costs no attribute lookups, no
object construction and no calls below it but ``math``.  It is sound because
the schedule cuts at every time those constants change (reset release,
gate-waveform edges, full well).  ``assemble_derivative`` and
``solve_branch_current`` are thin wrappers over the same kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .devices import (
    _EXP_ARG_MAX,
    _SINH_CLIP,
    VREAD,
    MosfetParams,
    Orientation,
    OxRamParams,
    OxRamState,
    PhotodiodeParams,
    device_current_and_slope,  # not called here; perfbench/tracer.py wraps it
    state_from_resistance,
)
from .errors import InvalidInputError, SolverError, UnsupportedOperationError

VG_RAIL = 3.3  # V, gate rail for waveform validation

# Relative current tolerance of the internal-node KCL solve.
_OP_POINT_REL_TOL = 1e-12


class Topology(enum.Enum):
    BARE_3T = "bare3t"
    HYBRID_CASE_I = "case_i"
    HYBRID_CASE_II = "case_ii"
    HYBRID_CASE_III = "case_iii"


def orientation_for(topology: Topology) -> Orientation:
    """Electrode orientation implied by the switching case."""
    if topology is Topology.HYBRID_CASE_III:
        return Orientation.TE_AT_PD
    return Orientation.BE_AT_PD


@dataclass(frozen=True)
class GateWaveform:
    """Piecewise-constant selector gate voltage over the full schedule."""

    segments: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise InvalidInputError("waveform needs at least one segment")
        prev_end = None
        for t0, t1, level in self.segments:
            if not (t1 > t0):
                raise InvalidInputError(f"empty or reversed segment ({t0}, {t1})")
            if level < 0.0 or level > VG_RAIL:
                raise InvalidInputError(
                    f"gate level {level} outside [0, {VG_RAIL}] V")
            if prev_end is None:
                if t0 != 0.0:
                    raise InvalidInputError("first segment must start at t = 0")
            elif not math.isclose(t0, prev_end, rel_tol=0.0, abs_tol=1e-15):
                kind = "overlap" if t0 < prev_end else "gap"
                raise InvalidInputError(
                    f"segment {kind} at t = {t0} (previous ends {prev_end})")
            prev_end = t1

    @property
    def t_end(self) -> float:
        return self.segments[-1][1]

    def level_at(self, t: float) -> float:
        for t0, t1, level in self.segments:
            if t0 <= t < t1:
                return level
        return self.segments[-1][2]


def build_vg_waveform(level: float, ramp_spec: Optional[Sequence[tuple[float, float, float]]] = None,
                      t_total: float = 10.0e-6) -> GateWaveform:
    """Constant waveform at ``level``, or a validated piecewise spec.

    ``ramp_spec`` segments must tile [0, t_total] without gaps or overlaps.
    """
    if ramp_spec is None:
        return GateWaveform(((0.0, t_total, float(level)),))
    wf = GateWaveform(tuple((float(a), float(b), float(v)) for a, b, v in ramp_spec))
    if not math.isclose(wf.t_end, t_total, rel_tol=1e-9, abs_tol=1e-15):
        raise InvalidInputError(
            f"waveform ends at {wf.t_end}, schedule needs {t_total}")
    return wf


@dataclass(frozen=True)
class Stimulus:
    """Constant exposure photocurrent."""

    i_exp: float  # A

    def __post_init__(self):
        if not math.isfinite(self.i_exp) or self.i_exp < 0.0:
            raise InvalidInputError(f"i_exp must be finite and >= 0, got {self.i_exp}")


@dataclass(frozen=True)
class PixelConfig:
    topology: Topology
    pd: PhotodiodeParams = field(default_factory=PhotodiodeParams)
    oxram: Optional[OxRamParams] = None
    oxram_init: Optional[OxRamState] = None
    selector: MosfetParams = field(default_factory=MosfetParams)
    vg_waveform: Optional[GateWaveform] = None
    vs_level: float = 0.0

    def __post_init__(self):
        if self.topology is Topology.BARE_3T:
            return
        if self.oxram is None or self.oxram_init is None:
            raise InvalidInputError(
                f"{self.topology.value} requires oxram params and an initial state")
        want = orientation_for(self.topology)
        if self.oxram_init.orientation is not want:
            raise InvalidInputError(
                f"{self.topology.value} requires orientation {want.value}, got "
                f"{self.oxram_init.orientation.value}")
        if self.vg_waveform is None:
            raise InvalidInputError("hybrid topologies require a gate waveform")
        if self.vg_waveform.t_end < self.pd.trst + self.pd.texp - 1e-15:
            raise InvalidInputError(
                f"gate waveform ends at {self.vg_waveform.t_end}, before the "
                f"schedule end {self.pd.trst + self.pd.texp}")

    @property
    def t_end(self) -> float:
        return self.pd.trst + self.pd.texp

    def is_hybrid(self) -> bool:
        return self.topology is not Topology.BARE_3T


def solve_branch_current(vpd: float, vg: float, vs: float, state: OxRamState,
                         oxram: OxRamParams, selector: MosfetParams,
                         hint: Optional[list] = None) -> tuple[float, float]:
    """Operating point of the series OxRAM + selector branch.

    Returns ``(i_branch, v_device)`` with current positive from the PD node
    to Vs.  The device current falls and the selector current rises with the
    internal node voltage, so the KCL mismatch is monotone on [vs, vpd];
    a bracketed Newton iteration converges to 1e-12 relative in current.
    This is the KCL solve of a pinned segment kernel (see ``segment_kernel``).

    ``hint`` is the caller's op-hint record, a list updated in place after
    every solve: ``[v_m, vpd, dv_m/dvpd, newton_evals]``.  The next solve
    starts from the predicted node voltage ``v_m + (vpd' - vpd) * dv_m/dvpd``
    (an Euler predictor in vpd; Newton is the corrector), falling back to
    the bracket midpoint when the prediction leaves the bracket.  The
    sensitivity ``dv_m/dvpd = g_dev / (g_dev + g_sel)`` follows from
    differentiating the KCL balance at the converged point; it is 0 after a
    solve with no branch current, where the node sits at vpd.
    ``newton_evals`` counts device-kernel evaluations over all solves; a
    fifth field, when the record has one, counts the solves.  ``[None]`` is
    an empty record; without one the solve starts cold.
    """
    record = [None] if hint is None else hint
    kernel = _hybrid_kernel(oxram, selector, state.orientation, vg, vs,
                            True, 0.0, 1.0, record)
    i_branch = kernel(vpd, state.gap_x)[2]
    # The record holds the converged node voltage, or vpd without current.
    return i_branch, vpd - record[0]


def segment_kernel(config: PixelConfig, stimulus: Stimulus, t: float,
                   photo_active: bool = True,
                   op_hint: Optional[list] = None
                   ) -> Callable[[float, float], tuple[float, float, float]]:
    """Right-hand side of the schedule segment holding ``t``, as a function
    ``(vpd, gap) -> (dvpd/dt, dgap/dt, i_ox)``.

    Within one segment of the solver's schedule every input of the node
    equations except the state is constant: the reset pin (``t < trst``),
    the gate level, the photocurrent (``photo_active`` only changes at the
    full-well boundary) and all device constants.  The schedule cuts at the
    reset release, every gate-waveform edge and the full-well time, so the
    kernel binds them once and its body is the KCL solve, the device and
    selector laws and the gap velocity written out, with no attribute
    lookups or object construction per call.  Values equal
    ``assemble_derivative`` at any time of the segment, bit for bit.

    ``op_hint`` is the op-hint record of the internal-node solve (see
    ``solve_branch_current``); it is shared with the caller, so a kernel of
    the next segment continues from the last solve of this one.
    """
    pd = config.pd
    pinned = t < pd.trst
    i_photo = stimulus.i_exp if photo_active else 0.0
    if config.is_hybrid():
        return _hybrid_kernel(
            config.oxram, config.selector, config.oxram_init.orientation,
            config.vg_waveform.level_at(t), config.vs_level, pinned, i_photo,
            pd.c_pd + config.oxram.c_pox, op_hint)
    # The hybrid expression with no branch current and no parasitic cap.
    dvpd = -(i_photo + 0.0) / (pd.c_pd + 0.0)

    def bare(vpd: float, gap: float) -> tuple[float, float, float]:
        if pinned or vpd <= 0.0:
            return 0.0, 0.0, 0.0
        return dvpd, 0.0, 0.0
    return bare


def _hybrid_kernel(oxram: OxRamParams, selector: MosfetParams,
                   orientation: Orientation, vg: float, vs: float,
                   pinned: bool, i_photo: float, c_total: float,
                   hint: Optional[list]
                   ) -> Callable[[float, float], tuple[float, float, float]]:
    """Segment kernel of a hybrid pixel at gate level ``vg``.

    The body is ``devices.device_current_and_slope``, the selector's
    square law with its slope, the bracketed Newton solve of
    ``solve_branch_current`` and ``devices.gap_velocity``, each in the
    operation order of the validated models, with every ``sinh``/``cosh``
    argument clipped at +-600 as in ``devices``.
    """
    warm = hint is not None
    if warm and len(hint) < 4:
        hint[:] = (None, 0.0, 0.0, 0)
    count = warm and len(hint) > 4
    vov = vg - vs - selector.vth
    kp, lam = selector.kprime, selector.lam
    i_sat = 0.5 * kp * vov * vov
    gap_min, gap_max = oxram.gap_min, oxram.gap_max
    length, neg_a, b = oxram.oxide_thickness_L, -oxram.cf_decay_a, \
        oxram.cf_field_b
    i0_cf, i0_ox = oxram.i0_cf, oxram.i0_ox
    neg_c, d = -oxram.ox_decay_c, oxram.ox_field_d
    r0, v1 = oxram.rupture_rate_r0, oxram.rupture_field_v1
    neg_g0, v0 = -oxram.growth_rate_g0, oxram.growth_field_v0
    be_at_pd = orientation is Orientation.BE_AT_PD
    cap, big = _EXP_ARG_MAX, _SINH_CLIP
    exp, sinh, cosh, isfinite = math.exp, math.sinh, math.cosh, math.isfinite

    def kernel(vpd: float, gap: float) -> tuple[float, float, float]:
        if not pinned and vpd <= 0.0:
            return 0.0, 0.0, 0.0
        if gap < gap_min:
            gap = gap_min
        if gap > gap_max:
            gap = gap_max

        # KCL at the internal node v_m: device current = selector current.
        i_ox = 0.0
        v_dev = 0.0
        if vpd <= vs or vov <= 0.0:
            # No forward drop, or the selector is off: no branch current,
            # and none of the drop sits across the device.
            solved = False
        else:
            x = neg_a * (length - gap)
            k_cf = i0_cf * exp(cap if x > cap else x)
            x = neg_c * gap
            k_ox = i0_ox * exp(cap if x > cap else x)
            s = d * gap / gap_max
            # Bracket probe: a device that passes nothing even with the
            # full drop leaves no branch current.
            v = vpd - vs
            bv = b * v
            sv = s * v
            solved = not (k_cf * (big if bv > cap else -big if bv < -cap
                                  else sinh(bv))
                          + k_ox * (big if sv > cap else -big if sv < -cap
                                    else sinh(sv)) <= 0.0)
        if solved:
            lo, hi = vs, vpd
            v_m = 0.5 * (lo + hi)
            if warm and hint[0] is not None:
                v_pred = hint[0] + (vpd - hint[1]) * hint[2]
                if lo < v_pred < hi:
                    v_m = v_pred
            kb = k_cf * b
            ks = k_ox * s
            for n in range(1, 301):
                v = vpd - v_m
                bv = b * v
                sv = s * v
                i_dev = k_cf * (big if bv > cap else -big if bv < -cap
                                else sinh(bv)) \
                    + k_ox * (big if sv > cap else -big if sv < -cap
                              else sinh(sv))
                bv = abs(bv)
                sv = abs(sv)
                di_dev = kb * (big if bv > cap else cosh(bv)) \
                    + ks * (big if sv > cap else cosh(sv))
                vds = v_m - vs
                if vds <= 0.0:
                    i_sel = di_sel = 0.0
                else:
                    mod = 1.0 + lam * vds
                    if vds < vov:
                        base = kp * (vov * vds - 0.5 * vds * vds)
                        dbase = kp * (vov - vds)
                    else:
                        base = i_sat
                        dbase = 0.0
                    i_sel = base * mod
                    di_sel = dbase * mod + base * lam
                f = i_dev - i_sel
                slope_sum = di_dev + di_sel
                scale = abs(i_dev)
                x = abs(i_sel)
                if x > scale:
                    scale = x
                if scale < 1e-300:
                    scale = 1e-300
                # Converged when the KCL mismatch is at tolerance, or the
                # bracket has collapsed to the voltage resolution of double
                # precision (steep device curves can pin the crossing within
                # a few ulp).
                if abs(f) <= _OP_POINT_REL_TOL * scale \
                        or (hi - lo) <= 4e-16 * max(1.0, abs(vpd)):
                    if warm:
                        hint[0] = v_m
                        hint[1] = vpd
                        hint[2] = di_dev / slope_sum if slope_sum > 0.0 \
                            else 0.0
                        hint[3] += n
                        if count:
                            hint[4] += 1
                    i_ox = 0.5 * (i_dev + i_sel)
                    v_dev = vpd - v_m
                    break
                if f > 0.0:
                    lo = v_m
                else:
                    hi = v_m
                # df/dv_m = -di_dev - di_sel; Newton step with bisection
                # fallback.
                step = f / slope_sum if slope_sum > 0.0 else 0.0
                v_next = v_m + step
                if not (lo < v_next < hi) or step == 0.0:
                    v_next = 0.5 * (lo + hi)
                v_m = v_next
            else:
                raise SolverError(
                    "internal-node operating point did not converge",
                    detail={"vpd": vpd, "vg": vg, "bracket": (lo, hi)})
        elif warm:
            hint[0] = vpd
            hint[1] = vpd
            hint[2] = 0.0
            if count:
                hint[4] += 1

        # Gap velocity [nm/s]: rupture or growth by orientation and sign,
        # zero at the bound the gap is driven toward.
        dgap = 0.0
        if v_dev != 0.0:
            if not isfinite(v_dev):
                raise InvalidInputError(f"non-finite v_device: {v_dev}")
            rupturing = v_dev > 0.0 if be_at_pd else v_dev < 0.0
            v = abs(v_dev)
            if rupturing:
                if not gap >= gap_max:
                    x = v / v1
                    dgap = r0 * (big if x > cap else -big if x < -cap
                                 else sinh(x))
            elif not gap <= gap_min:
                x = v / v0
                dgap = neg_g0 * (big if x > cap else -big if x < -cap
                                 else sinh(x))

        if pinned:
            return 0.0, dgap, i_ox
        return -(i_photo + i_ox) / c_total, dgap, i_ox
    return kernel


def assemble_derivative(vpd: float, oxram_gap: float, t: float,
                        config: PixelConfig, stimulus: Stimulus,
                        photo_active: bool = True,
                        op_hint: Optional[list] = None) -> tuple[float, float, float]:
    """Time derivatives of (VPD, gap) plus the OxRAM branch current.

    During the reset phase (t < trst) the node is pinned at vrst and the
    voltage derivative is zero while the gap still evolves.  ``photo_active``
    is cleared by the scheduler once the well is full.  VPD at or below
    ground gives a zero derivative (floor clamp).  ``op_hint`` is the optional
    op-hint record of the internal-node solve (see ``solve_branch_current``);
    ``op_hint[0]`` holds the node voltage of the last solve.  The gap is
    clamped to its bounds.  One evaluation of ``segment_kernel``.
    """
    return segment_kernel(config, stimulus, t, photo_active, op_hint)(
        vpd, oxram_gap)


def preprogram(config: PixelConfig, target_resistance: float,
               vread: float = VREAD) -> PixelConfig:
    """Return a config whose OxRAM is initialized to the target resistance."""
    if not config.is_hybrid():
        raise UnsupportedOperationError("bare 3T pixel has no OxRAM to program")
    state = state_from_resistance(
        target_resistance, vread, config.oxram,
        orientation_for(config.topology))
    return replace(config, oxram_init=state)
