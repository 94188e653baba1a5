"""Node equations for the bare 3T pixel and the hybrid 3T + 1T-1R pixel.

The hybrid discharge path is photodiode node -> OxRAM -> internal node ->
selector NMOS -> Vs.  The internal node carries no charge, so its voltage
is found per evaluation from KCL: the device current (decreasing in the
node voltage) must equal the selector current (increasing in it).  Both
branches are monotone, so the operating point is a bracketed 1-D root.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .devices import (
    VREAD,
    MosfetParams,
    Orientation,
    OxRamParams,
    OxRamState,
    PhotodiodeParams,
    device_current_and_slope,
    device_current_factored,
    device_factors,
    gap_velocity,
    selector_current_and_slope,
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
    The gap-only device factors are computed once per solve, and the
    bracket probe at ``v_m = vs`` needs only the sign of the device current.

    ``hint`` is the caller's op-hint record, a list updated in place after
    every solve: ``[v_m, vpd, dv_m/dvpd, newton_evals]``.  The next solve
    starts from the predicted node voltage ``v_m + (vpd' - vpd) * dv_m/dvpd``
    (an Euler predictor in vpd; Newton is the corrector), falling back to
    the bracket midpoint when the prediction leaves the bracket.  The
    sensitivity ``dv_m/dvpd = g_dev / (g_dev + g_sel)`` follows from
    differentiating the KCL balance at the converged point; it is 0 after a
    solve with no branch current, where the node sits at vpd.
    ``newton_evals`` counts device-kernel evaluations over all solves.
    ``[None]`` is an empty record; without one the solve starts cold.
    """
    vov = vg - vs - selector.vth
    # No forward drop, or the selector is off: no branch current, and none
    # of the drop sits across the device.
    if vpd <= vs or vov <= 0.0:
        _record(hint, vpd, vpd, 0.0, 0)
        return 0.0, 0.0

    gap = min(max(state.gap_x, oxram.gap_min), oxram.gap_max)
    factors = device_factors(gap, oxram)
    lo, hi = vs, vpd
    if device_current_factored(factors, vpd - lo, oxram) <= 0.0:
        # Device passes nothing even with the full drop.
        _record(hint, vpd, vpd, 0.0, 0)
        return 0.0, 0.0

    v_m = 0.5 * (lo + hi)
    if hint is not None and hint[0] is not None:
        v_pred = hint[0] + (vpd - hint[1]) * hint[2]
        if lo < v_pred < hi:
            v_m = v_pred
    for n in range(1, 301):
        i_dev, di_dev = device_current_and_slope(factors, vpd - v_m, oxram)
        i_sel, di_sel = selector_current_and_slope(vov, v_m - vs, selector)
        f = i_dev - i_sel
        slope_sum = di_dev + di_sel
        scale = max(abs(i_dev), abs(i_sel), 1e-300)
        # Converged when the KCL mismatch is at tolerance, or the bracket has
        # collapsed to the voltage resolution of double precision (steep
        # device curves can pin the crossing within a few ulp).
        if abs(f) <= _OP_POINT_REL_TOL * scale \
                or (hi - lo) <= 4e-16 * max(1.0, abs(vpd)):
            if hint is not None:
                sens = di_dev / slope_sum if slope_sum > 0.0 else 0.0
                _record(hint, v_m, vpd, sens, n)
            return 0.5 * (i_dev + i_sel), vpd - v_m
        if f > 0.0:
            lo = v_m
        else:
            hi = v_m
        # df/dv_m = -di_dev - di_sel; Newton step with bisection fallback.
        step = f / slope_sum if slope_sum > 0.0 else 0.0
        v_next = v_m + step
        if not (lo < v_next < hi) or step == 0.0:
            v_next = 0.5 * (lo + hi)
        v_m = v_next
    raise SolverError(
        "internal-node operating point did not converge",
        detail={"vpd": vpd, "vg": vg, "bracket": (lo, hi)})


def _record(hint: Optional[list], v_m: float, vpd: float, sens: float,
            evals: int) -> None:
    """Store one solve in the op-hint record; ``[None]`` grows to full size."""
    if hint is not None:
        hint[:] = (v_m, vpd, sens, evals + (hint[3] if len(hint) > 3 else 0))


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
    ``op_hint[0]`` holds the node voltage of the last solve.
    """
    pd = config.pd
    pinned = t < pd.trst

    if not pinned and vpd <= 0.0:
        return 0.0, 0.0, 0.0

    i_ox = 0.0
    dgap = 0.0
    if config.is_hybrid():
        state = OxRamState(oxram_gap, config.oxram_init.orientation)
        state = state.clamped(config.oxram)
        vg = config.vg_waveform.level_at(t)
        i_ox, v_dev = solve_branch_current(
            vpd, vg, config.vs_level, state, config.oxram, config.selector,
            hint=op_hint)
        dgap = gap_velocity(state, v_dev, config.oxram)  # nm/s; gap in nm, t in s

    if pinned:
        return 0.0, dgap, i_ox

    i_photo = stimulus.i_exp if photo_active else 0.0
    c_total = pd.c_pd + (config.oxram.c_pox if config.is_hybrid() else 0.0)
    dvpd = -(i_photo + i_ox) / c_total
    return dvpd, dgap, i_ox


def preprogram(config: PixelConfig, target_resistance: float,
               vread: float = VREAD) -> PixelConfig:
    """Return a config whose OxRAM is initialized to the target resistance."""
    if not config.is_hybrid():
        raise UnsupportedOperationError("bare 3T pixel has no OxRAM to program")
    state = state_from_resistance(
        target_resistance, vread, config.oxram,
        orientation_for(config.topology))
    return replace(config, oxram_init=state)
