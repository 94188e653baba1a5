"""The fused segment kernel against the composition it replaced.

``pixel.segment_kernel`` writes the right-hand side out once per schedule
segment: the internal-node KCL solve, the device and selector laws and the
gap velocity in one closure.  The block between the ``--- oracle ---``
markers is a verbatim copy of the composition that closure replaced
(``assemble_derivative`` -> ``solve_branch_current`` -> the device and
selector kernels -> ``gap_velocity``), with ``OxRamState`` extended by its
former ``clamped`` method.  Every evaluation must agree with it bit for bit:
values, raised errors and the op-hint record.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oxpix import devices, pixel
from oxpix.defaults import default_config
from oxpix.devices import (
    ELEMENTARY_CHARGE,
    MosfetParams,
    Orientation,
    OxRamParams,
    PhotodiodeParams,
)
from oxpix.errors import InvalidInputError, SolverError
from oxpix.pixel import GateWaveform, PixelConfig, Stimulus, Topology
from oxpix.solver import _schedule

# --- oracle ---------------------------------------------------------------

_EXP_ARG_MAX = 600.0
_OP_POINT_REL_TOL = 1e-12


class OxRamState(devices.OxRamState):
    def clamped(self, params: OxRamParams) -> "OxRamState":
        g = min(max(self.gap_x, params.gap_min), params.gap_max)
        if g == self.gap_x:
            return self
        return replace(self, gap_x=g)


def _safe_sinh(x: float) -> float:
    if x > _EXP_ARG_MAX:
        return 0.5 * math.exp(_EXP_ARG_MAX)
    if x < -_EXP_ARG_MAX:
        return -0.5 * math.exp(_EXP_ARG_MAX)
    return math.sinh(x)


def _safe_exp(x: float) -> float:
    return math.exp(min(x, _EXP_ARG_MAX))


def _cosh_clip(x: float) -> float:
    ax = abs(x)
    if ax > _EXP_ARG_MAX:
        return 0.5 * math.exp(_EXP_ARG_MAX)
    return math.cosh(ax)


def device_factors(gap_x: float, p: OxRamParams) -> tuple[float, float, float]:
    """Gap-only factors of the device current at fixed gap: the filament
    prefactor ``k_cf`` [A], the oxide prefactor ``k_ox`` [A] and the oxide
    field coefficient ``s = d * gap_x / gap_max`` [1/V].

    They hold through a whole internal-node solve, so the solve computes
    them once and hands them to the kernels below.
    """
    k_cf = p.i0_cf * _safe_exp(-p.cf_decay_a * (p.oxide_thickness_L - gap_x))
    k_ox = p.i0_ox * _safe_exp(-p.ox_decay_c * gap_x)
    return k_cf, k_ox, p.ox_field_d * gap_x / p.gap_max


def device_current_factored(factors: tuple[float, float, float], v: float,
                            p: OxRamParams) -> float:
    """Unvalidated hot-path I(V) from ``device_factors``."""
    k_cf, k_ox, s = factors
    return k_cf * _safe_sinh(p.cf_field_b * v) + k_ox * _safe_sinh(s * v)


def device_current_and_slope(factors: tuple[float, float, float], v: float,
                             p: OxRamParams) -> tuple[float, float]:
    """Unvalidated hot-path I(V) and dI/dV from ``device_factors``."""
    k_cf, k_ox, s = factors
    b = p.cf_field_b
    i = k_cf * _safe_sinh(b * v) + k_ox * _safe_sinh(s * v)
    di = k_cf * b * _cosh_clip(b * v) + k_ox * s * _cosh_clip(s * v)
    return i, di


def gap_velocity(state: OxRamState, v_device: float, params: OxRamParams) -> float:
    """Rate of change of the ruptured length, dx/dt [nm/s].

    Positive voltage at the PD-side electrode ruptures the filament for
    BE_at_PD orientation and grows it for TE_at_PD.  The rate saturates to
    zero at the bound the gap is being driven toward.
    """
    if not math.isfinite(v_device):
        raise InvalidInputError(f"non-finite v_device: {v_device}")
    if v_device == 0.0:
        return 0.0
    if state.orientation is Orientation.BE_AT_PD:
        rupturing = v_device > 0.0
    else:
        rupturing = v_device < 0.0
    v = abs(v_device)
    if rupturing:
        if state.gap_x >= params.gap_max:
            return 0.0
        return params.rupture_rate_r0 * _safe_sinh(v / params.rupture_field_v1)
    if state.gap_x <= params.gap_min:
        return 0.0
    return -params.growth_rate_g0 * _safe_sinh(v / params.growth_field_v0)


def selector_current_and_slope(vov: float, vds: float,
                               p: MosfetParams) -> tuple[float, float]:
    """Unvalidated hot-path I(vds) and dI/dvds at fixed overdrive, vds >= 0."""
    if vov <= 0.0 or vds <= 0.0:
        return 0.0, 0.0
    mod = 1.0 + p.lam * vds
    if vds < vov:
        base = p.kprime * (vov * vds - 0.5 * vds * vds)
        dbase = p.kprime * (vov - vds)
    else:
        base = 0.5 * p.kprime * vov * vov
        dbase = 0.0
    return base * mod, dbase * mod + base * p.lam


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

# --- end of oracle ----------------------------------------------------------

# Default constants, then variants whose sinh/cosh arguments pass the +-600
# clip: in the device law at drops above 1.5 V, and in the gap velocity
# at drops above 1.2 V.
OXRAMS = (OxRamParams(),
          OxRamParams(cf_field_b=400.0),
          OxRamParams(rupture_field_v1=0.002, growth_field_v0=0.002))
# vg = 0 and 0.3 V leave the selector off; 0.52 V saturates it; 3.3 V is
# triode.  vpd = 1e-320 V passes a drop the device current underflows on.
GATE_LEVELS = (0.0, 0.3, 0.52, 3.3)
VPDS = (-0.1, 0.0, 1e-320, 0.05, 0.3, 0.9, 1.42, 2.2, 40.0)
TIMES = (0.1e-6, 2e-6)                 # pinned, exposure (trst = 0.5 us)
DRIVES = ((1e-9, True), (1e-9, False))   # (i_exp, photo_active)


def _configs():
    yield default_config(Topology.BARE_3T)
    for topo in (Topology.HYBRID_CASE_I, Topology.HYBRID_CASE_III):
        for ox in OXRAMS:
            for vg in GATE_LEVELS:
                for vs in (0.0, 0.1):
                    yield PixelConfig(
                        topology=topo, oxram=ox,
                        oxram_init=OxRamState(5.0, pixel.orientation_for(topo)),
                        vg_waveform=GateWaveform(((0.0, 10e-6, vg),)),
                        vs_level=vs)


def _gaps(config):
    ox = config.oxram or OxRamParams()
    return (ox.gap_min - 1.0, math.nextafter(ox.gap_min, -math.inf),
            ox.gap_min, 3.0, 6.0, ox.gap_max,
            math.nextafter(ox.gap_max, math.inf), ox.gap_max + 1.0,
            math.nan)


def _outcome(fn, *args):
    """The result, or the error raised, and its ``repr``: equal strings
    mean bit-equal floats, signed zeros included."""
    try:
        result = fn(*args)
    except (SolverError, InvalidInputError) as exc:
        result = (type(exc).__name__, str(exc), getattr(exc, "detail", None))
    return result, repr(result)


def _padded(record):
    """The four-field form of an op-hint record; the oracle leaves an
    unused ``[None]`` record short."""
    return None if record is None else \
        repr(list(record) + [None, 0.0, 0.0, 0][len(record):])


def _path(config, vpd, result, record):
    """Which branch of the right-hand side produced ``result``."""
    if isinstance(result[0], str):
        return result[0]
    vov = config.vg_waveform.segments[0][2] - config.vs_level \
        - config.selector.vth
    if result[2] > 0.0:
        return "saturation" if record[0] - config.vs_level >= vov else "triode"
    if vov <= 0.0:
        return "selector off"
    if 0.0 < vpd <= config.vs_level:
        return "no forward drop"
    return "device passes nothing" if vpd == 1e-320 else "other"


@pytest.mark.parametrize("mode", ["absent", "fresh", "warm"])
def test_segment_kernel_equals_the_composition_it_replaced(mode):
    # absent: no op-hint record; fresh: a new ``[None]`` record per call;
    # warm: one record per configuration carried through the whole grid.
    paths = set()
    for config in _configs():
        ref_hint = [None] if mode == "warm" else None
        new_hint = [None] if mode == "warm" else None
        for t in TIMES:
            for i_exp, photo in DRIVES:
                stim = Stimulus(i_exp)
                kernel = pixel.segment_kernel(config, stim, t, photo, new_hint)
                for vpd in VPDS:
                    for gap in _gaps(config):
                        if mode == "fresh":
                            ref_hint, new_hint = [None], [None]
                            kernel = pixel.segment_kernel(config, stim, t,
                                                          photo, new_hint)
                        want, want_bits = _outcome(
                            assemble_derivative, vpd, gap, t, config, stim,
                            photo, ref_hint)
                        _, got_bits = _outcome(kernel, vpd, gap)
                        assert got_bits == want_bits, \
                            (config, t, i_exp, photo, vpd, gap)
                        assert _padded(new_hint) == _padded(ref_hint)
                        if mode == "warm" and config.is_hybrid():
                            paths.add(_path(config, vpd, want, ref_hint))
    if mode == "warm":
        assert {"saturation", "triode", "selector off", "no forward drop",
                "device passes nothing"} <= paths


@pytest.mark.parametrize("warm", [False, True])
def test_solve_branch_current_equals_the_solve_it_replaced(warm):
    for ox in OXRAMS:
        sel = MosfetParams()
        for orientation in Orientation:
            ref_hint = [None] if warm else None
            new_hint = [None] if warm else None
            for vg in GATE_LEVELS:
                for vs in (0.0, 0.1):
                    for vpd in VPDS:
                        for gap in (ox.gap_min, 3.0, 6.0, ox.gap_max):
                            state = OxRamState(gap, orientation)
                            _, want = _outcome(solve_branch_current, vpd, vg,
                                               vs, state, ox, sel, ref_hint)
                            _, got = _outcome(pixel.solve_branch_current, vpd,
                                              vg, vs, state, ox, sel, new_hint)
                            assert got == want, (vpd, vg, vs, gap)
                            assert _padded(new_hint) == _padded(ref_hint)


def _segment_cases():
    """Random gate waveforms of 1-3 segments, reset times and exposures."""
    @st.composite
    def case(draw):
        trst = draw(st.floats(0.0, 2e-6))
        texp = draw(st.floats(1e-6, 10e-6))
        t_end = trst + texp
        n = draw(st.integers(1, 3))
        cuts = sorted(draw(st.lists(
            st.floats(0.0, t_end, exclude_min=True, exclude_max=True),
            min_size=n - 1, max_size=n - 1, unique=True)))
        edges = [0.0, *cuts, t_end]
        levels = draw(st.lists(st.floats(0.0, 3.3), min_size=n, max_size=n))
        topo = draw(st.sampled_from(list(Topology)))
        i_exp = 10.0 ** draw(st.floats(-13.0, -7.0))
        return trst, texp, tuple(zip(edges[:-1], edges[1:], levels)), topo, \
            i_exp
    return case()


@settings(max_examples=40, deadline=None)
@given(case=_segment_cases(), data=st.data())
def test_schedule_segments_hold_the_kernel_constants(case, data):
    trst, texp, segments, topo, i_exp = case
    pd = PhotodiodeParams(trst=trst, texp=texp)
    config = default_config(topo, pd=pd, vg_waveform=GateWaveform(segments))
    t_fwc = pd.trst + pd.fwc_electrons * ELEMENTARY_CHARGE / i_exp
    if not t_fwc < config.t_end:
        t_fwc = None
    stim = Stimulus(i_exp)
    wf = config.vg_waveform
    ox = config.oxram or OxRamParams()
    start = 0.0
    for end in _schedule(config, t_fwc):
        if end > start:
            last = math.nextafter(end, 0.0)
            points = [start, last] + [
                data.draw(st.floats(start, last)) for _ in range(2)]
            photo = t_fwc is None or start < t_fwc
            kernel = pixel.segment_kernel(config, stim, start, photo)
            for t in points:
                if wf is not None:
                    assert wf.level_at(t) == wf.level_at(start)
                assert (t < pd.trst) == (start < pd.trst)
                vpd = data.draw(st.floats(0.0, pd.vrst))
                gap = data.draw(st.floats(ox.gap_min, ox.gap_max))
                assert kernel(vpd, gap) == pixel.assemble_derivative(
                    vpd, gap, t, config, stim, photo)
        start = end
