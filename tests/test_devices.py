"""Device model unit tests: conduction, switching rates, read-out."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from oxpix import devices
from oxpix.calibration import _BOX_DECADES
from oxpix.devices import (
    MosfetParams,
    Orientation,
    OxRamParams,
    OxRamState,
    PhotodiodeParams,
    device_current_and_slope,
    gap_velocity,
    oxram_current,
    read_resistance,
    selector_current,
    state_from_resistance,
)
from oxpix.errors import InvalidInputError, OutOfRangeError
from oxpix.experiments import ReadableWindow, SweepSpec
from oxpix.pixel import GateWaveform, PixelConfig, Stimulus, Topology
from oxpix.solver import SolverOptions


@pytest.fixture(scope="module")
def params():
    return OxRamParams()


def test_zero_voltage_zero_current(params):
    state = OxRamState(0.5 * (params.gap_min + params.gap_max))
    assert oxram_current(state, 0.0, 0.0, params) == 0.0


def test_hard_reset_current_matches_ohms_law(calibrated):
    # 0.1 V / 60 GOhm, within the post-calibration tolerance.
    p = calibrated.oxram
    state = OxRamState(p.gap_max)
    i = oxram_current(state, 0.1, 0.1 * state.gap_x / p.gap_max, p)
    expected = 0.1 / 60e9
    assert i == pytest.approx(expected, rel=0.20)


def test_set_state_current_matches_ohms_law(calibrated):
    p = calibrated.oxram
    state = state_from_resistance(1.25e6, 0.1, p)
    i = oxram_current(state, 0.1, 0.1 * state.gap_x / p.gap_max, p)
    assert i == pytest.approx(0.1 / 1.25e6, rel=0.20)


def test_non_finite_input_rejected(params):
    state = OxRamState(params.gap_min)
    with pytest.raises(InvalidInputError):
        oxram_current(state, float("nan"), 0.0, params)
    with pytest.raises(InvalidInputError):
        oxram_current(state, 0.1, float("inf"), params)
    for gap in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="non-finite gap_x"):
            oxram_current(OxRamState(gap), 0.1, 0.0, params)
    with pytest.raises(InvalidInputError, match="non-finite v_device"):
        gap_velocity(state, math.nan, params)
    for vgs, vds in ((math.nan, 0.1), (1.0, -math.inf)):
        with pytest.raises(InvalidInputError, match="non-finite bias"):
            selector_current(vgs, vds, MosfetParams())


def test_sinh_clips_at_both_signs():
    # Beyond the largest argument evaluated, the clip keeps sinh odd.
    top = devices._EXP_ARG_MAX
    assert devices._safe_sinh(top) == math.sinh(top)
    for x in (top * (1 + 1e-15), 1e4, math.inf):
        assert devices._safe_sinh(x) == devices._SINH_CLIP
        assert devices._safe_sinh(-x) == -devices._SINH_CLIP


@settings(max_examples=60, deadline=None)
@given(gap=st.floats(0.6, 9.4), v=st.floats(-2.5, 2.5, allow_nan=False))
def test_current_is_odd_in_voltage(gap, v):
    p = OxRamParams()
    state = OxRamState(gap)
    vgap = v * gap / p.gap_max
    assert oxram_current(state, -v, -vgap, p) == -oxram_current(state, v, vgap, p)


def test_gap_velocity_zero_at_zero_drive(params):
    assert gap_velocity(OxRamState(3.0), 0.0, params) == 0.0


def test_gap_velocity_clamps_at_driven_bound(params):
    at_max = OxRamState(params.gap_max, Orientation.BE_AT_PD)
    assert gap_velocity(at_max, 1.42, params) == 0.0
    at_min = OxRamState(params.gap_min, Orientation.TE_AT_PD)
    assert gap_velocity(at_min, 1.42, params) == 0.0


def test_gap_velocity_polarity_by_orientation(params):
    mid_be = OxRamState(3.0, Orientation.BE_AT_PD)
    mid_te = OxRamState(3.0, Orientation.TE_AT_PD)
    assert gap_velocity(mid_be, 1.0, params) > 0.0      # rupture
    assert gap_velocity(mid_be, -1.0, params) < 0.0     # growth
    assert gap_velocity(mid_te, 1.0, params) < 0.0      # growth
    assert gap_velocity(mid_te, -1.0, params) > 0.0     # rupture


def test_rupture_time_hits_anchor(calibrated):
    # Constant 1.42 V drive from the closed state opens the gap fully in
    # about 510 ns.
    p = calibrated.oxram
    rate = gap_velocity(OxRamState(p.gap_min), 1.42, p)
    t_reset = (p.gap_max - p.gap_min) / rate
    assert t_reset == pytest.approx(510e-9, rel=0.10)


def test_read_resistance_anchors(calibrated):
    p = calibrated.oxram
    r_set = read_resistance(state_from_resistance(1.25e6, 0.1, p), 0.1, p)
    assert r_set == pytest.approx(1.25e6, rel=0.20)
    r_reset = read_resistance(OxRamState(p.gap_max), 0.1, p)
    assert r_reset == pytest.approx(60e9, rel=0.20)


def test_read_resistance_rejects_zero_vread(params):
    with pytest.raises(InvalidInputError):
        read_resistance(OxRamState(3.0), 0.0, params)


# The fitted fields of the conduction law, which the read resistance reads.
_CONDUCTION = ("i0_cf", "cf_field_b", "i0_ox", "ox_decay_c", "ox_field_d")


def _conduction_box_ends(p):
    """``p``, then ``p`` with each conduction field at either end of its fit
    box."""
    yield p
    for field in _CONDUCTION:
        for sign in (-1, 1):
            value = getattr(p, field) * 10.0 ** (sign * _BOX_DECADES[field])
            yield replace(p, **{field: value})


def test_read_resistance_monotone_in_gap(params):
    # The premise of ``state_from_resistance``'s bisection, on the
    # 4097-point dyadic grid, at the defaults and across the fit box.
    for p in _conduction_box_ends(params):
        gaps = [p.gap_min + k * (p.gap_max - p.gap_min) / 4096
                for k in range(4097)]
        rs = [read_resistance(OxRamState(g), 0.1, p) for g in gaps]
        assert all(a < b for a, b in zip(rs, rs[1:])), p


def test_state_from_resistance_round_trip(params):
    for target in (8e3, 1.25e6, 5e6, 1e9, 30e9):
        state = state_from_resistance(target, 0.1, params)
        assert read_resistance(state, 0.1, params) == pytest.approx(
            target, rel=0.01)


def test_state_from_resistance_boundary(params):
    r_top = read_resistance(OxRamState(params.gap_max), 0.1, params)
    state = state_from_resistance(r_top, 0.1, params)
    assert state.gap_x == pytest.approx(params.gap_max, abs=1e-3)


def test_state_from_resistance_out_of_range_names_bounds(params):
    with pytest.raises(OutOfRangeError) as err:
        state_from_resistance(1.0, 0.1, params)
    assert "reachable range" in str(err.value)


def test_gap_round_trip_identity(params):
    # state_from_resistance(read_resistance(x)) recovers the gap.
    for gap in (1.0, 3.0, 6.0, 9.0):
        r = read_resistance(OxRamState(gap), 0.1, params)
        state = state_from_resistance(r, 0.1, params)
        assert state.gap_x == pytest.approx(gap, abs=0.02)


def _bisect_with_read_resistance(r_target, vread, p, rel_tol=1e-3):
    lo, hi = p.gap_min, p.gap_max
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_mid = read_resistance(OxRamState(mid), vread, p)
        if r_mid < r_target:
            lo = mid
        else:
            hi = mid
        if abs(r_mid - r_target) <= rel_tol * r_target:
            return mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("rel_tol", [1e-3, 0.0])
def test_state_from_resistance_equals_plain_bisection(params, rel_tol):
    # rel_tol = 0 runs the bisection to its iteration limit.
    for p in (params, OxRamParams(i0_ox=params.i0_ox * 1.8),
              OxRamParams(ox_decay_c=2.1, cf_field_b=41.0, i0_cf=5e-31)):
        r_min = read_resistance(OxRamState(p.gap_min), 0.1, p)
        r_max = read_resistance(OxRamState(p.gap_max), 0.1, p)
        for k in (0.0, 0.1, 0.37, 0.8, 1.0):
            target = r_min * (r_max / r_min) ** k
            state = state_from_resistance(target, 0.1, p, rel_tol=rel_tol)
            assert state.gap_x == _bisect_with_read_resistance(
                target, 0.1, p, rel_tol)


def test_state_from_resistance_rejects_bad_inputs(params):
    for vread in (0.0, float("nan")):
        with pytest.raises(InvalidInputError):
            state_from_resistance(1.25e6, vread, params)
    for target in (float("nan"), -1.25e6):
        with pytest.raises(InvalidInputError):
            state_from_resistance(target, 0.1, params)


def test_selector_off_below_threshold():
    m = MosfetParams()
    for vds in (0.0, 0.3, 1.0):
        assert selector_current(0.0, vds, m) == 0.0


def test_selector_zero_vds_zero_current():
    m = MosfetParams()
    assert selector_current(2.0, 0.0, m) == 0.0


def test_selector_passes_programming_current(calibrated):
    # The reset transition needs at least 11 uA at the programming bias.
    sel = calibrated.selector
    i = selector_current(3.3, 2.0, sel)
    assert i >= 11e-6


def test_selector_triode_saturation_continuity():
    m = MosfetParams(vth=0.5, kprime=1.3e-4, lam=0.02)
    vgs = 1.3
    vov = vgs - m.vth
    below = selector_current(vgs, vov * (1 - 1e-12), m)
    above = selector_current(vgs, vov * (1 + 1e-12), m)
    assert abs(below - above) <= 1e-12 * max(abs(below), abs(above))


def test_selector_negative_vds_symmetry():
    m = MosfetParams()
    # Swapping terminals: gate overdrive referenced to the lower terminal.
    i_fwd = selector_current(1.5, 0.4, m)
    i_rev = selector_current(1.5 - (-0.4), 0.4, m)
    assert selector_current(1.5, -0.4, m) == -i_rev
    assert i_fwd > 0.0


def test_params_invariants_rejected():
    with pytest.raises(InvalidInputError):
        OxRamParams(gap_min=5.0, gap_max=4.0)
    with pytest.raises(InvalidInputError):
        OxRamParams(i0_ox=-1.0)
    with pytest.raises(InvalidInputError):
        OxRamParams(c_pox=-1e-15)
    with pytest.raises(InvalidInputError):
        MosfetParams(vth=0.0)
    with pytest.raises(InvalidInputError):
        PhotodiodeParams(c_pd=0.0)
    with pytest.raises(InvalidInputError):
        PhotodiodeParams(texp=-1.0)


_NAN, _INF = float("nan"), float("inf")

# Every float field of these classes must be finite, and positive or
# non-negative; the cases are read off the fields, so a new one is covered.
_CHECKED = (OxRamParams, MosfetParams, PhotodiodeParams, SolverOptions,
            ReadableWindow, SweepSpec, Stimulus)
# Classes that need more than the one value under test.
_BUILD = {
    SweepSpec: lambda **kw: SweepSpec(PixelConfig(Topology.BARE_3T), **kw),
    GateWaveform: lambda level: GateWaveform(((0.0, 1e-6, level),)),
}


@pytest.mark.parametrize("cls,name,value", [
    *((cls, f.name, value) for cls in _CHECKED for f in fields(cls)
      if f.type in ("float", float) for value in (_NAN, _INF, -_INF, -1.0)),
    (GateWaveform, "level", _NAN),
])
def test_non_finite_or_negative_field_rejected(cls, name, value):
    # A comparison with NaN is false, so a check written as ``x < 0`` lets
    # NaN through, and one written as ``x > 0`` lets +inf through.
    with pytest.raises(InvalidInputError,
                       match="lambda" if name == "lam" else name):
        _BUILD.get(cls, cls)(**{name: value})


@pytest.mark.parametrize("gap", [0.6, 4.0, 9.4])
def test_device_current_and_slope_is_the_device_law(params, gap):
    # The same current as the validated model with the divider applied,
    # and its slope.
    def current(v):
        return oxram_current(OxRamState(gap), v, v * (gap / params.gap_max),
                             params)

    for v in (0.05, 0.4, 1.2):
        i, di = device_current_and_slope(gap, v, params)
        assert i == pytest.approx(current(v), rel=1e-13)
        dv = 1e-7 * v
        fd = (current(v + dv) - current(v - dv)) / (2 * dv)
        assert di == pytest.approx(fd, rel=1e-6)
