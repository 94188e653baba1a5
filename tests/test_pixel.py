"""Circuit assembly tests: node equations, operating point, programming."""

from dataclasses import replace

import pytest

from oxpix.defaults import default_config, vg_for_current
from oxpix.devices import (
    MosfetParams,
    Orientation,
    OxRamParams,
    OxRamState,
    PhotodiodeParams,
    oxram_current,
    selector_current,
    state_from_resistance,
)
from oxpix.errors import InvalidInputError, UnsupportedOperationError
from oxpix.pixel import (
    GateWaveform,
    PixelConfig,
    Stimulus,
    Topology,
    assemble_derivative,
    build_vg_waveform,
    preprogram,
    solve_branch_current,
)
from oxpix.solver import SolverOptions, integrate


def off_gate(pd):
    return GateWaveform(((0.0, pd.trst + pd.texp, 0.0),))


def test_selector_off_reduces_to_bare_discharge():
    # vg = 0, i_exp = 1 nA, c_pd = 10 fF -> dvpd/dt = -1e5 V/s, i_ox = 0.
    pd = PhotodiodeParams()
    cfg = default_config(Topology.HYBRID_CASE_I, pd=pd, vg_waveform=off_gate(pd))
    dvpd, dgap, i_ox = assemble_derivative(
        1.2, cfg.oxram_init.gap_x, 2e-6, cfg, Stimulus(1e-9))
    assert i_ox == 0.0
    assert dgap == 0.0
    assert dvpd == pytest.approx(-1.0e5, rel=1e-12)


def test_bare_exposure_slope_continues_below_ground():
    # The floor is the solver's: the right-hand side has no clamp at 0 V.
    cfg = default_config(Topology.BARE_3T)
    for vpd in (0.0, -0.1):
        assert assemble_derivative(vpd, 0.0, 2e-6, cfg, Stimulus(1e-9)) \
            == (-1e-9 / cfg.pd.c_pd, 0.0, 0.0)


@pytest.mark.xfail(strict=True, reason=(
    "The high-field filament surge that produces the case (i) saturation "
    "floor conducts tens of nA at the reset level even in the hard-RESET "
    "state, so the RESET-state drain necessarily exceeds the linearized "
    "0.1-V-read Ohm bound; the saturation acceptance criterion takes "
    "precedence over this example."))
def test_hard_reset_drain_within_ohmic_bound():
    # i_exp = 0, hybrid with hard-RESET device at vpd = 1.42 V:
    # |dvpd_dt| <= 1.42 / (60e9 * 10e-15) ~= 2.4e3 V/s.
    cfg = default_config(Topology.HYBRID_CASE_I, init_resistance=None)
    gap = cfg.oxram.gap_max
    dvpd, _, _ = assemble_derivative(1.42, gap, 2e-6, cfg, Stimulus(0.0))
    assert abs(dvpd) <= 1.42 / (60e9 * 10e-15)


def test_kcl_at_operating_point():
    # Branch current equals both the device and selector currents.
    p = OxRamParams()
    m = MosfetParams()
    for r_init, vg, vpd in [(1.25e6, 3.3, 1.42), (5e6, 0.52, 1.3),
                            (8e3, 3.3, 1.42), (60e9, 3.3, 1.0)]:
        state = state_from_resistance(min(r_init, 59e9), 0.1, p)
        i, v_dev = solve_branch_current(vpd, vg, 0.0, state, p, m)
        i_dev = oxram_current(
            state, v_dev, v_dev * (state.gap_x / p.gap_max), p)
        i_sel = selector_current(vg, vpd - v_dev, m)
        scale = max(abs(i_dev), abs(i_sel), 1e-30)
        assert abs(i_dev - i_sel) <= 1e-9 * scale
        assert abs(i - i_dev) <= 1e-9 * scale


def test_discharge_only_during_exposure():
    # Cases (i)/(ii) orientation: dvpd/dt <= 0 through the exposure.
    for topo in (Topology.HYBRID_CASE_I, Topology.HYBRID_CASE_II):
        cfg = default_config(topo)
        for vpd in (0.2, 0.7, 1.1, cfg.pd.vrst):
            for gap in (cfg.oxram.gap_min, 4.0, cfg.oxram.gap_max):
                dvpd, _, i_ox = assemble_derivative(
                    vpd, gap, 2e-6, cfg, Stimulus(1e-12))
                assert dvpd <= 0.0
                assert i_ox >= 0.0


def test_preprogram_set_state():
    cfg = default_config(Topology.HYBRID_CASE_I)
    out = preprogram(cfg, 1.25e6)
    assert out.oxram_init.orientation is Orientation.BE_AT_PD
    from oxpix.devices import read_resistance
    assert read_resistance(out.oxram_init, 0.1, out.oxram) == pytest.approx(
        1.25e6, rel=0.01)


def test_preprogram_soft_reset_case_ii():
    cfg = default_config(Topology.HYBRID_CASE_II)
    out = preprogram(cfg, 5e6)
    from oxpix.devices import read_resistance
    assert read_resistance(out.oxram_init, 0.1, out.oxram) == pytest.approx(
        5e6, rel=0.01)
    # Intermediate gap: well inside the span.
    frac = (out.oxram_init.gap_x - out.oxram.gap_min) / \
        (out.oxram.gap_max - out.oxram.gap_min)
    assert 0.1 < frac < 0.9


def test_preprogram_hard_reset_boundary():
    from oxpix.devices import read_resistance
    cfg = default_config(Topology.HYBRID_CASE_III)
    r_top = read_resistance(OxRamState(cfg.oxram.gap_max,
                                       Orientation.TE_AT_PD), 0.1, cfg.oxram)
    out = preprogram(cfg, r_top)
    assert out.oxram_init.gap_x == pytest.approx(cfg.oxram.gap_max, abs=1e-3)


def test_preprogram_rejects_bare():
    cfg = default_config(Topology.BARE_3T)
    with pytest.raises(UnsupportedOperationError):
        preprogram(cfg, 1.25e6)


def test_preprogram_rejects_unreachable_target():
    from oxpix.errors import OutOfRangeError
    cfg = default_config(Topology.HYBRID_CASE_I)
    with pytest.raises(OutOfRangeError):
        preprogram(cfg, 1.0)


def test_build_vg_waveform_constant():
    wf = build_vg_waveform(1.0, t_total=10e-6)
    assert wf.segments == ((0.0, 10e-6, 1.0),)
    assert wf.level_at(5e-6) == 1.0


def test_build_vg_waveform_rejects_gaps():
    ramp = [(0.0, 4e-6, 1.0), (4e-6, 10e-6, 2.0)]
    wf = build_vg_waveform(1.0, ramp, t_total=10e-6)
    assert wf.segments == tuple(ramp)
    assert wf.level_at(5e-6) == 2.0
    with pytest.raises(InvalidInputError, match="ends at"):
        build_vg_waveform(1.0, ramp[:1], t_total=10e-6)
    with pytest.raises(InvalidInputError, match="at least one segment"):
        GateWaveform(())
    with pytest.raises(InvalidInputError, match="start at t = 0"):
        GateWaveform(((1e-6, 10e-6, 1.0),))
    with pytest.raises(InvalidInputError):
        build_vg_waveform(1.0, [(0.0, 3e-6, 1.0), (4e-6, 10e-6, 2.0)],
                          t_total=10e-6)
    with pytest.raises(InvalidInputError):
        build_vg_waveform(1.0, [(0.0, 5e-6, 1.0), (4e-6, 10e-6, 2.0)],
                          t_total=10e-6)
    with pytest.raises(InvalidInputError):
        build_vg_waveform(4.0, t_total=10e-6)  # above the rail


def test_staged_gate_limits_early_current():
    # Holding the gate low through the early exposure lowers the peak
    # branch current of the first microsecond, compared to a constant
    # high gate (paired-simulation comparison).
    pd = PhotodiodeParams()
    t_end = pd.trst + pd.texp
    low_then_high = GateWaveform(
        ((0.0, pd.trst + 1e-6, vg_for_current(2.6e-10, MosfetParams())),
         (pd.trst + 1e-6, t_end, 3.3)))
    constant_high = GateWaveform(((0.0, t_end, 3.3),))
    opts = SolverOptions()
    peaks = {}
    for name, wf in [("staged", low_then_high), ("high", constant_high)]:
        cfg = default_config(Topology.HYBRID_CASE_I, pd=pd, vg_waveform=wf)
        tr = integrate(cfg, Stimulus(1e-12), opts)
        early = tr.t <= pd.trst + 1e-6
        peaks[name] = float(abs(tr.i_ox[early]).max())
    assert peaks["staged"] < peaks["high"]


def test_selector_off_hybrid_equals_bare_pointwise():
    pd = PhotodiodeParams()
    opts = SolverOptions()
    hybrid = default_config(Topology.HYBRID_CASE_I, pd=pd,
                            vg_waveform=off_gate(pd))
    bare = default_config(Topology.BARE_3T, pd=pd)
    tr_h = integrate(hybrid, Stimulus(1e-10), opts)
    tr_b = integrate(bare, Stimulus(1e-10), opts)
    # identical step sequences, identical values
    assert len(tr_h.t) == len(tr_b.t)
    assert float(abs(tr_h.vpd - tr_b.vpd).max()) <= 1e-9
    assert float(abs(tr_h.i_ox).max()) == 0.0


def test_config_validation():
    with pytest.raises(InvalidInputError):
        PixelConfig(topology=Topology.HYBRID_CASE_I)  # missing oxram
    hybrid = default_config(Topology.HYBRID_CASE_I)
    with pytest.raises(InvalidInputError, match="gate waveform"):
        replace(hybrid, vg_waveform=None)
    with pytest.raises(InvalidInputError, match="before the schedule end"):
        replace(hybrid, vg_waveform=GateWaveform(
            ((0.0, hybrid.pd.t_end / 2, 1.0),)))
    p = OxRamParams()
    with pytest.raises(InvalidInputError):
        PixelConfig(topology=Topology.HYBRID_CASE_III, oxram=p,
                    oxram_init=OxRamState(5.0, Orientation.BE_AT_PD),
                    vg_waveform=GateWaveform(((0.0, 10e-6, 1.0),)))


@pytest.mark.parametrize("vg,regime", [(0.52, "saturation"), (3.3, "triode")])
def test_kcl_predicted_start_matches_cold_solve(vg, regime):
    p = OxRamParams()
    m = MosfetParams()
    state = state_from_resistance(1.25e6, 0.1, p)
    record = [None]
    solve_branch_current(1.40, vg, 0.0, state, p, m, hint=record)
    assert len(record) == 4 and record[1] == 1.40 and 0.0 <= record[2] <= 1.0
    evals = record[3]
    for vpd in (1.4001, 1.39, 1.2):
        i_pred, v_pred = solve_branch_current(vpd, vg, 0.0, state, p, m,
                                              hint=record)
        i_cold, v_cold = solve_branch_current(vpd, vg, 0.0, state, p, m)
        assert abs(i_pred - i_cold) <= 1e-12 * abs(i_cold)
        v_m = vpd - v_cold
        assert (v_m >= vg - m.vth) == (regime == "saturation")
        assert record[0] == pytest.approx(vpd - v_pred, abs=1e-15)
        assert record[1] == vpd
        assert record[3] > evals
        evals = record[3]
