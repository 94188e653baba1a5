"""Transient solver tests: oracles, events, conservation, determinism."""

import math

import numpy as np
import pytest

from oxpix.defaults import default_config
from oxpix.devices import ELEMENTARY_CHARGE, PhotodiodeParams
from oxpix.errors import SolverError
from oxpix import pixel, solver
from oxpix.pixel import GateWaveform, Stimulus, Topology, assemble_derivative
from oxpix.solver import (
    EventKind,
    SolverOptions,
    charge_balance_error,
    integrate,
)


def closed_form_vpd(pd: PhotodiodeParams, i_exp: float, t: float) -> float:
    """Reference discharge of the bare pixel with full-well and floor caps."""
    if t <= pd.trst:
        return pd.vrst
    q = i_exp * (t - pd.trst)
    q = min(q, pd.fwc_electrons * ELEMENTARY_CHARGE)
    return max(pd.vrst - q / pd.c_pd, 0.0)


@pytest.mark.parametrize("i_exp", [1e-12, 1e-10, 1e-9, 2.5e-9])
def test_bare_matches_closed_form(i_exp):
    cfg = default_config(Topology.BARE_3T)
    trace = integrate(cfg, Stimulus(i_exp), SolverOptions())
    expected = closed_form_vpd(cfg.pd, i_exp, cfg.t_end)
    assert trace.final_vpd == pytest.approx(expected, abs=1e-4)


def test_bare_one_nanoamp_final():
    cfg = default_config(Topology.BARE_3T)
    trace = integrate(cfg, Stimulus(1e-9), SolverOptions())
    assert trace.final_vpd == pytest.approx(0.47, abs=1e-4)


def test_bare_pointwise_oracle_until_clamp():
    # Max pointwise |vpd(t) - closed form| <= 1e-4 V for three exposures.
    cfg = default_config(Topology.BARE_3T)
    for i_exp in (1e-12, 1e-10, 1e-9):
        trace = integrate(cfg, Stimulus(i_exp), SolverOptions())
        ref = np.array([closed_form_vpd(cfg.pd, i_exp, t) for t in trace.t])
        assert float(np.max(np.abs(trace.vpd - ref))) <= 1e-4


def test_bare_zero_stimulus_exact():
    cfg = default_config(Topology.BARE_3T)
    trace = integrate(cfg, Stimulus(0.0), SolverOptions())
    assert trace.final_vpd == cfg.pd.vrst
    assert not trace.events


def test_case_i_saturates_near_reference_level(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_I, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    trace = integrate(cfg, Stimulus(1e-12), SolverOptions())
    assert trace.final_vpd == pytest.approx(1.17, abs=0.05)


def test_case_i_single_switching_event(calibrated):
    # Exactly one rupture-completion event during the programming window.
    cfg = default_config(Topology.HYBRID_CASE_I, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    trace = integrate(cfg, Stimulus(1e-12), SolverOptions())
    switching = [e for e in trace.events
                 if e.kind in (EventKind.SET_TO_RESET,
                               EventKind.SOFT_TO_HARD_RESET)]
    assert len(switching) == 1
    assert switching[0].t_event <= cfg.pd.trst


@pytest.mark.xfail(strict=True, reason=(
    "With the over-strong filament level reachable (criterion 7), the "
    "1.25 MOhm pre-programmed state sits mid-gap, so its completion is "
    "classified soft-RESET -> hard-RESET rather than SET -> RESET, and the "
    "branch-current peak sits at the start of the programming window, not "
    "within 100 ns of the 90 % crossing."))
def test_case_i_set_to_reset_coincides_with_current_peak(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_I, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    trace = integrate(cfg, Stimulus(1e-12), SolverOptions())
    events = trace.events_of(EventKind.SET_TO_RESET)
    assert len(events) == 1
    t_peak = float(trace.t[int(np.argmax(trace.i_ox))])
    assert abs(t_peak - events[0].t_event) <= 100e-9


def test_bare_run_has_no_oxram_events():
    cfg = default_config(Topology.BARE_3T)
    trace = integrate(cfg, Stimulus(1e-9), SolverOptions())
    kinds = {e.kind for e in trace.events}
    assert not kinds & {EventKind.SET_TO_RESET, EventKind.RESET_TO_SET,
                        EventKind.SOFT_TO_HARD_RESET, EventKind.ABRUPT_FALL}


def test_case_iii_reset_to_set_then_abrupt_fall(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_III, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    trace = integrate(cfg, Stimulus(1e-12), SolverOptions())
    r2s = trace.events_of(EventKind.RESET_TO_SET)
    fall = trace.events_of(EventKind.ABRUPT_FALL)
    assert len(r2s) == 1 and len(fall) == 1
    assert r2s[0].t_event < fall[0].t_event


def test_fwc_saturation_event_and_level():
    cfg = default_config(Topology.BARE_3T)
    trace = integrate(cfg, Stimulus(2.5e-9), SolverOptions())
    assert trace.events_of(EventKind.FWC_SATURATION)
    swing = cfg.pd.vrst - trace.final_vpd
    assert swing == pytest.approx(cfg.pd.full_well_swing, rel=1e-6)


@pytest.mark.parametrize("topo,i_exp", [
    (Topology.BARE_3T, 1e-9),
    (Topology.HYBRID_CASE_I, 0.0),
    (Topology.HYBRID_CASE_I, 2.5e-12),
    (Topology.HYBRID_CASE_I, 1e-9),
    (Topology.HYBRID_CASE_II, 1e-12),
    (Topology.HYBRID_CASE_II, 5e-10),
    (Topology.HYBRID_CASE_III, 1e-11),
])
def test_charge_conservation(calibrated, topo, i_exp):
    cfg = default_config(topo, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    trace = integrate(cfg, Stimulus(i_exp), SolverOptions())
    assert charge_balance_error(trace, cfg) <= 5e-3


def test_gap_stays_within_bounds(calibrated):
    for topo in (Topology.HYBRID_CASE_I, Topology.HYBRID_CASE_II,
                 Topology.HYBRID_CASE_III):
        cfg = default_config(topo, oxram=calibrated.oxram,
                             selector=calibrated.selector)
        trace = integrate(cfg, Stimulus(5e-11), SolverOptions())
        assert float(trace.gap.min()) >= cfg.oxram.gap_min - 1e-12
        assert float(trace.gap.max()) <= cfg.oxram.gap_max + 1e-12


def test_determinism_bit_identical(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_I, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    a = integrate(cfg, Stimulus(3.3e-12), SolverOptions())
    b = integrate(cfg, Stimulus(3.3e-12), SolverOptions())
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.vpd, b.vpd)
    assert np.array_equal(a.i_ox, b.i_ox)
    assert np.array_equal(a.gap, b.gap)
    assert a.final_vpd == b.final_vpd


def test_tolerance_convergence(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_I, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    coarse = integrate(cfg, Stimulus(1e-12), SolverOptions(rel_tol=1e-5))
    fine = integrate(cfg, Stimulus(1e-12), SolverOptions(rel_tol=5e-6))
    budget = max(coarse.est_error_v, 10 * SolverOptions().abs_tol_v)
    assert abs(coarse.final_vpd - fine.final_vpd) <= budget


def test_reset_noise_is_optional_and_seeded():
    cfg = default_config(Topology.BARE_3T)
    opts = SolverOptions(reset_noise=True, noise_seed=7)
    a = integrate(cfg, Stimulus(0.0), opts)
    b = integrate(cfg, Stimulus(0.0), opts)
    assert a.vstart == b.vstart
    assert a.vstart != cfg.pd.vrst
    sigma = cfg.pd.reset_noise_sigma
    assert abs(a.vstart - cfg.pd.vrst) < 6 * sigma


def test_stiffness_diagnostic_carries_state(calibrated):
    # Forcing max_step == min_step leaves no room to resolve the collapse,
    # which must surface as a diagnostic, not a wrong answer.
    cfg = default_config(Topology.HYBRID_CASE_III, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    opts = SolverOptions(max_step=1e-8, min_step=1e-8)
    with pytest.raises(SolverError) as err:
        integrate(cfg, Stimulus(1e-9), opts)
    assert "t" in err.value.detail


def test_trace_downsampling_keeps_events():
    cfg = default_config(Topology.HYBRID_CASE_III)
    opts = SolverOptions(max_trace_points=64)
    trace = integrate(cfg, Stimulus(1e-11), opts)
    assert len(trace.t) <= 3 * 64  # every k-th plus event-adjacent samples
    assert trace.events_of(EventKind.ABRUPT_FALL)
    assert np.all(np.diff(trace.t) > 0)


def test_trace_time_strictly_increasing_and_first_sample():
    cfg = default_config(Topology.HYBRID_CASE_I)
    trace = integrate(cfg, Stimulus(1e-12), SolverOptions())
    assert trace.vpd[0] == cfg.pd.vrst
    assert np.all(np.diff(trace.t) > 0)


def test_long_exposure_with_selector_disconnected():
    # 2 ms at 1 pA with the selector held off: the hybrid keeps a readable
    # level because the resistive branch is out of the circuit.
    pd = PhotodiodeParams(texp=2e-3)
    wf = GateWaveform(((0.0, pd.trst + pd.texp, 0.0),))
    cfg = default_config(Topology.HYBRID_CASE_I, pd=pd, vg_waveform=wf)
    opts = SolverOptions(max_step=1e-6)
    trace = integrate(cfg, Stimulus(1e-12), opts)
    assert trace.final_vpd == pytest.approx(1.42 - 0.2, abs=1e-3)


def radau_final_vpd(cfg, i_exp: float) -> float:
    """Final VPD from scipy's Radau on the same right-hand side, one phase
    at a time, with the gap clipped to its bounds as the stepper does."""
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    stimulus = Stimulus(i_exp)
    p = cfg.oxram
    hint = [None]
    y = [cfg.pd.vrst, cfg.oxram_init.gap_x]
    for t0, t1 in ((0.0, cfg.pd.trst), (cfg.pd.trst, cfg.t_end)):
        t_last = math.nextafter(t1, 0.0)

        def f(t, yy, t_last=t_last):
            gap = min(max(yy[1], p.gap_min), p.gap_max)
            dv, dg, _ = assemble_derivative(yy[0], gap, min(t, t_last), cfg,
                                            stimulus, True, hint)
            return [dv, dg]

        sol = solve_ivp(f, (t0, t1), y, method="Radau", rtol=1e-10,
                        atol=[1e-13, 1e-10])
        assert sol.success, sol.message
        y = sol.y[:, -1]
    return float(y[0])


@pytest.mark.parametrize("topo,i_exp,max_step", [
    (Topology.HYBRID_CASE_I, 1e-12, None),
    (Topology.HYBRID_CASE_I, 1e-10, None),
    (Topology.HYBRID_CASE_II, 1e-12, None),
    (Topology.HYBRID_CASE_I, 1e-12, 1e-6),
])
def test_final_vpd_matches_radau_oracle(calibrated, topo, i_exp, max_step):
    # Case (i) crosses the selector knee late in the exposure; a step over
    # that kink leaves the final VPD ~6.5e-7 V off.
    cfg = default_config(topo, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    opts = SolverOptions() if max_step is None else SolverOptions(max_step=max_step)
    trace = integrate(cfg, Stimulus(i_exp), opts)
    assert trace.final_vpd == pytest.approx(radau_final_vpd(cfg, i_exp),
                                            abs=2e-8)


@pytest.mark.parametrize("topo,kind", [
    (Topology.HYBRID_CASE_I, EventKind.SOFT_TO_HARD_RESET),
    (Topology.HYBRID_CASE_III, EventKind.RESET_TO_SET),
])
def test_switching_event_time_independent_of_step_cap(calibrated, topo, kind):
    cfg = default_config(topo, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    coarse = integrate(cfg, Stimulus(1e-12), SolverOptions())
    fine = integrate(cfg, Stimulus(1e-12), SolverOptions(max_step=1e-9))
    (a,) = coarse.events_of(kind)
    (b,) = fine.events_of(kind)
    assert abs(a.t_event - b.t_event) <= 2e-9


def test_stats_six_rhs_evaluations_per_step():
    cfg = default_config(Topology.BARE_3T)
    trace = integrate(cfg, Stimulus(1e-9), SolverOptions())
    stats = trace.stats
    assert stats.accepted > 0
    # Plus one evaluation at t = 0 and one after the reset release.
    assert stats.rhs_evals <= 6 * stats.accepted + 2
    thinned = integrate(cfg, Stimulus(1e-9), SolverOptions(max_trace_points=16))
    assert len(thinned.t) < len(trace.t)
    assert thinned.stats == stats


def test_stats_current_limiter_rarely_rejects(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_III, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    stats = integrate(cfg, Stimulus(1e-12), SolverOptions()).stats
    assert stats.rejected_current < 0.1 * stats.accepted


def _same_trace(a, b):
    assert np.array_equal(a.t, b.t)
    assert np.array_equal(a.vpd, b.vpd)
    assert np.array_equal(a.gap, b.gap)
    assert np.array_equal(a.i_ox, b.i_ox)
    assert a.events == b.events
    assert a.est_error_v == b.est_error_v
    assert a.stats == b.stats
    assert (a.final_vpd, a.final_gap, a.vstart) == \
        (b.final_vpd, b.final_gap, b.vstart)


@pytest.mark.parametrize("topo,i_exp,noise", [
    (Topology.HYBRID_CASE_I, 0.0, False),
    (Topology.HYBRID_CASE_I, 1e-9, False),
    (Topology.HYBRID_CASE_III, 0.0, False),
    (Topology.HYBRID_CASE_III, 1e-9, False),
    (Topology.HYBRID_CASE_I, 1e-9, True),
])
def test_shared_reset_phase_cold_equals_warm(calibrated, topo, i_exp, noise):
    cfg = default_config(topo, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    opts = SolverOptions(reset_noise=noise, noise_seed=5)
    solver._reset_phase.cache_clear()
    cold = integrate(cfg, Stimulus(i_exp), opts)
    # As in a sweep: another exposure fills the entry this one starts from.
    solver._reset_phase.cache_clear()
    integrate(cfg, Stimulus(3e-12), opts)
    warm = integrate(cfg, Stimulus(i_exp), opts)
    info = solver._reset_phase.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    _same_trace(cold, warm)
    assert warm.stats.rhs_evals > 0
    # Callers own their trace: mutating one must not reach the shared phase.
    warm.stats.accepted += 1000
    warm.events.clear()
    _same_trace(cold, integrate(cfg, Stimulus(i_exp), opts))


def test_shared_reset_phase_keyed_by_config_and_options(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_I, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    other_init = default_config(Topology.HYBRID_CASE_I,
                                oxram=calibrated.oxram,
                                selector=calibrated.selector,
                                init_resistance=5e6)
    for config, opts, misses in ((cfg, SolverOptions(), 0),
                                 (other_init, SolverOptions(), 1),
                                 (cfg, SolverOptions(rel_tol=1e-7), 1)):
        solver._reset_phase.cache_clear()
        integrate(cfg, Stimulus(1e-12), SolverOptions())
        integrate(config, Stimulus(2e-12), opts)
        assert solver._reset_phase.cache_info().misses == 1 + misses


def test_stats_count_newton_evaluations_and_step_range(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_I, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    stats = integrate(cfg, Stimulus(1e-12), SolverOptions()).stats
    assert 0 < stats.newton_evals <= 2.5 * stats.rhs_evals
    assert 0.0 < stats.h_min <= stats.h_max <= SolverOptions().max_step
    bare = integrate(default_config(Topology.BARE_3T), Stimulus(1e-12),
                     SolverOptions()).stats
    assert bare.newton_evals == 0
    assert bare.h_min <= bare.h_max


def test_stats_count_kcl_solves(monkeypatch):
    # Every hybrid right-hand side solves the internal node, except past the
    # reset release with VPD at or below ground (the floor clamp).
    floor_calls = []

    def counting_kernel(config, stimulus, t, photo_active, op_hint):
        kernel = pixel.segment_kernel(config, stimulus, t, photo_active,
                                      op_hint)

        def counted(vpd, gap):
            if t >= config.pd.trst and vpd <= 0.0:
                floor_calls.append(vpd)
            return kernel(vpd, gap)
        return counted

    monkeypatch.setattr(solver, "segment_kernel", counting_kernel)
    lit = integrate(default_config(Topology.HYBRID_CASE_I), Stimulus(1e-12),
                    SolverOptions())
    assert not floor_calls
    assert lit.stats.kcl_solves == lit.stats.rhs_evals
    collapse = integrate(default_config(Topology.HYBRID_CASE_III),
                         Stimulus(1e-8), SolverOptions())
    assert collapse.events_of(EventKind.VPD_FLOOR_CLAMP) and floor_calls
    assert collapse.stats.kcl_solves \
        == collapse.stats.rhs_evals - len(floor_calls)
    bare = integrate(default_config(Topology.BARE_3T), Stimulus(1e-12),
                     SolverOptions())
    assert bare.stats.kcl_solves == 0
