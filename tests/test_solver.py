"""Transient solver tests: oracles, events, conservation, determinism."""

import copy
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oxpix.defaults import (R_RESET_LEVELS, R_SET_LEVELS, default_config,
                            vg_for_current)
from oxpix.devices import ELEMENTARY_CHARGE, MosfetParams, PhotodiodeParams
from oxpix.errors import InvalidInputError, SolverError
from oxpix import events, pixel, solver
from oxpix.experiments import SweepSpec, table1_report
from oxpix.pixel import (VG_RAIL, GateWaveform, Stimulus, Topology,
                         assemble_derivative)
from oxpix.solver import (
    EventKind,
    SolverOptions,
    charge_balance_error,
    integrate,
)


def events_of(trace, kind: EventKind) -> list:
    """The events of ``trace`` of one kind, in time order."""
    return [e for e in trace.events if e.kind is kind]


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
    expected = closed_form_vpd(cfg.pd, i_exp, cfg.pd.t_end)
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


@pytest.mark.parametrize("i_exp", [2e-9, 1e-8])
def test_bare_run_ends_at_its_floor_crossing(i_exp):
    # A well that never fills: the linear discharge reaches the floor, and
    # the step that runs past it is cut at the closed-form crossing.
    pd = PhotodiodeParams(fwc_electrons=1e6)
    cfg = default_config(Topology.BARE_3T, pd=pd)
    trace = integrate(cfg, Stimulus(i_exp), SolverOptions())
    (floor,) = events_of(trace, EventKind.VPD_FLOOR_CLAMP)
    assert floor.t_event == pytest.approx(pd.trst + pd.vrst * pd.c_pd / i_exp,
                                          rel=1e-12)
    ref = np.array([closed_form_vpd(pd, i_exp, t) for t in trace.t])
    assert float(np.max(np.abs(trace.vpd - ref))) <= 1e-12


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
    events = events_of(trace, EventKind.SET_TO_RESET)
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
    r2s = events_of(trace, EventKind.RESET_TO_SET)
    fall = events_of(trace, EventKind.ABRUPT_FALL)
    assert len(r2s) == 1 and len(fall) == 1
    assert r2s[0].t_event < fall[0].t_event


def test_fwc_saturation_event_and_level():
    cfg = default_config(Topology.BARE_3T)
    trace = integrate(cfg, Stimulus(2.5e-9), SolverOptions())
    assert events_of(trace, EventKind.FWC_SATURATION)
    swing = cfg.pd.vrst - trace.final_vpd
    full_well_swing = cfg.pd.fwc_electrons * ELEMENTARY_CHARGE / cfg.pd.c_pd
    assert swing == pytest.approx(full_well_swing, rel=1e-6)


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


# Worst error / max(est_error_v, abs_tol_v) allowed at the end of a transient,
# abs_tol_v being 1e-3 * rel_tol.  The final error carries the propagated
# local errors, whose summed estimates do not bound it, so the bound is
# measured: at most 1.823 with the current limiter (case i at 1 pA, rel_tol
# 1e-6), 15.4 at 38.3 pA without it.
_HONESTY_BOUND = 3.0
_TOLERANCES = (1e-5, 1e-6, 1e-8)


@pytest.mark.parametrize("topo", [Topology.BARE_3T, Topology.HYBRID_CASE_I,
                                  Topology.HYBRID_CASE_II])
def test_error_estimate_is_honest_and_falls_with_tolerance(calibrated, topo):
    cfg = default_config(topo, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    fine = SolverOptions(rel_tol=1e-9, max_step=1e-8, min_step=1e-16)
    currents = SweepSpec(cfg).currents()
    # VPD's absolute tolerance at the tightest relative one.
    floor = SolverOptions(rel_tol=_TOLERANCES[-1]).abs_tol_v
    for k in (12, 31, 38, 55):  # 1 pA, 38.3 pA, 147 pA and 3.83 nA
        stimulus = Stimulus(currents[k])
        reference = integrate(cfg, stimulus, fine).final_vpd
        errors = []
        for rel_tol in _TOLERANCES:
            options = SolverOptions(rel_tol=rel_tol)
            trace = integrate(cfg, stimulus, options)
            error = abs(trace.final_vpd - reference)
            ratio = error / max(trace.est_error_v, options.abs_tol_v)
            assert ratio <= _HONESTY_BOUND, (k, rel_tol, error, ratio)
            errors.append(max(error, floor))
        # Below the tightest absolute tolerance an error has converged.
        # From 1e-5 to 1e-6 case i takes the steps its current limiter and
        # knee aim set, so the fall shows against the tightest tolerance.
        for looser in errors[:-1]:
            assert errors[-1] < looser or errors[-1] == looser == floor, \
                (k, errors)


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


def test_solver_error_carries_the_stats_so_far(monkeypatch, calibrated):
    # Every right-hand side the stepper evaluates, the reset phase's
    # included, is counted at the kernels; the sample kernels, built while
    # the reset phase's samples are, are not the stepper's.
    cfg = default_config(Topology.HYBRID_CASE_III, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    opts = SolverOptions(max_step=1e-8, min_step=1e-8)
    built, calls, sampling = [], [], []
    make_kernel, build = solver.segment_kernel, solver._samples

    def counting_kernel(*args):
        kernel = make_kernel(*args)
        if sampling:
            return kernel
        built.append(None)

        def counted(vpd, gap):
            calls.append(None)
            return kernel(vpd, gap)
        return counted

    def samples(run):
        sampling.append(None)
        try:
            return build(run)
        finally:
            sampling.pop()

    monkeypatch.setattr(solver, "segment_kernel", counting_kernel)
    monkeypatch.setattr(solver, "_samples", samples)
    solver._reset_phase.cache_clear()
    with pytest.raises(SolverError) as err:
        integrate(cfg, Stimulus(1e-9), opts)
    solver._reset_phase.cache_clear()
    exc = err.value
    assert set(exc.detail) == {"t", "vpd", "gap", "h"}
    stats = exc.stats
    # The accepted steps, all of the one step size allowed, end where the
    # failed attempt starts.  No step is shrunk below that size, so the
    # first failed error test raises, and nothing is rejected.
    assert stats.accepted == round(exc.detail["t"] / 1e-8) > 0
    assert stats.h_max == 1e-8
    assert (stats.rejected_error, stats.rejected_knee, stats.rejected_bound,
            stats.rejected_current) == (0, 0, 0, 0)
    # A first stage per segment entered, six per step and six for the
    # failed attempt.
    assert stats.rhs_evals == len(calls) == 6 * (stats.accepted + 1) \
        + len(built)
    # Every right-hand side of a hybrid pixel solves the internal node.
    assert 0 < stats.kcl_solves == stats.rhs_evals
    assert stats.wall_s > 0.0


def test_solver_error_on_the_first_evaluation_carries_its_stats(monkeypatch):
    # A reset phase the memo does not hold fails on its first right-hand
    # side; the error counts that evaluation.
    def failing(*args):
        def kernel(vpd, gap):
            raise SolverError("first evaluation fails")
        return kernel
    monkeypatch.setattr(solver, "segment_kernel", failing)
    cfg = default_config(Topology.BARE_3T, pd=PhotodiodeParams(texp=3e-6))
    with pytest.raises(SolverError) as err:
        integrate(cfg, Stimulus(1e-12), SolverOptions())
    assert err.value.stats.rhs_evals == 1
    assert err.value.stats.accepted == 0


@pytest.mark.parametrize("points,t_end,correction", [
    (20, 1.659e-4, +1), (20, 1.47e-5, -1),
    (None, 3.0800077, +1), (None, 0.44000110000000003, -1)])
def test_grid_spacing_corrects_its_estimate(monkeypatch, points, t_end,
                                            correction):
    # The quotient's ceiling is one window short of the spacing, or one
    # over it, at these ends (None: the real ``_GRID_POINTS``).  The
    # spacing is still the least multiple of the window that puts at most
    # ``points`` grid points ``k * spacing`` before the end.
    if points is None:
        points = solver._GRID_POINTS
    else:
        monkeypatch.setattr(solver, "_GRID_POINTS", points)
    w = events.ABRUPT_WINDOW

    def before_end(spacing):
        return int(np.count_nonzero(
            np.arange(1, points + 2) * spacing < t_end))

    multiple = round(solver._grid_spacing(t_end) / w)
    assert solver._grid_spacing(t_end) == w * multiple
    assert multiple == math.ceil(t_end / ((points + 1) * w)) + correction
    assert before_end(w * multiple) <= points < before_end(w * (multiple - 1))


@pytest.mark.parametrize("points,finest", [(20, False), (101, True)])
def test_output_grid_has_at_most_grid_points_rows(monkeypatch, points,
                                                   finest):
    # The grid spacing is the least whole multiple of ABRUPT_WINDOW that
    # puts at most ``points`` grid points before the schedule's end: 500 ns
    # for 20 points on the 10 us schedule, 100 ns for 101.  Only grid rows
    # go: the accepted states, and so the row each event labels, stay, and
    # so do the stepper's results.
    cfg = default_config(Topology.HYBRID_CASE_III)
    fine = integrate(cfg, Stimulus(1e-11), SolverOptions())
    monkeypatch.setattr(solver, "_GRID_POINTS", points)
    solver._reset_phase.cache_clear()  # its samples lie on the grid too
    coarse = integrate(cfg, Stimulus(1e-11), SolverOptions())
    solver._reset_phase.cache_clear()
    w = events.ABRUPT_WINDOW
    multiple = next(m for m in itertools.count(1) if sum(
        k * (w * m) < cfg.pd.t_end for k in range(1, points + 2)) <= points)
    assert multiple == (5 if points == 20 else 1)
    spacing = w * multiple
    assert solver._grid_spacing(cfg.pd.t_end) == spacing
    grid = {k * spacing for k in range(1, points + 1)}

    def rows(trace):
        return list(zip(trace.t, trace.vpd, trace.i_ox, trace.gap))

    def labelled(trace):
        return [rows(trace)[min(np.searchsorted(trace.t, e.t_event),
                                len(trace.t) - 1)] for e in trace.events]

    assert (rows(coarse) == rows(fine)) is finest
    assert sum(t in grid for t in coarse.t) <= points
    assert {r for r in rows(coarse) if r[0] not in grid} <= set(rows(fine))
    assert labelled(coarse) == labelled(fine)
    assert events_of(coarse, EventKind.ABRUPT_FALL)
    assert (coarse.final_vpd, coarse.events, coarse.stats) \
        == (fine.final_vpd, fine.events, fine.stats)
    assert np.all(np.diff(coarse.t) > 0)


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
    for t0, t1 in ((0.0, cfg.pd.trst), (cfg.pd.trst, cfg.pd.t_end)):
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
    (a,) = events_of(coarse, kind)
    (b,) = events_of(fine, kind)
    assert abs(a.t_event - b.t_event) <= 2e-9


def test_stats_six_rhs_evaluations_per_step():
    cfg = default_config(Topology.BARE_3T)
    trace = integrate(cfg, Stimulus(1e-9), SolverOptions())
    stats = trace.stats
    assert stats.accepted > 0
    # Plus one evaluation at t = 0 and one after the reset release.
    assert stats.rhs_evals <= 6 * stats.accepted + 2


@pytest.mark.parametrize("topo", list(Topology))
def test_stats_are_the_same_for_a_read_and_an_unread_trace(calibrated, topo):
    # The stats count the stepper's work only; building the samples inside
    # its steps on a read adds nothing to them.
    cfg = default_config(topo, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    unread = integrate(cfg, Stimulus(1e-9), SolverOptions())
    read = integrate(cfg, Stimulus(1e-9), SolverOptions())
    before = replace(read.stats)
    assert len(read.t) > read.stats.accepted
    assert read.stats == before == unread.stats


@pytest.mark.parametrize("topo", list(Topology))
def test_unbuilt_trace_lacks_unknown_names_and_copies(topo):
    # Only the four sample arrays are built on a read; any other missing
    # name raises AttributeError, so ``hasattr`` is false and ``copy``,
    # which looks up ``__setstate__`` on an empty instance, works.  A copy
    # made before the read builds the same samples.
    trace = integrate(default_config(topo), Stimulus(1e-9), SolverOptions())
    with pytest.raises(AttributeError, match="^no_such_name$"):
        trace.no_such_name
    assert not hasattr(trace, "no_such_name")
    copied = copy.copy(trace)
    for name in ("t", "vpd", "i_ox", "gap"):
        assert np.array_equal(getattr(copied, name), getattr(trace, name))


@pytest.mark.parametrize("i_exp", [75e-9, 80e-9, 100e-9])
def test_fall_inside_one_step_longer_than_the_window_is_seen(i_exp):
    # The bare pixel falls by more than half its swing within one accepted
    # step, longer than the window, that ends on the full-well boundary: no
    # other state lies in the window, so only the VPD interpolated at its
    # start shows the fall.  At equal times the stepper's event comes first.
    trace = integrate(default_config(Topology.BARE_3T), Stimulus(i_exp),
                      SolverOptions())
    fwc, fall = trace.events
    assert fwc.kind is EventKind.FWC_SATURATION
    assert fall.kind is EventKind.ABRUPT_FALL
    assert fall.t_event == fwc.t_event


def test_stats_wall_time_is_recorded_but_not_compared():
    cfg = default_config(Topology.BARE_3T)
    a = integrate(cfg, Stimulus(1e-9), SolverOptions())
    b = integrate(cfg, Stimulus(1e-9), SolverOptions())
    assert a.stats.wall_s > 0.0 and b.stats.wall_s > 0.0
    b.stats.wall_s = 2.0 * a.stats.wall_s
    assert a.stats == b.stats
    b.stats.accepted += 1
    assert a.stats != b.stats


def test_stats_current_limiter_rarely_rejects(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_III, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    stats = integrate(cfg, Stimulus(1e-12), SolverOptions()).stats
    assert stats.rejected_current < 0.1 * stats.accepted


@pytest.mark.parametrize("k", [33, 43])  # 56.2 pA and 383 pA
def test_case_i_final_vpd_matches_fine_reference(calibrated, k):
    # Where case i's branch current turns, the error estimate alone passes
    # steps that leave the final VPD up to 2.7e-5 V off; the current limiter
    # keeps it within 4e-8 V.
    cfg = default_config(Topology.HYBRID_CASE_I, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    i_exp = SweepSpec(cfg).currents()[k]
    fine = SolverOptions(rel_tol=1e-9, max_step=1e-8, min_step=1e-16)
    default = integrate(cfg, Stimulus(i_exp), SolverOptions()).final_vpd
    assert abs(default - integrate(cfg, Stimulus(i_exp), fine).final_vpd) \
        <= 1e-7


def test_charge_balance_holds_on_criterion_8_transients(calibrated):
    # The branch charge is the stepper's own fifth-order quadrature, so the
    # balance holds far inside criterion 8's 0.5 %, case iii's collapse to
    # the floor included (2.4e-5 there).
    worst = max(charge_balance_error(
        integrate(cfg, Stimulus(i_exp), SolverOptions()), cfg)
        for cfg in (default_config(topo, oxram=calibrated.oxram,
                                   selector=calibrated.selector)
                    for topo in Topology)
        for i_exp in (0.0, 1e-12, 1e-10, 1e-9, 5e-9))
    assert worst <= 1e-4


def test_case_iii_charge_balance_falls_with_the_tolerance():
    # Case iii's worst residual over its sweep follows rel_tol: 2.4e-5 at
    # 1e-6, 1.8e-7 at 1e-9.
    cfg = default_config(Topology.HYBRID_CASE_III)

    def worst(rel_tol):
        return max(charge_balance_error(
            integrate(cfg, Stimulus(i_exp), SolverOptions(rel_tol=rel_tol)),
            cfg) for i_exp in SweepSpec(cfg).currents())
    assert 10.0 * worst(1e-9) <= worst(1e-6)


def _lands(cfg, i_exp: float, counter: str, options=SolverOptions()):
    """The transient, checked to have fired the landing that ``counter``
    counts and to have kept its charge balance."""
    trace = integrate(cfg, Stimulus(i_exp), options)
    assert getattr(trace.stats, counter) > 0
    assert charge_balance_error(trace, cfg) <= 5e-3
    return trace


def test_steps_land_on_the_selector_knee():
    # Case iii with the gate at a 1 nA saturation current: the selector
    # leaves saturation during the exposure.
    pd = PhotodiodeParams()
    wf = GateWaveform(((0.0, pd.t_end, vg_for_current(1e-9, MosfetParams())),))
    _lands(default_config(Topology.HYBRID_CASE_III, vg_waveform=wf), 1e-9,
           "rejected_knee")


def test_steps_land_on_the_lower_gap_bound():
    # Case iii reset at 1.8 V, then a 1 uA gate: the filament grows until
    # the gap reaches gap_min.
    pd = PhotodiodeParams(vrst=1.8)
    wf = GateWaveform(((0.0, pd.trst, VG_RAIL),
                       (pd.trst, pd.t_end,
                        vg_for_current(1e-6, MosfetParams()))))
    cfg = default_config(Topology.HYBRID_CASE_III, pd=pd, vg_waveform=wf)
    trace = _lands(cfg, 100e-12, "rejected_bound")
    assert trace.gap.min() == cfg.oxram.gap_min


def test_steps_land_on_the_vpd_floor():
    # A loose tolerance lets the error test pass long steps of case iii's
    # collapse; the last one still ends on the floor.
    cfg = default_config(Topology.HYBRID_CASE_III)
    trace = integrate(cfg, Stimulus(10e-9), SolverOptions(rel_tol=1e-3))
    (floor,) = events_of(trace, EventKind.VPD_FLOOR_CLAMP)
    (at_floor,) = np.flatnonzero(trace.t == floor.t_event)
    assert trace.vpd[at_floor] == 0.0
    assert trace.vpd.min() == 0.0
    # The charge balance holds within rel_tol (4.8e-4).
    assert charge_balance_error(trace, cfg) <= 1e-3


def _exposure_steps(monkeypatch, cfg, stimulus: Stimulus,
                    opt: SolverOptions):
    """The transient, and the records of its exposure's accepted steps,
    taken from the run its samples are built from."""
    runs = []
    build = solver._samples

    def keep_run(run):
        runs.append(run)
        return build(run)

    monkeypatch.setattr(solver, "_samples", keep_run)
    trace = integrate(cfg, stimulus, opt)
    trace.t  # builds the samples
    return trace, [s for s in runs[-1].steps if s[0] >= cfg.pd.trst]


def _inside(steps) -> list[tuple]:
    """``(t, vpd)`` at three interior points of each step, on its continuous
    extension."""
    return [(t, events.vpd_at(s, t)) for s in steps
            for t in (s[0] + f * s[20] for f in (0.25, 0.5, 0.75))]


@pytest.mark.parametrize("i_exp", [1e-12, 1e-9])
def test_case_iii_collapse_matches_radau_oracle(monkeypatch, calibrated,
                                                i_exp):
    # The Lawson steps of the collapse and their continuous extensions
    # inside, against Radau from the first sample of the exposure up to the
    # floor.
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    cfg = default_config(Topology.HYBRID_CASE_III, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    opt = SolverOptions()
    trace, steps = _exposure_steps(monkeypatch, cfg, Stimulus(i_exp), opt)
    (floor,) = events_of(trace, EventKind.VPD_FLOOR_CLAMP)
    first = int(np.searchsorted(trace.t, cfg.pd.trst, side="right"))
    t, vpd = np.array(_inside(steps)).T
    assert t[-1] < floor.t_event
    kernel = pixel.segment_kernel(cfg, Stimulus(i_exp), cfg.pd.trst)
    sol = solve_ivp(lambda t, y: kernel(*y)[:2],
                    (trace.t[first], floor.t_event),
                    [trace.vpd[first], trace.gap[first]], method="Radau",
                    rtol=1e-11, atol=[1e-15, 1e-12], t_eval=t)
    assert sol.success, sol.message
    floor_tol = max(opt.abs_tol_v, opt.rel_tol * cfg.pd.vrst)
    assert len(t) > 10
    assert float(np.max(np.abs(sol.y[0] - vpd))) <= floor_tol


def _branch_kernel(branch):
    """A ``segment_kernel`` for a hybrid node pinned until the reset
    release, then drained by the photocurrent and the branch current
    ``branch(vpd)``, with the gap standing still."""
    def make(config, stimulus, t, photo_active, op_hint):
        pinned = t < config.pd.trst
        i_photo = stimulus.i_exp if photo_active else 0.0
        c_total = config.pd.c_pd + config.oxram.c_pox
        # The selector margin stays at vth: no knee.
        op_hint[0] = config.vg_waveform.level_at(t)

        def kernel(vpd, gap):
            i = branch(vpd)
            return 0.0 if pinned else -(i_photo + i) / c_total, 0.0, i
        return kernel
    return make


def test_lawson_steps_are_exact_on_an_rc_node(monkeypatch):
    # A node that discharges through a constant conductance (tau = 1 ns):
    # every step after the first is a Lawson step, exact up to rounding.
    cfg = default_config(Topology.HYBRID_CASE_III)
    cond, c_total = 1e-5, cfg.pd.c_pd + cfg.oxram.c_pox
    i_exp, opt = 1e-9, SolverOptions()
    monkeypatch.setattr(solver, "segment_kernel",
                        _branch_kernel(lambda vpd: cond * vpd))
    solver._reset_phase.cache_clear()
    try:
        trace, steps = _exposure_steps(monkeypatch, cfg, Stimulus(i_exp), opt)
        reset_steps = solver._reset_phase(cfg, opt).stats.accepted
    finally:
        solver._reset_phase.cache_clear()
    assert trace.stats.accepted - reset_steps <= 12
    (floor,) = events_of(trace, EventKind.VPD_FLOOR_CLAMP)
    # The end of the first exposure step.
    t0 = steps[0][0] + steps[0][20]
    (k0,) = np.flatnonzero(trace.t == t0)
    v0 = trace.vpd[k0]
    lam, v_star = -cond / c_total, -i_exp / cond
    t, vpd = np.array(_inside(steps[1:])).T
    assert t[-1] < floor.t_event
    exact = v_star + np.exp(lam * (t - t0)) * (v0 - v_star)
    assert len(t) > 10
    np.testing.assert_allclose(vpd, exact, rtol=1e-12, atol=0)


def test_charge_of_a_step_cut_at_the_floor_ends_at_the_cut(monkeypatch):
    # A constant branch current drains the node as a ramp, on which every
    # step is exact and grows fivefold, so the last one runs far below the
    # floor and is cut at its crossing.  Its charge is its continuous
    # extension's share up to the cut: the balance holds to rounding
    # (8e-13; the whole step's charge would read 0.14).
    cfg = default_config(Topology.HYBRID_CASE_III)
    monkeypatch.setattr(solver, "segment_kernel",
                        _branch_kernel(lambda vpd: 1e-9))
    solver._reset_phase.cache_clear()
    try:
        trace, steps = _exposure_steps(monkeypatch, cfg, Stimulus(1e-9),
                                       SolverOptions())
    finally:
        solver._reset_phase.cache_clear()
    assert events_of(trace, EventKind.VPD_FLOOR_CLAMP)
    assert steps[-1][20] < 0.9 * steps[-1][1]
    assert charge_balance_error(trace, cfg) <= 1e-10


@pytest.mark.parametrize("options", [
    SolverOptions(rel_tol=1e-7), SolverOptions(rel_tol=1e-8),
    SolverOptions(rel_tol=1e-9)])
def test_case_iii_sweeps_at_tight_tolerances(options):
    # Case iii's collapse ends on the floor within a microvolt of it; the
    # steps there must not underflow at a tight tolerance.
    cfg = default_config(Topology.HYBRID_CASE_III)
    for i_exp in SweepSpec(cfg).currents():
        trace = integrate(cfg, Stimulus(i_exp), options)
        (floor,) = events_of(trace, EventKind.VPD_FLOOR_CLAMP)
        assert trace.vpd[trace.t == floor.t_event].tolist() == [0.0]
        assert trace.vpd.min() == 0.0
        assert charge_balance_error(trace, cfg) <= 2.5e-3


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
    # One transient's ratio jumps with its step pattern; the same bound
    # holds over the totals of the whole default sweep.
    sweep = [integrate(cfg, Stimulus(i_exp), SolverOptions()).stats
             for i_exp in (0.0, *SweepSpec(cfg).currents())]
    assert 0 < sum(s.newton_evals for s in sweep) \
        <= 2.5 * sum(s.rhs_evals for s in sweep)
    assert 0.0 < stats.h_min <= stats.h_max <= SolverOptions().max_step
    bare = integrate(default_config(Topology.BARE_3T), Stimulus(1e-12),
                     SolverOptions()).stats
    assert bare.newton_evals == 0
    assert bare.h_min <= bare.h_max


def test_stats_count_kcl_solves(monkeypatch):
    # Every hybrid right-hand side solves the internal node, also past the
    # reset release with VPD at or below ground.
    floor_calls, unsolved = [], []

    def counting_kernel(config, stimulus, t, photo_active, op_hint):
        kernel = pixel.segment_kernel(config, stimulus, t, photo_active,
                                      op_hint)

        def counted(vpd, gap):
            if t >= config.pd.trst and vpd <= 0.0:
                floor_calls.append(vpd)
            out = kernel(vpd, gap)
            # A solve records the VPD it solved at.
            if config.is_hybrid() and op_hint[1] != vpd:
                unsolved.append(vpd)
            return out
        return counted

    monkeypatch.setattr(solver, "segment_kernel", counting_kernel)
    lit = integrate(default_config(Topology.HYBRID_CASE_I), Stimulus(1e-12),
                    SolverOptions())
    assert not floor_calls
    assert lit.stats.kcl_solves == lit.stats.rhs_evals
    cfg = default_config(Topology.HYBRID_CASE_III)
    collapse = integrate(cfg, Stimulus(1e-8), SolverOptions())
    # The collapse lands on the floor from above, so its kernel is called
    # below ground directly.
    hint = [None]
    kernel = solver.segment_kernel(cfg, Stimulus(1e-8), cfg.pd.trst, True,
                                   hint)
    for vpd in (0.0, -1e-6):
        kernel(vpd, collapse.final_gap)
        assert hint[1] == vpd
    assert events_of(collapse, EventKind.VPD_FLOOR_CLAMP) and floor_calls
    assert collapse.stats.kcl_solves == collapse.stats.rhs_evals
    assert not unsolved
    bare = integrate(default_config(Topology.BARE_3T), Stimulus(1e-12),
                     SolverOptions())
    assert bare.stats.kcl_solves == 0


def test_negative_noise_seed_rejected():
    with pytest.raises(InvalidInputError, match="noise_seed"):
        SolverOptions(reset_noise=True, noise_seed=-1)


def test_continuous_extension_is_exact_on_a_quartic():
    # y' = 4 t^3: the stages are exact, and an order-4 interpolant
    # reproduces y = t^4 inside the step.
    t0, h = 1.0, 0.5
    c = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
    k = [4.0 * (t0 + ci * h) ** 3 for ci in c]
    y1 = t0 ** 4 + h * sum(b * ki for b, ki in zip(solver._B5, k))
    assert y1 == pytest.approx((t0 + h) ** 4, rel=1e-14)
    for theta in (0.1, 0.37, 0.5, 0.9):
        y = events.dense(theta, h, t0 ** 4, y1, k[0], *k[2:])
        assert y == pytest.approx((t0 + theta * h) ** 4, rel=1e-13)


@pytest.mark.parametrize("topo", list(Topology))
@pytest.mark.parametrize("i_exp", [0.0, 1e-12, 1e-9])
def test_trace_holds_the_output_grid(monkeypatch, calibrated, topo, i_exp):
    cfg = default_config(topo, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    opt = SolverOptions()
    # The accepted states (t = 0, step ends, the first sample of each
    # segment, the end sample after a floor clamp) of the reset phase and
    # of the exposure, taken from the runs the samples are built from.
    states = []
    build = solver._samples

    def keep_states(run):
        states.extend(s[0] for s in run.states)
        return build(run)

    monkeypatch.setattr(solver, "_samples", keep_states)
    solver._reset_phase.cache_clear()  # so its samples are built here too
    trace = integrate(cfg, Stimulus(i_exp), opt)
    t, window = trace.t, events.ABRUPT_WINDOW
    floor = events_of(trace, EventKind.VPD_FLOOR_CLAMP)
    t_stop = floor[0].t_event if floor else cfg.pd.t_end
    dense = t[t <= t_stop]
    assert dense[-1] == t_stop
    assert float(np.max(np.diff(dense))) <= window * (1.0 + 1e-9)
    rows = t.tolist()
    assert set(states) <= set(rows)
    # Each grid point inside the run is a row exactly once, unless a state
    # lies within the stepper's time resolution of it: that state stands
    # for it.
    eps = 1e-18 * max(1.0, cfg.pd.t_end)
    k = 1
    while k * window < t_stop:
        t_grid = k * window
        if not any(abs(s - t_grid) <= eps for s in states):
            assert rows.count(t_grid) == 1, k
        k += 1


def test_abrupt_fall_window_keeps_the_previous_grid_sample():
    # A long step emits grid samples k * ABRUPT_WINDOW and nothing between
    # them.  For some k, k * w - w rounds above (k - 1) * w; the sample at
    # grid point k - 1 must still be in the window when grid point k comes.
    cfg = default_config(Topology.BARE_3T)
    w = events.ABRUPT_WINDOW
    k = next(k for k in range(2, 100) if k * w - w > (k - 1) * w)
    states = [(0.0, 1.0, 0.0, 0.0), ((k - 1) * w, 1.0, 0.0, 0.0),
              (k * w, 0.4, 0.0, 0.0)]
    (fall,) = events.detect(states, [], cfg, 1.0)
    assert fall.kind is EventKind.ABRUPT_FALL
    assert fall.t_event == k * w


_H = 1e-7  # s, the spacing of the synthetic samples below


def _lines(fracs: list[float]):
    """Case i states ``_H`` apart at the gap fractions ``fracs``, each pair
    joined by one step of constant gap velocity, and the config.  The
    dense-output coefficients sum to zero, so such a step interpolates
    linearly."""
    cfg = default_config(Topology.HYBRID_CASE_I)
    p = cfg.oxram
    span = p.gap_max - p.gap_min
    t = (_H * np.arange(len(fracs))).tolist()
    gap = (p.gap_min + span * np.asarray(fracs)).tolist()
    steps = []  # of floats, as the stepper records them
    for k in range(1, len(fracs)):
        slope = (gap[k] - gap[k - 1]) / _H
        steps.append((t[k - 1], _H, gap[k - 1], gap[k]) + (slope,) * 6)
    states = [(t_k, 1.0, 0.0, g_k) for t_k, g_k in zip(t, gap)]
    return states, steps, cfg


def _detect_on_lines(fracs: list[float]):
    """``events.detect`` on the states and steps of ``_lines``.  Also returns
    where each pair's line crosses each threshold."""
    states, steps, cfg = _lines(fracs)
    t = [s[0] for s in states]
    found = events.detect(states, steps, cfg, 1.0)

    def crossing(k: int, level: float) -> float:
        return t[k - 1] \
            + _H * (level - fracs[k - 1]) / (fracs[k] - fracs[k - 1])

    return found, crossing


@pytest.mark.parametrize("fracs,expected", [
    # Sample 0 is the starting point: at or above 90 % it is no crossing.
    ([0.95, 0.5, 0.97], []),
    # A rise from below 10 %: the kind no default config produces.
    ([0.05, 0.5, 0.95], [(EventKind.SET_TO_RESET, 2, 0.9)]),
    ([0.5, 0.6, 0.95], [(EventKind.SOFT_TO_HARD_RESET, 2, 0.9)]),
    # A fall through 10 % counts only after a sample above 90 %.
    ([0.5, 0.3, 0.05], []),
    ([0.5, 0.95, 0.5, 0.05], [(EventKind.SOFT_TO_HARD_RESET, 1, 0.9),
                              (EventKind.RESET_TO_SET, 3, 0.1)]),
    ([0.95, 0.5, 0.05], [(EventKind.RESET_TO_SET, 2, 0.1)]),
    # A gap that starts at or below 10 % never falls through it.
    ([0.05, 0.95, 0.05], [(EventKind.SET_TO_RESET, 1, 0.9)]),
])
def test_detect_switching_rules_on_linear_steps(fracs, expected):
    found, crossing = _detect_on_lines(fracs)
    assert [e.kind for e in found] == [kind for kind, _, _ in expected]
    for event, (_, k, level) in zip(found, expected):
        # To bisection resolution: 50 halvings of one step, and rounding.
        assert type(event.t_event) is float
        assert event.t_event == pytest.approx(crossing(k, level),
                                              rel=0.0, abs=_H * 2.0 ** -49)


def _event_bits(found: list) -> list[tuple]:
    return [(e.kind, e.t_event.hex(), e.detail) for e in found]


@pytest.mark.parametrize("fracs", [
    [0.95, 0.5, 0.97], [0.05, 0.5, 0.95], [0.5, 0.3, 0.05],
    [0.5, 0.95, 0.5, 0.05], [0.95, 0.5, 0.05], [0.05, 0.95, 0.05],
    [0.5, 0.6, 0.95, 0.97, 0.5, 0.3, 0.05, 0.95],
    # The earlier extreme lies before the prefix's last two windows.
    [0.05, 0.5, 0.5, 0.5, 0.95], [0.95, 0.5, 0.5, 0.5, 0.05],
])
def test_detect_after_a_summarized_prefix_equals_the_full_scan(fracs):
    # Split after any state, the states before summarized: the same events,
    # bit for bit, whether the prefix or the rest reaches each level.
    states, steps, cfg = _lines(fracs)
    full = _event_bits(events.detect(states, steps, cfg, 1.0))
    for k in range(1, len(states)):
        prefix = events.summarize(states[:k], events.detect(
            states[:k], steps[:k - 1], cfg, 1.0))
        assert _event_bits(events.detect(states[k:], steps[k - 1:], cfg, 1.0,
                                         prefix)) == full, k
    # The look-back of a fall reaches into the prefix, or the fall lies
    # there.
    w = events.ABRUPT_WINDOW
    cfg = default_config(Topology.BARE_3T)
    states = [(0.0, 1.0, 0.0, 0.0), (w, 1.0, 0.0, 0.0),
              (1.5 * w, 0.9, 0.0, 0.0), (2 * w, 0.4, 0.0, 0.0),
              (2.5 * w, 0.3, 0.0, 0.0)]
    full = _event_bits(events.detect(states, [], cfg, 1.0))
    assert [kind for kind, _, _ in full] == [EventKind.ABRUPT_FALL]
    for k in range(1, len(states)):
        prefix = events.summarize(states[:k], events.detect(
            states[:k], [], cfg, 1.0))
        assert _event_bits(events.detect(states[k:], [], cfg, 1.0,
                                         prefix)) == full, k


def test_default_report_detect_equals_the_full_scan(monkeypatch, calibrated):
    # Each transient of the default report scans its exposure's states
    # only, the reset phase's samples summarized; its events are, bit for
    # bit, those of a scan of all its states on all its steps.
    detect, scanned = events.detect, []

    def both(states, steps, config, vstart, prefix=None):
        found = detect(states, steps, config, vstart, prefix)
        if prefix is not None:
            reset = solver._reset_phase(config, SolverOptions())
            assert _event_bits(found) == _event_bits(detect(
                reset.samples + states, reset.steps + steps, config, vstart))
            scanned.append(config.topology)
        return found

    monkeypatch.setattr(solver, "detect", both)
    monkeypatch.setenv("HPS_THREADS", "1")
    table = table1_report(calibrated.oxram, calibrated.selector)
    assert len(scanned) == sum(len(rep.rows) + 1 for rep in table.values())
    assert set(scanned) == set(Topology)


def test_case_iii_collapse_records_one_abrupt_fall(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_III, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    trace = integrate(cfg, Stimulus(1e-8), SolverOptions())
    (r2s,) = events_of(trace, EventKind.RESET_TO_SET)
    (fall,) = events_of(trace, EventKind.ABRUPT_FALL)
    assert r2s.t_event < fall.t_event


# The exposure that fills the well at the end of the frame: 1.054 nA.
_PD = PhotodiodeParams()
I_FULL_WELL = _PD.fwc_electrons * ELEMENTARY_CHARGE / _PD.texp


# Below full well only: above it the clamped final VPD is not monotone.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(topology=st.sampled_from(Topology),
       log_r=st.floats(math.log10(R_SET_LEVELS[-1]),
                       math.log10(R_RESET_LEVELS[-1])),
       log_i=st.lists(st.floats(-14.0, math.log10(0.99 * I_FULL_WELL)),
                      min_size=2, max_size=2))
def test_transient_properties_below_full_well(calibrated, topology, log_r,
                                              log_i):
    init = {} if topology is Topology.BARE_3T else \
        {"init_resistance": 10.0 ** log_r}
    cfg = default_config(topology, oxram=calibrated.oxram,
                         selector=calibrated.selector, **init)
    dim, bright = (integrate(cfg, Stimulus(10.0 ** x), SolverOptions())
                   for x in sorted(log_i))
    assert bright.final_vpd <= dim.final_vpd
    for trace in (dim, bright):
        assert charge_balance_error(trace, cfg) <= 5e-3
        if cfg.is_hybrid():
            assert cfg.oxram.gap_min <= trace.gap.min()
            assert trace.gap.max() <= cfg.oxram.gap_max
            assert trace.stats.kcl_solves == trace.stats.rhs_evals
