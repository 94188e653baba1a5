"""Sweep harness, window extraction, DR and gain-factor tests."""

import logging
import math
import os
import signal
import sys
from dataclasses import replace

import numpy as np
import pytest

from oxpix import experiments, solver
from oxpix.defaults import default_config
from oxpix.errors import InvalidInputError, OxpixError
from oxpix.experiments import (
    ReadableWindow,
    SweepResult,
    SweepRow,
    SweepSpec,
    _worker_count,
    gain_factor,
    gain_factor_curve,
    operating_dr,
    point_readable,
    readable_window_bounds,
    run_sweep,
    summarize_sweep,
    table1_report,
)
from oxpix.pixel import Topology
from oxpix.solver import EventKind, SolverOptions


@pytest.fixture(scope="module")
def small_sweeps(calibrated):
    """Coarse sweeps shared by the tests in this module."""
    out = {}
    for label, topo in [("baseline", Topology.BARE_3T),
                        ("case_i", Topology.HYBRID_CASE_I),
                        ("case_ii", Topology.HYBRID_CASE_II),
                        ("case_iii", Topology.HYBRID_CASE_III)]:
        cfg = default_config(topo, oxram=calibrated.oxram,
                             selector=calibrated.selector)
        out[label] = run_sweep(SweepSpec(config=cfg, points_per_decade=4))
    return out


def test_operating_dr_reference_values():
    assert operating_dr(315e-12, 3.1e-9) == pytest.approx(19.86, abs=0.01)
    assert operating_dr(2.5e-12, 2.5e-9) == pytest.approx(60.00, abs=0.01)
    assert operating_dr(0.5e-12, 1.75e-9) == pytest.approx(70.88, abs=0.01)


def test_operating_dr_degenerate_and_errors():
    assert operating_dr(4.2e-10, 4.2e-10) == 0.0
    with pytest.raises(InvalidInputError):
        operating_dr(0.0, 1e-9)
    with pytest.raises(InvalidInputError):
        operating_dr(1e-12, -1.0)


def test_operating_dr_log_additivity():
    a, b, c = 2.5e-12, 3.7e-10, 8.1e-9
    assert operating_dr(a, b) + operating_dr(b, c) == pytest.approx(
        operating_dr(a, c), abs=1e-12)


def test_gain_factor_identity_and_reference():
    assert gain_factor(1.42, 1.3, 1.3) == 1.0
    assert gain_factor(1.42, 1.419, 1.17) == pytest.approx(250.0, rel=1e-9)
    with pytest.raises(InvalidInputError):
        gain_factor(1.42, 1.42, 1.0)


def test_bare_sweep_monotone_nonincreasing(small_sweeps):
    finals = [r.final_vpd for r in small_sweeps["baseline"].rows]
    assert all(a >= b - 1e-12 for a, b in zip(finals, finals[1:]))


def test_sweep_covers_requested_range(small_sweeps):
    rows = small_sweeps["case_i"].rows
    assert rows[0].i_exp == pytest.approx(100e-15)
    assert rows[-1].i_exp == pytest.approx(10e-9)
    assert all(a.i_exp < b.i_exp for a, b in zip(rows, rows[1:]))


def test_sweep_determinism(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_II, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    spec = SweepSpec(config=cfg, i_min=1e-12, i_max=1e-10,
                     points_per_decade=3)
    a = run_sweep(spec)
    b = run_sweep(spec)
    assert [(r.i_exp, r.final_vpd, r.events) for r in a.rows] == \
        [(r.i_exp, r.final_vpd, r.events) for r in b.rows]


def test_sweep_records_point_failures(calibrated):
    cfg = default_config(Topology.HYBRID_CASE_III, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    # No stepping headroom: the collapse cannot be resolved, and the rows
    # must report the failure instead of aborting.
    spec = SweepSpec(config=cfg, i_min=1e-12, i_max=1e-11,
                     points_per_decade=2,
                     options=SolverOptions(max_step=1e-8, min_step=1e-8))
    result = run_sweep(spec)
    assert any(r.error for r in result.rows)
    # An infinite branch current in the shared reset phase fails every row.
    huge = replace(cfg, oxram=replace(cfg.oxram, i0_cf=1e300))
    result = run_sweep(replace(spec, config=huge, options=SolverOptions()))
    assert all(r.error.startswith("non-finite state") for r in result.rows)


@pytest.mark.parametrize("topology", [t.value for t in Topology])
def test_sweep_point_calls_no_numpy(topology, monkeypatch):
    # A sweep keeps the final VPD and the events; neither needs an array.
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} called on the sweep path")

    monkeypatch.setitem(sys.modules, "numpy", NoNumpy())
    solver._reset_phase.cache_clear()
    cfg = default_config(Topology(topology))
    for i_exp in (0.0, 1e-12, 1e-9, 1e-8):
        row = experiments._run_point(cfg, SolverOptions(), i_exp)
        assert row.error is None


def synthetic_result(swings, vrst=1.42, dark_swing=0.0):
    rows = [SweepRow(i_exp=1e-12 * 10 ** k, final_vpd=vrst - s, swing=s,
                     events=()) for k, s in enumerate(swings)]
    return SweepResult(rows=rows, dark_final_vpd=vrst - dark_swing,
                       dark_swing=dark_swing, vrst=vrst)


def test_window_all_rows_readable_returns_table_edges():
    win = ReadableWindow(min_detect=0.05, max_swing=0.85, sense_margin=1e-3)
    result = synthetic_result([0.1, 0.2, 0.4, 0.8])
    bounds = readable_window_bounds(result, win)
    assert bounds == (result.rows[0].i_exp, result.rows[-1].i_exp)


def test_window_empty_is_explicit():
    win = ReadableWindow(min_detect=0.05, max_swing=0.85, sense_margin=1e-3)
    result = synthetic_result([1.0, 1.2, 1.3])
    assert readable_window_bounds(result, win) is None


def test_window_widening_never_shrinks():
    result = synthetic_result([0.01, 0.05, 0.2, 0.5, 0.9])
    narrow = ReadableWindow(min_detect=0.1, max_swing=0.6, sense_margin=1e-3)
    wide = ReadableWindow(min_detect=0.03, max_swing=0.85, sense_margin=1e-3)
    lo_n, hi_n = readable_window_bounds(result, narrow)
    lo_w, hi_w = readable_window_bounds(result, wide)
    assert lo_w <= lo_n and hi_w >= hi_n


def test_window_interpolation_refines_edges():
    win = ReadableWindow(min_detect=0.15, max_swing=0.85, sense_margin=1e-3)
    result = synthetic_result([0.1, 0.2, 0.6, 1.0])
    lo, hi = readable_window_bounds(result, win)
    # Crossings sit strictly between grid points.
    assert result.rows[0].i_exp < lo < result.rows[1].i_exp
    assert result.rows[2].i_exp < hi < result.rows[3].i_exp


def test_failed_rows_and_a_failed_dark_reference_are_not_readable():
    win = ReadableWindow(min_detect=0.05, max_swing=0.85, sense_margin=1e-3)
    row = SweepRow(1e-10, 1.0, 0.42, ())
    assert point_readable(row, win, 0.0)
    assert not point_readable(replace(row, error="step size underflow"),
                              win, 0.0)
    for dark_swing in (math.nan, math.inf):
        assert not point_readable(row, win, dark_swing)
    with pytest.raises(InvalidInputError, match="empty sweep table"):
        readable_window_bounds(SweepResult([], 1.42, 0.0, 1.42), win)


def test_gain_factor_curve_skips_rows_it_cannot_compare():
    # Kept: only 1e-11 A.  Skipped: a baseline row still at the reset level
    # (1e-12 A), a failed baseline row (1e-10 A), a failed hybrid row
    # (1e-9 A) and a hybrid row with no baseline row (1e-8 A).
    vrst, failed = 1.42, dict(final_vpd=math.nan, swing=math.nan,
                              error="failed")
    baseline = SweepResult([
        SweepRow(1e-12, vrst, 0.0, ()), SweepRow(1e-11, 1.3, 0.12, ()),
        SweepRow(1e-10, events=(), **failed), SweepRow(1e-9, 0.5, 0.92, ())],
        dark_final_vpd=vrst, dark_swing=0.0, vrst=vrst)
    hybrid = SweepResult([
        SweepRow(1e-12, 1.41, 0.01, ()), SweepRow(1e-11, 1.4, 0.02, ()),
        SweepRow(1e-10, 1.3, 0.12, ()), SweepRow(1e-9, events=(), **failed),
        SweepRow(1e-8, 1.0, 0.42, ())],
        dark_final_vpd=vrst, dark_swing=0.0, vrst=vrst)
    assert gain_factor_curve(baseline, hybrid) == [
        (1e-11, gain_factor(vrst, 1.3, 1.4))]


def test_case_iii_has_no_readable_points(small_sweeps, window):
    assert readable_window_bounds(small_sweeps["case_iii"], window) is None


def test_gain_factor_at_least_one_for_discharging_hybrids(small_sweeps):
    for label in ("case_i", "case_ii"):
        hybrid = small_sweeps[label]
        if label == "case_ii":
            # Different reset level: compare against its own baseline run.
            continue
        curve = gain_factor_curve(small_sweeps["baseline"], hybrid)
        assert curve, "no comparable points"
        assert all(gf >= 1.0 for _, gf in curve)


@pytest.mark.xfail(strict=True, reason=(
    "The saturation criterion fixes the low-exposure hybrid drop at an "
    "exposure-independent level, which makes GF scale as 1/i_exp below the "
    "knee; a flat-to-10 % GF plateau cannot coexist with that saturation "
    "and the saturation acceptance criterion wins."))
def test_gain_factor_plateau_below_knee(small_sweeps):
    curve = [(i, gf) for i, gf in
             gain_factor_curve(small_sweeps["baseline"], small_sweeps["case_i"])
             if i < 2.5e-12]
    values = [gf for _, gf in curve]
    assert values
    spread = (max(values) - min(values)) / max(values)
    assert spread < 0.10


def test_summarize_marks_empty_window(small_sweeps, window):
    rep = summarize_sweep("case_iii", small_sweeps["case_iii"], window)
    assert rep.window_empty
    assert rep.operating_dr_db is None


def test_sweep_spec_validation():
    cfg = default_config(Topology.BARE_3T)
    with pytest.raises(InvalidInputError):
        SweepSpec(config=cfg, i_min=1e-9, i_max=1e-12)
    with pytest.raises(InvalidInputError):
        SweepSpec(config=cfg, points_per_decade=0)


def test_parallel_sweep_matches_serial(monkeypatch):
    cfg = default_config(Topology.BARE_3T)
    spec = SweepSpec(config=cfg, i_min=1e-11, i_max=1e-9,
                     points_per_decade=2)
    monkeypatch.setenv("HPS_THREADS", "1")
    serial = run_sweep(spec)
    monkeypatch.setenv("HPS_THREADS", "2")
    parallel = run_sweep(spec)
    assert serial.rows == parallel.rows
    assert (serial.dark_final_vpd, serial.dark_swing) == \
        (parallel.dark_final_vpd, parallel.dark_swing)


def test_sweep_point_computes_no_sample_current(monkeypatch, calibrated):
    # A sweep keeps the final VPD and the events of each point, never its
    # current trace: every kernel call a point makes is a counted right-hand
    # side of the stepper, and the currents of the samples inside steps are
    # computed when ``i_ox`` is first read.
    cfg = default_config(Topology.HYBRID_CASE_I, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    opt = SolverOptions()
    reset = solver._reset_phase(cfg, opt)  # filled before counting
    calls = []
    make_kernel = solver.segment_kernel

    def counting_kernel(*args):
        kernel = make_kernel(*args)

        def counted(vpd, gap):
            calls.append(None)
            return kernel(vpd, gap)
        return counted

    traces = []
    integrate = experiments.integrate

    def keep(*args):
        traces.append(integrate(*args))
        return traces[-1]

    monkeypatch.setattr(solver, "segment_kernel", counting_kernel)
    monkeypatch.setattr(experiments, "integrate", keep)
    monkeypatch.setenv("HPS_THREADS", "1")
    run_sweep(SweepSpec(cfg, i_min=1e-12, i_max=1e-9, points_per_decade=1,
                        options=opt))
    assert len(calls) == sum(tr.stats.rhs_evals - reset.stats.rhs_evals
                             for tr in traces)
    n_reset = len(reset.samples)
    for trace in traces:
        del calls[:]
        first = trace.i_ox
        # The exposure's rows less its states: the step ends, the first
        # sample of each segment (one ulp past its boundary) and the end
        # sample after a floor clamp.  Those are the samples inside steps.
        t = trace.t[n_reset - 1:]
        entered = int(np.sum(t[1:] == np.nextafter(t[:-1], np.inf)))
        floor = [e for e in trace.events
                 if e.kind is EventKind.VPD_FLOOR_CLAMP]
        tail = 1 if floor and floor[0].t_event < cfg.pd.t_end else 0
        inside = len(t) - 1 - (trace.stats.accepted - reset.stats.accepted) \
            - entered - tail
        assert len(calls) == inside > 0
        assert np.array_equal(trace.i_ox, first)
        assert len(calls) == inside


def test_sweep_builds_no_samples(monkeypatch, calibrated):
    # A sweep point reads no sample, so none is built; the first read of a
    # trace builds all four sample arrays at once.
    cfg = default_config(Topology.HYBRID_CASE_III, oxram=calibrated.oxram,
                         selector=calibrated.selector)
    opt = SolverOptions()
    solver._reset_phase(cfg, opt)  # its samples are built once, here
    builds = []
    build = solver._samples

    def counted(run):
        builds.append(None)
        return build(run)

    traces = []
    integrate = experiments.integrate

    def keep(*args):
        traces.append(integrate(*args))
        return traces[-1]

    monkeypatch.setattr(solver, "_samples", counted)
    monkeypatch.setattr(experiments, "integrate", keep)
    monkeypatch.setenv("HPS_THREADS", "1")
    run_sweep(SweepSpec(cfg, i_min=1e-12, i_max=1e-9, points_per_decade=1,
                        options=opt))
    assert traces and not builds
    trace = traces[-1]
    assert len(trace.t) > 1
    assert len(builds) == 1
    assert len(trace.vpd) == len(trace.i_ox) == len(trace.gap) == len(trace.t)
    assert len(builds) == 1


# Five exposures per topology: 24 jobs, three processes at most.
SMALL_GRID = {"i_min": 1e-12, "i_max": 1e-10, "points_per_decade": 2}


def test_report_identical_for_any_worker_count(monkeypatch, calibrated):
    reports = {}
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("HPS_THREADS", workers)
        reports[workers] = table1_report(calibrated.oxram,
                                         calibrated.selector, **SMALL_GRID)
    assert all(len(rep.rows) == 5 for rep in reports["1"].values())
    assert reports["2"] == reports["1"]
    assert reports["3"] == reports["1"]


@pytest.mark.parametrize("workers,children", [("1", 0), ("2", 1)])
def test_report_builds_at_most_one_pool(monkeypatch, calibrated, workers,
                                        children, recorded_fan_outs):
    fan_outs, forks = recorded_fan_outs
    monkeypatch.setenv("HPS_THREADS", workers)
    table1_report(calibrated.oxram, calibrated.selector, **SMALL_GRID)
    # A serial report forks nothing; a 2-worker one fans out once and forks
    # one child.  A job is a sweep index and an exposure.
    assert len(forks) == children
    ((processes, jobs),) = fan_outs
    assert processes == int(workers)
    assert len(jobs) == 4 * 6
    assert all(type(k) is int and type(i) is float for k, i in jobs)


def test_reset_phases_are_filled_before_the_fork(monkeypatch, calibrated,
                                                recorded_fan_outs):
    # A cold report integrates each reset phase once, before it forks, so
    # no process integrates one again.
    fan_outs, forks = recorded_fan_outs
    entered, fan_out = [], experiments._fan_out

    def at_entry(run, jobs, processes):
        entered.append(solver._reset_phase.cache_info())
        return fan_out(run, jobs, processes)

    monkeypatch.setattr(experiments, "_fan_out", at_entry)
    monkeypatch.setenv("HPS_THREADS", "2")
    solver._reset_phase.cache_clear()
    table1_report(calibrated.oxram, calibrated.selector, **SMALL_GRID)
    assert [(info.misses, info.currsize) for info in entered] == [(4, 4)]
    assert [processes for processes, _ in fan_outs] == [2]
    assert len(forks) == 1
    assert solver._reset_phase.cache_info().misses == 4


def test_pool_has_one_worker_per_job_chunk(monkeypatch, calibrated,
                                           recorded_fan_outs):
    # At most one process per _CHUNK jobs: 24 jobs make three.
    fan_outs, forks = recorded_fan_outs
    monkeypatch.setenv("HPS_THREADS", "64")
    pooled = table1_report(calibrated.oxram, calibrated.selector, **SMALL_GRID)
    assert [processes for processes, _ in fan_outs] == [3]
    assert len(fan_outs[0][1]) == 24
    assert len(forks) == 2
    monkeypatch.setenv("HPS_THREADS", "1")
    assert pooled == table1_report(calibrated.oxram, calibrated.selector,
                                   **SMALL_GRID)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_points(monkeypatch, fail, in_parent):
    """Patches each sweep point to call ``fail`` first, in this process only
    or in every other process only."""
    parent = os.getpid()
    run_point = experiments._run_point

    def point(*args):
        if (os.getpid() == parent) == in_parent:
            fail()
        return run_point(*args)
    monkeypatch.setattr(experiments, "_run_point", point)


def test_no_child_outlives_a_three_process_report(monkeypatch, calibrated,
                                                  recorded_fan_outs):
    _, forks = recorded_fan_outs
    monkeypatch.setenv("HPS_THREADS", "3")
    table1_report(calibrated.oxram, calibrated.selector, **SMALL_GRID)
    assert len(forks) == 2
    _assert_no_child_left()


def test_no_child_outlives_a_dead_worker(monkeypatch, calibrated,
                                         die_in_workers):
    # The first child's death is raised while the second is still unreaped.
    die_in_workers(experiments, "_run_point")
    monkeypatch.setenv("HPS_THREADS", "3")
    with pytest.raises(OxpixError,
                       match="worker process died: exit status 1"):
        table1_report(calibrated.oxram, calibrated.selector, **SMALL_GRID)
    _assert_no_child_left()


def test_no_child_outlives_an_error_in_the_parents_share(monkeypatch,
                                                         calibrated):
    def fail():
        raise RuntimeError("the parent's share failed")

    _fail_points(monkeypatch, fail, in_parent=True)
    monkeypatch.setenv("HPS_THREADS", "3")
    with pytest.raises(RuntimeError, match="the parent's share failed"):
        table1_report(calibrated.oxram, calibrated.selector, **SMALL_GRID)
    _assert_no_child_left()


def _raise_value_error():
    raise ValueError("no such exposure")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("fail,error,message", [
    (_raise_value_error, ValueError, "^no such exposure$"),
    (_kill_self, OxpixError, "^a worker process died: killed by SIGKILL$"),
])
def test_child_failure_reaches_the_parent(monkeypatch, calibrated, fail,
                                          error, message):
    # A child's own exception keeps its type and message, as it would have
    # in this process; a child killed by a signal is a dead worker.
    _fail_points(monkeypatch, fail, in_parent=False)
    monkeypatch.setenv("HPS_THREADS", "2")
    with pytest.raises(error, match=message) as raised:
        table1_report(calibrated.oxram, calibrated.selector, **SMALL_GRID)
    assert type(raised.value) is error
    _assert_no_child_left()


def test_serial_report_integrates_each_reset_phase_once(monkeypatch,
                                                        calibrated):
    monkeypatch.setenv("HPS_THREADS", "1")
    solver._reset_phase.cache_clear()
    table1_report(calibrated.oxram, calibrated.selector, **SMALL_GRID)
    assert solver._reset_phase.cache_info().misses == 4


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_bad_worker_count_is_logged(monkeypatch, caplog, raw):
    monkeypatch.setenv("HPS_THREADS", raw)
    with caplog.at_level(logging.WARNING, logger="oxpix"):
        assert _worker_count() == 1
    assert f"HPS_THREADS={raw!r}" in caplog.text
    assert "1 worker" in caplog.text


def test_bad_worker_count_is_logged_once_per_report(monkeypatch, caplog,
                                                    calibrated):
    monkeypatch.setenv("HPS_THREADS", "abc")
    with caplog.at_level(logging.WARNING, logger="oxpix"):
        reports = table1_report(calibrated.oxram, calibrated.selector,
                                i_min=1e-12, i_max=1e-11, points_per_decade=1)
    assert all(len(rep.rows) == 2 for rep in reports.values())
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
