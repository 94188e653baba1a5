"""Calibration tests: anchor fitting, round-trip recovery, determinism."""

import dataclasses
import itertools
import logging
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest

from oxpix.calibration import (
    ANCHOR_I_RESET,
    ANCHOR_R_RESET,
    ANCHOR_R_SET,
    ANCHOR_T_RESET,
    VREAD,
    Anchor,
    CalibrationAnchors,
    _ANCHOR_INPUTS,
    _BOX_DECADES,
    _FIT_FIELDS,
    _pattern_search,
    calibrate,
    predict_anchor,
)
from oxpix import calibration
from oxpix.devices import (
    MosfetParams,
    OxRamParams,
    OxRamState,
    read_resistance,
    state_from_resistance,
)
from oxpix.errors import (
    CalibrationError,
    InvalidInputError,
    OutOfRangeError,
    OxpixError,
)


def test_default_anchors_converge(calibrated):
    tolerances = {ANCHOR_R_SET: 0.20, ANCHOR_R_RESET: 0.20,
                  ANCHOR_T_RESET: 0.10, ANCHOR_I_RESET: 0.20}
    assert calibrated.converged
    for quantity, tol in tolerances.items():
        assert abs(calibrated.residuals[quantity]) <= tol


def test_synthetic_round_trip_recovers_anchor_values():
    # Anchors generated from a perturbed parameter set must be reproduced
    # within 1 % by the fit started from the unperturbed defaults.
    truth = dataclasses.replace(
        OxRamParams(), i0_ox=OxRamParams().i0_ox * 1.8,
        rupture_rate_r0=OxRamParams().rupture_rate_r0 * 0.6)
    sel = MosfetParams()
    anchors = CalibrationAnchors(tuple(
        Anchor(q, predict_anchor(q, truth, sel), 0.05)
        for q in (ANCHOR_R_SET, ANCHOR_R_RESET, ANCHOR_T_RESET,
                  ANCHOR_I_RESET)))
    result = calibrate(anchors, seed=3, restarts=4)
    for anchor in anchors.anchors:
        model = predict_anchor(anchor.quantity, result.oxram, result.selector)
        assert model == pytest.approx(anchor.value, rel=0.01)


def test_single_anchor_flags_underdetermined():
    anchors = CalibrationAnchors((Anchor(ANCHOR_R_RESET, 60e9, 0.20),))
    result = calibrate(anchors, seed=1, restarts=2)
    assert result.converged
    assert "under-determined" in result.detail


def test_same_seed_same_result():
    a = calibrate(seed=11, restarts=3)
    b = calibrate(seed=11, restarts=3)
    assert a.objective == b.objective
    assert a.oxram == b.oxram
    assert a.selector == b.selector


def test_non_finite_objective_raises():
    # A zero-valued anchor makes every residual undefined.
    anchors = CalibrationAnchors((Anchor(ANCHOR_T_RESET, 0.0, 0.1),))
    with pytest.raises(CalibrationError):
        calibrate(anchors, restarts=1)


def test_empty_anchor_list_rejected():
    with pytest.raises(CalibrationError):
        CalibrationAnchors(())


def test_unknown_anchor_quantity_rejected():
    with pytest.raises(CalibrationError):
        predict_anchor("bogus", OxRamParams(), MosfetParams())


def test_r_set_anchor_uses_its_own_target():
    anchors = CalibrationAnchors(
        (Anchor(ANCHOR_R_SET, 2e6, 0.20),) + CalibrationAnchors().anchors[1:])
    result = calibrate(anchors, seed=0, restarts=1)
    assert result.converged
    assert abs(result.residuals[ANCHOR_R_SET]) <= 0.01


def _r_set_by_composition(target, p):
    """SET read-back as a bisection followed by a second read."""
    try:
        state = state_from_resistance(target, VREAD, p)
    except OutOfRangeError:
        lo = read_resistance(OxRamState(p.gap_min), VREAD, p)
        if lo > target:
            return lo
        return read_resistance(OxRamState(p.gap_max), VREAD, p)
    return read_resistance(state, VREAD, p)


def test_read_back_predictors_are_exact():
    sel = MosfetParams()
    base = OxRamParams()
    for p in (base, dataclasses.replace(base, i0_ox=base.i0_ox * 1.8),
              dataclasses.replace(base, i0_cf=base.i0_cf * 0.7,
                                  ox_decay_c=base.ox_decay_c * 1.02),
              dataclasses.replace(base, cf_field_b=base.cf_field_b * 1.03)):
        r_min = read_resistance(OxRamState(p.gap_min), VREAD, p)
        r_max = read_resistance(OxRamState(p.gap_max), VREAD, p)
        for target in (0.5 * r_min, r_min, 1.25e6, 5e6, 1e9, r_max,
                       2.0 * r_max):
            assert predict_anchor(ANCHOR_R_SET, p, sel, target) == \
                _r_set_by_composition(target, p)
        assert predict_anchor(ANCHOR_R_RESET, p, sel) == r_max


def _objective_at(result, anchors):
    total = 0.0
    for a in anchors.anchors:
        model = predict_anchor(a.quantity, result.oxram, result.selector,
                               a.value)
        total += ((model - a.value) / (a.tolerance * a.value)) ** 2
    return total


def test_fit_is_unaffected_by_earlier_fits():
    # Fits from the same initial constants search the same points, so a
    # memo shared between fits would hand one fit the other's values.
    default = CalibrationAnchors()
    other = CalibrationAnchors((Anchor(ANCHOR_R_SET, 2e6, 0.20),)
                               + default.anchors[1:])
    a1 = calibrate(seed=4, restarts=2)
    b = calibrate(other, seed=4, restarts=2)
    c = calibrate(initial_oxram=OxRamParams(i0_ox=1.2e-2),
                  initial_selector=MosfetParams(kprime=1.1e-4), seed=4,
                  restarts=2)
    a2 = calibrate(seed=4, restarts=2)
    assert (a2.oxram, a2.selector, a2.residuals, a2.objective) == \
        (a1.oxram, a1.selector, a1.residuals, a1.objective)
    for fit, anchors in ((a1, default), (b, other), (c, default)):
        assert fit.objective == _objective_at(fit, anchors)


def test_pattern_search_evaluates_each_point_once():
    seen = {}

    def fun(v):
        assert type(v) is tuple and all(type(c) is float for c in v)
        assert v not in seen
        seen[v] = float(np.sum((np.array(v) - np.array([0.3, -0.2, 0.05]))
                               ** 2))
        return seen[v]

    lo, hi = (-1.0,) * 3, (1.0,) * 3
    x, f, evaluations, hits = _pattern_search((0.0,) * 3, lo, hi, fun)
    assert evaluations == len(seen)
    assert hits > 0
    assert f == min(seen.values())
    assert seen[x] == f


def test_pattern_search_takes_no_move_along_a_closed_coordinate():
    seen = {}

    def fun(v):
        seen[v] = sum((c - t) ** 2 for c, t in zip(v, (0.3, -0.2, 0.05)))
        return seen[v]

    lo, hi = (-1.0, 0.1, -1.0), (1.0, 0.1, 1.0)
    x, f, _, _ = _pattern_search((0.0, 0.5, 0.0), lo, hi, fun)
    assert {v[1] for v in seen} == {0.1}
    assert f == min(seen.values()) and seen[x] == f


@pytest.mark.parametrize("kwargs,held", [
    ({}, "i0_cf cf_field_b"),
    # A raised filament prefactor makes every conduction field show.
    ({"initial_oxram": OxRamParams(i0_cf=1e-16)}, "none"),
    ({"anchors": CalibrationAnchors((Anchor(ANCHOR_R_RESET, 60e9, 0.20),))},
     "i0_cf cf_field_b rupture_rate_r0 rupture_field_v1 kprime"),
], ids=["defaults", "raised_i0_cf", "r_reset_only"])
def test_fit_holds_the_coordinates_no_anchor_sees(monkeypatch, caplog,
                                                  kwargs, held):
    _, line = _logged_fit(monkeypatch, caplog, "1", restarts=1, **kwargs)
    assert re.search(r", held (.*), 1 worker, ", line).group(1) == held


def test_one_restart_keeps_the_held_constants_of_its_start(monkeypatch):
    # The first restart starts at the initial point, so a held coordinate
    # ends there bit for bit and no move along it is ever evaluated.
    monkeypatch.setenv("HPS_THREADS", "1")
    points = []
    objective = calibration._objective

    def recorded(coords, *args):
        points.append(coords)
        return objective(coords, *args)

    monkeypatch.setattr(calibration, "_objective", recorded)
    result = calibrate(restarts=1)
    x0 = points[0]
    start, _ = calibration._point(x0, OxRamParams(), MosfetParams())
    assert start.cf_field_b == OxRamParams().cf_field_b
    for name in ("i0_cf", "cf_field_b"):
        assert getattr(result.oxram, name) == getattr(start, name)
    # One probe point per box edge of each coordinate, then the search.
    held = [_FIT_FIELDS.index("i0_cf"), _FIT_FIELDS.index("cf_field_b")]
    search = points[1 + 2 * len(_FIT_FIELDS):]
    assert len(search) == result.evaluations - 1 - 2 * len(_FIT_FIELDS)
    assert all(p[j] == x0[j] for p in search for j in held)


def test_fit_keeps_its_search_path(calibrated, caplog):
    # The work counts of a fit pin the points it searched, which a digest
    # of the result alone would not: another path can end at the same point.
    with caplog.at_level(logging.INFO, logger="oxpix"):
        result = calibrate(seed=5, restarts=2)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "oxpix"]
    assert result.evaluations == 2403
    assert "2 restarts, 2403 evaluations, 433 memo hits, predictor " \
        "calls/reused values r_set 945/1458 r_reset 945/1458 " \
        "t_reset 151/2252 i_reset_peak 1452/951, " in line
    assert calibrated.evaluations == 9651


def _box(oxram, selector):
    x0 = [math.log(getattr(oxram, f)) for f in _FIT_FIELDS[:-1]] \
        + [math.log(selector.kprime)]
    width = [_BOX_DECADES[f] * math.log(10.0) for f in _FIT_FIELDS]
    return ([x - w for x, w in zip(x0, width)],
            [x + w for x, w in zip(x0, width)])


def _checked(coords, oxram, selector):
    """The point at ``coords`` built by the checked constructors."""
    values = dict(zip(_FIT_FIELDS, map(math.exp, coords)))
    kprime = values.pop("kprime")
    return (OxRamParams(**{**vars(oxram), **values}),
            MosfetParams(**{**vars(selector), "kprime": kprime}))


def test_search_point_equals_the_checked_constructors(calibrated):
    base = (OxRamParams(), MosfetParams())
    fitted = [math.log(getattr(calibrated.oxram, f))
              for f in _FIT_FIELDS[:-1]] \
        + [math.log(calibrated.selector.kprime)]
    for coords in (fitted, *_box(*base)):
        coords = tuple(coords)
        point = calibration._point(coords, *base)
        checked = _checked(coords, *base)
        for built, want in zip(point, checked):
            assert type(built) is type(want)
            assert built == want
            assert dataclasses.asdict(built) == dataclasses.asdict(want)
            assert hash(built) == hash(want)
            assert pickle.dumps(built) == pickle.dumps(want)
            assert pickle.loads(pickle.dumps(built)) == want


def _message(build, *args):
    with pytest.raises(InvalidInputError) as err:
        build(*args)
    return str(err.value)


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
def test_search_point_fails_as_the_checked_constructors(bad):
    # Every single fitted field and every pair of them, so the first field
    # named is the one the constructors check first.
    base = (OxRamParams(), MosfetParams())
    x0 = _box(*base)[0]
    log_bad = -math.inf if bad == 0.0 else bad
    for names in [*itertools.combinations(range(len(_FIT_FIELDS)), 1),
                  *itertools.combinations(range(len(_FIT_FIELDS)), 2)]:
        coords = tuple(log_bad if j in names else x for j, x in enumerate(x0))
        assert _message(calibration._point, coords, *base) == \
            _message(_checked, coords, *base), names


def test_initial_constants_at_the_float_range_edges():
    tiny = calibrate(initial_oxram=OxRamParams(i0_cf=5e-324), restarts=2)
    assert tiny.converged
    assert tiny.objective == 2.499231698466286e-08
    assert tiny.evaluations == 2038
    with pytest.raises(CalibrationError,
                       match="^objective non-finite at every start$"):
        calibrate(initial_oxram=OxRamParams(i0_ox=1e308), restarts=2)


def test_fit_reports_its_evaluations(monkeypatch, caplog):
    # The counter lives in this process: the fit must not fork.
    monkeypatch.setenv("HPS_THREADS", "1")
    calls = []
    objective = calibration._objective

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(calibration, "_objective", counted)
    with caplog.at_level(logging.INFO, logger="oxpix"):
        result = calibrate(seed=5, restarts=2)
    assert result.evaluations == len(calls) > 0
    lines = [r.getMessage() for r in caplog.records if r.name == "oxpix"]
    assert len(lines) == 1
    assert f"2 restarts, {len(calls)} evaluations" in lines[0]


def _logged_fit(monkeypatch, caplog, workers, **kwargs):
    """A fit under ``HPS_THREADS=workers`` and its one INFO line."""
    monkeypatch.setenv("HPS_THREADS", workers)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="oxpix"):
        result = calibrate(**kwargs)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "oxpix"]
    return result, line


def test_fit_identical_for_any_worker_count(monkeypatch, caplog):
    fits = {}
    for workers in ("1", "2", "3"):
        result, line = _logged_fit(monkeypatch, caplog, workers, seed=5,
                                   restarts=3)
        counts, used = re.fullmatch(r"(.*), (\d+) workers?, [0-9.]+ s",
                                    line).groups()
        assert int(used) == int(workers)
        fits[workers] = pickle.dumps(result), result.evaluations, counts
    assert fits["2"] == fits["1"]
    assert fits["3"] == fits["1"]


@pytest.mark.parametrize("workers,restarts,pools", [
    ("1", 3, []), ("2", 1, []), ("2", 3, [2]), ("3", 3, [3]), ("4", 3, [3])])
def test_fit_builds_one_pool_of_a_worker_per_restart_at_most(
        monkeypatch, caplog, recorded_pools, workers, restarts, pools):
    built, jobs = recorded_pools
    _, line = _logged_fit(monkeypatch, caplog, workers, seed=5,
                          restarts=restarts)
    assert [kwargs["max_workers"] for kwargs in built] == pools
    # A job is one start; the anchors and constants go to each worker once,
    # through the pool initializer.
    assert len(jobs) == (restarts if pools else 0)
    assert all(len(start) == len(_FIT_FIELDS) for start in jobs)
    assert f", {pools[0] if pools else 1} worker" in line


def test_dead_fit_worker_raises_oxpix_error(monkeypatch, die_in_workers):
    die_in_workers(calibration, "_pattern_search")
    monkeypatch.setenv("HPS_THREADS", "2")
    with pytest.raises(OxpixError, match="worker process died"):
        calibrate(seed=0, restarts=2)


@pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"restarts": -2},
                                    {"seed": -1}])
def test_calibrate_rejects_bad_restarts_and_seed(kwargs):
    with pytest.raises(InvalidInputError):
        calibrate(**kwargs)


def test_fit_logs_predictor_calls_and_reused_values(monkeypatch, caplog):
    # The counter lives in this process: the fit must not fork.
    monkeypatch.setenv("HPS_THREADS", "1")
    calls = Counter()
    predict = calibration.predict_anchor

    def counted(quantity, *args):
        calls[quantity] += 1
        return predict(quantity, *args)

    monkeypatch.setattr(calibration, "predict_anchor", counted)
    with caplog.at_level(logging.INFO, logger="oxpix"):
        result = calibrate(seed=5, restarts=2)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "oxpix"]
    for a in CalibrationAnchors().anchors:
        made, reused = map(int, re.search(
            rf"\b{a.quantity} (\d+)/(\d+)", line).groups())
        # The residuals of the fit call each predictor once more.
        assert made + 1 == calls[a.quantity]
        assert made + reused == result.evaluations
    assert calls[ANCHOR_T_RESET] < 0.2 * result.evaluations


def _scaled(oxram, selector, name, factor):
    if name == "kprime":
        return oxram, dataclasses.replace(selector,
                                          kprime=selector.kprime * factor)
    return (dataclasses.replace(oxram, **{name: getattr(oxram, name) * factor}),
            selector)


@pytest.mark.parametrize("anchor", CalibrationAnchors().anchors,
                         ids=lambda a: a.quantity)
def test_anchor_inputs_are_the_fields_its_predictor_reads(anchor):
    # The objective reuses an anchor's value while the fields it lists stay
    # put, so a field its predictor reads but the table misses would hand
    # the fit a stale value.  At the default constants the filament term is
    # below the last bit of the read-backs and the programming peak; the
    # raised prefactor makes every listed field show.
    inputs = _ANCHOR_INPUTS[anchor.quantity]
    sel = MosfetParams()
    for ox in (OxRamParams(), OxRamParams(i0_cf=1e-16)):
        base = predict_anchor(anchor.quantity, ox, sel, anchor.value)
        for name in _FIT_FIELDS:
            for factor in (0.9, 1.1):
                moved = predict_anchor(anchor.quantity,
                                       *_scaled(ox, sel, name, factor),
                                       anchor.value)
                if name not in inputs:
                    assert moved == base, name
                elif ox.i0_cf == 1e-16:
                    assert moved != base, name
