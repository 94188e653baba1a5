"""Calibration tests: anchor fitting, round-trip recovery, determinism."""

import collections
import dataclasses
import itertools
import logging
import math
import pickle
import re

import pytest

from oxpix.calibration import (
    ANCHOR_I_RESET,
    ANCHOR_R_RESET,
    ANCHOR_R_SET,
    ANCHOR_T_RESET,
    VREAD,
    Anchor,
    CalibrationAnchors,
    _BOX_DECADES,
    _FIT_FIELDS,
    _JACOBIAN_STEP,
    calibrate,
    predict_anchor,
)
from oxpix import calibration
from oxpix.cli import _result_payload
from oxpix.devices import (
    MosfetParams,
    OxRamParams,
    OxRamState,
    read_resistance,
    state_from_resistance,
)
from oxpix.errors import CalibrationError, InvalidInputError, OutOfRangeError


def test_default_anchors_converge(calibrated):
    tolerances = {ANCHOR_R_SET: 0.20, ANCHOR_R_RESET: 0.20,
                  ANCHOR_T_RESET: 0.10, ANCHOR_I_RESET: 0.20}
    assert calibrated.converged
    for quantity, tol in tolerances.items():
        assert abs(calibrated.residuals[quantity]) <= tol


def _synthetic_anchors() -> CalibrationAnchors:
    """The anchors of a perturbed parameter set, at 5 % tolerance."""
    truth = dataclasses.replace(
        OxRamParams(), i0_ox=OxRamParams().i0_ox * 1.8,
        rupture_rate_r0=OxRamParams().rupture_rate_r0 * 0.6)
    return CalibrationAnchors(tuple(
        Anchor(q, predict_anchor(q, truth, MosfetParams()), 0.05)
        for q in (ANCHOR_R_SET, ANCHOR_R_RESET, ANCHOR_T_RESET,
                  ANCHOR_I_RESET)))


def test_synthetic_round_trip_recovers_anchor_values():
    # Anchors generated from a perturbed parameter set must be reproduced
    # within 1 % by the fit started from the unperturbed defaults.
    anchors = _synthetic_anchors()
    result = calibrate(anchors)
    for anchor in anchors.anchors:
        model = predict_anchor(anchor.quantity, result.oxram, result.selector)
        assert model == pytest.approx(anchor.value, rel=0.01)


def test_single_anchor_flags_underdetermined():
    anchors = CalibrationAnchors((Anchor(ANCHOR_R_RESET, 60e9, 0.20),))
    result = calibrate(anchors)
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
        calibrate(anchors)


def test_empty_anchor_list_rejected():
    with pytest.raises(CalibrationError):
        CalibrationAnchors(())


def test_unknown_anchor_quantity_rejected():
    with pytest.raises(CalibrationError):
        predict_anchor("bogus", OxRamParams(), MosfetParams())


def test_r_set_anchor_uses_its_own_target():
    anchors = CalibrationAnchors(
        (Anchor(ANCHOR_R_SET, 2e6, 0.20),) + CalibrationAnchors().anchors[1:])
    result = calibrate(anchors)
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
    # Fits from the same initial constants evaluate the same points, so
    # state kept between fits would hand one fit the other's values.
    default = CalibrationAnchors()
    other = CalibrationAnchors((Anchor(ANCHOR_R_SET, 2e6, 0.20),)
                               + default.anchors[1:])
    a1 = calibrate()
    b = calibrate(other)
    c = calibrate(initial_oxram=OxRamParams(i0_ox=1.2e-2),
                  initial_selector=MosfetParams(kprime=1.1e-4))
    a2 = calibrate()
    assert (a2.oxram, a2.selector, a2.residuals, a2.objective) == \
        (a1.oxram, a1.selector, a1.residuals, a1.objective)
    for fit, anchors in ((a1, default), (b, other), (c, default)):
        assert fit.objective == _objective_at(fit, anchors)


@pytest.mark.parametrize("kwargs,held", [
    ({}, "i0_cf cf_field_b"),
    # A raised filament prefactor makes every conduction field show.
    ({"initial_oxram": OxRamParams(i0_cf=1e-16)}, "none"),
    ({"anchors": CalibrationAnchors((Anchor(ANCHOR_R_RESET, 60e9, 0.20),))},
     "i0_cf cf_field_b rupture_rate_r0 rupture_field_v1 kprime"),
], ids=["defaults", "raised_i0_cf", "r_reset_only"])
def test_fit_holds_the_coordinates_no_anchor_sees(monkeypatch, caplog,
                                                  kwargs, held):
    result, line = _logged_fit(monkeypatch, caplog, "1", **kwargs)
    assert re.search(r", held (.*), [0-9.]+ s; [0-9]+ anchor predictions "
                     r"\([a-z_ 0-9]+\)$", line).group(1) == held
    assert (" ".join(result.held) or "none") == held


def test_fit_returns_the_held_coordinates_of_x0_bit_for_bit():
    # A held coordinate is no part of any step, so the fit ends on its
    # initial value itself, though neither default held value comes back
    # from ``exp(log(v))``.
    result = calibrate()
    assert result.held == ("i0_cf", "cf_field_b")
    for name in result.held:
        value = getattr(OxRamParams(), name)
        assert math.exp(math.log(value)) != value
        assert getattr(result.oxram, name) == value
    only = calibrate(anchors=CalibrationAnchors(
        (Anchor(ANCHOR_R_RESET, 60e9, 0.20),)))
    assert "kprime" in only.held
    assert only.selector.kprime == MosfetParams().kprime


def test_fit_keeps_its_search_path(calibrated, caplog):
    # The work counts of a fit pin the points it evaluated, which a digest
    # of the result alone would not: another path can end at the same point.
    with caplog.at_level(logging.INFO, logger="oxpix"):
        result = calibrate()
    (line,) = [r.getMessage() for r in caplog.records if r.name == "oxpix"]
    assert result.evaluations == calibrated.evaluations == 35
    assert line.startswith("calibrate: 35 evaluations in 2 iterations, ")


def _x0(oxram, selector):
    """The logs of the fitted fields' values, the fit's initial guess."""
    return [math.log(getattr(oxram, f)) for f in _FIT_FIELDS[:-1]] \
        + [math.log(selector.kprime)]


def _box(oxram, selector):
    x0 = _x0(oxram, selector)
    width = [_BOX_DECADES[f] * math.log(10.0) for f in _FIT_FIELDS]
    return ([x - w for x, w in zip(x0, width)],
            [x + w for x, w in zip(x0, width)])


def _checked(coords, oxram, selector):
    """The point at ``coords`` built by the checked constructors; a
    coordinate at the log of its field's given value keeps that value."""
    given = [getattr(oxram, f) for f in _FIT_FIELDS[:-1]] + [selector.kprime]
    values = dict(zip(_FIT_FIELDS, (v if c == math.log(v) else math.exp(c)
                                    for c, v in zip(coords, given))))
    kprime = values.pop("kprime")
    return (OxRamParams(**{**vars(oxram), **values}),
            MosfetParams(**{**vars(selector), "kprime": kprime}))


def test_search_point_equals_the_checked_constructors(calibrated):
    base = (OxRamParams(), MosfetParams())
    fitted = _x0(calibrated.oxram, calibrated.selector)
    for coords in (fitted, *_box(*base)):
        coords = tuple(coords)
        point = calibration._point(coords, *base, _x0(*base))
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
        assert _message(calibration._point, coords, *base, _x0(*base)) == \
            _message(_checked, coords, *base), names


def test_initial_constants_at_the_float_range_edges():
    tiny = calibrate(initial_oxram=OxRamParams(i0_cf=5e-324))
    assert tiny.converged
    assert tiny.objective == 6.410932569941547e-09
    assert tiny.evaluations == 35
    # The log residuals are finite there (709 at most), the objective not.
    with pytest.raises(CalibrationError,
                       match="^objective non-finite at the fit$"):
        calibrate(initial_oxram=OxRamParams(i0_ox=1e308))


def _counted_calibrate(monkeypatch, **kwargs):
    """``calibrate(**kwargs)``'s CalibrationError and its evaluation count:
    each evaluation builds one point, by ``_point`` or ``_moved``."""
    calls = []
    for name in ("_point", "_moved"):
        def counted(*args, built=getattr(calibration, name)):
            calls.append(args)
            return built(*args)
        monkeypatch.setattr(calibration, name, counted)
    with pytest.raises(CalibrationError) as err:
        calibrate(**kwargs)
    return str(err.value), len(calls)


def test_fit_stops_at_a_jacobian_point_it_cannot_evaluate(monkeypatch):
    # A log step of 1e-4 above 1.7976e308, ``kprime``'s upper Jacobian
    # point overflows ``math.exp``: the Jacobian is abandoned after the
    # initial guess and the 16 points of the eight columns, and the fit
    # stops at the initial guess, where the objective overflows.
    message, evaluations = _counted_calibrate(
        monkeypatch, initial_selector=MosfetParams(kprime=1.7976e308))
    assert message == "objective non-finite at the fit"
    assert evaluations == 17


def test_fit_rejects_an_initial_guess_it_cannot_evaluate(monkeypatch):
    # A rupture rate that underflows to 0 divides the rupture time by zero.
    message, evaluations = _counted_calibrate(
        monkeypatch, initial_oxram=OxRamParams(rupture_rate_r0=1e-300,
                                               rupture_field_v1=1e300))
    assert message == "log residuals non-finite at the initial guess"
    assert evaluations == 1


def test_fit_reports_its_evaluations(monkeypatch, caplog):
    # A step's point predicts every anchor, a Jacobian point only those its
    # coordinate feeds: 3 full points and 2 x 16 Jacobian points, of which
    # 20 move a conduction field, 8 a rupture field and 4 ``kprime``.  The
    # fit's residuals reuse the model values of its last accepted point.
    calls = []
    predict = calibration.predict_anchor

    def counted(quantity, *args):
        calls.append(quantity)
        return predict(quantity, *args)

    monkeypatch.setattr(calibration, "predict_anchor", counted)
    with caplog.at_level(logging.INFO, logger="oxpix"):
        result = calibrate()
    anchors = CalibrationAnchors().anchors
    assert result.evaluations == 35
    assert collections.Counter(calls) == {
        ANCHOR_R_SET: 23, ANCHOR_R_RESET: 23, ANCHOR_T_RESET: 11,
        ANCHOR_I_RESET: 27}
    assert calls[:len(anchors)] == [a.quantity for a in anchors]
    lines = [r.getMessage() for r in caplog.records if r.name == "oxpix"]
    assert len(lines) == 1
    assert f": {result.evaluations} evaluations in " in lines[0]
    assert lines[0].endswith("; 84 anchor predictions (r_set 23 r_reset 23 "
                             "t_reset 11 i_reset_peak 27)")


def _logged_fit(monkeypatch, caplog, workers, **kwargs):
    """A fit under ``HPS_THREADS=workers`` and its one INFO line."""
    monkeypatch.setenv("HPS_THREADS", workers)
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="oxpix"):
        result = calibrate(**kwargs)
    (line,) = [r.getMessage() for r in caplog.records if r.name == "oxpix"]
    return result, line


def test_fit_identical_for_any_worker_count(monkeypatch, caplog,
                                            recorded_fan_outs):
    # Nor for any seed or restart count: the fit has no random part, and
    # it runs in-process.
    _, forks = recorded_fan_outs
    fits = set()
    for workers, kwargs in (("1", {}), ("2", {"seed": 5, "restarts": 3}),
                            ("3", {"seed": 11, "restarts": 1}),
                            ("2", {"seed": -1, "restarts": 0})):
        result, line = _logged_fit(monkeypatch, caplog, workers, **kwargs)
        fits.add((pickle.dumps(result), line.rsplit(", ", 1)[0]))
    assert len(fits) == 1
    assert forks == []


@pytest.mark.parametrize("kwargs", [
    {}, {"initial_oxram": OxRamParams(i0_cf=1e-16)},
    {"initial_oxram": OxRamParams(i0_cf=5e-324)},
    {"anchors": CalibrationAnchors((Anchor(ANCHOR_R_SET, 2e6, 0.20),)
                                   + CalibrationAnchors().anchors[1:])},
    {"anchors": CalibrationAnchors((Anchor(ANCHOR_R_RESET, 60e9, 0.20),))},
    {"anchors": _synthetic_anchors()},
    {"initial_oxram": OxRamParams(ox_field_d=1.76)},
], ids=["defaults", "raised_i0_cf", "tiny_i0_cf", "r_set_2M", "r_reset_only",
        "round_trip", "far_ox_field_d"])
def test_fit_takes_at_most_200_evaluations(kwargs):
    result = calibrate(**kwargs)
    assert result.converged
    assert result.evaluations <= 200


def test_fit_halves_a_step_that_does_not_lower_the_residual():
    # From 10 % above the default ox_field_d the second full step overshoots:
    # without its halvings the fit stops there, with r_set 9e-4 off.  Halved,
    # the steps go on to about the read-back's level.
    result = calibrate(initial_oxram=OxRamParams(ox_field_d=1.76))
    assert max(map(abs, result.residuals.values())) < 1e-4


def _scaled(oxram, selector, name, factor):
    if name == "kprime":
        return oxram, dataclasses.replace(selector,
                                          kprime=selector.kprime * factor)
    return (dataclasses.replace(oxram, **{name: getattr(oxram, name) * factor}),
            selector)


@pytest.mark.parametrize("anchor", CalibrationAnchors().anchors,
                         ids=lambda a: a.quantity)
def test_anchor_inputs_are_the_fields_its_predictor_reads(anchor):
    # The fields that feed an anchor in ``calibration._FEEDS`` are those its
    # predictor reads.  At the default constants the filament term is below
    # the last bit of the read-backs and the programming peak; the raised
    # prefactor makes every listed field show.
    inputs = [f for f in _FIT_FIELDS
              if anchor.quantity in calibration._FEEDS[f]]
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


def _jacobian_points():
    """Points a Jacobian of the fit is taken at, as ``(oxram, selector,
    coords)``: ``x0`` and the fitted point of the default start, and ``x0``
    of a start whose filament term every conduction anchor sees."""
    base = (OxRamParams(), MosfetParams())
    fit = calibrate()
    raised = (OxRamParams(i0_cf=OxRamParams().i0_cf * 1e6), MosfetParams())
    return [(*base, _x0(*base)), (*base, _x0(fit.oxram, fit.selector)),
            (*raised, _x0(*raised))]


def _steps(coords, j):
    """``coords`` with coordinate ``j`` moved by -+ the Jacobian step."""
    return [[c + sign * _JACOBIAN_STEP if k == j else c
             for k, c in enumerate(coords)] for sign in (-1.0, 1.0)]


def test_anchors_outside_a_fields_feeds_do_not_move():
    # A Jacobian point takes the log residual of every anchor outside its
    # field's feeds from its base point, so those anchors must be exactly
    # unmoved by a Jacobian step of that field.
    anchors = CalibrationAnchors().anchors
    for oxram, selector, coords in _jacobian_points():
        x0 = _x0(oxram, selector)
        base = calibration._point(coords, oxram, selector, x0)
        for j, field in enumerate(_FIT_FIELDS):
            for moved in _steps(coords, j):
                point = calibration._point(moved, oxram, selector, x0)
                for a in anchors:
                    if a.quantity not in calibration._FEEDS[field]:
                        assert predict_anchor(a.quantity, *point, a.value) == \
                            predict_anchor(a.quantity, *base, a.value), \
                            (field, a.quantity)


def test_moved_point_equals_the_search_point():
    # A Jacobian point is its base point with one field replaced and
    # checked; it must be the point ``_point`` builds at its coordinates,
    # also where a step lands on ``x0`` and keeps the field's given value.
    default = (OxRamParams(), MosfetParams())
    below = (*default, [c - _JACOBIAN_STEP for c in _x0(*default)])
    landed = 0
    for oxram, selector, coords in [*_jacobian_points(), below]:
        x0 = _x0(oxram, selector)
        base = calibration._point(coords, oxram, selector, x0)
        for j, field in enumerate(_FIT_FIELDS):
            given = selector.kprime if field == "kprime" \
                else getattr(oxram, field)
            for moved in _steps(coords, j):
                landed += moved[j] == x0[j]
                built = calibration._moved(base, field, moved[j], x0[j], given)
                want = calibration._point(moved, oxram, selector, x0)
                for b, w in zip(built, want):
                    assert type(b) is type(w)
                    assert vars(b) == vars(w), field
            # A failing coordinate fails as it does in ``_point``.
            for bad in (-math.inf, math.inf, math.nan):
                at = [bad if k == j else c for k, c in enumerate(coords)]
                assert _message(calibration._moved, base, field, bad, x0[j],
                                given) == \
                    _message(calibration._point, at, oxram, selector, x0)
    assert landed == len(_FIT_FIELDS)


_FIVE_STARTS = [
    {}, {"initial_oxram": OxRamParams(i0_ox=OxRamParams().i0_ox * 3)},
    {"initial_selector": MosfetParams(kprime=MosfetParams().kprime * 0.5)},
    {"initial_oxram": OxRamParams(i0_cf=OxRamParams().i0_cf * 1e6)},
    {"anchors": CalibrationAnchors((Anchor(ANCHOR_R_SET, 1e5, 0.20),)
                                   + CalibrationAnchors().anchors[1:])},
]


@pytest.mark.parametrize("kwargs", _FIVE_STARTS, ids=[
    "defaults", "i0_ox_x3", "kprime_x0.5", "i0_cf_x1e6", "r_set_100k"])
def test_fit_is_unchanged_when_every_field_feeds_every_anchor(monkeypatch,
                                                              kwargs):
    # With every anchor in every field's feeds, each Jacobian point predicts
    # every anchor, as a fit without the table would.
    fit = calibrate(**kwargs)
    every = (ANCHOR_R_SET, ANCHOR_R_RESET, ANCHOR_T_RESET, ANCHOR_I_RESET)
    monkeypatch.setattr(calibration, "_FEEDS", dict.fromkeys(_FIT_FIELDS,
                                                             every))
    oracle = calibrate(**kwargs)
    assert pickle.dumps(_result_payload(fit)) == \
        pickle.dumps(_result_payload(oracle))
    assert (fit.held, fit.singular_values, fit.evaluations) == \
        (oracle.held, oracle.singular_values, oracle.evaluations)
