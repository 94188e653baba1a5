"""Calibration tests: anchor fitting, round-trip recovery, determinism."""

import dataclasses

import pytest

from oxpix.calibration import (
    ANCHOR_I_RESET,
    ANCHOR_R_RESET,
    ANCHOR_R_SET,
    ANCHOR_T_RESET,
    Anchor,
    CalibrationAnchors,
    calibrate,
    predict_anchor,
)
from oxpix.devices import MosfetParams, OxRamParams
from oxpix.errors import CalibrationError


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
