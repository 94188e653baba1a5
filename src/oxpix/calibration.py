"""Fit of the device constants to reference measurements.

Four reference quantities anchor the model: the SET and hard-RESET read
resistances, the time a constant reset-polarity drive takes to open the gap
fully, and the peak current of a selector-limited programming transient.
The first three have closed forms; the programming peak is one
operating-point solve (the transient sits at its compliance plateau while
the gap barely moves, so the trace maximum is the plateau current).  The
SET anchor is a reachability bound: any level in [R(gap_min), R(gap_max)]
can be preprogrammed (``devices.state_from_resistance``), so its model is
the level itself, and a level out of reach reads as the nearest bound.

So the fit is a root-find of one equation per anchor, ``log(model /
anchor) = 0``, in eight log-parameters, smooth but for the SET anchor's
kinks at the range ends.  It is solved by Gauss-Newton steps from the
initial guess ``x0``, each the minimum-norm solution of the linearized
equations measured from ``x0`` and clipped to a box around it: the anchors
fix only as many combinations of the parameters as there are anchors, and
the rest stay at ``x0``.  A coordinate no anchor moves at all (with the
default constants ``i0_cf`` and ``cf_field_b``: the filament term lies
below the last bit of every anchor) has a Jacobian column of exact zeros
and is *held*: it keeps its initial value bit for bit.  A point is the
checked initial constants with only the eight fitted values replaced and
checked (``_point``).

A Jacobian point moves one coordinate of the current point, so it is built
from that point with only the one field replaced and checked (``_moved``),
and it predicts only the anchors whose model reads that field: ``_FEEDS``,
beside ``predict_anchor``, lists them, and
``test_anchors_outside_a_fields_feeds_do_not_move`` guards the list.  The
other anchors keep the current point's log residuals, so their Jacobian
entries are the exact zeros a full prediction gives.  The default fit
evaluates 18 points and makes 44 anchor predictions, not 4 x 18 = 72.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

from .devices import (
    VREAD,
    MosfetParams,
    Orientation,
    OxRamParams,
    OxRamState,
    gap_velocity,
    read_resistance,
)
from .defaults import R_SET_LEVELS
from .errors import CalibrationError, InvalidInputError, require_finite
from .pixel import solve_branch_current

_log = logging.getLogger("oxpix")

# V, constant rupture drive of the reference transient.  It belongs to that
# measurement, not to the simulated pixel, so it does not follow ``vrst``.
V_RESET_DRIVE = 1.42
VG_PROGRAM_ANCHOR = 0.915  # V, selector gate during the programming transient

ANCHOR_R_SET = "r_set"
ANCHOR_R_RESET = "r_reset"
ANCHOR_T_RESET = "t_reset"
ANCHOR_I_RESET = "i_reset_peak"

# Names the fit method in the calibration cache key, so a cache written by
# another method is a miss.
FIT_METHOD = "min-norm-gauss-newton, kcl-last-step, clipped-set-anchor"

# Fitted degrees of freedom, all strictly positive, fitted in log space.
_FIT_FIELDS = ("i0_cf", "cf_field_b", "i0_ox", "ox_decay_c", "ox_field_d",
               "rupture_rate_r0", "rupture_field_v1", "kprime")
# The fitted OxRAM fields in the order ``OxRamParams`` checks them.
_OX_CHECKED = ("cf_field_b", "ox_decay_c", "ox_field_d", "i0_cf", "i0_ox",
               "rupture_rate_r0", "rupture_field_v1")
# Half-width of the fit box in decades around the initial guess.  Four
# anchors cannot pin eight constants; the shape constants (field and decay
# coefficients, the high-field surge prefactor) get narrow boxes because
# the anchors constrain them only weakly while the pixel's switching regime
# depends on them exponentially.  The magnitude prefactors directly tied to
# an anchor keep wide boxes.
_BOX_DECADES = {
    "i0_cf": 0.10, "cf_field_b": 0.05, "i0_ox": 1.0, "ox_decay_c": 0.05,
    "ox_field_d": 0.05, "rupture_rate_r0": 1.0, "rupture_field_v1": 0.05,
    "kprime": 0.5,
}
# Half-step of the central-difference Jacobian, in natural log.
_JACOBIAN_STEP = 1e-4
# The fit stops once every log residual is below this level.  Past it a step
# buys nothing the report shows: fitting the default anchors on to 5e-15
# takes 52 evaluations, not 18, and moves the fitted constants by 1.6e-6
# relative at most and the case i DR by 2e-6 dB.
_STOP = 2e-5
# Halvings of a step that does not lower the largest log residual, before
# the fit stops.
_HALVINGS = 3
# Iterations at most: 1 + (16 + 1 + 3) * 9 = 181 evaluations.
_MAX_ITERATIONS = 9


@dataclass(frozen=True)
class Anchor:
    quantity: str
    value: float
    tolerance: float  # relative


@dataclass(frozen=True)
class CalibrationAnchors:
    anchors: tuple[Anchor, ...] = (
        Anchor(ANCHOR_R_SET, R_SET_LEVELS[0], 0.20),  # the first SET level
        Anchor(ANCHOR_R_RESET, 60e9, 0.20),
        Anchor(ANCHOR_T_RESET, 510e-9, 0.10),
        Anchor(ANCHOR_I_RESET, 11e-6, 0.20),
    )

    def __post_init__(self):
        if not self.anchors:
            raise CalibrationError("anchor list must not be empty")


@dataclass
class CalibrationResult:
    oxram: OxRamParams
    selector: MosfetParams
    residuals: dict[str, float]        # relative deviation per anchor
    converged: bool
    objective: float
    singular_values: tuple[float, ...]  # of the fit's last Jacobian
    held: tuple[str, ...]              # fit fields kept at the initial guess
    detail: str = ""
    evaluations: int = 0               # fit points evaluated


def predict_anchor(quantity: str, oxram: OxRamParams, selector: MosfetParams,
                   target: float = R_SET_LEVELS[0]) -> float:
    """Model value of one reference quantity for a candidate parameter set.

    ``target`` is the anchor's own value; only the SET anchor uses it.
    """
    if quantity == ANCHOR_R_SET:
        # A reachable SET level is its own model; one out of reach reports
        # the nearest bound, so the residual stays finite.
        if not (math.isfinite(target) and target > 0.0):
            raise InvalidInputError(
                f"r_target must be finite and > 0, got {target}")
        r_lo = read_resistance(OxRamState(oxram.gap_min), VREAD, oxram)
        r_hi = read_resistance(OxRamState(oxram.gap_max), VREAD, oxram)
        return min(max(target, r_lo), r_hi)
    if quantity == ANCHOR_R_RESET:
        return read_resistance(OxRamState(oxram.gap_max), VREAD, oxram)
    if quantity == ANCHOR_T_RESET:
        rate = gap_velocity(OxRamState(oxram.gap_min), V_RESET_DRIVE, oxram)
        return (oxram.gap_max - oxram.gap_min) / rate
    if quantity == ANCHOR_I_RESET:
        state = OxRamState(oxram.gap_min, Orientation.BE_AT_PD)
        i, _ = solve_branch_current(V_RESET_DRIVE, VG_PROGRAM_ANCHOR, 0.0,
                                    state, oxram, selector)
        return i
    raise CalibrationError(f"unknown anchor quantity: {quantity!r}")


# The anchors whose model ``predict_anchor`` reads each fitted field: the
# read-backs and the programming peak go through the conduction law, the
# rupture time through the rate law alone, and only the programming peak
# through the selector.  A Jacobian point of a field predicts only these.
_CONDUCTION_FEEDS = (ANCHOR_R_SET, ANCHOR_R_RESET, ANCHOR_I_RESET)
_FEEDS = {
    "i0_cf": _CONDUCTION_FEEDS, "cf_field_b": _CONDUCTION_FEEDS,
    "i0_ox": _CONDUCTION_FEEDS, "ox_decay_c": _CONDUCTION_FEEDS,
    "ox_field_d": _CONDUCTION_FEEDS, "rupture_rate_r0": (ANCHOR_T_RESET,),
    "rupture_field_v1": (ANCHOR_T_RESET,), "kprime": (ANCHOR_I_RESET,),
}


def _point(coords, oxram: OxRamParams, selector: MosfetParams,
           x0) -> tuple[OxRamParams, MosfetParams]:
    """``oxram`` and ``selector`` with the fitted fields at ``exp(coords)``.

    ``x0`` holds the logs of the fitted fields' values in ``oxram`` and
    ``selector``; a coordinate equal to its entry keeps that value itself:
    ``exp(log(v))`` need not give back ``v``.  The inputs were checked when
    built and a point changes only the fitted values, so only those are
    checked, as and in the order the constructors check them.  Both types
    are frozen, so the fields are filled directly.
    """
    given = [getattr(oxram, f) for f in _FIT_FIELDS[:-1]] + [selector.kprime]
    *values, kprime = (v if c == c0 else math.exp(c)
                       for c, c0, v in zip(coords, x0, given))
    fields = vars(oxram).copy()
    fields.update(zip(_FIT_FIELDS, values))
    ox, sel = object.__new__(OxRamParams), object.__new__(MosfetParams)
    object.__setattr__(ox, "__dict__", fields)
    vars(sel).update(vars(selector), kprime=kprime)
    require_finite(ox, positive=_OX_CHECKED)
    require_finite(sel, positive=("kprime",))
    return ox, sel


def _moved(point: tuple[OxRamParams, MosfetParams], field: str, c: float,
           c0: float, given: float) -> tuple[OxRamParams, MosfetParams]:
    """``point``, a pair built by ``_point``, with the fitted ``field`` at
    ``exp(c)``, or at its ``given`` value where ``c`` is its log ``c0``.
    The other fields were checked when ``point`` was built, so only this
    one is checked."""
    value = given if c == c0 else math.exp(c)
    ox, sel = point
    if field == "kprime":
        sel = object.__new__(MosfetParams)
        vars(sel).update(vars(point[1]), kprime=value)
        require_finite(sel, positive=(field,))
    else:
        ox = object.__new__(OxRamParams)
        object.__setattr__(ox, "__dict__", {**vars(point[0]), field: value})
        require_finite(ox, positive=(field,))
    return ox, sel


def calibrate(anchors: Optional[CalibrationAnchors] = None,
              initial_oxram: Optional[OxRamParams] = None,
              initial_selector: Optional[MosfetParams] = None,
              seed: int = 0, restarts: int = 8) -> CalibrationResult:
    """Fit the model to the anchors by minimum-norm Gauss-Newton steps.

    The unknowns are the logs of the fitted fields and the equations are
    the anchors' log residuals.  Each step takes a central-difference
    Jacobian ``J`` at the current point ``x`` and moves to
    ``x0 + pinv(J) (J (x - x0) - r)``, clipped to the box, over the columns
    of ``J`` that are not all zero; the other coordinates are held at
    ``x0``, and a held field keeps its initial value.  A step that does not
    lower the largest log residual is halved, up to ``_HALVINGS`` times.
    The fit stops when no such step lowers it, or when it falls below
    ``_STOP``.  It has no random part and runs in-process.
    A Jacobian point predicts only the anchors its coordinate feeds
    (``_FEEDS``; ``test_anchors_outside_a_fields_feeds_do_not_move`` guards
    it), so the default fit makes 44 anchor predictions in its 18 points,
    not 72; the INFO line gives them, in total and per anchor.  A reachable
    SET level is met exactly, so its Jacobian row is zero and the default
    fit's SET residual is 0.0.
    ``seed`` and ``restarts`` are ignored: the fit has no random starts, and
    they stay accepted for callers that still pass them.
    Raises CalibrationError when a log residual at the initial guess, or
    the objective at the fit, is not finite.
    """
    import numpy as np  # here, not at the top: a warm report never loads it
    t0 = time.perf_counter()
    anchors = anchors or CalibrationAnchors()
    oxram = initial_oxram or OxRamParams()
    selector = initial_selector or MosfetParams()

    given = [getattr(oxram, f) for f in _FIT_FIELDS[:-1]] + [selector.kprime]
    x0 = [math.log(v) for v in given]
    width = [_BOX_DECADES[f] * math.log(10.0) for f in _FIT_FIELDS]
    lo = [c - w for c, w in zip(x0, width)]
    hi = [c + w for c, w in zip(x0, width)]
    targets = [(a.quantity, a.value) for a in anchors.anchors]
    every = range(len(targets))
    # The anchors each coordinate's Jacobian points predict.
    feeds = [[i for i, (q, _) in enumerate(targets) if q in _FEEDS[f]]
             for f in _FIT_FIELDS]
    predictions = dict.fromkeys((q for q, _ in targets), 0)
    blank = [math.nan] * len(targets)
    evaluations = 0

    def predicted(point, which, logs,
                  models) -> tuple[list, list, tuple] | None:
        """``(logs, models, point)``, each anchor's log residual and model
        value, with the anchors at ``which`` predicted at ``point``; None
        where a log residual is not finite."""
        logs, models = logs.copy(), models.copy()
        for i in which:
            quantity, value = targets[i]
            predictions[quantity] += 1
            models[i] = predict_anchor(quantity, *point, value)
        for i in which:
            logs[i] = math.log(models[i] / targets[i][1])
        if all(map(math.isfinite, logs)):
            return logs, models, point
        return None

    def at(x: list) -> tuple[list, list, tuple] | None:
        """``predicted`` of every anchor at ``x``; None also where the point
        or a log residual cannot be computed."""
        nonlocal evaluations
        evaluations += 1
        try:
            point = _point(x, oxram, selector, x0)
            return predicted(point, every, blank, blank)
        except (OverflowError, ValueError, ZeroDivisionError):
            return None

    def at_moved(fit: tuple, j: int,
                 c: float) -> tuple[list, list, tuple] | None:
        """``at`` of ``fit``'s point with coordinate ``j`` at ``c``, which
        only the anchors that coordinate feeds can tell from ``fit``."""
        nonlocal evaluations
        evaluations += 1
        try:
            point = _moved(fit[2], _FIT_FIELDS[j], c, x0[j], given[j])
            return predicted(point, feeds[j], fit[0], fit[1])
        except (OverflowError, ValueError, ZeroDivisionError):
            return None

    def jacobian(x: list, fit: tuple) -> list[list] | None:
        columns = []
        for j, c in enumerate(x):
            up = at_moved(fit, j, c + _JACOBIAN_STEP)
            down = at_moved(fit, j, c - _JACOBIAN_STEP)
            if up is None or down is None:
                return None
            columns.append([(u - d) / (2.0 * _JACOBIAN_STEP)
                            for u, d in zip(up[0], down[0])])
        return columns

    fit = at(x0)
    if fit is None:
        raise CalibrationError("log residuals non-finite at the initial guess")
    x, largest = x0, max(map(abs, fit[0]))
    iterations, singular, held = 0, (), ()
    while iterations < _MAX_ITERATIONS and largest >= _STOP:
        columns = jacobian(x, fit)
        if columns is None:
            break
        seen = [any(column) for column in columns]
        held = tuple(f for f, s in zip(_FIT_FIELDS, seen) if not s)
        jac = np.array(columns).T[:, seen]
        singular = tuple(np.linalg.svd(jac, compute_uv=False).tolist())
        dx = np.array([c - c0 for c, c0, s in zip(x, x0, seen) if s])
        step = iter((np.linalg.pinv(jac) @ (jac @ dx - fit[0])).tolist())
        trial = [min(max(c0 + next(step), a), b) if s else c0
                 for c0, a, b, s in zip(x0, lo, hi, seen)]
        iterations += 1
        for _ in range(_HALVINGS + 1):
            moved = at(trial)
            if moved is not None and max(map(abs, moved[0])) < largest:
                break
            trial = [c + 0.5 * (t - c) for c, t in zip(x, trial)]
        else:
            break
        x, fit, largest = trial, moved, max(map(abs, moved[0]))

    residuals = {}
    converged = True
    try:
        objective = 0.0
        for a, model in zip(anchors.anchors, fit[1]):
            rel = (model - a.value) / a.value
            residuals[a.quantity] = rel
            objective += ((model - a.value) / (a.tolerance * a.value)) ** 2
            if abs(rel) > a.tolerance:
                converged = False
    except (OverflowError, ZeroDivisionError):
        objective = math.inf
    if not math.isfinite(objective):
        raise CalibrationError("objective non-finite at the fit")
    detail = ""
    if len(anchors.anchors) < 2:
        detail = "under-determined: single anchor leaves the fit unconstrained"
    if _log.isEnabledFor(logging.INFO):
        _log.info("calibrate: %d evaluations in %d iterations, largest log "
                  "residual %.2g, singular values %s, held %s, %.3f s; %d "
                  "anchor predictions (%s)",
                  evaluations, iterations, largest,
                  " ".join(f"{s:.3g}" for s in singular) or "none",
                  " ".join(held) or "none", time.perf_counter() - t0,
                  sum(predictions.values()),
                  " ".join(f"{q} {n}" for q, n in predictions.items()))
    ox_fit, sel_fit = fit[2]
    return CalibrationResult(
        oxram=ox_fit, selector=sel_fit, residuals=residuals,
        converged=converged, objective=objective,
        singular_values=singular, held=held, detail=detail,
        evaluations=evaluations)
