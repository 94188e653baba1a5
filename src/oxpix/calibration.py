"""Fit of the device constants to reference measurements.

Four reference quantities anchor the model: the SET and hard-RESET read
resistances, the time a constant reset-polarity drive takes to open the gap
fully, and the peak current of a selector-limited programming transient.
The first three have closed forms; the programming peak is one
operating-point solve (the transient sits at its compliance plateau while
the gap barely moves, so the trace maximum is the plateau current).

So the fit is a root-find of one equation per anchor, ``log(model /
anchor) = 0``, in eight log-parameters, smooth but for the SET read-back's
bisection steps.  It is solved by Gauss-Newton steps from the initial guess
``x0``, each the minimum-norm solution of the linearized equations measured
from ``x0`` and clipped to a box around it: the anchors fix only as many
combinations of the parameters as there are anchors, and the rest stay at
``x0``.  A coordinate no anchor moves at all (with the default constants
``i0_cf`` and ``cf_field_b``: the filament term lies below the last bit of
every anchor) has a Jacobian column of exact zeros and is *held*: it
keeps its initial value bit for bit.  A point is the checked initial
constants with only the eight fitted values replaced and checked
(``_point``).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .devices import (
    READ_BACK_REL_TOL,
    VREAD,
    MosfetParams,
    Orientation,
    OxRamParams,
    OxRamState,
    _read_back,
    gap_velocity,
    read_resistance,
)
from .defaults import R_SET_LEVELS
from .errors import CalibrationError, require_finite
from .pixel import solve_branch_current

# numpy is imported where arrays are built: a warm report never loads it.
if TYPE_CHECKING:
    import numpy as np

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
FIT_METHOD = "min-norm-gauss-newton, kcl-last-step"

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
# The SET read-back stops its bisection within ``READ_BACK_REL_TOL`` of its
# target, so its log residual moves in steps: the fit stops once every log
# residual is below this level, about where those steps leave it.
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
    evaluations: int = 0               # model evaluations of every anchor


def predict_anchor(quantity: str, oxram: OxRamParams, selector: MosfetParams,
                   target: float = R_SET_LEVELS[0]) -> float:
    """Model value of one reference quantity for a candidate parameter set.

    ``target`` is the anchor's own value; only the SET read-back uses it.
    """
    if quantity == ANCHOR_R_SET:
        # Read-back of the target SET level; unreachable targets report the
        # nearest reachable bound so the residual stays finite.
        gap, r, r_lo, r_hi = _read_back(target, VREAD, oxram,
                                        READ_BACK_REL_TOL)
        if gap is not None:
            return r
        return r_lo if r_lo > target else r_hi
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


def _point(coords, oxram: OxRamParams,
           selector: MosfetParams) -> tuple[OxRamParams, MosfetParams]:
    """``oxram`` and ``selector`` with the fitted fields at ``exp(coords)``.

    A coordinate equal to the log of its field's value in ``oxram`` or
    ``selector`` keeps that value itself: ``exp(log(v))`` need not give back
    ``v``.  The inputs were checked when built and a point changes only the
    fitted values, so only those are checked, as and in the order the
    constructors check them.  Both types are frozen, so the fields are
    filled directly.
    """
    given = [getattr(oxram, f) for f in _FIT_FIELDS[:-1]] + [selector.kprime]
    *values, kprime = (v if c == math.log(v) else math.exp(c)
                       for c, v in zip(coords, given))
    fields = vars(oxram).copy()
    fields.update(zip(_FIT_FIELDS, values))
    ox, sel = object.__new__(OxRamParams), object.__new__(MosfetParams)
    object.__setattr__(ox, "__dict__", fields)
    vars(sel).update(vars(selector), kprime=kprime)
    require_finite(ox, positive=_OX_CHECKED)
    require_finite(sel, positive=("kprime",))
    return ox, sel


def _log_residuals(coords, anchors: CalibrationAnchors, oxram: OxRamParams,
                  selector: MosfetParams) -> tuple[list, list] | None:
    """Log residual ``log(model / anchor)`` and model value of each anchor
    at ``coords``, or None where the point cannot be built or a log
    residual is not finite."""
    try:
        ox, sel = _point(coords, oxram, selector)
        models = [predict_anchor(a.quantity, ox, sel, a.value)
                  for a in anchors.anchors]
        logs = [math.log(m / a.value) for m, a in zip(models, anchors.anchors)]
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    if not all(map(math.isfinite, logs)):
        return None
    return logs, models


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
    The fit stops when no such step lowers it, or when it falls below the
    read-back's level.  It has no random part and runs in-process.
    ``seed`` and ``restarts`` are ignored: the fit has no random starts, and
    they stay accepted for callers that still pass them.
    Raises CalibrationError when a log residual at the initial guess, or
    the objective at the fit, is not finite.
    """
    import numpy as np
    t0 = time.perf_counter()
    anchors = anchors or CalibrationAnchors()
    oxram = initial_oxram or OxRamParams()
    selector = initial_selector or MosfetParams()

    x0 = np.array([math.log(getattr(oxram, f)) for f in _FIT_FIELDS[:-1]]
                  + [math.log(selector.kprime)])
    width = np.array([_BOX_DECADES[f] * math.log(10.0) for f in _FIT_FIELDS])
    lo, hi = x0 - width, x0 + width
    evaluations = 0

    def at(x: np.ndarray) -> tuple[np.ndarray, list] | None:
        nonlocal evaluations
        evaluations += 1
        fit = _log_residuals(x.tolist(), anchors, oxram, selector)
        return None if fit is None else (np.array(fit[0]), fit[1])

    def jacobian(x: np.ndarray) -> np.ndarray | None:
        columns = []
        for dx in np.eye(len(x)) * _JACOBIAN_STEP:
            up, down = at(x + dx), at(x - dx)
            if up is None or down is None:
                return None
            columns.append((up[0] - down[0]) / (2.0 * _JACOBIAN_STEP))
        return np.array(columns).T

    fit = at(x0)
    if fit is None:
        raise CalibrationError("log residuals non-finite at the initial guess")
    x, largest = x0, np.abs(fit[0]).max()
    iterations, singular, held = 0, np.zeros(0), ()
    while iterations < _MAX_ITERATIONS and largest >= _STOP:
        jac = jacobian(x)
        if jac is None:
            break
        seen = np.any(jac != 0.0, axis=0)
        held = tuple(f for f, s in zip(_FIT_FIELDS, seen) if not s)
        jac = jac[:, seen]
        singular = np.linalg.svd(jac, compute_uv=False)
        trial = x0.copy()
        trial[seen] = np.clip(
            x0[seen] + np.linalg.pinv(jac) @ (jac @ (x - x0)[seen] - fit[0]),
            lo[seen], hi[seen])
        iterations += 1
        for _ in range(_HALVINGS + 1):
            moved = at(trial)
            if moved is not None and np.abs(moved[0]).max() < largest:
                break
            trial = x + 0.5 * (trial - x)
        else:
            break
        x, fit, largest = trial, moved, np.abs(moved[0]).max()

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
    _log.info("calibrate: %d evaluations in %d iterations, largest log "
              "residual %.2g, singular values %s, held %s, %.3f s",
              evaluations, iterations, largest,
              " ".join(f"{s:.3g}" for s in singular) or "none",
              " ".join(held) or "none", time.perf_counter() - t0)
    ox_fit, sel_fit = _point(x.tolist(), oxram, selector)
    return CalibrationResult(
        oxram=ox_fit, selector=sel_fit, residuals=residuals,
        converged=converged, objective=objective,
        singular_values=tuple(singular.tolist()), held=held, detail=detail,
        evaluations=evaluations)
