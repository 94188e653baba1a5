"""Least-squares fit of the device constants to reference measurements.

Four reference quantities anchor the model: the SET and hard-RESET read
resistances, the time a constant reset-polarity drive takes to open the gap
fully, and the peak current of a selector-limited programming transient.
The first three have closed forms; the programming peak is one
operating-point solve (the transient sits at its compliance plateau while
the gap barely moves, so the trace maximum is the plateau current).

Gradients through event times are not smooth, so the optimizer is a
bounded coordinate pattern search over log-parameters with deterministic
seeded restarts, independent of each other, so they run on a process pool.
A candidate is the checked initial constants with only the eight fitted
values replaced and checked (``_point``).  Each anchor's
predictor reads only some of the fit coordinates (``_ANCHOR_INPUTS``), and a
move changes one coordinate, so within a restart the objective reuses an
anchor's model value wherever the coordinates it reads repeat.

Some coordinates move no anchor inside the search box at all (with the
default constants ``i0_cf`` and ``cf_field_b``: the filament term lies below
the last bit of every anchor).  Before the restarts, the objective is probed
with each coordinate alone at either box edge; a coordinate that leaves it
bit-identical to its value at the initial guess is held at each restart's
start, and the search tries no move along it.
"""

from __future__ import annotations

import logging
import math
import operator
import struct
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .devices import (
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
from .errors import CalibrationError, InvalidInputError, require_finite
from .experiments import _map_jobs, _worker_count
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

# Fitted degrees of freedom, all strictly positive, searched in log space.
_FIT_FIELDS = ("i0_cf", "cf_field_b", "i0_ox", "ox_decay_c", "ox_field_d",
               "rupture_rate_r0", "rupture_field_v1", "kprime")
# The fitted OxRAM fields in the order ``OxRamParams`` checks them.
_OX_CHECKED = ("cf_field_b", "ox_decay_c", "ox_field_d", "i0_cf", "i0_ox",
               "rupture_rate_r0", "rupture_field_v1")
# Half-width of the search box in decades around the initial guess.  Four
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
# The fit fields each anchor's predictor reads; the other fit fields leave
# its model value bit-identical.  The read-backs and the programming peak go
# through the device conduction law, the rupture time through the rate law.
_CONDUCTION = ("i0_cf", "cf_field_b", "i0_ox", "ox_decay_c", "ox_field_d")
_ANCHOR_INPUTS = {
    ANCHOR_R_SET: _CONDUCTION,
    ANCHOR_R_RESET: _CONDUCTION,
    ANCHOR_T_RESET: ("rupture_rate_r0", "rupture_field_v1"),
    ANCHOR_I_RESET: _CONDUCTION + ("kprime",),
}
# Model values an anchor's memo holds before it starts afresh: four sweeps
# of the moves around the current point with no coordinate held (two per
# coordinate), without growing with the fit (256 raised the fit's peak
# traced memory by 7 % and reused 1 % more).
_MEMO_LIMIT = 64


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
    restarts: int
    seed: int
    detail: str = ""
    evaluations: int = 0               # distinct objective evaluations


def predict_anchor(quantity: str, oxram: OxRamParams, selector: MosfetParams,
                   target: float = R_SET_LEVELS[0]) -> float:
    """Model value of one reference quantity for a candidate parameter set.

    ``target`` is the anchor's own value; only the SET read-back uses it.
    """
    if quantity == ANCHOR_R_SET:
        # Read-back of the target SET level; unreachable targets report the
        # nearest reachable bound so the residual stays finite.
        gap, r, r_lo, r_hi = _read_back(target, VREAD, oxram, 1e-3)
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

    The inputs were checked when built and a point changes only the fitted
    values, so only those are checked, as and in the order the constructors
    check them.  Both types are frozen, so the fields are filled directly.
    """
    *values, kprime = map(math.exp, coords)
    fields = vars(oxram).copy()
    fields.update(zip(_FIT_FIELDS, values))
    ox, sel = object.__new__(OxRamParams), object.__new__(MosfetParams)
    object.__setattr__(ox, "__dict__", fields)
    vars(sel).update(vars(selector), kprime=kprime)
    require_finite(ox, positive=_OX_CHECKED)
    require_finite(sel, positive=("kprime",))
    return ox, sel


class _AnchorMemo:
    """Finite model values of each anchor for one restart, keyed by the fit
    coordinates its predictor reads (a tuple of the point's floats), and per
    anchor the predictor calls made and the values reused."""

    def __init__(self, anchors: CalibrationAnchors):
        # An unknown quantity reads every coordinate, so its predictor runs
        # and raises.
        index = [[_FIT_FIELDS.index(name) for name in
                  _ANCHOR_INPUTS.get(a.quantity, _FIT_FIELDS)]
                 for a in anchors.anchors]
        self.key_of = [operator.itemgetter(*i) for i in index]
        self.values: list[dict] = [{} for _ in index]
        self.calls = [0] * len(index)
        self.reused = [0] * len(index)


def _objective(coords: tuple, anchors: CalibrationAnchors,
               oxram: OxRamParams, selector: MosfetParams,
               memo: _AnchorMemo) -> float:
    try:
        ox, sel = _point(coords, oxram, selector)
        total = 0.0
        for k, a in enumerate(anchors.anchors):
            values, key = memo.values[k], memo.key_of[k](coords)
            model = values.get(key)
            if model is None:
                model = predict_anchor(a.quantity, ox, sel, a.value)
                memo.calls[k] += 1
                if not math.isfinite(model):
                    return math.inf
                if len(values) >= _MEMO_LIMIT:
                    values.clear()
                values[key] = model
            else:
                memo.reused[k] += 1
            total += ((model - a.value) / (a.tolerance * a.value)) ** 2
        return total
    except (OverflowError, ValueError, ZeroDivisionError):
        return math.inf


def _pattern_search(x0, lo, hi, fun) -> tuple[tuple, float, int, int]:
    """Best point and value, the number of distinct points evaluated, and
    the number of revisits answered from the memo.  The step starts at
    0.08 (natural log), halves after a sweep with no improving move and
    ends the search below 1e-6, or after 400 sweeps.

    ``fun`` takes a point, a tuple of floats, and is fixed for the whole
    search, so a point's packed doubles (smaller than the tuple) are a
    complete key; a move back along a coordinate revisits the point it left.
    """
    memo: dict[bytes, float] = {}
    hits = 0
    key_of = struct.Struct(f"{len(lo)}d").pack

    def value(v: tuple) -> float:
        nonlocal hits
        key = key_of(*v)
        f = memo.get(key)
        if f is None:
            f = memo[key] = fun(v)
        else:
            hits += 1
        return f

    x = tuple(map(min, map(max, x0, lo), hi))
    f = value(x)
    step = 0.08
    n = len(x)
    for _ in range(400):
        improved = False
        for j in range(n):
            for sign in (1.0, -1.0):
                xj = min(max(x[j] + sign * step, lo[j]), hi[j])
                if xj == x[j]:
                    continue
                trial = x[:j] + (xj,) + x[j + 1:]
                ft = value(trial)
                if ft < f:
                    x, f = trial, ft
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    return x, f, len(memo), hits


def _restart(setup: tuple, start: list) -> tuple:
    """One restart of the search from ``start`` with its own anchor memo and
    the ``held`` coordinates boxed in at their start: its best point and
    value, the distinct points it evaluated, its memo hits, and per anchor
    the predictor calls made and the values reused."""
    anchors, oxram, selector, lo, hi, held = setup
    lo, hi = list(lo), list(hi)
    for j in held:
        lo[j] = hi[j] = start[j]
    memo = _AnchorMemo(anchors)

    def fun(coords: tuple) -> float:
        return _objective(coords, anchors, oxram, selector, memo)

    return (*_pattern_search(start, lo, hi, fun), memo.calls, memo.reused)


def calibrate(anchors: Optional[CalibrationAnchors] = None,
              initial_oxram: Optional[OxRamParams] = None,
              initial_selector: Optional[MosfetParams] = None,
              seed: int = 0, restarts: int = 8) -> CalibrationResult:
    """Fit the model to the anchors by multi-start bounded pattern search.

    Restart 0 starts from the initial guess itself; the remaining restarts
    perturb it log-uniformly inside the search box.  A coordinate that moves
    no anchor at either box edge is held at each restart's start; the probe
    points count as evaluations and predictor calls.  ``HPS_THREADS`` caps
    the worker processes that run the restarts (1 = in-process).  Ties
    resolve to the lowest restart index, so results are bit-stable for a
    given seed and any worker count.
    Raises InvalidInputError for a negative seed or fewer than one restart,
    and OxpixError if a worker process dies.
    """
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    if restarts < 1:
        raise InvalidInputError(f"restarts must be >= 1, got {restarts}")
    t0 = time.perf_counter()
    anchors = anchors or CalibrationAnchors()
    oxram = initial_oxram or OxRamParams()
    selector = initial_selector or MosfetParams()

    x0 = np.array([math.log(getattr(oxram, f)) for f in _FIT_FIELDS[:-1]]
                  + [math.log(selector.kprime)])
    width = np.array([_BOX_DECADES[f] * math.log(10.0) for f in _FIT_FIELDS])
    lo, hi = (x0 - width).tolist(), (x0 + width).tolist()

    # Every start is drawn before any search runs, so the starts and the
    # restart-order reduction below do not depend on the worker count.
    rng = np.random.default_rng(seed)
    starts = [x0.tolist()] + [
        (x0 + rng.uniform(-0.3, 0.3, size=len(x0)) * width).tolist()
        for _ in range(restarts - 1)]
    workers = min(_worker_count(), restarts)
    # Each coordinate alone at both box edges: one that leaves the finite
    # objective at x0 bit-identical is taken to move no anchor inside the
    # box, so each restart holds it at its start.
    probe = _AnchorMemo(anchors)

    def at(coords: tuple) -> float:
        return _objective(coords, anchors, oxram, selector, probe)

    x = tuple(x0.tolist())
    f0 = at(x)
    edges = [tuple(at(x[:j] + (edge[j],) + x[j + 1:]) for edge in (lo, hi))
             for j in range(len(x))]
    held = tuple(j for j, f in enumerate(edges)
                 if math.isfinite(f0) and f == (f0, f0))
    runs = _map_jobs(_restart, (anchors, oxram, selector, lo, hi, held),
                     starts, workers)
    best_x = None
    best_f = math.inf
    for x, f, *_ in runs:
        if f < best_f:
            best_x, best_f = x, f
    if best_x is None:
        raise CalibrationError("objective non-finite at every start")
    evaluations = 1 + 2 * len(edges) + sum(run[2] for run in runs)
    hits = sum(run[3] for run in runs)
    calls, reused = ([sum(n) for n in zip(counts, *(run[k] for run in runs))]
                     for counts, k in ((probe.calls, 4), (probe.reused, 5)))

    ox_fit, sel_fit = _point(best_x, oxram, selector)
    residuals = {}
    converged = True
    for a in anchors.anchors:
        model = predict_anchor(a.quantity, ox_fit, sel_fit, a.value)
        rel = (model - a.value) / a.value
        residuals[a.quantity] = rel
        if abs(rel) > a.tolerance:
            converged = False
    detail = ""
    if len(anchors.anchors) < 2:
        detail = "under-determined: single anchor leaves the fit unconstrained"
    _log.info("calibrate: %d restarts, %d evaluations, %d memo hits, "
              "predictor calls/reused values %s, held %s, %d worker%s, "
              "%.3f s", restarts, evaluations, hits, " ".join(
                  f"{a.quantity} {n}/{m}" for a, n, m in
                  zip(anchors.anchors, calls, reused)),
              " ".join(_FIT_FIELDS[j] for j in held) or "none",
              workers, "s" * (workers > 1), time.perf_counter() - t0)
    return CalibrationResult(
        oxram=ox_fit, selector=sel_fit, residuals=residuals,
        converged=converged, objective=best_f, restarts=restarts,
        seed=seed, detail=detail, evaluations=evaluations)
