"""Exposure sweeps, readable-window extraction and dynamic-range reports.

A sweep runs one transient per log-spaced exposure current; a report's
sweeps are one job list, forked over processes by ``_fan_out``.
Readability of a point applies three rules: the output swing must not
exceed the readout range, the run must not contain an abrupt collapse, and
the swing must rise above the detection floor.  The floor is the larger of
the absolute ``min_detect`` threshold and the pixel's own dark response
plus a noise margin; the second term is what limits hybrid pixels, whose
dark frame already carries the switching signature.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import InvalidInputError, OxpixError, require_finite
from .pixel import PixelConfig, Stimulus, Topology
from .solver import EventKind, SolverOptions, _reset_phase, integrate

_log = logging.getLogger("oxpix")

DEFAULT_MAX_SWING = 0.85       # V, readout operating range
# Absolute detection floor: sized so the bare pixel's window spans the
# reference 19.86 dB (swing ratio 9.84) below the 0.85 V readout ceiling.
DEFAULT_MIN_DETECT = DEFAULT_MAX_SWING / 10.0 ** (19.8611 / 20.0)
# Exposure must lift the output this far above the dark frame to count as
# detected: about 1.6 sigma of reset noise at the default node, sized so the
# hybrid saturation knees land at their reference exposures.
DEFAULT_SENSE_MARGIN = 0.7095e-3


@dataclass(frozen=True)
class ReadableWindow:
    """Swing thresholds defining a readable output."""

    min_detect: float = DEFAULT_MIN_DETECT   # V, absolute swing floor
    max_swing: float = DEFAULT_MAX_SWING     # V, readout ceiling
    sense_margin: float = DEFAULT_SENSE_MARGIN  # V, margin above dark frame

    def __post_init__(self):
        require_finite(self, positive=("min_detect", "max_swing"),
                       nonnegative=("sense_margin",))
        if not self.min_detect < self.max_swing:
            raise InvalidInputError(
                f"need min_detect < max_swing, got {self.min_detect}, "
                f"{self.max_swing}")

    def detection_floor(self, dark_swing: float) -> float:
        """Smallest detected swing of a pixel whose dark swing is given."""
        return max(self.min_detect, dark_swing + self.sense_margin)


@dataclass(frozen=True)
class SweepSpec:
    config: PixelConfig
    i_min: float = 100e-15
    i_max: float = 10e-9
    points_per_decade: int = 12
    options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        require_finite(self, positive=("i_min", "i_max"))
        if not self.i_min < self.i_max:
            raise InvalidInputError("need i_min < i_max")
        if self.points_per_decade < 1:
            raise InvalidInputError("points_per_decade must be >= 1")

    def currents(self) -> list[float]:
        n_dec = math.log10(self.i_max / self.i_min)
        n = max(2, int(round(n_dec * self.points_per_decade)) + 1)
        step = n_dec / (n - 1)
        return [self.i_min * 10.0 ** (k * step) for k in range(n)]


@dataclass(frozen=True)
class SweepRow:
    i_exp: float
    final_vpd: float
    swing: float
    events: tuple[str, ...]
    error: Optional[str] = None

    def has_event(self, kind: EventKind) -> bool:
        return kind.value in self.events


@dataclass
class SweepResult:
    rows: list[SweepRow]
    dark_final_vpd: float
    dark_swing: float
    vrst: float


_CHUNK = 8  # fewest jobs per process: a fork and its pipe cost about 1 ms


def _run_point(config: PixelConfig, options: SolverOptions,
               i_exp: float) -> SweepRow:
    try:
        trace = integrate(config, Stimulus(i_exp), options)
    except OxpixError as exc:
        return SweepRow(i_exp, math.nan, math.nan, (), error=str(exc))
    return SweepRow(
        i_exp=i_exp, final_vpd=trace.final_vpd,
        swing=config.pd.vrst - trace.final_vpd,
        events=tuple(e.kind.value for e in trace.events))


def _fan_out(run, jobs: list, processes: int) -> list:
    """``run`` of every job, in job order.  Process ``w`` of ``processes``
    runs ``jobs[w::processes]``: this one runs share 0, and each child it
    forks runs one other and sends it back through a pipe as one pickle.  A
    dead child raises OxpixError, a child's exception is raised here, and no
    child outlives the call.  Forking is safe: oxpix starts no threads."""
    import pickle
    import signal

    results = [None] * len(jobs)
    children = {}  # pid -> the read end of the child's pipe
    try:
        for w in range(1, processes):
            fd, out = os.pipe()
            pid = os.fork()
            if pid == 0:  # ends by os._exit: no exit handler, no stdio flush
                try:
                    try:
                        share = [run(job) for job in jobs[w::processes]]
                    except Exception as exc:
                        share = exc
                    with open(out, "wb") as pipe:
                        pickle.dump(share, pipe)
                    os._exit(0)  # a short pickle comes with a failure status
                finally:
                    os._exit(1)
            children[pid] = open(fd, "rb")
            os.close(out)  # before the next fork, so EOF comes at its exit
        results[::processes] = [run(job) for job in jobs[::processes]]
        for w, pid in enumerate(list(children), 1):
            data = children[pid].read()  # to EOF first: the child may block
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if code:
                raise OxpixError("a worker process died: " + (
                    f"exit status {code}" if code > 0
                    else f"killed by {signal.Signals(-code).name}"))
            share = pickle.loads(data)
            if isinstance(share, Exception):
                raise share
            results[w::processes] = share
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _run_sweeps(specs: list[SweepSpec], workers: int) -> list[SweepResult]:
    """Every point of every sweep, each dark point a job with ``i_exp = 0``,
    on at most ``workers`` processes with this one, and one per ``_CHUNK``
    jobs at most; serial where ``os.fork`` is missing.  Every job is
    deterministic, so the rows are the same for any process count."""
    setups = [(spec.config, spec.options) for spec in specs]
    for setup in setups:  # before the fork, so that no process repeats one
        try:
            _reset_phase(*setup)
        except OxpixError:
            pass  # left to the rows, which record it
    jobs = [(k, i) for k, spec in enumerate(specs)
            for i in (0.0, *spec.currents())]
    processes = min(workers, math.ceil(len(jobs) / _CHUNK)) \
        if hasattr(os, "fork") else 1
    rows = _fan_out(lambda job: _run_point(*setups[job[0]], job[1]), jobs,
                    processes)
    results = []  # rows come back in job order: dark first, then ascending
    for k, spec in enumerate(specs):
        dark, *points = [row for (j, _), row in zip(jobs, rows) if j == k]
        results.append(SweepResult(points, dark.final_vpd, dark.swing,
                                   spec.config.pd.vrst))
    return results


def run_sweep(spec: SweepSpec) -> SweepResult:
    """One transient per log-spaced exposure point plus a dark reference.

    Rows come back sorted ascending in exposure regardless of execution
    order; per-point solver failures are recorded on the row and do not
    abort the sweep.  ``HPS_THREADS`` caps the processes, this one included.
    """
    return _run_sweeps([spec], _worker_count())[0]


def _worker_count() -> int:
    raw = os.environ.get("HPS_THREADS", "")
    if not raw.strip():
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        _log.warning("HPS_THREADS=%r is not a positive integer; running "
                     "with 1 worker", raw)
        return 1
    return workers


def point_readable(row: SweepRow, window: ReadableWindow,
                   dark_swing: float) -> bool:
    if row.error or not math.isfinite(row.swing):
        return False
    if row.has_event(EventKind.ABRUPT_FALL):
        return False
    if not math.isfinite(dark_swing):
        # The dark reference itself failed; nothing can be judged readable.
        return False
    return window.detection_floor(dark_swing) <= row.swing <= window.max_swing


def readable_window_bounds(result: SweepResult, window: ReadableWindow
                           ) -> Optional[tuple[float, float]]:
    """Smallest and largest readable exposure, edge-refined.

    Between a failing row and a passing row the bound is interpolated
    log-linearly in exposure against the binding swing threshold.  Returns
    None when no point is readable.
    """
    rows = result.rows
    if not rows:
        raise InvalidInputError("empty sweep table")
    flags = [point_readable(r, window, result.dark_swing) for r in rows]
    if not any(flags):
        return None
    first = flags.index(True)
    last = len(flags) - 1 - flags[::-1].index(True)
    floor = window.detection_floor(result.dark_swing)

    i_lo = rows[first].i_exp
    if first > 0:
        prev = rows[first - 1]
        if not prev.error and not prev.has_event(EventKind.ABRUPT_FALL) \
                and prev.swing < floor <= rows[first].swing:
            i_lo = _log_linear_cross(prev, rows[first], floor)
    i_hi = rows[last].i_exp
    if last + 1 < len(rows):
        nxt = rows[last + 1]
        if not nxt.error and not nxt.has_event(EventKind.ABRUPT_FALL) \
                and nxt.swing > window.max_swing >= rows[last].swing:
            i_hi = _log_linear_cross(rows[last], nxt, window.max_swing)
    return i_lo, i_hi


def _log_linear_cross(row_a: SweepRow, row_b: SweepRow, level: float) -> float:
    """Exposure at which the swing crosses ``level``, log-linear in i_exp.
    Both callers give ``s_a < s_b`` with ``level`` between them, so ``x``
    lies in [0, 1]."""
    s_a, s_b = row_a.swing, row_b.swing
    x = (level - s_a) / (s_b - s_a)
    return row_a.i_exp ** (1.0 - x) * row_b.i_exp ** x


def operating_dr(i_exp_min: float, i_exp_max: float) -> float:
    """Operating dynamic range in dB from the readable exposure ratio."""
    if not (i_exp_min > 0.0 and i_exp_max > 0.0):
        raise InvalidInputError(
            f"exposure bounds must be > 0, got ({i_exp_min}, {i_exp_max})")
    return 20.0 * math.log10(i_exp_max / i_exp_min)


def gain_factor(vrst: float, vpd1: float, vpd2: float) -> float:
    """Output-compression gain: hybrid drop over baseline drop."""
    if vrst == vpd1:
        raise InvalidInputError("zero baseline drop: gain factor undefined")
    return (vrst - vpd2) / (vrst - vpd1)


def gain_factor_curve(baseline: SweepResult, hybrid: SweepResult
                      ) -> list[tuple[float, float]]:
    """GF per exposure for sweeps taken on a shared current grid."""
    out = []
    by_i = {r.i_exp: r for r in baseline.rows}
    for row in hybrid.rows:
        base = by_i.get(row.i_exp)
        if base is None or base.error or row.error:
            continue
        if base.final_vpd >= baseline.vrst:
            continue
        out.append((row.i_exp,
                    gain_factor(baseline.vrst, base.final_vpd, row.final_vpd)))
    return out


@dataclass
class DrReport:
    label: str
    i_exp_min: Optional[float]
    i_exp_max: Optional[float]
    operating_dr_db: Optional[float]
    relative_improvement_db: Optional[float]
    events_summary: dict[str, int]
    rows: list[SweepRow]
    dark_final_vpd: float

    @property
    def window_empty(self) -> bool:
        return self.i_exp_min is None


def table1_report(oxram, selector, window: Optional[ReadableWindow] = None,
                  options: Optional[SolverOptions] = None,
                  i_min: float = SweepSpec.i_min,
                  i_max: float = SweepSpec.i_max,
                  points_per_decade: int = SweepSpec.points_per_decade
                  ) -> dict[str, DrReport]:
    """Window and DR rows for the bare pixel and the three hybrid cases.

    Relative improvements are measured against the simulated baseline row,
    so the comparison stays internally consistent when recalibration moves
    the absolute windows.
    """
    from .defaults import default_config

    window = window or ReadableWindow()
    options = options or SolverOptions()
    specs = [SweepSpec(default_config(topo, oxram=oxram, selector=selector),
                       i_min, i_max, points_per_decade, options)
             for topo in Topology]
    reports: dict[str, DrReport] = {}
    baseline_dr = None
    for topo, sweep in zip(Topology, _run_sweeps(specs, _worker_count())):
        label = "baseline" if topo is Topology.BARE_3T else topo.value
        rep = summarize_sweep(label, sweep, window, baseline_dr)
        if label == "baseline":
            baseline_dr = rep.operating_dr_db
        reports[label] = rep
    return reports


def summarize_sweep(label: str, result: SweepResult, window: ReadableWindow,
                    baseline_dr: Optional[float] = None) -> DrReport:
    bounds = readable_window_bounds(result, window)
    counts: dict[str, int] = {}
    for row in result.rows:
        for ev in row.events:
            counts[ev] = counts.get(ev, 0) + 1
    if bounds is None:
        return DrReport(label, None, None, None, None, counts, result.rows,
                        result.dark_final_vpd)
    dr = operating_dr(*bounds)
    rel = None if baseline_dr is None else dr - baseline_dr
    return DrReport(label, bounds[0], bounds[1], dr, rel, counts, result.rows,
                    result.dark_final_vpd)
