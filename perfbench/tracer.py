"""Timing wrappers for the traced run, the span store and the per-layer metrics.

The traced run swaps module attributes that oxpix calls through for
wrappers defined here; the program itself is not edited.  Two kinds of
wrapper exist:

* counters, for the hot inner layers (device kernel, KCL solve, RHS,
  read resistance, anchor predictors).  A span per call would cost more
  memory than the run has, so each keeps a running ``[calls, seconds]``
  cell per process;
* spans, for the coarse layers (operation, ``table1_report``, one sweep,
  one transient, config parse, report write).  A span records name,
  start, end, parent, operation id, process id, and how far each counter
  cell moved while it was open, so counts are taken where the work happens.

Worker processes of a sweep pool are forked from the traced parent, so
they inherit the wrappers and the open span stack (the sweep that built the
pool).  A worker appends each finished transient span to a per-process
spool file, which the parent reads after the run.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time

TOPOLOGY_LABELS = {"bare3t": "baseline", "case_i": "case_i",
                   "case_ii": "case_ii", "case_iii": "case_iii"}
ANCHORS = ("r_set", "r_reset", "t_reset", "i_reset_peak")
HOT = ("rhs", "kcl", "kernel", "read_resistance")
EXACT_COUNTS = HOT + tuple(f"predict.{a}" for a in ANCHORS)


class Tracer:
    """Counter cells and spans of one traced benchmark process."""

    def __init__(self, spool_dir: str):
        self.main_pid = os.getpid()
        self.spool_dir = spool_dir
        self.cells: dict[str, list] = {k: [0, 0.0] for k in EXACT_COUNTS}
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.op_id = None
        self._serial = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace the program's call-through attributes with wrappers."""
        from oxpix import calibration, cli, devices, experiments, pixel, solver

        rhs = self.counter(solver.assemble_derivative, "rhs")
        kcl = self.counter(pixel.solve_branch_current, "kcl")
        kernel = self.counter(pixel.device_current_and_slope, "kernel")
        read_r = self.counter(devices.read_resistance, "read_resistance")
        self._patch(solver, "assemble_derivative", rhs)
        self._patch(pixel, "solve_branch_current", kcl)
        self._patch(calibration, "solve_branch_current", kcl)
        self._patch(pixel, "device_current_and_slope", kernel)
        self._patch(devices, "read_resistance", read_r)
        self._patch(calibration, "read_resistance", read_r)
        self._patch(calibration, "predict_anchor",
                    self.predictor(calibration.predict_anchor))
        self._patch(experiments, "integrate",
                    self.transient(experiments.integrate,
                                   solver.charge_balance_error))
        self._patch(experiments, "run_sweep", self.sweep(experiments.run_sweep))
        self._patch(cli, "table1_report",
                    self.spanned(cli.table1_report, "experiments.table1_report"))
        self._patch(cli, "parse_config",
                    self.spanned(cli.parse_config, "config.parse_config"))
        self._patch(cli, "write_report_json",
                    self.spanned(cli.write_report_json,
                                 "tracefile.write_report_json"))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _patch(self, module, name: str, wrapper) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    # -- wrappers ---------------------------------------------------------

    def counter(self, fn, key: str):
        cell = self.cells[key]
        clock = time.perf_counter

        def counted(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[0] += 1
        return counted

    def predictor(self, fn):
        cells = self.cells
        clock = time.perf_counter

        def predict(quantity, *args, **kwargs):
            cell = cells[f"predict.{quantity}"]
            t0 = clock()
            try:
                return fn(quantity, *args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[0] += 1
        return predict

    def spanned(self, fn, name: str):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def sweep(self, fn):
        def run_sweep(spec):
            span = self.open("experiments.run_sweep",
                             topology=spec.config.topology.value)
            try:
                result = fn(spec)
            finally:
                self.close(span)
            span["rows"] = len(result.rows)
            span["rows_failed"] = sum(r.error is not None for r in result.rows) \
                + (not math.isfinite(result.dark_final_vpd))
            return result
        return run_sweep

    def transient(self, fn, charge_balance_error):
        def integrate(config, stimulus, options=None):
            span = self.open("solver.integrate",
                             topology=config.topology.value)
            trace = None
            try:
                trace = fn(config, stimulus, options)
                return trace
            finally:
                self.close(span, keys=HOT[:3])
                if trace is None:
                    span["error"] = True
                else:
                    span["samples"] = len(trace.t)
                    span["charge_balance"] = charge_balance_error(trace, config)
                if os.getpid() != self.main_pid:
                    self._spool(span)
        return integrate

    # -- spans ------------------------------------------------------------

    def open(self, name: str, **attrs) -> dict:
        self._serial += 1
        span = {"id": f"{os.getpid()}.{self._serial}", "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "op": self.op_id, "pid": os.getpid(), **attrs,
                "_at": {k: tuple(c) for k, c in self.cells.items()},
                "start": time.perf_counter()}
        self.stack.append(span["id"])
        return span

    def close(self, span: dict, keys=EXACT_COUNTS) -> None:
        span["end"] = time.perf_counter()
        at = span.pop("_at")
        for k in keys:
            n0, t0 = at[k]
            n1, t1 = self.cells[k]
            span[f"n.{k}"] = n1 - n0
            span[f"t.{k}"] = t1 - t0
        self.stack.pop()
        if os.getpid() == self.main_pid:
            self.spans.append(span)

    def _spool(self, span: dict) -> None:
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")

    def collect(self) -> list[dict]:
        """Parent spans plus every span the pool workers spooled."""
        spans = list(self.spans)
        for name in sorted(os.listdir(self.spool_dir)):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                with open(os.path.join(self.spool_dir, name),
                          encoding="utf-8") as fh:
                    spans.extend(json.loads(line) for line in fh)
        return spans


def wrapper_cost_ns(calls: int = 200_000) -> float:
    """Own cost of one counter wrapper call, in ns, against a bare call."""
    def bare(x):
        return x

    wrapped = Tracer(".").counter(bare, "rhs")
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(calls):
            bare(i)
        t1 = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best * 1e9


# -- per-layer metrics --------------------------------------------------------


def _hot_totals(spans: list[dict], main_pid: int):
    """Counter totals: the parent's cells over each operation span, plus the
    transient spans of pool workers, whose cells the parent never sees."""
    n = dict.fromkeys(EXACT_COUNTS, 0)
    t = dict.fromkeys(EXACT_COUNTS, 0.0)
    for s in spans:
        if s["name"].startswith("op."):
            keys = EXACT_COUNTS
        elif s["name"] == "solver.integrate" and s["pid"] != main_pid:
            keys = HOT[:3]
        else:
            continue
        for k in keys:
            n[k] += s[f"n.{k}"]
            t[k] += s[f"t.{k}"]
    return n, t


def op_counts(spans: list[dict], op_id, main_pid: int) -> dict[str, int]:
    """Exact work counts of one operation, summed over every process."""
    mine = [s for s in spans if s["op"] == op_id]
    counts, _ = _hot_totals(mine, main_pid)
    for s in mine:
        if s["name"] == "solver.integrate":
            label = TOPOLOGY_LABELS[s["topology"]]
            for key, value in ((f"transients.{label}", 1),
                               (f"samples.{label}", s.get("samples", 0)),
                               (f"rhs.{label}", s["n.rhs"])):
                counts[key] = counts.get(key, 0) + value
    return counts


def _union(intervals: list[tuple[float, float]]) -> float:
    covered, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            covered += b - max(a, end)
            end = b
    return covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[dict], op_ids: list, workers: int,
                  main_pid: int) -> dict[str, float]:
    """Per-layer figures for the given operations, per operation."""
    ops = set(op_ids)
    n_ops = len(op_ids)
    spans = [s for s in spans if s["op"] in ops]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    transients = by_name.get("solver.integrate", [])
    sweeps = by_name.get("experiments.run_sweep", [])
    tables = by_name.get("experiments.table1_report", [])
    parses = by_name.get("config.parse_config", [])
    writes = by_name.get("tracefile.write_report_json", [])

    n, t = _hot_totals(spans, main_pid)

    m: dict[str, float] = {
        "devices.kernel_calls": n["kernel"] / n_ops,
        "devices.kernel_us": _ratio(t["kernel"], n["kernel"]) * 1e6,
        "devices.read_resistance_calls": n["read_resistance"] / n_ops,
        "pixel.kcl_solves": n["kcl"] / n_ops,
        "pixel.kcl_us": _ratio(t["kcl"], n["kcl"]) * 1e6,
        "pixel.newton_evals_per_solve": _ratio(n["kernel"], n["kcl"]),
    }
    for kind, hybrid in (("bare", False), ("hybrid", True)):
        sel = [s for s in transients if (s["topology"] != "bare3t") == hybrid]
        m[f"pixel.rhs_us.{kind}"] = _ratio(sum(s["t.rhs"] for s in sel),
                                           sum(s["n.rhs"] for s in sel)) * 1e6

    steps = 0
    for topo, label in TOPOLOGY_LABELS.items():
        sel = [s for s in transients if s["topology"] == topo]
        ms = sorted((s["end"] - s["start"]) * 1e3 for s in sel)
        self_ms = sorted((s["end"] - s["start"] - s["t.rhs"]) * 1e3 for s in sel)
        samples = [s["samples"] for s in sel if "samples" in s]
        steps += sum(x - 1 for x in samples)
        m[f"solver.transient_ms.{label}.p50"] = _pct(ms, 50)
        m[f"solver.transient_ms.{label}.p95"] = _pct(ms, 95)
        m[f"solver.rhs_evals.{label}"] = sum(s["n.rhs"] for s in sel) / n_ops
        m[f"solver.samples_per_transient.{label}"] = \
            _ratio(sum(samples), len(samples))
        m[f"solver.self_ms.{label}"] = statistics.median(self_ms) if self_ms else 0.0
        m[f"experiments.sweep_s.{label}"] = sum(
            s["end"] - s["start"] for s in sweeps if s["topology"] == topo) / n_ops
    m["solver.rhs_per_sample"] = _ratio(sum(s["n.rhs"] for s in transients), steps)
    m["solver.charge_balance_max"] = max(
        (s["charge_balance"] for s in transients if "charge_balance" in s),
        default=0.0)

    # Orchestration: time inside sweeps and the table that no transient
    # covers (pool start-up, pickling, waiting, summaries).
    self_s = sum(s["end"] - s["start"] for s in tables) \
        - sum(s["end"] - s["start"] for s in sweeps)
    parent_serial = 0.0
    worker_busy = 0.0
    pooled_wall = 0.0
    for sw in sweeps:
        kids = [s for s in transients if s["parent"] == sw["id"]]
        self_s += (sw["end"] - sw["start"]) - _union(
            [(s["start"], s["end"]) for s in kids])
        in_workers = [s for s in kids if s["pid"] != main_pid]
        if in_workers:
            pooled_wall += sw["end"] - sw["start"]
            worker_busy += sum(s["end"] - s["start"] for s in in_workers)
            parent_serial += sum(s["end"] - s["start"] for s in kids
                                 if s["pid"] == main_pid)
    m["experiments.self_s"] = self_s / n_ops
    m["experiments.parent_serial_s"] = parent_serial / n_ops
    m["experiments.pool_cpu_util"] = _ratio(worker_busy, workers * pooled_wall)
    m["experiments.points_failed"] = sum(s["rows_failed"] for s in sweeps) / n_ops

    for a in ANCHORS:
        m[f"calibration.predict_calls.{a}"] = n[f"predict.{a}"] / n_ops
        m[f"calibration.predict_us.{a}"] = \
            _ratio(t[f"predict.{a}"], n[f"predict.{a}"]) * 1e6

    m["config.parse_ms"] = _ratio(sum(s["end"] - s["start"] for s in parses),
                                  len(parses)) * 1e3
    gaps = []
    for table in tables:
        before = [p["end"] for p in parses
                  if p["op"] == table["op"] and p["end"] <= table["start"]]
        if before:
            gaps.append(table["start"] - max(before))
    m["cli.cache_read_ms"] = _ratio(sum(gaps), len(gaps)) * 1e3
    m["tracefile.report_write_ms"] = _ratio(
        sum(s["end"] - s["start"] for s in writes), len(writes)) * 1e3
    return m
