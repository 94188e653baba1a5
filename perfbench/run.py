#!/usr/bin/env python3
"""oxpix benchmark: the comparison-table report and the calibration fit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload dr_table_serial --seed 1 \\
        --seconds 30 --trace 0

Workloads (closed loop, one caller; each operation starts when the previous
one has finished):

* ``dr_table_serial``: one in-process ``oxpix report`` on the default
  config with a warm calibration cache and ``HPS_THREADS=1``;
* ``dr_table_2workers``: the same operation with ``HPS_THREADS=2``;
* ``calibrate_multistart``: one ``calibrate(restarts=8)`` on the default
  anchors, with a calibration seed drawn from ``--seed`` per operation.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
operations once untraced and twice under the wrappers of ``tracer.py``, and
reports the per-layer metrics, the tracing overhead and whether the exact
work counts of the two traced passes agree.  Every operation's output is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json``.  A detailed record (environment, every
sample, and in traced runs every span) goes to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = {
    "dr_table_serial": ("report", 1),
    "dr_table_2workers": ("report", 2),
    "calibrate_multistart": ("calibrate", 1),
}
SETUP_REPEATS = 3
IMPORT_REPEATS = 7   # an import is short and noisy; a fit-sized fill is not
CAL_RESTARTS = 8

# Cache-fill config: the default anchors and calibration settings (so the
# same cache key as the default config) with a two-point sweep, so that
# filling the cache through the public CLI costs little beyond the fit.
WARM_CONFIG = "[sweep]\ni_min = 1nA\ni_max = 2nA\npoints_per_decade = 1\n"

# Acceptance bands of the comparison table (tests/test_acceptance.py).
BASELINE_DR_DB = (19.86, 0.15)
CASE_I_IMPROVEMENT_DB = (40.0, 6.0)
CASE_I_MIN_A = (2.5e-12, 0.5)
CASE_II_MIN_A = (0.5e-12, 0.5)
POINTS = 61   # 100 fA .. 10 nA at 12 points per decade

# Host-speed probe.  Co-tenants of a shared host slow every process on it,
# by up to 60% for minutes at a time, which is more than any bound a time
# metric could carry.  While a timed region runs, a fixed pure-Python chunk
# of scalar arithmetic, like the program's own, runs every PROBE_PERIOD and
# its thread CPU time is recorded.  Times are reported scaled to the chunk's
# nominal time, and raw in the run record.
PROBE_PERIOD = 0.1
PROBE_NOMINAL_S = 0.5e-3   # one chunk on an unloaded 2.1 GHz Xeon core


def pin_environment(workers: int) -> dict:
    """Fix worker count and native thread pools before numpy loads."""
    env = {"HPS_THREADS": str(workers), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "NUMEXPR_NUM_THREADS": "1"}
    os.environ.update(env)
    sys.path.insert(0, str(SRC))
    return env


def _probe_chunk() -> float:
    acc = 0.0
    for i in range(4000):
        acc += math.sinh((i % 50) * 0.01) * 0.5
    return acc


class Timed:
    """Wall and CPU time of a region, with the host speed sampled inside it.

    A SIGALRM every ``PROBE_PERIOD`` runs one probe chunk in the main thread;
    its own wall and CPU time are taken out of the region's.  ``scale``
    converts the region's times to the nominal host speed.
    """

    def __enter__(self):
        self.chunks: list[float] = []
        self.probe_wall = self.probe_cpu = 0.0
        self._tick()    # one sample even for a short region; not its cost
        self.probe_wall = self.probe_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        self._t0, self._c0 = time.perf_counter(), cpu_seconds()
        return self

    def _tick(self, *_):
        w0, c0 = time.perf_counter(), time.thread_time()
        _probe_chunk()
        cpu = time.thread_time() - c0
        self.chunks.append(cpu)
        self.probe_cpu += cpu
        self.probe_wall += time.perf_counter() - w0

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.perf_counter() - self._t0, cpu_seconds() - self._c0
        signal.signal(signal.SIGALRM, self._previous)
        self.wall = wall - self.probe_wall
        self.cpu = cpu - self.probe_cpu
        self.scale = PROBE_NOMINAL_S / statistics.median(self.chunks)
        return False


def cpu_seconds() -> float:
    """User + system time of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def import_seconds() -> float:
    """Wall time of a cold ``import oxpix.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import oxpix.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "oxpix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(), "src_sha256": digest.hexdigest()[:16]}


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None     # an exported checkout: src_sha256 identifies it
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def quiet_cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cache_files(directory: str) -> list[tuple[str, int, int]]:
    out = []
    for path in sorted(glob.glob(os.path.join(directory, ".oxpix-calib-*.json"))):
        st = os.stat(path)
        out.append((os.path.basename(path), st.st_mtime_ns, st.st_size))
    return out


# -- correctness gates --------------------------------------------------------


def _within(value, centre_tol, relative=False) -> bool:
    centre, tol = centre_tol
    if value is None or not math.isfinite(value):
        return False
    width = tol * centre if relative else tol
    return abs(value - centre) <= width


def check_report(rc: int, reports, out_path: str) -> list[str]:
    """Acceptance bands of the table, less its three strict-xfail clauses."""
    from oxpix.solver import EventKind

    if rc != 0:
        return [f"oxpix report exited {rc}"]
    if reports is None:
        return ["table1_report was not called"]
    problems = []
    base = reports["baseline"].operating_dr_db
    if not _within(base, BASELINE_DR_DB):
        problems.append(f"baseline DR {base} dB outside 19.86 +/- 0.15")
    rel = reports["case_i"].relative_improvement_db
    if not _within(rel, CASE_I_IMPROVEMENT_DB):
        problems.append(f"case (i) improvement {rel} dB outside 40 +/- 6")
    if not _within(reports["case_i"].i_exp_min, CASE_I_MIN_A, relative=True):
        problems.append(f"case (i) i_min {reports['case_i'].i_exp_min} A")
    if not _within(reports["case_ii"].i_exp_min, CASE_II_MIN_A, relative=True):
        problems.append(f"case (ii) i_min {reports['case_ii'].i_exp_min} A")
    case_iii = reports["case_iii"]
    if not case_iii.window_empty:
        problems.append("case (iii) window not empty")
    if not all(r.has_event(EventKind.ABRUPT_FALL) for r in case_iii.rows):
        problems.append("a case (iii) point did not collapse")
    for label, rep in reports.items():
        if len(rep.rows) != POINTS:
            problems.append(f"{label}: {len(rep.rows)} rows, want {POINTS}")
        if any(r.error for r in rep.rows) or not math.isfinite(rep.dark_final_vpd):
            problems.append(f"{label}: a sweep point failed")
    with open(out_path, encoding="utf-8") as fh:
        written = json.load(fh)
    for label, rep in reports.items():
        if written.get(label, {}).get("operating_dr_db") != rep.operating_dr_db:
            problems.append(f"{label}: report JSON disagrees with the table")
    return problems


def check_fit(result, anchors) -> list[str]:
    problems = [] if result.converged else ["fit did not converge"]
    for a in anchors.anchors:
        r = result.residuals.get(a.quantity, math.inf)
        if not abs(r) <= a.tolerance:
            problems.append(f"{a.quantity} residual {r:+.4f} beyond {a.tolerance}")
    return problems


# -- workloads ----------------------------------------------------------------


class Workload:
    """Set-up and one operation of a workload, with its output check."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.kind, self.workers = WORKLOADS[name]
        self.work = work
        self.rng = random.Random(seed)
        self.cal_seeds: list[int] = []
        self.captured: list = []

    def setup(self) -> dict:
        """Cold set-up, repeated; the last repetition's state is kept."""
        with Timed() as timed:
            import_s = statistics.median(import_seconds()
                                         for _ in range(IMPORT_REPEATS))
            from oxpix import calibration, cli, config

            self.cli, self.config, self.calibration = cli, config, calibration
            build = []
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                self._setup_once()
                build.append(time.perf_counter() - t0)
        # Capture the table the CLI builds, for the output check.
        table1_report = cli.table1_report

        def captured_table(*args, **kwargs):
            self.captured.append(table1_report(*args, **kwargs))
            return self.captured[-1]
        cli.table1_report = captured_table
        raw = import_s + statistics.median(build)
        return {"import_s": import_s, "build_s": build, "raw_s": raw,
                "scale": timed.scale, "setup_s": raw * timed.scale}

    def _setup_once(self) -> None:
        self.dir = tempfile.mkdtemp(prefix="op-", dir=self.work)
        self.cfg = os.path.join(self.dir, "default.cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(self.config.dump_config(self.config.parse_config("")))
        self.setup_cfg = self.config.parse_config(self.cfg, is_path=True)
        if self.kind == "report":
            warm = os.path.join(self.dir, "warm.cfg")
            with open(warm, "w", encoding="utf-8") as fh:
                fh.write(WARM_CONFIG)
            rc = quiet_cli(self.cli, ["report", "--config", warm, "--out",
                                      os.path.join(self.dir, "warm.json")])
            self.cache = cache_files(self.dir)
            if rc != 0 or len(self.cache) != 1:
                raise RuntimeError(f"calibration cache fill failed (exit {rc})")

    def calibration_seed(self, k: int) -> int:
        while len(self.cal_seeds) <= k:
            self.cal_seeds.append(self.rng.randrange(2 ** 31))
        return self.cal_seeds[k]

    def run(self, k: int) -> tuple[Timed, list[str]]:
        """Operation ``k``: its timing and its output problems."""
        if self.kind == "report":
            out = os.path.join(self.dir, "report.json")
            self.captured.clear()
            with Timed() as timed:
                rc = quiet_cli(self.cli, ["report", "--config", self.cfg,
                                          "--out", out])
            table = self.captured[-1] if self.captured else None
            return timed, check_report(rc, table, out)
        s = self.setup_cfg
        from oxpix.devices import OxRamParams

        with Timed() as timed:
            result = self.calibration.calibrate(
                s.anchors, initial_oxram=s.pixel.oxram or OxRamParams(),
                initial_selector=s.pixel.selector,
                seed=self.calibration_seed(k), restarts=CAL_RESTARTS)
        return timed, check_fit(result, s.anchors)

    def final_checks(self) -> list[str]:
        if self.kind == "report" and cache_files(self.dir) != self.cache:
            return ["the calibration cache changed: operations did not hit it"]
        return []


def closed_loop(run, budget: float, count: int | None = None) -> list[dict]:
    """Run operations 0, 1, ... back to back.

    Stops before the next operation would overrun ``budget`` seconds (at
    least one runs), or after exactly ``count`` operations when given.
    """
    samples = []
    start = time.perf_counter()
    for k in itertools.count():
        try:
            timed, problems = run(k)
            wall, cpu, scale = timed.wall, timed.cpu, timed.scale
        except Exception:     # a failed operation is reported, not fatal
            wall = cpu = scale = math.nan
            problems = [traceback.format_exc()]
        samples.append({"k": k, "wall_s": wall, "cpu_s": cpu, "scale": scale,
                        "problems": problems})
        if count is not None:
            if k + 1 == count:
                return samples
            continue
        walls = [s["wall_s"] for s in samples if math.isfinite(s["wall_s"])]
        typical = statistics.median(walls) if walls else 0.0
        if time.perf_counter() - start + typical > budget:
            return samples


# -- metrics and output -------------------------------------------------------


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"tail needs > 10 samples (n={n})"
    k = n - 10
    return f"p{100 * k / n:.0f} {sorted(values)[k - 1]:.4f}"


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(values: dict[str, float], kind: str, correct: bool,
         attempted: int, failed: int) -> dict:
    units = declared(kind)
    if set(values) != set(units):
        raise SystemExit(f"metric names disagree with BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                        for k in units}}


def untraced(workload: Workload, seconds: int, setup: dict) -> tuple[dict, dict]:
    samples = closed_loop(workload.run, seconds)
    good = [s for s in samples if not s["problems"]]
    raw_walls = [s["wall_s"] for s in good]
    raw_cpus = [s["cpu_s"] for s in good]
    walls = [s["wall_s"] * s["scale"] for s in good]
    cpus = [s["cpu_s"] * s["scale"] for s in good]

    def median(values):
        return statistics.median(values) if values else math.inf
    values = {"setup_s": setup["setup_s"], "op_s": median(walls),
              "op_cpu_s": median(cpus), "peak_rss_mb": peak_rss_mb()}
    op = "report" if workload.kind == "report" else "fit"
    print(f"one op = one {op}; {len(samples)} attempted, "
          f"{len(samples) - len(good)} failed; times scaled to nominal host "
          f"speed, raw in brackets; host ran at "
          f"{1 / median([s['scale'] for s in good]):.3f} x nominal time")
    print(f"  setup_s      {values['setup_s']:10.4f} s   n={IMPORT_REPEATS} "
          f"imports, {SETUP_REPEATS} builds [{setup['raw_s']:.4f}]; raw import "
          f"{setup['import_s']:.4f} s + median build and cache fill")
    print(f"  op_s         {values['op_s']:10.4f} s   n={len(walls)} median "
          f"[{median(raw_walls):.4f}]; {tail(walls)}")
    print(f"  op_cpu_s     {values['op_cpu_s']:10.4f} s   n={len(cpus)} median "
          f"[{median(raw_cpus):.4f}]; {tail(cpus)}")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:10.2f} MB  n=1")
    return values, {"samples": samples}


def traced(workload: Workload, seconds: int) -> tuple[dict, dict]:
    """Untraced reference pass, then two traced passes over the same ops."""
    import tracer as tracing

    ref = closed_loop(workload.run, seconds / 4)
    n = len(ref)
    tracer = tracing.Tracer(tempfile.mkdtemp(prefix="spool-", dir=workload.work))

    def traced_op(k: int, op_id: int):
        tracer.op_id = op_id
        span = tracer.open(f"op.{workload.kind}")
        try:
            return workload.run(k)
        finally:
            tracer.close(span)

    tracer.install()
    try:
        passes = [closed_loop(lambda k, p=p: traced_op(k, p * n + k), 0, count=n)
                  for p in (1, 2)]
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    counts = [(tracing.op_counts(spans, n + k, tracer.main_pid),
               tracing.op_counts(spans, 2 * n + k, tracer.main_pid))
              for k in range(n)]
    mismatched = [k for k, (first, second) in enumerate(counts) if first != second]
    values = tracing.layer_metrics(spans, list(range(n, 2 * n)),
                                   workload.workers, tracer.main_pid)
    # Layer times at nominal host speed, like the end-to-end times.
    scale = statistics.median(s["scale"] for s in passes[0])
    for name, unit in declared("per_layer").items():
        if unit in ("s", "ms", "us") and name in values:
            values[name] *= scale
    ref_wall = sum(s["wall_s"] * s["scale"] for s in ref)
    traced_wall = sum(s["wall_s"] * s["scale"] for s in passes[0])
    values["trace.overhead_pct"] = (traced_wall / ref_wall - 1.0) * 100.0
    with Timed() as timed:
        wrapper_ns = tracing.wrapper_cost_ns()
    values["trace.wrapper_ns"] = wrapper_ns * timed.scale
    print(f"{n} op(s) untraced, then twice traced; exact counts of op 0: "
          + json.dumps(counts[0][0], sort_keys=True))
    print("exact counts repeat: " + ("yes" if not mismatched else
                                     f"NO, ops {mismatched}"))
    for name in sorted(values):
        print(f"  {name:42s} {values[name]:.6g}")
    record = {"untraced": ref, "traced": passes, "spans": spans,
              "counts": counts, "counts_mismatch": mismatched}
    return values, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "oxpix" / "__init__.py").is_file():
        print(f"error: no oxpix sources under {SRC}", file=sys.stderr)
        return 2
    env = pin_environment(WORKLOADS[args.workload][1])
    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        workload = Workload(args.workload, args.seed, work)
        setup = workload.setup()
        info = environment()
        print(f"oxpix benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("env: " + json.dumps({**info, **env}, sort_keys=True))
        if args.trace:
            values, record = traced(workload, args.seconds)
            ops = record["untraced"] + [s for p in record["traced"] for s in p]
            extra_ok = not record["counts_mismatch"]
        else:
            values, record = untraced(workload, args.seconds, setup)
            ops = record["samples"]
            extra_ok = True
        problems = workload.final_checks()
        failed = sum(1 for s in ops if s["problems"])
        for s in [s for s in ops if s["problems"]][:5]:
            print(f"op {s['k']} FAILED: " + "; ".join(s["problems"]))
        for p in problems:
            print(f"FAILED: {p}")
        correct = failed == 0 and not problems and extra_ok
        result = emit(values, "per_layer" if args.trace else "end_to_end",
                      correct, len(ops), failed)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"args": vars(args), "env": {**info, **env},
                       "setup": setup, "result": result, **record,
                       "cal_seeds": workload.cal_seeds}, fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
