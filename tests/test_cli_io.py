"""Trace CSV, report JSON and command-line surface."""

import json
import logging
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oxpix import cli, config, experiments
from oxpix.cli import main
from oxpix.defaults import default_config, VRST_ELEVATED
from oxpix.devices import PhotodiodeParams
from oxpix.errors import OxpixError
from oxpix.experiments import SweepRow
from oxpix.pixel import GateWaveform, Stimulus, Topology
from oxpix.events import Event
from oxpix.solver import EventKind, SolverOptions, TransientTrace, integrate
from oxpix.tracefile import (
    CSV_HEADER,
    write_json,
    write_sweep_csv,
    write_trace_csv,
)


def load_trace_columns(path):
    """The ``t, vpd, i_ox, gap`` columns of a trace CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(4),
                      unpack=True)


@pytest.fixture(scope="module")
def bare_trace():
    cfg = default_config(Topology.BARE_3T)
    return integrate(cfg, Stimulus(1e-9), SolverOptions())


def test_trace_csv_round_trip_bitwise(tmp_path, bare_trace):
    path = tmp_path / "trace.csv"
    write_trace_csv(bare_trace, str(path))
    t, vpd, i_ox, gap = load_trace_columns(path)
    assert np.array_equal(t, bare_trace.t)
    assert np.array_equal(vpd, bare_trace.vpd)
    assert np.array_equal(i_ox, bare_trace.i_ox)
    assert np.array_equal(gap, bare_trace.gap)


def test_trace_csv_byte_identical_across_runs(tmp_path):
    cfg = default_config(Topology.BARE_3T)
    paths = []
    for name in ("a.csv", "b.csv"):
        trace = integrate(cfg, Stimulus(2e-10), SolverOptions())
        p = tmp_path / name
        write_trace_csv(trace, str(p))
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_csv_header_and_empty_events(tmp_path, bare_trace):
    path = tmp_path / "trace.csv"
    write_trace_csv(bare_trace, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # No event: every row ends with an empty event cell.
    assert all(line.endswith(",") for line in lines[1:])


def test_trace_csv_single_set_to_reset_cell(tmp_path, calibrated):
    # The over-strong filament rescued at the elevated reset level performs
    # a genuine SET -> RESET transition.
    pd = PhotodiodeParams(vrst=VRST_ELEVATED)
    wf = GateWaveform(((0.0, pd.trst + pd.texp, 3.3),))
    cfg = default_config(Topology.HYBRID_CASE_I, pd=pd,
                         oxram=calibrated.oxram, selector=calibrated.selector,
                         vg_waveform=wf, init_resistance=8e3)
    trace = integrate(cfg, Stimulus(1e-12), SolverOptions())
    assert any(e.kind is EventKind.SET_TO_RESET for e in trace.events)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    cells = [line.split(",")[4] for line in
             path.read_text().splitlines()[1:]]
    assert cells.count("SetToReset") == 1


def test_trace_csv_keeps_every_event_of_a_shared_row(tmp_path):
    # Two events on an inner row and two on the last row: each row holds
    # both kinds, in event order.
    events = [Event(EventKind.RESET_TO_SET, 0.5e-6),
              Event(EventKind.FWC_SATURATION, 0.5e-6),
              Event(EventKind.ABRUPT_FALL, 2e-6),
              Event(EventKind.VPD_FLOOR_CLAMP, 2e-6)]
    trace = TransientTrace(
        t=np.array([0.0, 1e-6, 2e-6]), vpd=np.array([1.0, 0.5, 0.0]),
        i_ox=np.zeros(3), gap=np.zeros(3), events=events, final_vpd=0.0,
        final_gap=0.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    cells = [line.split(",")[4] for line in
             path.read_text().splitlines()[1:]]
    assert cells == ["", "ResetToSet;FwcSaturation",
                     "AbruptFall;VpdFloorClamp"]


def test_cli_simulate_matches_oracle(tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["simulate", "--iexp", "1nA", "--out", str(out)])
    assert code == 0
    vpd = load_trace_columns(out)[1]
    assert vpd[-1] == pytest.approx(0.47, abs=1e-4)


def test_cli_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err
    # argparse leaves through the same exit, with 0 for a help request.
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_cli_validation_error_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, message in [
            ("[photodiode]\nc_pd = 10banana\n", "c_pd"),
            ("[window]\nmin_detect = 1V\n", "need min_detect < max_swing"),
            ("[solver]\nmin_step = 1e-4\n", "require min_step <= max_step")]:
        cfg.write_text(text)
        code = main(["simulate", "--config", str(cfg), "--iexp", "1nA",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert message in capsys.readouterr().err


def test_cli_unknown_topology_exits_one_without_output(tmp_path, capsys):
    cfg = tmp_path / "iv.cfg"
    cfg.write_text("[pixel]\ntopology = case_iv\n")
    code = main(["simulate", "--config", str(cfg), "--iexp", "1nA",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "case_iv" in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_solver_failure_exits_two_without_output(tmp_path, capsys):
    # Steps pinned at 10 ns cannot follow case iii's switching after the
    # reset release; a filament current of 1e300 A makes the pinned reset
    # phase's branch current infinite.
    cfg = tmp_path / "stiff.cfg"
    for failing in ("[solver]\nmax_step = 10ns\nmin_step = 10ns\n",
                    "[oxram]\ni0_cf = 1e300\n"):
        cfg.write_text("[pixel]\ntopology = case_iii\n" + failing)
        code = main(["simulate", "--config", str(cfg), "--iexp", "1nA",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [cfg]


def test_cli_sweep_writes_table(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sweep]\ni_min = 1pA\ni_max = 10pA\n"
                   "points_per_decade = 2\n")
    out = tmp_path / "table.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("i_exp_A,")
    assert len(lines) >= 3


def test_cli_report_schema_and_cache(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    # Coarse grid keeps the report fast; thresholds stay at defaults.
    cfg.write_text("[sweep]\npoints_per_decade = 2\n")
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    for label in ("baseline", "case_i", "case_ii", "case_iii"):
        assert label in payload
        row = payload[label]
        for key in ("i_exp_min_A", "i_exp_max_A", "operating_dr_db",
                    "relative_improvement_db", "events_summary",
                    "calibration_residuals"):
            assert key in row
    assert payload["case_iii"]["operating_dr_db"] is None
    caches = list(tmp_path.glob(".oxpix-calib-*.json"))
    assert len(caches) == 1
    # Second run reuses the cache and reproduces the report byte-identically.
    first = out.read_bytes()
    mtime = caches[0].stat().st_mtime_ns
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == first
    assert caches[0].stat().st_mtime_ns == mtime


def test_cli_calibrate_failure_exits_two_without_output(tmp_path, capsys):
    # The fit's Jacobian point overflows and its objective is not finite.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[selector]\nkprime = 1.7976e308\n")
    assert main(["calibrate", "--config", str(cfg),
                 "--out", str(tmp_path / "p.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: objective non-finite at the fit\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_calibrate_writes_params(tmp_path):
    out = tmp_path / "params.json"
    assert main(["calibrate", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert set(payload["residuals"]) == {"r_set", "r_reset", "t_reset",
                                         "i_reset_peak"}
    assert payload["held"] == ["i0_cf", "cf_field_b"]
    assert len(payload["singular_values"]) == 4


# A two-point sweep keeps these reports fast.
SMALL_REPORT = "[sweep]\ni_min = 1nA\ni_max = 2nA\npoints_per_decade = 1\n"
# The cache file the multistart pattern search wrote for SMALL_REPORT with
# one restart.
PATTERN_SEARCH_CACHE = ".oxpix-calib-d3449efcc4a86517.json"


def test_cli_cache_key_covers_initial_constants(tmp_path):
    out = tmp_path / "report.json"
    for name, extra in (("a.cfg", ""), ("b.cfg", "[selector]\nkprime = 2e-4\n")):
        cfg = tmp_path / name
        cfg.write_text(SMALL_REPORT + extra)
        assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(list(tmp_path.glob(".oxpix-calib-*.json"))) == 2


def test_cli_cache_key_covers_the_fit_method(tmp_path, monkeypatch):
    # A cache another fit method wrote is a miss, never read.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_REPORT)
    argv = ["report", "--config", str(cfg), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    (cache,) = tmp_path.glob(".oxpix-calib-*.json")
    report = (tmp_path / "r.json").read_bytes()
    planted = json.loads(cache.read_text())
    planted["residuals"] = {name: 0.5 for name in planted["residuals"]}
    old = tmp_path / PATTERN_SEARCH_CACHE
    old.write_text(json.dumps(planted))
    cache.unlink()
    monkeypatch.setattr(cli, "FIT_METHOD", "another method")
    assert main(argv) == 0
    (other,) = set(tmp_path.glob(".oxpix-calib-*.json")) - {old}
    assert other.name not in (cache.name, old.name)
    assert (tmp_path / "r.json").read_bytes() == report
    assert json.loads(old.read_text()) == planted


def test_cli_truncated_cache_is_a_miss(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_REPORT)
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    (cache,) = tmp_path.glob(".oxpix-calib-*.json")
    cache.write_bytes(cache.read_bytes()[:100])
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(cache.read_text())["converged"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted([cache.name, "report.json", "run.cfg"])


@pytest.mark.parametrize("section,name", [
    ("selector", "kprime"), ("selector", "vth"),
    ("oxram", "oxide_thickness_L")])
def test_cli_non_finite_cached_constant_is_a_miss(tmp_path, capsys, section,
                                                  name):
    # JSON reads Infinity as a float, so the constructors' finite checks are
    # all that keeps a corrupt cached constant out of the report.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_REPORT)
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    first = out.read_bytes()
    (cache,) = tmp_path.glob(".oxpix-calib-*.json")
    payload = json.loads(cache.read_text())
    fitted = payload[section][name]
    payload[section][name] = float("inf")
    cache.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(cache.read_text())[section][name] == fitted
    assert out.read_bytes() == first


def test_cli_warm_report_builds_no_fit_pool(tmp_path, monkeypatch,
                                            recorded_fan_outs):
    # No command starts a process for the fit: a cold report forks for the
    # one sweep fan-out only, over a job per point (a dark and two lit points
    # for each of the four topologies), as a warm one does.
    fan_outs, forks = recorded_fan_outs
    monkeypatch.setenv("HPS_THREADS", "2")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_REPORT)
    argv = ["report", "--config", str(cfg), "--out", str(tmp_path / "r.json")]
    for run in ("cold", "warm"):
        del fan_outs[:], forks[:]
        assert main(argv) == 0
        assert [processes for processes, _ in fan_outs] == [2], run
        assert len(fan_outs[0][1]) == 4 * 3
        assert len(forks) == 1, run
    del fan_outs[:], forks[:]
    assert main(["calibrate", "--config", str(cfg),
                 "--out", str(tmp_path / "p.json")]) == 0
    assert fan_outs == [] and forks == []


# Imports the CLI, runs it on the arguments after ``-c`` if there are any,
# and prints which of numpy and the process pool modules were loaded.
_MODULES_PROBE = ("import sys\nfrom oxpix.cli import main\n"
                  "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
                  "print('loaded:', *sorted({'numpy', 'concurrent.futures', "
                  "'multiprocessing'} & set(sys.modules)))\n"
                  "raise SystemExit(code)\n")


def _modules_loaded(*args: str, threads: str = "1") -> set[str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "HPS_THREADS": threads, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *args],
                          env=env, capture_output=True, text=True, check=True)
    loaded = done.stdout.splitlines()[-1].split()
    assert loaded[0] == "loaded:", done.stdout
    return set(loaded[1:])


def test_warm_report_imports_no_numpy(tmp_path):
    # numpy is loaded only where arrays are built: the fit of a cold report
    # needs it, the import and a warm report of either worker count do not.
    # Nor do they load a process pool's modules: the sweeps fork directly.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_REPORT)
    assert _modules_loaded() == set()
    cold = tmp_path / "cold.json"
    assert "numpy" in _modules_loaded("report", "--config", str(cfg),
                                      "--out", str(cold))
    for threads in ("1", "2"):
        warm = tmp_path / f"warm{threads}.json"
        assert not _modules_loaded("report", "--config", str(cfg),
                                   "--out", str(warm), threads=threads)
        assert warm.read_bytes() == cold.read_bytes()


def test_cli_bad_worker_count_warns_once_per_command(tmp_path, monkeypatch,
                                                     caplog):
    # A cold report reads HPS_THREADS for the fit and for the sweeps.
    monkeypatch.setenv("HPS_THREADS", "abc")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_REPORT)
    argv = ["report", "--config", str(cfg), "--out", str(tmp_path / "r.json")]
    for run in ("cold", "warm"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="oxpix"):
            assert main(argv) == 0
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1, run
        assert "HPS_THREADS='abc' is not a positive integer" in warnings[0]


@pytest.mark.parametrize("command,module,name", [
    ("report", experiments, "_run_point")])
def test_cli_dead_worker_exits_two_without_traceback(
        tmp_path, capsys, monkeypatch, die_in_workers, command, module, name):
    die_in_workers(module, name)
    monkeypatch.setenv("HPS_THREADS", "2")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_REPORT)
    out = tmp_path / "out.json"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "worker process died" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,text,message", [
    ("simulate", "[solver]\nreset_noise = true\nnoise_seed = -1\n",
     "line 3: noise_seed"),
])
def test_cli_negative_seed_exits_one_without_traceback(tmp_path, capsys,
                                                       command, text,
                                                       message):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--iexp", "1nA"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("command,text,message", [
    ("sweep", "[sweep]\ni_max = 1e999\n", "line 2: i_max"),
    ("simulate", "[photodiode]\ntexp = 1e999\n", "line 2: texp"),
    ("simulate", "[solver]\nrel_tol = 1e999\n", "line 2: rel_tol"),
])
def test_cli_non_finite_value_exits_one_without_traceback(tmp_path, capsys,
                                                          command, text,
                                                          message):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "simulate":
        argv += ["--iexp", "1nA"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and message in err and "not finite" in err


@pytest.mark.parametrize("key,value", [
    ("r_set", "0"), ("r_set_tol", "0"), ("r_reset", "-60Gohm"),
    ("r_reset_tol", "-0.2"), ("t_reset", "0ns"), ("t_reset_tol", "-0.1"),
    ("i_reset_peak", "0"), ("i_reset_tol", "-0.2"),
])
def test_cli_anchor_not_above_zero_exits_one_before_fitting(
        tmp_path, capsys, monkeypatch, key, value):
    def no_fit(**_):
        raise AssertionError("calibrate must not run")

    monkeypatch.setattr(cli, "calibrate", no_fit)
    cfg = tmp_path / "anchor.cfg"
    cfg.write_text(f"[calibration]\n{key} = {value}\n")
    assert main(["calibrate", "--config", str(cfg),
                 "--out", str(tmp_path / "p.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and f"line 2: {key} = " in err
    assert "must be > 0" in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_cli_simulate_exits_cleanly_for_any_numeric_value(tmp_path, capsys):
    # No config value may reach the user as a traceback: set each numeric
    # key to -1 and then to 0 in a case i run with reset noise, each device
    # constant to 1e300 on every topology, and ``rel_tol`` far below the
    # double precision epsilon on every topology.
    keys = [(section, key) for section, defaults in config._SCHEMA.items()
            for key, default in defaults.items()
            if not isinstance(default, (str, bool))]
    assert len(keys) == 47
    runs = {(section, key, value): "[pixel]\ntopology = case_i\n[solver]\n"
            f"reset_noise = true\n[{section}]\n{key} = {value}\n"
            for value in ("-1", "0") for section, key in keys}
    runs.update({(section, key, topology): f"[pixel]\ntopology = {topology}\n"
                 f"[{section}]\n{key} = 1e300\n"
                 for topology in config._TOPOLOGIES
                 for section in ("oxram", "selector")
                 for key in config._SCHEMA[section]})
    tiny_tol = {("solver", "rel_tol", value, topology):
                f"[pixel]\ntopology = {topology}\n"
                f"[solver]\nrel_tol = {value}\n"
                for value in ("1e-300", "1e-200")
                for topology in config._TOPOLOGIES}
    runs.update(tiny_tol)
    cfg = tmp_path / "run.cfg"
    argv = ["simulate", "--config", str(cfg), "--iexp", "1nA",
            "--out", str(tmp_path / "trace.csv")]
    codes = {}
    for run, text in runs.items():
        cfg.write_text(text)
        codes[run] = code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), run
        assert "Traceback" not in err
        assert code == 0 or (err.startswith("error: ")
                             and err.count("\n") == 1)
        if run in tiny_tol:
            assert code == 1 and "rel_tol must be >= " in err, run
    assert codes["photodiode", "reset_noise_electrons", "-1"] == 1
    # Case iii's transient diverges: a solver failure, not an input error.
    assert codes["oxram", "i0_ox", "case_iii"] == 2


def test_cli_calibrate_negative_seed_option_exits_one(tmp_path, capsys):
    # The fit takes no seed, so ``calibrate`` has no --seed option.
    assert main(["calibrate", "--seed", "-1",
                 "--out", str(tmp_path / "p.json")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "unrecognized arguments: --seed -1" in err


def test_cli_missing_config_file_exits_one(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code = main(["simulate", "--config", str(missing), "--iexp", "1nA",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and str(missing) in err


def test_cli_report_into_missing_directory_exits_before_calibrating(
        tmp_path, capsys, monkeypatch):
    def no_fit(**_):
        raise AssertionError("calibrate must not run")

    monkeypatch.setattr(cli, "calibrate", no_fit)
    out = tmp_path / "nodir" / "r.json"
    assert main(["report", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "nodir" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_bad_iexp_names_the_option(tmp_path, capsys):
    code = main(["simulate", "--iexp", "1banana",
                 "--out", str(tmp_path / "t.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "--iexp" in err and "line" not in err


def test_cli_non_utf8_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"\xff\xfe[pixel]\n")
    code = main(["simulate", "--config", str(cfg), "--iexp", "1nA",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and str(cfg) in err and "UTF-8" in err


@pytest.mark.parametrize("target", ["directory", "fifo"])
@pytest.mark.parametrize("command", ["simulate", "sweep", "report",
                                     "calibrate"])
def test_cli_out_not_a_regular_file_exits_one_before_any_work(
        tmp_path, capsys, monkeypatch, command, target):
    def no_work(*_, **__):
        raise AssertionError("no work may run")

    for name in ("integrate", "run_sweep", "table1_report", "calibrate"):
        monkeypatch.setattr(cli, name, no_work)
    out = tmp_path / "out"
    if target == "directory":
        out.mkdir()
    else:
        os.mkfifo(out)
    argv = [command, "--out", str(out)]
    if command == "simulate":
        argv += ["--iexp", "1nA"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "not a regular file" in err
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("failure", ["rows", "fsync"])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch,
                                              failure):
    path = tmp_path / "table.csv"
    path.write_text("previous\n")
    row = SweepRow(1e-9, 0.5, 0.92, ())

    def rows():
        yield row
        raise OSError(28, "No space left on device")

    def no_fsync(fd):
        raise OSError(5, "Input/output error")

    if failure == "fsync":
        monkeypatch.setattr(os, "fsync", no_fsync)
    with pytest.raises(OxpixError, match="table.csv"):
        write_sweep_csv(rows() if failure == "rows" else [row], str(path))
    assert path.read_text() == "previous\n"
    assert list(tmp_path.iterdir()) == [path]


def test_written_files_get_the_mode_of_a_new_file(tmp_path):
    umask = os.umask(0o027)
    try:
        write_json({"a": 1}, str(tmp_path / "out.json"), "test")
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(umask)
    modes = {stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {0o640}
