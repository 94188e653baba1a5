"""Golden outputs, byte for byte: the default ``oxpix simulate --iexp 1nA``
CSV of each topology, a coarse ``oxpix sweep`` CSV of each topology, the
``oxpix calibrate`` JSON and the ``oxpix report`` JSON and calibration cache
of one-restart fits, the events of the coarse sweep transients, the
``oxpix calibrate`` JSON of the default eight-restart fit for two seeds, the
payload of the two-restart fit for seeds 0-7, the default ``oxpix report``
JSON, the dumped default config of each topology, and the keys a config
accepts.

A refactor that claims to leave the numbers alone must leave these digests
alone.  A change that moves numbers or the config format on purpose updates
every digest it moves and says why in CHANGES.md.  Print the current digests
and key list with ``PYTHONPATH=src python tests/test_golden.py``.

The digests hold for IEEE-754 doubles and a math library that rounds
``exp``/``sinh``/``cosh`` as the one they were recorded with; elsewhere,
record them afresh on the unchanged code first.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from oxpix.calibration import calibrate
from oxpix.cli import _result_payload, main
from oxpix.config import dump_config, parse_config
from oxpix.defaults import default_config
from oxpix.experiments import SweepSpec, table1_report
from oxpix.pixel import Stimulus, Topology
from oxpix.solver import integrate
from oxpix.tracefile import write_report_json

GOLDEN = {
    "bare3t": "ab091696512214087d3260ba6e4603e679cdaacb327a55d6b456cf055ff33abc",
    "case_i": "6c277f559f5d4175b2bb782f6c1bc3d3e58d07bb937b2485cf0a27f6aaad1ebe",
    "case_ii": "2b048e94dc7f4eef35980715b9178924a886bd66c1299a2754e0b4fa3c1872e5",
    "case_iii": "f4569e676911e126138786221f0b607b69399c8681d738b0902a5437dcf94abf",
}

# ``oxpix sweep`` over 100 fA .. 10 nA at one point per decade.
GOLDEN_SWEEP = {
    "bare3t": "8ba86c0d6d4e080d2a6f4b052fc43f6b49600feb58dd758ed9db4618489b3a76",
    "case_i": "68aa4c1d5cc1637e815d996e2fc4e88c47b8a9bfde38e78b44520a04e5f021bb",
    "case_ii": "93ea5e125c802b2d1cefbbd9c1344e2f15c2fe842119278bf465d99b3bf15fab",
    "case_iii": "aacb083212e862cf9d096a46bd99c22c50933cc815cd4ba26d9338e4ee7e7611",
}

# Every event of the coarse sweep transients (dark, and 100 fA .. 10 nA at
# one point per decade) of each topology with default constants: 28
# transients, 31 events.
GOLDEN_EVENTS = \
    "692845744a7376d8076082615f469f96daec2c2425ac922dc54aa4d28146f399"

# ``oxpix calibrate`` with ``[calibration] restarts = 1``, and ``oxpix report``
# on ``SMALL_REPORT`` (as in ``tests/test_cli_io.py``: a two-point sweep and
# one calibration restart) with the cache it fills.
SMALL_REPORT = ("[sweep]\ni_min = 1nA\ni_max = 2nA\npoints_per_decade = 1\n"
                "[calibration]\nrestarts = 1\n")
GOLDEN_FIT = {
    "calibrate": "6850c6424102373039e4d5aab282bc7eabedd87ed708aad904fab976d25eb659",
    "report": "c31023065e238055d5e60d6393e3fd3d612c41952d95f790bf5e0a14524eff3c",
    "cache": "6850c6424102373039e4d5aab282bc7eabedd87ed708aad904fab976d25eb659",
    "cache_name": ".oxpix-calib-d3449efcc4a86517.json",
}

# ``oxpix calibrate --seed N`` on the default config: eight restarts.  Seed 3
# lands in another minimum than seed 0.
GOLDEN_MULTISTART = {
    0: "8f59191cc6c3c6276b67b8ea084bfe3095a8f6a245798d28b654ea37e9eea60d",
    3: "e4ea9b568cc252fea9db3dc93554ae5fc2a02300f79d465ee77b0acb184a2747",
}

# ``cli._result_payload`` (every field but ``evaluations``) of
# ``calibrate(seed=N, restarts=2)``: more fits pinned, each one cheap.
GOLDEN_TWO_RESTARTS = {
    0: "48fd5fa0d0b1abd79fba005661ceffaf23079cebde9431a3b27ab455c32a191c",
    1: "3075fa7d2b546959c5f8959e2477cb77756cc82a5045af8ff32cf8010a82b14a",
    2: "90caf14208e0b141e3e9a1de226e9f0f56dd7e9858ab345dba2fbde9e982c41e",
    3: "a2edac09f3bf510e33bb51c154e6d33fc5b40be25c497cf65227547c1a90822f",
    4: "398e3c4751b48e8355e2484a9c6a727e32b2f1e039760aacc4a40382cc26a40e",
    5: "6f50f326e7a99323676fe53e755f2b0e34206a51c2c0695cc7e3cc648f56fb7f",
    6: "45a3741d03ea01b5981b99ff63af6811a47ef10cf79c41b7560e51b01742b4b2",
    7: "2bdafd55679474d1c96ba0c5a75498e8dba66eb04e9e36b1ba23d32aada5632c",
}

# ``oxpix report`` on the default config: the eight-restart seed-0 fit and
# the 100 fA .. 10 nA grid at 12 points per decade, which the session
# ``calibrated`` and ``reports`` fixtures compute.
GOLDEN_REPORT = \
    "d9a2ece605741970329d7fe466b4c134213858afbd8cc18643f294d590984fdd"

# ``dump_config(parse_config(text))`` for the empty config ("") and for
# ``[pixel] topology = <name>``.
GOLDEN_DUMP = {
    "": "e483f66c255e29bc67030d8bbc6eab5a14bba9bedb0acfdcddd910b7881376a3",
    "bare3t": "e483f66c255e29bc67030d8bbc6eab5a14bba9bedb0acfdcddd910b7881376a3",
    "case_i": "3b0cef85a1119735185f596f2014a1d80dec78eb505f7bbe53302907cefc0970",
    "case_ii": "adff11b9f3710950d9b7fc9269e858879312eef28536546e6613f17eeec59bf3",
    "case_iii": "6ede1bd36327a952064e7422378c060635d71fde4ebdd97c2b1a6e9eba63356a",
}

# Every key a config accepts, as ``section.key``.
GOLDEN_KEYS = [
    "calibration.i_reset_peak", "calibration.i_reset_tol",
    "calibration.r_reset", "calibration.r_reset_tol", "calibration.r_set",
    "calibration.r_set_tol", "calibration.restarts", "calibration.seed",
    "calibration.t_reset", "calibration.t_reset_tol", "oxram.c_pox",
    "oxram.cf_decay_a", "oxram.cf_field_b", "oxram.gap_max", "oxram.gap_min",
    "oxram.growth_field_v0", "oxram.growth_rate_g0", "oxram.i0_cf",
    "oxram.i0_ox", "oxram.ox_decay_c", "oxram.ox_field_d",
    "oxram.oxide_thickness_L", "oxram.rupture_field_v1",
    "oxram.rupture_rate_r0", "photodiode.c_pd", "photodiode.fwc_electrons",
    "photodiode.reset_noise_electrons", "photodiode.texp", "photodiode.trst",
    "photodiode.vrst", "pixel.init_resistance", "pixel.topology",
    "pixel.vg_level", "pixel.vg_prog_level", "pixel.vg_prog_until",
    "pixel.vrst", "pixel.vs_level", "selector.kprime", "selector.lambda",
    "selector.vth", "solver.abs_tol_gap", "solver.abs_tol_v",
    "solver.max_step", "solver.max_trace_points", "solver.min_step",
    "solver.noise_seed", "solver.rel_tol", "solver.reset_noise", "sweep.i_max",
    "sweep.i_min", "sweep.points_per_decade", "window.max_swing",
    "window.min_detect", "window.sense_margin",
]


def simulate_digest(topology: str, directory: Path) -> str:
    """SHA-256 of the trace CSV of ``oxpix simulate --iexp 1nA`` on the
    default config of ``topology``."""
    cfg = directory / f"{topology}.cfg"
    cfg.write_text(f"[pixel]\ntopology = {topology}\n")
    out = directory / f"{topology}.csv"
    assert main(["simulate", "--config", str(cfg), "--iexp", "1nA",
                 "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("topology", sorted(GOLDEN))
def test_default_simulate_csv_matches_golden_digest(tmp_path, topology):
    assert simulate_digest(topology, tmp_path) == GOLDEN[topology]


def sweep_digest(topology: str, directory: Path) -> str:
    """SHA-256 of the coarse ``oxpix sweep`` CSV of ``topology``."""
    cfg = directory / f"{topology}.cfg"
    cfg.write_text(f"[pixel]\ntopology = {topology}\n"
                   "[sweep]\ni_min = 100fA\ni_max = 10nA\n"
                   "points_per_decade = 1\n")
    out = directory / f"{topology}.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("topology", sorted(GOLDEN_SWEEP))
def test_coarse_sweep_csv_matches_golden_digest(tmp_path, topology):
    assert sweep_digest(topology, tmp_path) == GOLDEN_SWEEP[topology]


def events_digest() -> str:
    """SHA-256 of ``topology,i_exp,kind,t_event.hex(),detail`` lines, one
    per event of the transients ``GOLDEN_EVENTS`` names, in order."""
    lines = []
    for topology in Topology:
        spec = SweepSpec(default_config(topology), points_per_decade=1)
        for i_exp in (0.0, *spec.currents()):
            for e in integrate(spec.config, Stimulus(i_exp)).events:
                lines.append(f"{topology.value},{i_exp!r},{e.kind.value},"
                             f"{e.t_event.hex()},{e.detail}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def test_coarse_sweep_events_match_golden_digest():
    assert events_digest() == GOLDEN_EVENTS


def fit_digests(directory: Path) -> dict[str, str]:
    """SHA-256 of the one-restart ``calibrate`` JSON, of the small report
    JSON and of its cache file, and the cache file's name."""
    cfg = directory / "fit.cfg"
    cfg.write_text("[calibration]\nrestarts = 1\n")
    params = directory / "params.json"
    assert main(["calibrate", "--config", str(cfg),
                 "--out", str(params)]) == 0
    cfg.write_text(SMALL_REPORT)
    report = directory / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(report)]) == 0
    (cache,) = directory.glob(".oxpix-calib-*.json")
    return {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in (("calibrate", params), ("report", report),
                               ("cache", cache))} | {"cache_name": cache.name}


def test_fit_outputs_match_golden_digests(tmp_path):
    assert fit_digests(tmp_path) == GOLDEN_FIT


def multistart_digest(seed: int, directory: Path) -> str:
    """SHA-256 of the default ``oxpix calibrate --seed`` JSON."""
    out = directory / f"fit{seed}.json"
    assert main(["calibrate", "--seed", str(seed), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_MULTISTART))
def test_multistart_fit_matches_golden_digest(tmp_path, seed):
    assert multistart_digest(seed, tmp_path) == GOLDEN_MULTISTART[seed]


def two_restart_digest(seed: int) -> str:
    """SHA-256 of the sorted-key JSON of the two-restart fit's payload."""
    payload = _result_payload(calibrate(seed=seed, restarts=2))
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_TWO_RESTARTS))
def test_two_restart_fit_matches_golden_digest(seed):
    assert two_restart_digest(seed) == GOLDEN_TWO_RESTARTS[seed]


def report_digest(table: dict, residuals: dict, directory: Path) -> str:
    """SHA-256 of the report JSON of ``table`` and the fit ``residuals``,
    written as ``oxpix report`` writes it."""
    out = directory / "default_report.json"
    write_report_json(table, residuals, str(out))
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_default_report_json_matches_golden_digest(tmp_path, reports,
                                                   calibrated):
    table, _ = reports
    assert report_digest(table, calibrated.residuals, tmp_path) \
        == GOLDEN_REPORT


def dump_digest(topology: str) -> str:
    """SHA-256 of the dumped config of ``topology`` ("" for no config)."""
    text = f"[pixel]\ntopology = {topology}\n" if topology else ""
    return hashlib.sha256(
        dump_config(parse_config(text)).encode()).hexdigest()


def accepted_keys() -> list[str]:
    return sorted(parse_config("").provenance)


@pytest.mark.parametrize("topology", sorted(GOLDEN_DUMP))
def test_dumped_default_config_matches_golden_digest(topology):
    assert dump_digest(topology) == GOLDEN_DUMP[topology]


def test_accepted_keys_match_golden_list():
    assert accepted_keys() == GOLDEN_KEYS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        for name in GOLDEN:
            print(f"simulate {name}: {simulate_digest(name, Path(work))}")
        for name in GOLDEN_SWEEP:
            print(f"sweep {name}: {sweep_digest(name, Path(work))}")
        print(f"events: {events_digest()}")
        for name, digest in fit_digests(Path(work)).items():
            print(f"{name}: {digest}")
        for seed in GOLDEN_MULTISTART:
            print(f"multistart {seed}: {multistart_digest(seed, Path(work))}")
        for seed in GOLDEN_TWO_RESTARTS:
            print(f"two restarts {seed}: {two_restart_digest(seed)}")
        fit = calibrate(seed=0, restarts=8)
        table = table1_report(fit.oxram, fit.selector)
        print(f"default report: "
              f"{report_digest(table, fit.residuals, Path(work))}")
    for name in GOLDEN_DUMP:
        print(f"dump {name!r}: {dump_digest(name)}")
    print(f"keys: {accepted_keys()}")
