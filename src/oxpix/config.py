"""Plain-text run configuration: sectioned key = value with SI suffixes.

Example::

    [pixel]
    topology = case_i
    init_resistance = 1.25Mohm

    [photodiode]
    c_pd = 10fF
    texp = 9.5us

Unknown keys are rejected with their line number; missing keys take the
documented defaults and are listed in the provenance map.  Suffixes are
case-sensitive; lengths are native nanometres, rates native nm/s, and
dimensionless quantities take bare numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import defaults as dflt
from .calibration import (
    ANCHOR_I_RESET,
    ANCHOR_R_RESET,
    ANCHOR_R_SET,
    ANCHOR_T_RESET,
    Anchor,
    CalibrationAnchors,
)
from .devices import MosfetParams, OxRamParams, PhotodiodeParams
from .errors import ConfigError
from .experiments import ReadableWindow
from .pixel import GateWaveform, PixelConfig, Topology
from .solver import SolverOptions

_SUFFIX = {
    "fA": 1e-15, "pA": 1e-12, "nA": 1e-9, "uA": 1e-6, "mA": 1e-3, "A": 1.0,
    "fF": 1e-15, "pF": 1e-12, "F": 1.0,
    "ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0,
    "mV": 1e-3, "V": 1.0,
    "kohm": 1e3, "Mohm": 1e6, "Gohm": 1e9,
    "nm": 1.0,
}

_TOPOLOGIES = {t.value: t for t in Topology}

# section -> key -> target field; values are parsed as floats unless noted.
_SCHEMA = {
    "photodiode": {"c_pd", "vrst", "fwc_electrons", "reset_noise_electrons",
                   "texp", "trst"},
    "oxram": {"oxide_thickness_L", "gap_min", "gap_max", "cf_decay_a",
              "cf_field_b", "ox_decay_c", "ox_field_d", "i0_cf", "i0_ox",
              "growth_rate_g0", "rupture_rate_r0", "growth_field_v0",
              "rupture_field_v1", "c_pox"},
    "selector": {"vth", "kprime", "lambda"},
    "pixel": {"topology", "init_resistance", "vg_level", "vg_prog_level",
              "vg_prog_until", "vs_level", "vrst"},
    "sweep": {"i_min", "i_max", "points_per_decade"},
    "solver": {"rel_tol", "abs_tol_v", "abs_tol_gap", "max_step", "min_step",
               "max_trace_points", "reset_noise", "noise_seed"},
    "window": {"min_detect", "max_swing", "sense_margin"},
    "calibration": {"r_set", "r_set_tol", "r_reset", "r_reset_tol",
                    "t_reset", "t_reset_tol", "i_reset_peak", "i_reset_tol",
                    "seed", "restarts"},
}

_INT_KEYS = {"points_per_decade", "max_trace_points", "noise_seed", "seed",
             "restarts"}
_BOOL_KEYS = {"reset_noise"}
_STR_KEYS = {"topology"}


def parse_quantity(text: str, key: str = "?", line_no: int = 0) -> float:
    """Parse '10fF', '9.5us', '1.25Mohm' or a bare number."""
    raw = text.strip()
    idx = len(raw)
    while idx > 0 and not (raw[idx - 1].isdigit() or raw[idx - 1] == "."):
        idx -= 1
    number, suffix = raw[:idx], raw[idx:].strip()
    # Exponents like 1e-9 end in digits, so splitting on the last
    # non-numeric run is safe; a trailing 'e' would land in the suffix.
    try:
        value = float(number)
    except ValueError:
        raise ConfigError(
            f"line {line_no}: cannot parse number in {key} = {text!r}") from None
    if not suffix:
        return value
    if suffix not in _SUFFIX:
        raise ConfigError(
            f"line {line_no}: unknown unit suffix {suffix!r} in "
            f"{key} = {text!r}")
    return value * _SUFFIX[suffix]


@dataclass
class RunSetup:
    """Everything a batch run needs, with provenance of defaulted keys."""

    pixel: PixelConfig
    sweep_i_min: float
    sweep_i_max: float
    points_per_decade: int
    solver: SolverOptions
    window: ReadableWindow
    anchors: CalibrationAnchors
    cal_seed: int
    cal_restarts: int
    provenance: dict[str, str] = field(default_factory=dict)
    raw: dict[str, dict[str, float | str]] = field(default_factory=dict)


def _read_sections(text: str) -> tuple[dict, dict]:
    sections: dict[str, dict[str, str]] = {}
    lines_of: dict[tuple[str, str], int] = {}
    section = None
    for no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {no}: unknown section [{section}]")
            sections.setdefault(section, {})
            continue
        if "=" not in body:
            raise ConfigError(f"line {no}: expected key = value, got {body!r}")
        if section is None:
            raise ConfigError(f"line {no}: key outside any [section]")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {no}: unknown key {key!r} in [{section}]")
        if key in sections[section]:
            raise ConfigError(f"line {no}: duplicate key {key!r}")
        sections[section][key] = value
        lines_of[(section, key)] = no
    return sections, lines_of


def parse_config(source: str, is_path: bool = False) -> RunSetup:
    """Parse text (or a file when ``is_path``) into validated run objects."""
    if is_path:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    sections, lines_of = _read_sections(text)

    values: dict[str, dict] = {}
    provenance: dict[str, str] = {}
    for section, keys in _SCHEMA.items():
        values[section] = {}
        present = sections.get(section, {})
        for key in sorted(keys):
            if key in present:
                no = lines_of[(section, key)]
                raw = present[key]
                if key in _STR_KEYS:
                    values[section][key] = raw.strip()
                elif key in _BOOL_KEYS:
                    values[section][key] = raw.strip().lower() in ("1", "true", "yes")
                elif key in _INT_KEYS:
                    values[section][key] = int(parse_quantity(raw, key, no))
                else:
                    values[section][key] = parse_quantity(raw, key, no)
                provenance[f"{section}.{key}"] = "file"
            else:
                provenance[f"{section}.{key}"] = "default"

    return _build_setup(values, provenance)


def _build_setup(values: dict, provenance: dict) -> RunSetup:
    pdv = values["photodiode"]
    topo_name = values["pixel"].get("topology", "bare3t")
    topology = _TOPOLOGIES.get(topo_name)
    if topology is None:
        raise ConfigError(
            f"unknown topology {topo_name!r}; expected one of "
            f"{sorted(_TOPOLOGIES)}")

    # The reset level may be stated with the photodiode constants or with
    # the pixel-level keys; both name the same quantity.
    if "vrst" in pdv and "vrst" in values["pixel"]:
        raise ConfigError("vrst given in both [photodiode] and [pixel]")
    if "vrst" in pdv:
        vrst = pdv["vrst"]
    elif "vrst" in values["pixel"]:
        vrst = values["pixel"]["vrst"]
    else:
        vrst = dflt.VRST_CASE_II if topology is Topology.HYBRID_CASE_II \
            else dflt.VRST_DEFAULT
    try:
        pd = PhotodiodeParams(
            c_pd=pdv.get("c_pd", 1.0e-14), vrst=vrst,
            fwc_electrons=pdv.get("fwc_electrons", 62_500.0),
            reset_noise_electrons=pdv.get("reset_noise_electrons", 28.0),
            texp=pdv.get("texp", 9.5e-6), trst=pdv.get("trst", 0.5e-6))

        oxv = dict(values["oxram"])
        oxram = OxRamParams(**oxv) if oxv else OxRamParams()

        sv = values["selector"]
        selector = MosfetParams(vth=sv.get("vth", 0.5),
                                kprime=sv.get("kprime", 1.3e-4),
                                lam=sv.get("lambda", 0.02))

        pxv = values["pixel"]
        vg_waveform = None
        t_end = pd.trst + pd.texp
        if "vg_level" in pxv:
            level = pxv["vg_level"]
            if "vg_prog_level" in pxv or "vg_prog_until" in pxv:
                prog_level = pxv.get("vg_prog_level", dflt.VG_PROGRAM)
                prog_until = pxv.get("vg_prog_until", pd.trst)
                vg_waveform = GateWaveform((
                    (0.0, prog_until, prog_level), (prog_until, t_end, level)))
            else:
                vg_waveform = GateWaveform(((0.0, t_end, level),))
        elif "vg_prog_level" in pxv or "vg_prog_until" in pxv:
            raise ConfigError("vg_prog_* keys require vg_level")

        pixel = dflt.default_config(
            topology, pd=pd, oxram=oxram, selector=selector,
            vg_waveform=vg_waveform,
            init_resistance=pxv.get("init_resistance"))
        if "vs_level" in pxv:
            pixel = replace(pixel, vs_level=pxv["vs_level"])

        swv = values["sweep"]
        # [solver] keys are SolverOptions field names; it owns the defaults.
        solver = SolverOptions(**values["solver"])

        wv = values["window"]
        base_window = ReadableWindow()
        window = ReadableWindow(
            min_detect=wv.get("min_detect", base_window.min_detect),
            max_swing=wv.get("max_swing", base_window.max_swing),
            sense_margin=wv.get("sense_margin", base_window.sense_margin))

        cv = values["calibration"]
        anchors = CalibrationAnchors((
            Anchor(ANCHOR_R_SET, cv.get("r_set", 1.25e6),
                   cv.get("r_set_tol", 0.20)),
            Anchor(ANCHOR_R_RESET, cv.get("r_reset", 60e9),
                   cv.get("r_reset_tol", 0.20)),
            Anchor(ANCHOR_T_RESET, cv.get("t_reset", 510e-9),
                   cv.get("t_reset_tol", 0.10)),
            Anchor(ANCHOR_I_RESET, cv.get("i_reset_peak", 11e-6),
                   cv.get("i_reset_tol", 0.20)),
        ))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc

    return RunSetup(
        pixel=pixel,
        sweep_i_min=swv.get("i_min", 100e-15),
        sweep_i_max=swv.get("i_max", 10e-9),
        points_per_decade=swv.get("points_per_decade", 12),
        solver=solver, window=window, anchors=anchors,
        cal_seed=cv.get("seed", 0), cal_restarts=cv.get("restarts", 8),
        provenance=provenance, raw=values)


def dump_config(setup: RunSetup) -> str:
    """Serialize a setup back to config text; re-parsing is value-identical."""
    pix = setup.pixel
    pd = pix.pd
    lines = ["[photodiode]"]
    for name in ("c_pd", "vrst", "fwc_electrons", "reset_noise_electrons",
                 "texp", "trst"):
        lines.append(f"{name} = {getattr(pd, name)!r}")
    lines.append("")
    if pix.is_hybrid():
        lines.append("[oxram]")
        ox = pix.oxram
        for name in sorted(_SCHEMA["oxram"]):
            lines.append(f"{name} = {getattr(ox, name)!r}")
        lines.append("")
    lines.append("[selector]")
    lines.append(f"vth = {pix.selector.vth!r}")
    lines.append(f"kprime = {pix.selector.kprime!r}")
    lines.append(f"lambda = {pix.selector.lam!r}")
    lines.append("")
    lines.append("[pixel]")
    lines.append(f"topology = {pix.topology.value}")
    # The initial state is written as the resistance it was read back from,
    # so re-parsing reruns the same bisection.
    init_resistance = setup.raw.get("pixel", {}).get("init_resistance")
    if init_resistance is not None:
        lines.append(f"init_resistance = {init_resistance!r}")
    lines.append(f"vs_level = {pix.vs_level!r}")
    if pix.is_hybrid():
        segs = pix.vg_waveform.segments
        if len(segs) == 2:
            lines.append(f"vg_prog_level = {segs[0][2]!r}")
            lines.append(f"vg_prog_until = {segs[0][1]!r}")
            lines.append(f"vg_level = {segs[1][2]!r}")
        else:
            lines.append(f"vg_level = {segs[0][2]!r}")
    lines.append("")
    lines.append("[sweep]")
    lines.append(f"i_min = {setup.sweep_i_min!r}")
    lines.append(f"i_max = {setup.sweep_i_max!r}")
    lines.append(f"points_per_decade = {setup.points_per_decade}")
    lines.append("")
    lines.append("[solver]")
    opt = setup.solver
    for name in ("rel_tol", "abs_tol_v", "abs_tol_gap", "max_step", "min_step"):
        lines.append(f"{name} = {getattr(opt, name)!r}")
    lines.append(f"max_trace_points = {opt.max_trace_points}")
    lines.append(f"reset_noise = {'true' if opt.reset_noise else 'false'}")
    lines.append(f"noise_seed = {opt.noise_seed}")
    lines.append("")
    lines.append("[window]")
    lines.append(f"min_detect = {setup.window.min_detect!r}")
    lines.append(f"max_swing = {setup.window.max_swing!r}")
    lines.append(f"sense_margin = {setup.window.sense_margin!r}")
    lines.append("")
    lines.append("[calibration]")
    by_q = {a.quantity: a for a in setup.anchors.anchors}
    lines.append(f"r_set = {by_q[ANCHOR_R_SET].value!r}")
    lines.append(f"r_set_tol = {by_q[ANCHOR_R_SET].tolerance!r}")
    lines.append(f"r_reset = {by_q[ANCHOR_R_RESET].value!r}")
    lines.append(f"r_reset_tol = {by_q[ANCHOR_R_RESET].tolerance!r}")
    lines.append(f"t_reset = {by_q[ANCHOR_T_RESET].value!r}")
    lines.append(f"t_reset_tol = {by_q[ANCHOR_T_RESET].tolerance!r}")
    lines.append(f"i_reset_peak = {by_q[ANCHOR_I_RESET].value!r}")
    lines.append(f"i_reset_tol = {by_q[ANCHOR_I_RESET].tolerance!r}")
    lines.append(f"seed = {setup.cal_seed}")
    lines.append(f"restarts = {setup.cal_restarts}")
    lines.append("")
    return "\n".join(lines)
