"""Plain-text run configuration: sectioned key = value with SI suffixes.

Example::

    [pixel]
    topology = case_i
    init_resistance = 1.25Mohm

    [photodiode]
    c_pd = 10fF
    texp = 9.5us

Unknown keys are rejected with their line number; missing keys take the
documented defaults.  Suffixes are case-sensitive; lengths are native
nanometres, rates native nm/s, and dimensionless quantities take bare
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import defaults as dflt
from .calibration import Anchor, CalibrationAnchors
from .devices import MosfetParams, OxRamParams, PhotodiodeParams
from .errors import KEY_OF, ConfigError
from .experiments import ReadableWindow, SweepSpec
from .pixel import VG_RAIL, GateWaveform, PixelConfig, Topology
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

_FIELD_OF = {key: name for name, key in KEY_OF.items()}


def _keys(obj, names=None) -> dict[str, object]:
    """Config key -> value of the fields of a dataclass instance, or ->
    default of the fields of a dataclass; all fields, or those in ``names``."""
    return {KEY_OF.get(f.name, f.name): getattr(obj, f.name)
            for f in fields(obj) if names is None or f.name in names}


def _tol_key(quantity: str) -> str:
    # The tolerance of 'i_reset_peak' is keyed 'i_reset_tol'.
    return quantity.removesuffix("_peak") + "_tol"


def _anchor_keys(anchors: CalibrationAnchors) -> dict[str, float]:
    """Config key -> value of each anchor's value and tolerance."""
    keys = {}
    for a in anchors.anchors:
        keys[a.quantity] = a.value
        keys[_tol_key(a.quantity)] = a.tolerance
    return keys


# Section -> config key -> default, in the order the dump writes them.  A
# default's type is its key's: str, bool, int, or else a float quantity.
# Every section but [pixel] and [calibration] is a dataclass's fields;
# [calibration] is the default anchors' values and tolerances.  A [pixel]
# default of None is the topology's operating point from ``default_config``;
# [pixel] vrst is [photodiode] vrst.
_SCHEMA: dict[str, dict[str, object]] = {
    "photodiode": _keys(PhotodiodeParams),
    "oxram": dict(sorted(_keys(OxRamParams).items())),
    "selector": _keys(MosfetParams),
    "pixel": {"topology": Topology.BARE_3T.value, "init_resistance": None,
              "vs_level": None, "vg_prog_level": None, "vg_prog_until": None,
              "vg_level": None, "vrst": None},
    "sweep": _keys(SweepSpec, ("i_min", "i_max", "points_per_decade")),
    "solver": _keys(SolverOptions),
    "window": _keys(ReadableWindow),
    "calibration": _anchor_keys(CalibrationAnchors()),
}

# Anchor values and tolerances: each residual divides by both.
_POSITIVE_KEYS = frozenset(_anchor_keys(CalibrationAnchors()))
# Integer keys and their smallest allowed value.
_INT_KEYS = {"points_per_decade": 1, "noise_seed": 0}
_BOOL_WORDS = {"1": True, "true": True, "yes": True,
               "0": False, "false": False, "no": False}


def parse_quantity(text: str, key: str = "?", line_no: int = 0) -> float:
    """Parse '10fF', '9.5us', '1.25Mohm' or a bare number."""
    where = f"line {line_no}: " if line_no else ""  # 0: not from a file
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
            f"{where}cannot parse number in {key} = {text!r}") from None
    if suffix:
        if suffix not in _SUFFIX:
            raise ConfigError(
                f"{where}unknown unit suffix {suffix!r} in "
                f"{key} = {text!r}")
        value *= _SUFFIX[suffix]
    if not math.isfinite(value):
        raise ConfigError(f"{where}{key} = {text!r} is not finite")
    return value


@dataclass
class RunSetup:
    """Everything a batch run needs; ``raw`` holds the keys the text gave."""

    pixel: PixelConfig
    sweep_i_min: float
    sweep_i_max: float
    points_per_decade: int
    solver: SolverOptions
    window: ReadableWindow
    anchors: CalibrationAnchors
    raw: dict[str, dict[str, object]] = field(default_factory=dict)


def _parse(default: object, text: str, key: str, line_no: int):
    """Parse ``text`` as the type of the key's ``default``.  An integer must
    be integral and at least its key's minimum; an anchor value or
    tolerance must be above zero."""
    if isinstance(default, str):
        return text
    if isinstance(default, bool):
        if text.lower() not in _BOOL_WORDS:
            raise ConfigError(
                f"line {line_no}: {key} = {text!r} is not one of "
                "1/0/true/false/yes/no")
        return _BOOL_WORDS[text.lower()]
    value = parse_quantity(text, key, line_no)
    if key in _POSITIVE_KEYS and not value > 0.0:
        raise ConfigError(f"line {line_no}: {key} = {text!r} must be > 0")
    if isinstance(default, int):
        if not value.is_integer():
            raise ConfigError(
                f"line {line_no}: {key} = {text!r} is not an integer")
        if value < _INT_KEYS[key]:
            raise ConfigError(
                f"line {line_no}: {key} = {text!r} must be >= {_INT_KEYS[key]}")
        return int(value)
    return value


def _read_sections(text: str) -> dict[str, dict[str, object]]:
    """Section -> key -> parsed value of every key given, parsed in line
    order, so the first faulty line is the one reported."""
    given: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    section = None
    for no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {no}: unknown section [{section}]")
            continue
        if "=" not in body:
            raise ConfigError(f"line {no}: expected key = value, got {body!r}")
        if section is None:
            raise ConfigError(f"line {no}: key outside any [section]")
        key, value = (part.strip() for part in body.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {no}: unknown key {key!r} in [{section}]")
        if key in given[section]:
            raise ConfigError(f"line {no}: duplicate key {key!r}")
        given[section][key] = _parse(_SCHEMA[section][key], value, key, no)
    return given


def parse_config(source: str, is_path: bool = False) -> RunSetup:
    """Parse text (or a file when ``is_path``) into validated run objects."""
    try:
        text = Path(source).read_text(encoding="utf-8") if is_path else source
    except OSError as exc:
        raise ConfigError(f"cannot read {source!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read {source!r}: not UTF-8 text") from None
    given = _read_sections(text)
    try:
        return _build_setup(given)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from exc


def _build_setup(given: dict) -> RunSetup:
    """Build each object from the keys given; its class supplies the rest."""
    pxv = given["pixel"]
    topo_name = pxv.get("topology", _SCHEMA["pixel"]["topology"])
    topology = _TOPOLOGIES.get(topo_name)
    if topology is None:
        raise ConfigError(
            f"unknown topology {topo_name!r}; expected one of "
            f"{sorted(_TOPOLOGIES)}")

    # The reset level may be stated with the photodiode constants or with
    # the pixel-level keys; both name the same quantity.
    pdv = {"vrst": dflt.default_vrst(topology), **given["photodiode"]}
    if "vrst" in pxv:
        if "vrst" in given["photodiode"]:
            raise ConfigError("vrst given in both [photodiode] and [pixel]")
        pdv["vrst"] = pxv["vrst"]
    pd = PhotodiodeParams(**pdv)
    oxram = OxRamParams(**given["oxram"])
    selector = MosfetParams(**{_FIELD_OF.get(key, key): value
                               for key, value in given["selector"].items()})

    vg_waveform = None
    programmed = "vg_prog_level" in pxv or "vg_prog_until" in pxv
    if programmed and "vg_level" not in pxv:
        raise ConfigError("vg_prog_* keys require vg_level")
    if programmed:
        prog_level = pxv.get("vg_prog_level", VG_RAIL)
        prog_until = pxv.get("vg_prog_until", pd.trst)
        vg_waveform = GateWaveform(((0.0, prog_until, prog_level),
                                    (prog_until, pd.t_end, pxv["vg_level"])))
    elif "vg_level" in pxv:
        vg_waveform = GateWaveform(((0.0, pd.t_end, pxv["vg_level"]),))

    pixel = dflt.default_config(
        topology, pd=pd, oxram=oxram, selector=selector,
        vg_waveform=vg_waveform, init_resistance=pxv.get("init_resistance"))
    if "vs_level" in pxv:
        pixel = replace(pixel, vs_level=pxv["vs_level"])

    sweep = {**_SCHEMA["sweep"], **given["sweep"]}
    cal = {**_SCHEMA["calibration"], **given["calibration"]}
    anchors = CalibrationAnchors(tuple(
        Anchor(a.quantity, cal[a.quantity], cal[_tol_key(a.quantity)])
        for a in CalibrationAnchors().anchors))
    return RunSetup(
        pixel=pixel, sweep_i_min=sweep["i_min"], sweep_i_max=sweep["i_max"],
        points_per_decade=sweep["points_per_decade"],
        solver=SolverOptions(**given["solver"]),
        window=ReadableWindow(**given["window"]), anchors=anchors, raw=given)


def _format(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def dump_config(setup: RunSetup) -> str:
    """Serialize a setup back to config text; re-parsing is value-identical."""
    pix = setup.pixel
    pixel = {"topology": pix.topology.value, "vs_level": pix.vs_level}
    # The initial state is written as the resistance it was read back from,
    # so re-parsing reruns the same bisection.
    if "init_resistance" in setup.raw.get("pixel", {}):
        pixel["init_resistance"] = setup.raw["pixel"]["init_resistance"]
    if pix.is_hybrid():
        segs = pix.vg_waveform.segments
        if len(segs) == 2:
            pixel.update(vg_prog_level=segs[0][2], vg_prog_until=segs[0][1])
        pixel["vg_level"] = segs[-1][2]
    current = {
        "photodiode": _keys(pix.pd),
        "oxram": _keys(pix.oxram) if pix.is_hybrid() else {},
        "selector": _keys(pix.selector),
        "pixel": pixel,
        "sweep": {"i_min": setup.sweep_i_min, "i_max": setup.sweep_i_max,
                  "points_per_decade": setup.points_per_decade},
        "solver": _keys(setup.solver),
        "window": _keys(setup.window),
        "calibration": _anchor_keys(setup.anchors),
    }
    lines = []
    for section, keys in _SCHEMA.items():
        if current[section]:
            lines.append(f"[{section}]")
            lines += [f"{key} = {_format(current[section][key])}"
                      for key in keys if key in current[section]]
            lines.append("")
    return "\n".join(lines)
