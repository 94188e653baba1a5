"""oxpix: transient simulation of a CMOS 3T pixel with an in-pixel OxRAM module."""

from .calibration import (
    Anchor,
    CalibrationAnchors,
    CalibrationResult,
    calibrate,
    predict_anchor,
)
from .devices import (
    MosfetParams,
    Orientation,
    OxRamParams,
    OxRamState,
    PhotodiodeParams,
    gap_velocity,
    oxram_current,
    read_resistance,
    selector_current,
    state_from_resistance,
)
from .defaults import default_config, default_gate_waveform, vg_for_current
from .errors import (
    CalibrationError,
    ConfigError,
    InvalidInputError,
    OutOfRangeError,
    OxpixError,
    SolverError,
    UnsupportedOperationError,
)
from .events import Event, EventKind
from .experiments import (
    DrReport,
    ReadableWindow,
    SweepResult,
    SweepRow,
    SweepSpec,
    gain_factor,
    gain_factor_curve,
    operating_dr,
    readable_window_bounds,
    run_sweep,
    summarize_sweep,
    table1_report,
)
from .pixel import (
    GateWaveform,
    PixelConfig,
    Stimulus,
    Topology,
    assemble_derivative,
    build_vg_waveform,
    preprogram,
)
from .solver import (
    SolverOptions,
    TransientTrace,
    charge_balance_error,
    integrate,
)

__version__ = "0.1.0"

__all__ = [
    "Anchor", "CalibrationAnchors", "CalibrationResult", "calibrate",
    "predict_anchor", "MosfetParams", "Orientation", "OxRamParams",
    "OxRamState", "PhotodiodeParams", "gap_velocity", "oxram_current",
    "read_resistance", "selector_current", "state_from_resistance",
    "default_config", "default_gate_waveform", "vg_for_current",
    "CalibrationError", "ConfigError", "InvalidInputError", "OutOfRangeError",
    "OxpixError", "SolverError", "UnsupportedOperationError",
    "DrReport", "ReadableWindow", "SweepResult", "SweepRow", "SweepSpec",
    "gain_factor", "gain_factor_curve", "operating_dr",
    "readable_window_bounds", "run_sweep", "summarize_sweep", "table1_report",
    "GateWaveform", "PixelConfig", "Stimulus", "Topology",
    "assemble_derivative", "build_vg_waveform", "preprogram",
    "Event", "EventKind", "SolverOptions", "TransientTrace",
    "charge_balance_error", "integrate",
]
