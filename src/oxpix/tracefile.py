"""On-disk formats and the one file writer: trace CSV, sweep CSV and JSON."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .errors import ConfigError, OxpixError
from .experiments import DrReport
from .solver import TransientTrace

# numpy is imported where arrays are built: a warm report never loads it.
if TYPE_CHECKING:
    import numpy as np

CSV_HEADER = "t_s,vpd_V,i_ox_A,gap_nm,event"
REPORT_SCHEMA = 1


@contextmanager
def _replacing(path: str, what: str):
    """A text file that replaces ``path`` when the block ends without error.
    It is written beside ``path``, fsynced and renamed over it, so a reader
    sees the old file or the whole new one, with the mode ``open(path, "w")``
    gives a new file.  An OSError is raised as an OxpixError naming it."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".oxpix-", suffix=".tmp")
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OxpixError(f"cannot write {what} to {path!r}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def write_json(payload: dict, path: str, what: str) -> None:
    """``payload`` as JSON: indented, keys sorted, newline-terminated."""
    with _replacing(path, what) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace_csv(trace: TransientTrace, path: str) -> None:
    """One row per sample; 17 significant digits so values round-trip
    bitwise.  The event column holds the kind of each event whose first
    sample at or after the event time (or the last sample) is this one,
    joined by ``;``, otherwise it is empty.
    """
    import numpy as np
    labels = [[] for _ in trace.t]
    for event in trace.events:
        idx = int(np.searchsorted(trace.t, event.t_event, side="left"))
        labels[min(idx, len(labels) - 1)].append(event.kind.value)
    with _replacing(path, "trace") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, v, i, g, label in zip(trace.t, trace.vpd, trace.i_ox,
                                     trace.gap, labels):
            fh.write(f"{t:.16e},{v:.16e},{i:.16e},{g:.16e},"
                     f"{';'.join(label)}\n")


@dataclass
class TraceFile:
    t: np.ndarray
    vpd: np.ndarray
    i_ox: np.ndarray
    gap: np.ndarray
    events: list[tuple[float, str]]


def read_trace_csv(path: str) -> TraceFile:
    import numpy as np
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != CSV_HEADER:
                raise ConfigError(
                    f"{path}: unexpected header {header!r}")
            cols = ([], [], [], [])
            events = []
            for no, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(",")
                if len(parts) != 5:
                    raise ConfigError(f"{path}:{no}: expected 5 columns")
                for col, text in zip(cols, parts[:4]):
                    try:
                        col.append(float(text))
                    except ValueError:
                        raise ConfigError(f"{path}:{no}: cannot parse number"
                                          f" {text!r}") from None
                if parts[4]:
                    events += [(cols[0][-1], kind)
                               for kind in parts[4].split(";")]
    except OSError as exc:
        raise OxpixError(f"cannot read trace from {path!r}: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"cannot read trace from {path!r}: not UTF-8 text"
                          ) from None
    return TraceFile(*(np.asarray(c) for c in cols), events=events)


def report_row(report: DrReport, residuals: Optional[dict] = None) -> dict:
    return {
        "i_exp_min_A": report.i_exp_min,
        "i_exp_max_A": report.i_exp_max,
        "operating_dr_db": report.operating_dr_db,
        "relative_improvement_db": report.relative_improvement_db,
        "events_summary": dict(sorted(report.events_summary.items())),
        "calibration_residuals": residuals or {},
    }


def write_report_json(reports: dict[str, DrReport], residuals: dict,
                      path: str) -> None:
    payload = {"schema": REPORT_SCHEMA}
    for label, report in reports.items():
        payload[label] = report_row(report, residuals)
    write_json(payload, path, "report")


def write_sweep_csv(rows, path: str) -> None:
    """Per-point sweep table: exposure, final level, swing, events."""
    with _replacing(path, "sweep") as fh:
        fh.write("i_exp_A,final_vpd_V,swing_V,events,error\n")
        for r in rows:
            events = ";".join(r.events)
            err = r.error or ""
            fh.write(f"{r.i_exp:.16e},{r.final_vpd:.16e},"
                     f"{r.swing:.16e},{events},{err}\n")
