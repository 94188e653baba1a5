"""On-disk formats and the one file writer: trace CSV, sweep CSV and JSON."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from typing import Optional

from .errors import OxpixError
from .experiments import DrReport
from .solver import TransientTrace

CSV_HEADER = "t_s,vpd_V,i_ox_A,gap_nm,event"
REPORT_SCHEMA = 1
# Trace rows converted to Python floats at a time: about 1 MB of them, so a
# long trace is not held twice.
_CSV_ROWS = 8192


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
    n = len(trace.t)
    labels: dict[int, list[str]] = {}
    for event in trace.events:
        idx = int(np.searchsorted(trace.t, event.t_event, side="left"))
        labels.setdefault(min(idx, n - 1), []).append(event.kind.value)
    with _replacing(path, "trace") as fh:
        fh.write(CSV_HEADER + "\n")
        # Python floats from ``tolist`` format faster than numpy scalars,
        # to the same text.
        for start in range(0, n, _CSV_ROWS):
            stop = start + _CSV_ROWS
            lines = ["%.16e,%.16e,%.16e,%.16e,\n" % row for row in zip(
                trace.t[start:stop].tolist(), trace.vpd[start:stop].tolist(),
                trace.i_ox[start:stop].tolist(),
                trace.gap[start:stop].tolist())]
            for k, kinds in labels.items():
                if start <= k < stop:
                    lines[k - start] = lines[k - start][:-1] \
                        + ";".join(kinds) + "\n"
            fh.writelines(lines)


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
