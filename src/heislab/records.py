"""Verification records and their deterministic CSV serialization.

One record captures one inequality check: both sides, statistical errors,
the margin, and the pass flag.  CSV bodies are byte-deterministic: floats are
written with 17 significant digits and missing values as empty fields.  Every
CSV file of a run is written by ``csv_text``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

__all__ = ["VerificationRecord", "csv_text", "records_to_csv", "summarize"]

CSV_COLUMNS = [
    "record_id", "preset", "rank", "T", "p_or_q", "x", "y",
    "lhs", "rhs", "stderr_lhs", "stderr_rhs", "margin", "pass",
]


@dataclass
class VerificationRecord:
    record_id: str
    preset: str = ""
    rank: int = 0
    T: float = math.nan
    p_or_q: float = math.nan
    x: str = ""
    y: str = ""
    lhs: float = math.nan
    rhs: float = math.nan
    stderr_lhs: float = 0.0
    stderr_rhs: float = 0.0
    margin: float = math.nan
    passed: bool = False
    detail: dict = field(default_factory=dict)

    def row(self):
        return [
            self.record_id,
            self.preset,
            str(self.rank),
            fmt_float(self.T),
            fmt_float(self.p_or_q),
            self.x,
            self.y,
            fmt_float(self.lhs),
            fmt_float(self.rhs),
            fmt_float(self.stderr_lhs),
            fmt_float(self.stderr_rhs),
            fmt_float(self.margin),
            "true" if self.passed else "false",
        ]


def fmt_float(v) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{float(v):.17g}"


def coords_str(values) -> str:
    """Compact space-separated coordinate string for the x/y record fields."""
    return " ".join(f"{float(v):.17g}" for v in values)


def csv_text(header, rows) -> str:
    """CSV text of a header and rows of strings, each line ending in "\n"; a
    field is quoted only when it holds a comma, a quote or a line break."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def records_to_csv(records) -> str:
    return csv_text(CSV_COLUMNS, (rec.row() for rec in records))


def summarize(records) -> dict:
    failures = [r.record_id for r in records if not r.passed]
    return {
        "records": len(records),
        "passed": len(records) - len(failures),
        "failed": len(failures),
        "failures": failures,
    }
