"""Group statistics and report serialization.

Kruskal-Wallis rank ANOVA decides whether metric distributions differ
across groups (models, audio conditions, dataset splits). Rank arithmetic
runs on exact rationals so the H statistic is a single correctly rounded
float, not an accumulation of rounding error. Reports serialize to CSV
(plot-ready) and JSON (lossless round trip).
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from scipy.special import gammaincc

from .ir_metrics import PRF
from .musical import METRIC_NAMES, MusicalMetrics

__all__ = [
    "KWResult",
    "MetricReport",
    "REPORT_METRIC_COLUMNS",
    "kruskal_wallis",
    "chi_square_sf",
    "aggregate",
    "csv_text",
    "emit",
    "parse_reports_json",
]

ALPHA = 0.05


@dataclass(frozen=True)
class KWResult:
    h: float
    df: int
    p: float

    @property
    def significant(self) -> bool:
        return self.p < ALPHA


def chi_square_sf(x: float, df: int) -> float:
    """Upper tail P(X >= x) of the chi-square distribution."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if df < 1:
        raise ValueError("df must be at least 1")
    return float(gammaincc(df / 2.0, x / 2.0))


def _midranks(pooled: Sequence[float]) -> tuple[dict[float, Fraction], list[int]]:
    """Mid-rank per distinct value, plus tie-group sizes."""
    counts = Counter(pooled)
    ranks: dict[float, Fraction] = {}
    ties = []
    position = 0
    for value in sorted(counts):
        t = counts[value]
        # t tied values occupy ranks position+1 .. position+t; share the mean
        ranks[value] = Fraction(2 * position + t + 1, 2)
        ties.append(t)
        position += t
    return ranks, ties


def kruskal_wallis(groups: Sequence[Sequence[float]]) -> KWResult:
    """Kruskal-Wallis rank ANOVA with mid-rank ties and tie correction.

    H = 12/(n(n+1)) * sum(R_g^2 / n_g) - 3(n+1) over pooled mid-ranks,
    then H' = H / (1 - sum(t^3 - t)/(n^3 - n)). All-identical data has a
    zero correction denominator and scores H' = 0, p = 1 by convention.
    The p-value is the chi-square upper tail at df = groups - 1.
    """
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    for g in groups:
        if len(g) == 0:
            raise ValueError("groups must be nonempty")
    pooled = [float(v) for g in groups for v in g]
    n = len(pooled)
    ranks, ties = _midranks(pooled)
    df = len(groups) - 1

    rank_term = sum(
        Fraction(sum(ranks[float(v)] for v in g)) ** 2 / len(g) for g in groups
    )
    h = Fraction(12, n * (n + 1)) * rank_term - 3 * (n + 1)
    correction = 1 - Fraction(sum(t**3 - t for t in ties), n**3 - n)
    if correction == 0:  # every pooled value identical
        return KWResult(0.0, df, 1.0)
    h_corrected = float(h / correction)
    return KWResult(h_corrected, df, chi_square_sf(h_corrected, df))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricReport:
    """Full evaluation record for one ground-truth/estimate pair."""

    pair_id: str
    frame: PRF
    note_offset: PRF
    note_offset_velocity: PRF
    musical: MusicalMetrics
    tags: dict[str, str]


def _prf_columns(name: str) -> list[str]:
    return [f"{name}_precision", f"{name}_recall", f"{name}_f1"]


REPORT_METRIC_COLUMNS = (
    _prf_columns("frame")
    + _prf_columns("note_offset")
    + _prf_columns("note_offset_velocity")
    + list(METRIC_NAMES)
)


def _report_values(report: MetricReport) -> dict[str, Optional[float]]:
    values: dict[str, Optional[float]] = {}
    for name, prf in (
        ("frame", report.frame),
        ("note_offset", report.note_offset),
        ("note_offset_velocity", report.note_offset_velocity),
    ):
        values[f"{name}_precision"] = prf.precision
        values[f"{name}_recall"] = prf.recall
        values[f"{name}_f1"] = prf.f1
    values.update(report.musical.as_dict())
    return values


def _tag_keys(reports: Sequence[MetricReport]) -> list[str]:
    keys: set[str] = set()
    for r in reports:
        keys.update(r.tags)
    return sorted(keys)


def aggregate(reports: Sequence[MetricReport], group_by: Sequence[str]) -> list[dict]:
    """Mean of every metric per group of tag values.

    Undefined musical metrics are left out of their mean (never
    zero-filled) and the per-metric exclusion count is reported alongside.
    Rows come out sorted by group key.
    """
    for key in group_by:
        for r in reports:
            if key not in r.tags:
                raise ValueError(f"unknown tag key {key!r} (pair {r.pair_id})")
    grouped: dict[tuple[str, ...], list[MetricReport]] = {}
    for r in reports:
        grouped.setdefault(tuple(r.tags[k] for k in group_by), []).append(r)

    rows = []
    for key in sorted(grouped):
        members = grouped[key]
        row: dict = dict(zip(group_by, key))
        row["count"] = len(members)
        for column in REPORT_METRIC_COLUMNS:
            defined = [
                v for v in (_report_values(r)[column] for r in members) if v is not None
            ]
            row[column] = sum(defined) / len(defined) if defined else None
            if column in METRIC_NAMES:
                row[f"{column}_excluded"] = len(members) - len(defined)
        rows.append(row)
    return rows


def _format_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A header row plus data rows as CSV text with "\\n" line ends.

    Cells are quoted only when they hold a comma, quote or line break.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _reports_csv(reports: Sequence[MetricReport]) -> str:
    tag_keys = _tag_keys(reports)
    rows = []
    for r in reports:
        values = _report_values(r)
        rows.append(
            [r.pair_id]
            + [r.tags.get(k, "") for k in tag_keys]
            + [_format_cell(values[c]) for c in REPORT_METRIC_COLUMNS]
        )
    return csv_text(["pair_id", *tag_keys, *REPORT_METRIC_COLUMNS], rows)


def _aggregate_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return ""
    header = list(rows[0].keys())
    return csv_text(header, ([_format_cell(row[c]) for c in header] for row in rows))


def _report_to_json_obj(report: MetricReport) -> dict:
    def prf(p: PRF) -> dict:
        return {"precision": p.precision, "recall": p.recall, "f1": p.f1}

    return {
        "pair_id": report.pair_id,
        "frame": prf(report.frame),
        "note_offset": prf(report.note_offset),
        "note_offset_velocity": prf(report.note_offset_velocity),
        "musical": report.musical.as_dict(),
        "tags": dict(report.tags),
    }


def emit(payload, fmt: str = "csv") -> bytes:
    """Serialize reports (or an aggregate table) to CSV or JSON bytes.

    CSV uses a header row, dot decimals at 6 places and the literal "NA"
    for undefined values; JSON mirrors the field names exactly, with null
    for undefined. Column and key order is stable across runs.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    is_reports = all(isinstance(x, MetricReport) for x in payload)
    if fmt == "csv":
        text = _reports_csv(payload) if is_reports else _aggregate_csv(payload)
        return text.encode()
    if is_reports:
        obj = [_report_to_json_obj(r) for r in payload]
    else:
        obj = list(payload)
    return json.dumps(obj, indent=2, sort_keys=False).encode()


def parse_reports_json(data: bytes) -> list[MetricReport]:
    """Inverse of emit(..., "json") for report lists."""

    def prf(obj: dict) -> PRF:
        return PRF(obj["precision"], obj["recall"], obj["f1"])

    reports = []
    for item in json.loads(data.decode()):
        reports.append(
            MetricReport(
                pair_id=item["pair_id"],
                frame=prf(item["frame"]),
                note_offset=prf(item["note_offset"]),
                note_offset_velocity=prf(item["note_offset_velocity"]),
                musical=MusicalMetrics(**item["musical"]),
                tags=dict(item["tags"]),
            )
        )
    return reports
