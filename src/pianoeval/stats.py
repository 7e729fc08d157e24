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
from dataclasses import asdict, astuple, dataclass, fields
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


_PRF_FIELDS = ("frame", "note_offset", "note_offset_velocity")

REPORT_METRIC_COLUMNS = [f"{name}_{f.name}" for name in _PRF_FIELDS for f in fields(PRF)] + list(METRIC_NAMES)


def _report_values(report: MetricReport) -> dict[str, Optional[float]]:
    parts = [getattr(report, name) for name in _PRF_FIELDS] + [report.musical]
    return dict(zip(REPORT_METRIC_COLUMNS, (v for part in parts for v in astuple(part))))


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
        members = [_report_values(r) for r in grouped[key]]
        row: dict = dict(zip(group_by, key))
        row["count"] = len(members)
        for column in REPORT_METRIC_COLUMNS:
            defined = [values[column] for values in members if values[column] is not None]
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


def emit(payload, fmt: str = "csv") -> bytes:
    """Serialize reports (or an aggregate table) to CSV or JSON bytes.

    CSV uses a header row, dot decimals at 6 places and the literal "NA"
    for undefined values; a report row is pair_id, the sorted tag keys (""
    where a report lacks one) and REPORT_METRIC_COLUMNS. JSON keys are the
    dataclass fields in declaration order, with null for undefined.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    is_reports = all(isinstance(x, MetricReport) for x in payload)
    if fmt == "json":
        obj = [asdict(r) for r in payload] if is_reports else list(payload)
        return json.dumps(obj, indent=2).encode()
    if is_reports:
        tag_keys = sorted({k for r in payload for k in r.tags})
        header = ["pair_id", *tag_keys, *REPORT_METRIC_COLUMNS]
        rows = [
            {"pair_id": r.pair_id, **{k: r.tags.get(k, "") for k in tag_keys}, **_report_values(r)}
            for r in payload
        ]
    else:  # aggregate rows; an empty payload took the report branch
        header, rows = list(payload[0]), payload
    return csv_text(header, ([_format_cell(row[c]) for c in header] for row in rows)).encode()


def parse_reports_json(data: bytes) -> list[MetricReport]:
    """Inverse of emit(..., "json") for report lists."""
    return [
        MetricReport(
            pair_id=item["pair_id"],
            **{name: PRF(**item[name]) for name in _PRF_FIELDS},
            musical=MusicalMetrics(**item["musical"]),
            tags=dict(item["tags"]),
        )
        for item in json.loads(data.decode())
    ]
