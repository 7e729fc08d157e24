import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_aggregate, oracle_emit, oracle_parse_reports_json
from pianoeval.ir_metrics import PRF
from pianoeval.musical import METRIC_NAMES, MusicalMetrics
from pianoeval.stats import (
    REPORT_METRIC_COLUMNS,
    MetricReport,
    aggregate,
    chi_square_sf,
    emit,
    kruskal_wallis,
    parse_reports_json,
)


# ---------------------------------------------------------------------------
# Kruskal-Wallis
# ---------------------------------------------------------------------------

def test_kw_fully_separated_groups_hand_value():
    result = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    # ranks are 1..9 with no ties; H = 12/90 * (6^2+15^2+24^2)/3 - 30
    assert result.h == 7.2
    assert result.df == 2
    assert result.p == pytest.approx(math.exp(-3.6), abs=1e-12)
    assert result.significant


def test_kw_identical_groups_are_insignificant():
    result = kruskal_wallis([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert result.h == pytest.approx(0.0, abs=1e-12)
    assert result.p == pytest.approx(1.0, abs=1e-9)
    assert not result.significant


def test_kw_all_equal_values_scores_zero():
    result = kruskal_wallis([[5.0, 5.0], [5.0, 5.0, 5.0]])
    assert (result.h, result.p) == (0.0, 1.0)


def test_kw_input_validation():
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(ValueError):
        kruskal_wallis([[1.0], []])


def test_kw_tied_midranks_hand_example():
    # pooled 1,2,2,3: ranks 1, 2.5, 2.5, 4; n=4
    # R1 = 1 + 2.5 = 3.5, R2 = 2.5 + 4 = 6.5
    # H = 12/20 * (3.5^2/2 + 6.5^2/2) - 15 = 0.6 * 27.25 - 15 = 1.35
    # tie correction: 1 - (8-2)/(64-4) = 0.9 -> H' = 1.5
    result = kruskal_wallis([[1.0, 2.0], [2.0, 3.0]])
    assert result.h == pytest.approx(1.5, abs=1e-12)


def test_kw_invariant_under_monotone_transform():
    rng = np.random.default_rng(83)
    for _ in range(10):
        groups = [list(rng.normal(loc, 1.0, size=6)) for loc in (0.0, 0.5, 2.0)]
        base = kruskal_wallis(groups)
        mapped = kruskal_wallis([[math.exp(v) for v in g] for g in groups])
        assert mapped.h == pytest.approx(base.h, abs=1e-9)
        assert mapped.p == pytest.approx(base.p, abs=1e-9)


def test_kw_h_grows_with_separation():
    rng = np.random.default_rng(89)
    base = list(rng.normal(0, 1, 8))
    hs = []
    for shift in (0.0, 1.0, 4.0, 16.0):
        groups = [base, [v + shift for v in base]]
        hs.append(kruskal_wallis(groups).h)
    assert hs == sorted(hs)
    assert hs[-1] > hs[0]


# ---------------------------------------------------------------------------
# Chi-square upper tail
# ---------------------------------------------------------------------------

def test_chi_square_sf_reference_points():
    assert chi_square_sf(0.0, 2) == pytest.approx(1.0)
    # df=2 tail is exp(-x/2)
    assert chi_square_sf(2 * math.log(2), 2) == pytest.approx(0.5, abs=1e-12)
    assert chi_square_sf(7.2, 2) == pytest.approx(math.exp(-3.6), abs=1e-12)
    # df=1 tail at 1.0: 2*(1 - Phi(1)) ~ 0.3173105
    assert chi_square_sf(1.0, 1) == pytest.approx(0.31731050786, abs=1e-9)


def test_chi_square_sf_monotone_decreasing():
    values = [chi_square_sf(x, 3) for x in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
    assert values == sorted(values, reverse=True)


def test_chi_square_sf_validation():
    with pytest.raises(ValueError):
        chi_square_sf(-1.0, 2)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _report(pair_id, f1, musical_values=None, tags=None):
    prf = PRF(f1, f1, f1)
    musical = MusicalMetrics(**dict.fromkeys(METRIC_NAMES)) if musical_values is None else (
        MusicalMetrics(**{**dict.fromkeys(METRIC_NAMES), **musical_values})
    )
    return MetricReport(
        pair_id=pair_id,
        frame=prf,
        note_offset=prf,
        note_offset_velocity=prf,
        musical=musical,
        tags=tags or {},
    )


def test_aggregate_groups_and_means():
    reports = [
        _report("a", 0.8, {"melody_ioi": 0.5}, {"model": "x"}),
        _report("b", 0.6, {"melody_ioi": 0.7}, {"model": "x"}),
        _report("c", 1.0, None, {"model": "y"}),
    ]
    rows = aggregate(reports, ["model"])
    assert [row["model"] for row in rows] == ["x", "y"]
    x_row, y_row = rows
    assert x_row["count"] == 2
    assert x_row["frame_f1"] == pytest.approx(0.7)
    assert x_row["melody_ioi"] == pytest.approx(0.6)
    assert x_row["melody_ioi_excluded"] == 0
    assert y_row["melody_ioi"] is None
    assert y_row["melody_ioi_excluded"] == 1


def test_aggregate_excludes_undefined_from_mean():
    reports = [
        _report("a", 1.0, {"dynamics": 0.4}, {"g": "1"}),
        _report("b", 1.0, None, {"g": "1"}),
        _report("c", 1.0, {"dynamics": 0.8}, {"g": "1"}),
    ]
    (row,) = aggregate(reports, ["g"])
    assert row["dynamics"] == pytest.approx(0.6)  # mean of defined only
    assert row["dynamics_excluded"] == 1


def test_aggregate_unknown_tag_rejected():
    with pytest.raises(ValueError):
        aggregate([_report("a", 1.0, None, {"model": "x"})], ["split"])


def test_aggregate_multi_key_ordering():
    reports = [
        _report("a", 1.0, None, {"m": "2", "s": "b"}),
        _report("b", 1.0, None, {"m": "1", "s": "b"}),
        _report("c", 1.0, None, {"m": "1", "s": "a"}),
    ]
    rows = aggregate(reports, ["m", "s"])
    assert [(r["m"], r["s"]) for r in rows] == [("1", "a"), ("1", "b"), ("2", "b")]


def test_csv_header_and_na_cells():
    reports = [_report("p1", 0.5, {"melody_ioi": 0.123456789}, {"model": "x"})]
    text = emit(reports, "csv").decode()
    rows = list(csv.reader(io.StringIO(text)))
    header, row = rows
    assert header == ["pair_id", "model", *REPORT_METRIC_COLUMNS]
    assert row[header.index("melody_ioi")] == "0.123457"  # six decimals
    assert row[header.index("dynamics")] == "NA"
    assert row[header.index("frame_f1")] == "0.500000"


def test_csv_empty_report_list_is_header_only():
    text = emit([], "csv").decode()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [["pair_id", *REPORT_METRIC_COLUMNS]]


def test_json_round_trip():
    reports = [
        _report("p1", 0.25, {"melody_ioi": -0.5, "dynamics": 0.9}, {"model": "x", "cond": "clean"}),
        _report("p2", 1.0, None, {"model": "y"}),
    ]
    back = parse_reports_json(emit(reports, "json"))
    assert back == reports


def test_json_uses_null_for_undefined():
    obj = json.loads(emit([_report("p", 1.0, None, {})], "json").decode())
    assert obj[0]["musical"]["melody_ioi"] is None
    assert obj[0]["pair_id"] == "p"


def test_emit_aggregate_rows_csv():
    reports = [
        _report("a", 0.8, {"melody_ioi": 0.5}, {"model": "x"}),
        _report("b", 1.0, None, {"model": "y"}),
    ]
    rows = aggregate(reports, ["model"])
    text = emit(rows, "csv").decode()
    parsed = list(csv.reader(io.StringIO(text)))
    header = parsed[0]
    assert header[0] == "model"
    assert "melody_ioi_excluded" in header
    x_row = parsed[1]
    assert x_row[header.index("melody_ioi")] == "0.500000"
    y_row = parsed[2]
    assert y_row[header.index("melody_ioi")] == "NA"
    assert y_row[header.index("melody_ioi_excluded")] == "1"


def test_emit_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit([], "xml")


def test_emit_is_deterministic():
    reports = [
        _report("a", 0.8, {"melody_ioi": 0.5}, {"model": "x", "cond": "c"}),
        _report("b", 0.7, None, {"cond": "d", "model": "y"}),
    ]
    assert emit(reports, "csv") == emit(list(reports), "csv")
    assert emit(reports, "json") == emit(list(reports), "json")


# ---------------------------------------------------------------------------
# Parity with the hand-written report serializers
# ---------------------------------------------------------------------------

# tag names a manifest may use (report column names are rejected by the CLI)
_TAG_KEYS = ["model", "cond", "split", "id", "a,b", 'say "x"', ""]
_cells = st.text(alphabet=["a", "b", ",", '"', " ", "\n", "é"], max_size=4)
_prf = st.builds(PRF, *[st.floats(0.0, 1.0)] * 3)
_musical = st.builds(MusicalMetrics, *[st.none() | st.floats(-1.0, 1.0)] * len(METRIC_NAMES))
_tags = st.dictionaries(st.sampled_from(_TAG_KEYS), _cells, max_size=4)


@st.composite
def _reports(draw):
    # the group-by keys are in every report's tags, over few values, so groups hold several reports
    group_by = draw(st.lists(st.sampled_from(_TAG_KEYS), unique=True, max_size=2))
    grouped = st.fixed_dictionaries({k: st.sampled_from(["x", "y,z", ""]) for k in group_by})
    tags = st.builds(lambda extra, keyed: {**extra, **keyed}, _tags, grouped)
    reports = draw(st.lists(st.builds(MetricReport, _cells, _prf, _prf, _prf, _musical, tags), max_size=6))
    return reports, group_by


@settings(max_examples=150, deadline=None)
@given(_reports())
def test_emit_matches_hand_written_serializers(drawn):
    reports, group_by = drawn
    rows = aggregate(reports, group_by)
    assert rows == oracle_aggregate(reports, group_by)
    for fmt in ("csv", "json"):
        assert emit(reports, fmt) == oracle_emit(reports, fmt)
        assert emit(rows, fmt) == oracle_emit(rows, fmt)
    data = emit(reports, "json")
    assert parse_reports_json(data) == oracle_parse_reports_json(data) == reports
