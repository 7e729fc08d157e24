import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oracle_hold
from pianoeval.config import RunConfig
from pianoeval.series import (
    FeatureSeries,
    correlate_series,
    pearson,
    resample_to_grid,
)


def _series(*samples):
    return FeatureSeries([t for t, _ in samples], [v for _, v in samples])


def test_series_requires_strictly_increasing_times():
    with pytest.raises(ValueError):
        _series((0.0, 1.0), (0.0, 2.0))
    with pytest.raises(ValueError):
        _series((1.0, 1.0), (0.5, 2.0))


def test_series_requires_finite_values():
    with pytest.raises(ValueError):
        _series((0.0, math.nan))
    with pytest.raises(ValueError):
        _series((0.0, math.inf))


def test_series_requires_equal_lengths():
    with pytest.raises(ValueError):
        FeatureSeries([0.0, 1.0], [1.0])


def test_series_holds_read_only_copies():
    times, values = [0.0, 1.0], np.array([2.0, 3.0])
    series = FeatureSeries(times, values)
    values[0] = 9.0
    assert series.values.tolist() == [2.0, 3.0]
    with pytest.raises(ValueError):
        series.times[0] = 5.0


def test_grid_config_validation():
    with pytest.raises(ValueError, match="^grid_step "):
        RunConfig(grid_step=0.0)
    with pytest.raises(ValueError, match="^min_samples "):
        RunConfig(min_samples=1)


def test_resample_hold_rule():
    series = _series((0.0, 1.0), (1.0, 2.0))
    assert resample_to_grid(series, 0.0, 1.0, 0.5).tolist() == [1.0, 1.0, 2.0]


def test_resample_empty_series_rejected():
    with pytest.raises(ValueError):
        resample_to_grid(_series(), 0.0, 1.0, 0.5)


def test_resample_grid_before_first_sample_rejected():
    with pytest.raises(ValueError):
        resample_to_grid(_series((0.3, 5.0)), 0.0, 0.5, 0.25)
    assert resample_to_grid(_series((0.3, 5.0)), 0.3, 0.5, 0.1).tolist() == [5.0, 5.0, 5.0]


def test_resample_holds_past_last_sample():
    assert resample_to_grid(_series((0.0, 7.0)), 0.0, 2.0, 1.0).tolist() == [7.0, 7.0, 7.0]


@st.composite
def _hold_cases(draw):
    """A series, some of whose sample times sit exactly on the grid, and a
    grid that may start before the first sample, on it, or after it."""
    t0 = draw(st.floats(-20.0, 20.0))
    step = draw(st.floats(0.01, 3.0))
    t1 = t0 + draw(st.floats(0.0, 30.0))
    on_grid = draw(st.lists(st.integers(-5, 40), max_size=10))
    off_grid = draw(st.lists(st.floats(-30.0, 60.0), max_size=10))
    lead = draw(st.lists(st.floats(0.0, 10.0), max_size=1))  # a sample at or before t0, or none
    times = sorted({t0 + k * step for k in on_grid} | set(off_grid) | {t0 - x for x in lead})
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(times), max_size=len(times)))
    return times, values, t0, t1, step


@settings(max_examples=300, deadline=None)
@given(_hold_cases())
def test_resample_equals_per_point_bisect(case):
    times, values, t0, t1, step = case
    series = FeatureSeries(times, values)
    if not times or t0 < times[0]:
        with pytest.raises(ValueError):
            resample_to_grid(series, t0, t1, step)
    else:
        assert resample_to_grid(series, t0, t1, step).tolist() == oracle_hold(times, values, t0, t1, step)


def test_pearson_perfect():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_hand_value():
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84), abs=1e-12)


def test_pearson_zero_variance_undefined():
    assert pearson([1.0, 1.0, 1.0], [1, 2, 3]) is None
    assert pearson([1, 2, 3], [5.0, 5.0, 5.0]) is None


def test_pearson_contract_errors():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])


def test_pearson_stays_in_bounds():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        r = pearson(rng.normal(size=n), rng.normal(size=n))
        if r is not None:
            assert -1.0 <= r <= 1.0


def test_correlate_series_identical():
    series = _series(*[(0.2 * i, math.sin(i)) for i in range(12)])
    assert correlate_series(series, series, RunConfig()) == pytest.approx(1.0, abs=1e-12)


def test_correlate_series_needs_min_samples():
    a = _series((0.0, 1.0), (0.3, 2.0))
    config = RunConfig(grid_step=0.1, min_samples=8)
    assert correlate_series(a, a, config) is None  # only 4 shared grid points
    assert correlate_series(a, a, RunConfig(grid_step=0.1, min_samples=4)) == pytest.approx(1.0)


def test_correlate_series_disjoint_extents():
    a = _series((0.0, 1.0), (1.0, 2.0))
    b = _series((5.0, 1.0), (6.0, 2.0))
    assert correlate_series(a, b, RunConfig()) is None


def test_correlate_series_empty():
    assert correlate_series(_series(), _series((0.0, 1.0)), RunConfig()) is None
