import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_hold, oracle_hold_indices, oracle_numpy_pearson
from pianoeval.config import MAX_DURATION, MIN_STEP, RunConfig
from pianoeval.series import (
    CONSTANT_SPREAD,
    TIME_SLACK,
    FeatureSeries,
    common_grid,
    correlate_series,
    grid_positions,
    hold_indices,
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


@pytest.mark.parametrize("value", [2.5, 8.0, math.nan])
def test_min_samples_must_be_an_integer(value):
    with pytest.raises(ValueError, match=f"^min_samples must be an integer, got {value!r}$"):
        RunConfig(min_samples=value)
    assert RunConfig(min_samples=8) == RunConfig(min_samples=np.int64(8))


def test_resample_hold_rule():
    series = _series((0.0, 1.0), (1.0, 2.0))
    assert resample_to_grid(series, 0.0, 0.5, 3).tolist() == [1.0, 1.0, 2.0]


def test_resample_empty_series_rejected():
    with pytest.raises(ValueError, match="^grid start 0.0 has no sample of the series at or before it$"):
        resample_to_grid(_series(), 0.0, 0.5, 3)


def test_resample_grid_before_first_sample_rejected():
    with pytest.raises(ValueError, match="^grid start 0.0 has no sample of the series at or before it$"):
        resample_to_grid(_series((0.3, 5.0)), 0.0, 0.25, 3)
    assert resample_to_grid(_series((0.3, 5.0)), 0.3, 0.1, 3).tolist() == [5.0, 5.0, 5.0]


def test_resample_holds_a_sample_within_hold_slack_after_a_grid_point():
    series = _series((1.0 + TIME_SLACK / 2, 1.0), (2.0 + TIME_SLACK / 2, 2.0), (3.0 + 2 * TIME_SLACK, 3.0))
    assert resample_to_grid(series, 1.0, 1.0, 3).tolist() == [1.0, 2.0, 2.0]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0.001, 0.01, 0.1, 1 / 3, 0.25, 0.5]),
    st.integers(2, 20_000),
    st.data(),
)
def test_a_lattice_series_holds_its_own_samples_onto_a_grid_from_any_of_them(step, n, data):
    times = np.arange(grid_positions((n - 1) * step, 0.0, step, "right")) * step
    values = np.arange(len(times), dtype=np.float64)
    k0 = data.draw(st.integers(0, len(times) - 1))
    held = resample_to_grid(FeatureSeries(times, values), times[k0], step, len(times) - k0)
    assert held.tolist() == values[k0:].tolist()


@st.composite
def _grid_cases(draw):
    """A grid t0 + k*step of n points no longer than ``MAX_DURATION``, and
    times on its points, an ulp either side of them, between them and
    outside the grid on both sides."""
    t0 = draw(st.one_of(st.sampled_from([0.0, 0.3, 1 / 3, 12.345]), st.floats(0.0, 100.0)))
    step = draw(st.one_of(st.sampled_from([MIN_STEP, 0.01, 0.025, 0.07, 0.1, 1 / 3, 0.5]), st.floats(MIN_STEP, 10.0)))
    n = draw(st.integers(1, int(MAX_DURATION / step) + 1))
    times = []
    for k in draw(st.lists(st.integers(-3, n + 2), min_size=1, max_size=20)):
        point = t0 + k * step  # the grid point k when 0 <= k < n
        offset = draw(st.sampled_from(["on", "ulp above", "ulp below", "between"]))
        if offset == "between":
            point += draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * step
        elif offset != "on":
            point = math.nextafter(point, math.inf if offset == "ulp above" else -math.inf)
        times.append(point)
    return t0, step, n, times + [t0 - 1000.0, t0 + n * step + 1000.0]


@settings(max_examples=300, deadline=None)
@given(_grid_cases())
@example((0.3, 0.001, 1, [0.300000001]))  # 0.300000001 - TIME_SLACK is the point 0.3, but the quotient rounds past it
def test_grid_positions_equal_a_search_of_the_slack_shifted_times_in_the_grid(case):
    t0, step, n, times = case
    grid, times = t0 + np.arange(n) * step, np.array(times)
    assert grid_positions(grid[-1], t0, step, "right") == n
    for side, shifted in (("right", times + TIME_SLACK), ("left", times - TIME_SLACK)):
        expected = np.searchsorted(grid, shifted, side)
        assert np.minimum(grid_positions(times, t0, step, side), n).tolist() == expected.tolist()


def test_grid_positions_rejects_an_unknown_side_or_a_step_that_is_not_positive():
    with pytest.raises(KeyError, match="up"):
        grid_positions([0.0], 0.0, 0.1, "up")
    with pytest.raises(ValueError, match="^step must be positive$"):
        grid_positions([0.0], 0.0, 0.0, "left")


def test_grid_times_rejects_a_step_that_is_not_positive():
    # the grid times from 0.0 to 1.0 are counted by the right-side position of the end
    for step in (0.0, -0.1):
        with pytest.raises(ValueError, match="^step must be positive$"):
            grid_positions(1.0, 0.0, step, "right")


def test_resample_holds_past_last_sample():
    assert resample_to_grid(_series((0.0, 7.0)), 0.0, 1.0, 3).tolist() == [7.0, 7.0, 7.0]


def test_resample_onto_an_empty_grid_is_empty():
    for series in (_series(), _series((0.3, 5.0))):
        held = resample_to_grid(series, 1.0, 0.5, 0)
        assert held.dtype == np.float64 and held.shape == (0,)


def test_common_grid_runs_from_the_later_first_to_the_earlier_last_time():
    a = _series((0.0, 1.0), (1.05, 2.0), (3.0, 1.0))
    b = _series((0.25, 4.0), (2.5, 3.0))
    assert common_grid(a, b, 0.5) == (0.25, grid_positions(2.5, 0.25, 0.5, "right"))
    assert common_grid(a, b, 0.5) == (0.25, 5)  # 0.25, 0.75, 1.25, 1.75, 2.25
    assert common_grid(b, a, 0.1) == (0.25, grid_positions(2.5, 0.25, 0.1, "right"))
    assert common_grid(a, _series((3.0, 1.0)), 0.5) == (3.0, 1)  # extents touch at one point


def test_common_grid_is_empty_for_empty_or_disjoint_series():
    a = _series((0.0, 1.0), (1.0, 2.0))
    for b in (_series(), _series((1.5, 1.0), (2.0, 2.0))):
        assert common_grid(a, b, 0.1)[1] == 0
        assert common_grid(b, a, 0.1)[1] == 0


@st.composite
def _hold_cases(draw):
    """A series and a grid that may start before its first sample, on it or after it. Some sample
    times sit on grid points, at a point + ``TIME_SLACK`` or an ulp either side of that, or after
    the grid's last point."""
    t0 = draw(st.floats(-20.0, 20.0))
    step = draw(st.one_of(st.sampled_from([MIN_STEP, 0.1, 1 / 3]), st.floats(0.01, 3.0)))
    t1 = t0 + draw(st.floats(0.0, 30.0))
    n = math.floor((t1 - t0 + TIME_SLACK) / step) + 1  # the points ``oracle_hold`` counts
    on_grid = draw(st.lists(st.integers(-5, 40), max_size=10))
    at_slack = set()
    for k, ulp in draw(st.lists(st.tuples(st.integers(-5, n + 5), st.sampled_from([-1, 0, 1])), max_size=10)):
        edge = t0 + k * step + TIME_SLACK
        at_slack.add(math.nextafter(edge, ulp * math.inf) if ulp else edge)
    after = draw(st.lists(st.floats(0.01, 10.0), max_size=3))  # in steps past the last point
    off_grid = draw(st.lists(st.floats(-30.0, 60.0), max_size=10))
    lead = draw(st.lists(st.floats(0.0, 10.0), max_size=1))  # a sample at or before t0, or none
    times = {t0 + k * step for k in on_grid} | at_slack | {t0 + (n - 1 + x) * step for x in after}
    times = sorted(times | set(off_grid) | {t0 - x for x in lead})
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(times), max_size=len(times)))
    return times, values, t0, t1, step


# Samples an ulp from a point + TIME_SLACK, where shifting the point and shifting the sample round
# apart: comparing each sample with point + TIME_SLACK held 0.0 at the first example's point and 1.0
# at the second's, while comparing time - TIME_SLACK with the point, as ``grid_positions`` and the
# oracle do, holds 1.0 and 0.0.
_EDGE = -1.192092896e-07


@settings(max_examples=300, deadline=None)
@given(_hold_cases())
@example(([-0.0010001192092896, _EDGE, -1.182092896e-07], [0.0, 0.0, 1.0], _EDGE, _EDGE, 0.001))
@example(([0.0, 1e-09], [0.0, 1.0], -1e-300, -1e-300, 0.001))
def test_resample_equals_per_point_bisect(case):
    times, values, t0, t1, step = case
    series = FeatureSeries(times, values)
    expected = oracle_hold(times, values, t0, t1, step)
    n = int(grid_positions(t1, t0, step, "right"))
    if expected[0] is None:  # no sample at or before the grid start
        with pytest.raises(ValueError):
            resample_to_grid(series, t0, step, n)
    else:
        assert resample_to_grid(series, t0, step, n).tolist() == expected



@st.composite
def _tied_times(draw):
    """A grid of n points and non-decreasing times with ties, as sorted note offsets have: on
    points, at a point + ``TIME_SLACK`` or an ulp either side of that, between points, and
    before or far past the grid."""
    t0 = draw(st.one_of(st.just(0.0), st.floats(-20.0, 20.0)))
    step = draw(st.one_of(st.sampled_from([MIN_STEP, 0.1, 1 / 3]), st.floats(0.01, 3.0)))
    n = draw(st.integers(0, 60))
    times = []
    for k in draw(st.lists(st.integers(-3, n + 3), max_size=20)):
        time = t0 + k * step + draw(st.sampled_from([0.0, TIME_SLACK, step / 2]))
        ulp = draw(st.sampled_from([0, -1, 1]))
        time = math.nextafter(time, ulp * math.inf) if ulp else time
        times += [time] * draw(st.integers(1, 3))
    outside = draw(st.lists(st.sampled_from([t0 - 1000.0, t0 + n * step + 1000.0]), max_size=2))
    return sorted(times + outside), t0, step, n


@settings(max_examples=300, deadline=None)
@given(_tied_times())
def test_hold_indices_equal_a_per_point_bisect_over_times_with_ties(case):
    times, t0, step, n = case
    last = hold_indices(np.array(times), t0, step, n)
    assert last.shape == (n,) and last.tolist() == oracle_hold_indices(times, t0, step, n)


def test_pearson_perfect():
    assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_hand_value():
    assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(9 / math.sqrt(84), abs=1e-12)


def test_pearson_zero_variance_undefined():
    assert pearson([1.0, 1.0, 1.0], [1, 2, 3]) is None
    assert pearson([1, 2, 3], [5.0, 5.0, 5.0]) is None
    # the mean of ten 0.3s rounds to 0.29999999999999993, so the deviations are not all 0
    assert pearson([0.3] * 10, np.linspace(0, 1, 10)) is None


@settings(max_examples=200, deadline=None)
@given(
    st.floats(-7200.0, 7200.0),
    st.lists(st.integers(-4, 4), min_size=2, max_size=40),
)
def test_pearson_of_a_constant_with_ulp_noise_is_undefined(level, ulps):
    noisy = level + np.array(ulps) * np.spacing(max(abs(level), 1.0))
    assert np.ptp(noisy) <= CONSTANT_SPREAD
    ramp = np.arange(len(ulps), dtype=np.float64)
    assert pearson(noisy, ramp) is None
    assert pearson(ramp, noisy) is None


def test_pearson_contract_errors():
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson([1], [1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pearson_rejects_a_non_finite_value_naming_it(bad):
    for a, b in (([bad, 1, 2], [1, 2, 3]), ([1, 2, 3], [1, bad, 2])):
        with pytest.raises(ValueError, match=f"^non-finite sample value {bad}$"):
            pearson(a, b)


def test_pearson_of_a_large_spread_is_finite():
    assert pearson([0, 1e200, 2e200], [0, 1e200, 2e200]) == 1.0
    assert pearson([0, 1e155, 2e155], [0, 1, 2]) == 1.0


_values = st.floats(-1e6, 1e6, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_values, _values), min_size=2, max_size=60), st.integers(-6, 60), st.integers(-6, 60))
def test_pearson_is_bit_equal_to_the_unscaled_formula(pairs, scale_a, scale_b):
    a, b = ([p[i] * 10.0**scale for p in pairs] for i, scale in ((0, scale_a), (1, scale_b)))
    assert pearson(a, b) == oracle_numpy_pearson(a, b)


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
