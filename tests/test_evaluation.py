"""Whole reports against the whole-report oracle.

``oracle_evaluate`` composes the stage oracles in ``helpers`` the way
``evaluate_performances`` composes its stages, so a change that moves work
between library functions is checked end to end: the three PRFs must be
equal, each defined correlation within 1e-12, and the undefined (``NA``)
metrics the same. The pairs cover random polyphony with jittered or
unrelated estimates, tick-lattice times, monophonic lines (no
accompaniment), empty sides and sides too short for ``min_samples``.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import jitter_onsets, jitter_velocities, oracle_evaluate, random_performance
from pianoeval.config import RunConfig
from pianoeval.evaluation import evaluate_performances
from pianoeval.midi import Note, Performance, _tick_seconds

_configs = st.builds(
    lambda frame_length, chord_epsilon, grid_step, min_samples, window: RunConfig(
        frame_length=frame_length,
        chord_epsilon=chord_epsilon,
        grid_step=grid_step,
        min_samples=min_samples,
        window_length=window[0],
        hop=window[1],
    ),
    st.sampled_from([0.01, 0.025]),
    st.sampled_from([0.03, 0.001, 0.08]),
    st.sampled_from([0.1, 1 / 3, 0.05, 0.25]),
    st.sampled_from([8, 2, 3]),
    st.sampled_from([(1.0, 0.5), (0.3, 0.1), (0.25, 0.25)]),
)


@st.composite
def _random_pairs(draw):
    """Random polyphony (chords or a monophonic line), and an estimate that is a
    jittered copy of it or unrelated to it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chords = draw(st.sampled_from([0.25, 0.0, 0.6]))
    ref = random_performance(rng, draw(st.integers(0, 14)), chord_probability=chords)
    kind = draw(st.sampled_from(["jitter", "velocity", "unrelated", "same"]))
    if kind == "jitter":
        est = jitter_onsets(ref, 0.02, rng)
    elif kind == "velocity":
        est = jitter_velocities(ref, 10.0, rng)
    elif kind == "unrelated":
        est = random_performance(rng, draw(st.integers(0, 14)), chord_probability=chords)
    else:
        est = ref
    return ref, est


def _lattice_side(tpq, uspq, unit):
    """Notes whose onsets and durations are whole multiples of ``unit`` ticks."""
    note = st.tuples(st.integers(0, 40), st.integers(1, 8), st.integers(48, 72), st.integers(1, 127))

    def build(rows):
        ticks = np.array([[k * unit, (k + d) * unit] for k, d, _, _ in rows], dtype=np.int64).reshape(-1, 2)
        onsets, offsets = _tick_seconds(ticks.T, [(0, uspq)], tpq).tolist()
        return Performance.from_notes(Note(on, off, p, v) for on, off, (_, _, p, v) in zip(onsets, offsets, rows))

    return st.lists(note, max_size=12).map(build)


@st.composite
def _lattice_pairs(draw):
    """Two performances on one tick lattice at a constant tempo: every time is the float
    of a whole tick, so onsets, offsets and grid points meet to within an ulp."""
    tpq = draw(st.sampled_from([96, 480, 960]))
    uspq = draw(st.sampled_from([500_000, 600_000, 400_000]))
    unit = draw(st.sampled_from([tpq // 4, tpq // 2, tpq]))
    side = _lattice_side(tpq, uspq, unit)
    return draw(side), draw(side)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_random_pairs(), _lattice_pairs()), _configs)
@example((Performance.from_notes([]), Performance.from_notes([])), RunConfig())
def test_report_equals_the_whole_report_oracle(pair, config):
    ref, est = pair
    report = evaluate_performances(ref, est, config)
    prfs, correlations = oracle_evaluate(ref, est, config)
    got = [(p.precision, p.recall, p.f1) for p in (report.frame, report.note_offset, report.note_offset_velocity)]
    assert got == prfs
    musical = report.musical.as_dict()
    assert {k for k, v in musical.items() if v is None} == {k for k, v in correlations.items() if v is None}
    for name, value in correlations.items():
        if value is not None:
            assert abs(musical[name] - value) <= 1e-12, name
