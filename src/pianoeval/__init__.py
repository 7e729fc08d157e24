"""Evaluation of piano-transcription MIDI against ground-truth MIDI.

Alongside the standard frame- and note-level precision/recall/F1, eight
musically informed metrics correlate timing, articulation, harmony and
dynamics features between the two performances. An audio-perturbation
toolkit (convolution reverb, SNR-calibrated noise) and Kruskal-Wallis
group statistics round out the degradation-study workflow.
"""

from .audio import (
    AudioBuffer,
    PerturbCondition,
    WavFormatError,
    add_noise_snr,
    apply_condition_grid,
    convolve_ir,
    read_wav,
    read_wav_file,
    synth_ir,
    write_wav,
    write_wav_file,
)
from .evaluation import RunConfig, evaluate_performances
from .ir_metrics import (
    PRF,
    NoteMatching,
    PianoRoll,
    build_piano_roll,
    frame_metrics,
    match_notes,
    note_metrics,
)
from .midi import (
    MidiParseError,
    Note,
    Performance,
    apply_sustain_pedal,
    parse_midi,
    parse_midi_file,
)
from .musical import (
    MusicalMetrics,
    compute_musical_metrics,
    dynamics_series,
    ioi_series,
    kor_series,
    ratio_kor_series,
)
from .series import FeatureSeries, GridConfig, pearson, resample_to_grid
from .stats import (
    KWResult,
    MetricReport,
    aggregate,
    chi_square_sf,
    emit,
    kruskal_wallis,
    parse_reports_json,
)
from .streams import cluster_onsets, split_streams
from .tension import (
    SpiralParams,
    SpiralPoint,
    WindowConfig,
    cloud_diameter,
    cloud_diameter_series,
    cloud_momentum,
    pitch_to_spiral,
)

__version__ = "0.1.0"
