"""Evaluation of piano-transcription MIDI against ground-truth MIDI.

Alongside the standard frame- and note-level precision/recall/F1, eight
musically informed metrics correlate timing, articulation, harmony and
dynamics features between the two performances. An audio-perturbation
toolkit (convolution reverb, SNR-calibrated noise) and Kruskal-Wallis
group statistics round out the degradation-study workflow.

The package root re-exports only the names the README's examples import.
Every other public name is imported from its module: ``pianoeval.audio``,
``.midi``, ``.ir_metrics``, ``.series``, ``.musical``, ``.tension``,
``.streams``, ``.stats`` or ``.config``.
"""

from .config import RunConfig
from .evaluation import evaluate_performances
from .ir_metrics import build_piano_roll, frame_metrics, note_metrics
from .midi import Note, Performance, parse_midi_file
from .musical import compute_musical_metrics
from .stats import emit, kruskal_wallis

__version__ = "0.1.0"
