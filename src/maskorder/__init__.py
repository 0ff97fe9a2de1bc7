"""Sampling-order optimization toolkit for masked iterative decoding.

Baseline samplers, trajectory-preserving step merging, merge-consistent
labeling, a trainable token-wise indicator, and the indicator-gated decode
loop, all exercised against an exactly computable Markov-chain denoiser.
"""

from .core import (
    MaskedSequence,
    SampleRecord,
    Trajectory,
    ValidationReport,
    Vocabulary,
    apply_steps,
    final_tokens,
    validate_partition,
)
from .denoiser import (
    DenoiserOutput,
    FeatureBundle,
    MarkovDenoiser,
    MarkovModel,
    ReplayDenoiser,
    TemperedDenoiser,
    extract_features,
    markov_posterior,
    temper,
)
from .indicator import IndicatorConfig, IndicatorModel, TrainHyper, load_checkpoint, save_checkpoint, train
from .labeling import LabeledExample, LabelingConfig, build_dataset, label_state
from .merge import MergeReport, count_mergeable, final_results_preserving, merge_trajectory
from .ni_sampler import NIConfig, ni_decode
from .orders import DecodeConfig, decode, position_scores, run_steps, sample_tokens, select_positions

__version__ = "0.1.0"
