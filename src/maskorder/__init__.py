"""Sampling-order optimization toolkit for masked iterative decoding.

Baseline samplers, trajectory-preserving step merging, merge-consistent
labeling, a trainable token-wise indicator, and the indicator-gated decode
loop, all exercised against an exactly computable Markov-chain denoiser.
Import each name from its module, e.g. ``from maskorder.orders import
decode``; the package root re-exports nothing.
"""

__version__ = "0.1.0"
