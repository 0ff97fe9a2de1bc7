"""Reference-trajectory step merging.

Two analyses over an already-decoded trajectory: the trajectory-preserving
merge, which groups consecutive reference steps whose tokens are all already
argmax-predicted at the group's starting state, and the looser
final-results-preserving order, which reveals any position whose current
argmax matches the pre-obtained final output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import MaskedSequence, Trajectory
from .denoiser import check_answer
from .orders import run_steps

__all__ = ["MergeReport", "count_mergeable", "merge_trajectory", "final_results_preserving"]


@dataclass(frozen=True)
class MergeReport:
    original_steps: int
    merged_steps: int
    speedup: float
    per_group: Optional[tuple]  # (start, end) 1-based contiguous reference ranges
    preserved: bool


def _check_length(traj: Trajectory, gen_len: int) -> None:
    if len(traj.finals) != gen_len:
        raise ValueError(f"the reference reveals {len(traj.finals)} positions, the base has {gen_len}")


def count_mergeable(traj: Trajectory, k: int, state_k: MaskedSequence, out) -> int:
    """Smallest step index idx > k whose tokens are not all argmax-predicted
    at the fixed state_k, or n+1 when every later step already matches.

    All lookahead checks use out, the denoiser's answer at state_k. ValueError
    when state_k is not the reference's state before step k or out not its answer.
    """
    if not 1 <= k <= traj.n:
        raise ValueError(f"step index {k} out of range 1..{traj.n}")
    _check_length(traj, state_k.gen_len)
    have = state_k.token_array[state_k.prompt_len :]
    expected = np.where(traj.step_of < k, traj.finals, state_k.vocab.mask_id)
    if not np.array_equal(have, expected):
        pos = np.argmax(have != expected)
        raise ValueError(
            f"state_k inconsistent with trajectory prefix at position {pos}: "
            f"have {have[pos]}, expected {expected[pos]}"
        )
    check_answer(state_k, out, f"step {k}")
    predicted = np.full(state_k.gen_len, -1)
    predicted[out.positions] = out.dists.argmax(axis=1)
    return int(traj.step_of[(traj.step_of > k) & (predicted != traj.finals)].min(initial=traj.n + 1))


def merge_trajectory(traj: Trajectory, base: MaskedSequence, denoiser):
    """Merge contiguous runs of reference steps into single steps.

    Tokens are carried from the reference, never re-sampled, so the merged
    trajectory's final tokens equal the reference's exactly.
    """
    _check_length(traj, base.gen_len)
    groups = []

    def choose(live, outs, states):
        (out,), (state,) = outs, states
        k = groups[-1][1] + 1 if groups else 1
        idx = count_mergeable(traj, k, state, out)
        groups.append((k, idx - 1))
        # count_mergeable checked that the masked positions are those of steps k..n
        return traj.step_of[out.positions] < idx, traj.finals[out.positions]

    merged_traj = Trajectory(
        run_steps(denoiser, [base], choose, traj.n)[0],
        meta={**traj.meta, "sampler": f"merge({traj.meta.get('sampler', '?')})"},
    )
    return merged_traj, _report(traj, merged_traj, tuple(groups))


def final_results_preserving(traj: Trajectory, base: MaskedSequence, denoiser):
    """Greedily reveal every masked position whose current argmax equals the
    reference final token at that position.

    When no position matches, the next unrevealed position in reference step
    order is revealed instead, so every step reveals at least one position
    and the order ends within gen_len steps. It usually needs fewer steps than
    the reference, but with an imperfect denoiser it can need more. Committed
    tokens are always the reference finals, so the result is preserved by
    construction; only the step structure differs.
    """
    _check_length(traj, base.gen_len)
    step = itertools.count(1)

    def choose(live, outs, states):
        (out,), (state,) = outs, states
        check_answer(state, out, f"step {next(step)}")
        tokens = traj.finals[out.positions]
        rows = out.dists.argmax(axis=1) == tokens
        if not rows.any():  # the first masked row of the earliest reference step; positions ascend
            rows = np.argmin(traj.step_of[out.positions], keepdims=True)
        return rows, tokens

    frp_traj = Trajectory(
        run_steps(denoiser, [base], choose, base.gen_len)[0],
        meta={**traj.meta, "sampler": f"final-preserving({traj.meta.get('sampler', '?')})"},
    )
    return frp_traj, _report(traj, frp_traj, None)


def _report(traj: Trajectory, result: Trajectory, per_group) -> MergeReport:
    return MergeReport(
        original_steps=traj.n,
        merged_steps=result.n,
        speedup=traj.n / result.n if result.n else 1.0,
        per_group=per_group,
        preserved=np.array_equal(result.finals, traj.finals),
    )
