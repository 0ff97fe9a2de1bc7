"""Reference-trajectory step merging.

Two analyses over an already-decoded trajectory: the trajectory-preserving
merge, which groups consecutive reference steps whose tokens are all already
argmax-predicted at the group's starting state, and the looser
final-results-preserving order, which reveals any position whose current
argmax matches the pre-obtained final output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import MaskedSequence, Trajectory, final_tokens
from .orders import run_steps

__all__ = ["MergeReport", "count_mergeable", "merge_trajectory", "final_results_preserving"]


@dataclass(frozen=True)
class MergeReport:
    original_steps: int
    merged_steps: int
    speedup: float
    per_group: Optional[tuple]  # (start, end) 1-based contiguous reference ranges
    preserved: bool


def _check_state(traj: Trajectory, k: int, state_k: MaskedSequence) -> None:
    revealed = dict(pair for step in traj.steps[: k - 1] for pair in step)
    mask = state_k.vocab.mask_id
    expected = tuple(revealed.get(pos, mask) for pos in range(state_k.gen_len))
    have = state_k.tokens[state_k.prompt_len :]
    if have != expected:
        for pos, (actual, want) in enumerate(zip(have, expected)):
            if actual != want:
                raise ValueError(
                    f"state_k inconsistent with trajectory prefix at position {pos}: "
                    f"have {actual}, expected {want}"
                )


def count_mergeable(traj: Trajectory, k: int, state_k: MaskedSequence, out) -> int:
    """Smallest step index idx > k whose tokens are not all argmax-predicted
    at the fixed state_k, or n+1 when every later step already matches.

    All lookahead checks use out, the denoiser's answer at state_k.
    """
    if not 1 <= k <= traj.n:
        raise ValueError(f"step index {k} out of range 1..{traj.n}")
    _check_state(traj, k, state_k)
    P = state_k.prompt_len
    predicted = dict(zip(out.positions, out.dists.argmax(axis=1).tolist()))
    for idx in range(k + 1, traj.n + 1):
        if any(predicted[P + pos] != tok for pos, tok in traj.steps[idx - 1]):
            return idx
    return traj.n + 1


def merge_trajectory(traj: Trajectory, base: MaskedSequence, denoiser):
    """Merge contiguous runs of reference steps into single steps.

    Tokens are carried from the reference, never re-sampled, so the merged
    trajectory's final tokens equal the reference's exactly.
    """
    groups = []

    def choose(out, state):
        k = groups[-1][1] + 1 if groups else 1
        idx = count_mergeable(traj, k, state, out)
        groups.append((k, idx - 1))
        return dict(pair for step in traj.steps[k - 1 : idx - 1] for pair in step)

    steps = run_steps(denoiser, base, choose, traj.n)
    merged_traj = Trajectory(
        steps,
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
    finals = final_tokens(traj)
    ref_order = [pos for step in traj.steps for pos in sorted(p for p, _ in step)]
    P = base.prompt_len

    def choose(out, state):
        masked = [p - P for p in out.positions]
        predicted = out.dists.argmax(axis=1).tolist()
        chosen = [pos for pos, tok in zip(masked, predicted) if tok == finals[pos]]
        if not chosen:
            masked = set(masked)
            chosen = [next(pos for pos in ref_order if pos in masked)]
        return {pos: finals[pos] for pos in chosen}

    frp_traj = Trajectory(
        run_steps(denoiser, base, choose, base.gen_len),
        meta={**traj.meta, "sampler": f"final-preserving({traj.meta.get('sampler', '?')})"},
    )
    return frp_traj, _report(traj, frp_traj, None)


def _report(traj: Trajectory, result: Trajectory, per_group) -> MergeReport:
    return MergeReport(
        original_steps=traj.n,
        merged_steps=result.n,
        speedup=traj.n / result.n if result.n else 1.0,
        per_group=per_group,
        preserved=final_tokens(result) == final_tokens(traj),
    )
