"""Shared fixtures and independent oracles for the test suite.

The brute-force posterior, the dict and loop derivations of a trajectory's
position table and merge count, the naive merge re-simulation, the exact
minimum-step search, the decode gated by the labeling oracle and the
constant-score indicator stub below are kept deliberately separate from the
library implementations so they can serve as independent cross-checks.
"""

import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from maskorder.core import MaskedSequence, SampleRecord, Trajectory, Vocabulary, validate_partition
from maskorder.denoiser import MarkovDenoiser, MarkovModel, TemperedDenoiser
from maskorder.labeling import LabelingConfig, label_state
from maskorder.orders import DecodeConfig, decode, run_steps


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sticky_chain(V: int, stay: float) -> MarkovModel:
    """Chain that keeps its current token with probability `stay`."""
    T = np.full((V, V), (1.0 - stay) / (V - 1))
    np.fill_diagonal(T, stay)
    return MarkovModel(np.full(V, 1.0 / V), T)


def random_chain(V: int, rng: np.random.Generator, diag_boost: float = 0.0) -> MarkovModel:
    T = rng.dirichlet(np.ones(V), size=V)
    if diag_boost:
        T = T + diag_boost * np.eye(V)
        T /= T.sum(axis=1, keepdims=True)
    return MarkovModel(rng.dirichlet(np.ones(V)), T)


def permutation_chain(V: int) -> MarkovModel:
    """Deterministic dynamics: each token maps to the next one cyclically."""
    T = np.zeros((V, V))
    for i in range(V):
        T[i, (i + 1) % V] = 1.0
    return MarkovModel(np.full(V, 1.0 / V), T)


def cycle_chain(V: int, eps: float, seed: int) -> MarkovModel:
    """A noisy single V-cycle: with probability 1 - eps each token steps to
    its successor along one random cyclic order of the vocabulary, and with
    probability eps to a token drawn from its own Dirichlet(1) row; uniform
    initial distribution. permutation_chain is eps = 0 with the identity order."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(V)
    cycle = np.zeros((V, V))
    cycle[perm, np.roll(perm, -1)] = 1.0
    return MarkovModel(np.full(V, 1.0 / V), (1 - eps) * cycle + eps * rng.dirichlet(np.ones(V), size=V))


def brute_force_posterior(model: MarkovModel, seq: MaskedSequence) -> dict:
    """Posterior marginals by enumerating every completion of the masked slots."""
    V = model.V
    masked = seq.masked_positions()
    M = len(masked)
    completions = np.array(list(itertools.product(range(V), repeat=M)), dtype=np.int64)
    full = np.tile(np.asarray(seq.tokens), (len(completions), 1))
    full[:, masked] = completions
    probs = model.initial[full[:, 0]].copy()
    for i in range(len(seq) - 1):
        probs *= model.transition[full[:, i], full[:, i + 1]]
    total = probs.sum()
    out = {}
    for j, pos in enumerate(masked):
        marg = np.bincount(completions[:, j], weights=probs, minlength=V)
        out[pos] = marg / total
    return out


def row_at(out, pos: int) -> np.ndarray:
    """The probability row of generation position pos in a denoiser output."""
    (j,) = np.flatnonzero(out.positions == pos)
    return out.dists[j]


def reference_table(traj) -> tuple:
    """(finals, step_of) as lists over positions 0..N-1, from a dict of the
    steps' pairs; ValueError("invalid partition: ...") when the steps do not
    partition range(N), N the number of distinct positions."""
    pairs = dict(pair for step in traj.steps for pair in step)
    report = validate_partition(traj, range(len(pairs)))
    if not report.ok:
        raise ValueError(f"invalid partition: {report.violations}")
    step_of = dict((pos, k) for k, step in enumerate(traj.steps, start=1) for pos, _ in step)
    return [pairs[pos] for pos in range(len(pairs))], [step_of[pos] for pos in range(len(pairs))]


def naive_count_mergeable(traj, k: int, state_k: MaskedSequence, out) -> int:
    """count_mergeable as a loop over the reference steps after k, once a
    dict of the steps before k has checked state_k (ValueError otherwise)."""
    revealed = dict(pair for step in traj.steps[: k - 1] for pair in step)
    mask = state_k.vocab.mask_id
    expected = tuple(revealed.get(pos, mask) for pos in range(state_k.gen_len))
    if state_k.tokens[state_k.prompt_len :] != expected:
        raise ValueError("state_k inconsistent with trajectory prefix")
    predicted = dict(zip(out.positions.tolist(), out.dists.argmax(axis=1).tolist()))
    for idx in range(k + 1, traj.n + 1):
        if any(predicted.get(pos) != tok for pos, tok in traj.steps[idx - 1]):
            return idx
    return traj.n + 1


def resimulate_merge(record: SampleRecord, denoiser):
    """Naive replay of the step-merging loop with a fresh query per group.

    Returns the list of merged (start, end) reference ranges.
    """
    traj = record.trajectory
    state = record.base()
    groups = []
    k = 1
    while k <= traj.n:
        out = denoiser.query(state)
        j = k + 1
        while j <= traj.n and all(
            int(np.argmax(row_at(out, pos))) == tok for pos, tok in traj.steps[j - 1]
        ):
            j += 1
        for step in traj.steps[k - 1 : j - 1]:
            state = state.reveal(sorted(step))
        groups.append((k, j - 1))
        k = j
    return groups


def min_steps(record: SampleRecord, denoiser) -> int:
    """Fewest steps that reveal the reference's final tokens, by breadth-first
    search over the revealed subsets of the generation positions.

    Each state holds the finals on its revealed positions. A move reveals any
    nonempty subset of the masked positions whose argmax already is the final
    token or, when there is none, any one masked position. At most 2^gen_len
    states and 3^gen_len moves: meant for gen_len up to about 10.
    """
    finals, _ = reference_table(record.trajectory)
    n = record.gen_len
    base = record.base()
    done = (1 << n) - 1
    frontier, seen, steps = {0}, {0}, 0
    while done not in frontier:
        steps += 1
        reached = set()
        for revealed in frontier:
            masked = [pos for pos in range(n) if not revealed >> pos & 1]
            out = denoiser.query(base.reveal((pos, finals[pos]) for pos in range(n) if revealed >> pos & 1))
            matching = sum(1 << pos for pos in masked if int(np.argmax(row_at(out, pos))) == finals[pos])
            if matching:
                moves, move = [], matching
                while move:  # every nonempty subset of the matching positions
                    moves.append(move)
                    move = (move - 1) & matching
            else:
                moves = [1 << pos for pos in masked]
            reached.update(revealed | move for move in moves)
        frontier = reached - seen
        seen |= reached
    return steps


class ConstantIndicator:
    """Stub indicator returning a fixed score; useful for gate identities.
    It reads no feature, so it asks for the narrowest bundle, K1 = K2 = 1."""

    config = SimpleNamespace(k1=1, k2=1)

    def __init__(self, value: float):
        self.value = value

    def score_bundles(self, features) -> np.ndarray:
        return np.full(len(features), self.value)


def oracle_indicator_decode(denoiser, record) -> Trajectory:
    """Decode gated by the exact mergeability oracle against a known reference.

    At each visited state (which must stay aligned with the reference
    trajectory) the positions revealed are exactly those that trajectory-
    preserving labeling marks positive with no probability floor.
    """
    traj = record.trajectory
    label_cfg = LabelingConfig(k1=1, k2=1, min_pos_prob=0.0)  # only the labels are used
    k = 1

    def choose(live, outs, states):
        nonlocal k
        (out,), (state,) = outs, states
        rows = label_state(record, k, denoiser, label_cfg).columns["label"] == 1
        prefix = np.where(traj.step_of < k, traj.finals, state.vocab.mask_id)
        if not np.array_equal(state.token_array[state.prompt_len :], prefix):
            raise AssertionError("oracle decode diverged from the reference trajectory")
        k = int(traj.step_of[out.positions[~rows]].min(initial=traj.n + 1))  # the first step left masked
        return rows, traj.finals[out.positions]

    return Trajectory(
        run_steps(denoiser, [record.base()], choose, traj.n)[0],
        meta={**traj.meta, "sampler": "oracle-indicator"},
    )


def make_instance(seed: int):
    """One seeded (denoiser, reference record) pair for the merge suites.

    Alternates V in {4, 8} and gen_len in {32, 64} and applies a seeded
    temper wrapper, so merge analyses see imperfect predictions. The noise
    ceiling keeps the denoiser in the regime where the final-results-
    preserving order stays at least as fast as the trajectory-preserving
    merge; that ordering is an empirical property, not a theorem, and very
    noisy denoisers can occasionally invert it.
    """
    rng = np.random.default_rng(seed)
    V = (4, 8)[seed % 2]
    gen_len = (32, 64)[(seed // 2) % 2]
    model = random_chain(V, rng, diag_boost=rng.uniform(0.5, 4.0))
    den = TemperedDenoiser(
        MarkovDenoiser(model),
        temperature=rng.uniform(0.9, 1.4),
        noise_scale=rng.uniform(0.0, 0.3),
        seed=seed,
    )
    prompt = model.sample_sequence(6, rng)
    cfg = DecodeConfig(threshold=0.8, seed=seed) if seed % 3 else DecodeConfig(seed=seed)
    traj = decode(den, prompt, gen_len, cfg)
    record = SampleRecord(f"inst-{seed}", Vocabulary(V), prompt, gen_len, traj)
    return den, record


@pytest.fixture(scope="session")
def merge_instances():
    return [make_instance(seed) for seed in range(100)]
