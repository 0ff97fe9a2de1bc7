"""Domain types for masked sequences, trajectories, and ordered partitions.

A trajectory records, step by step, which generation positions were revealed
and which token was committed at each of them. Positions inside a trajectory
are always relative to the generation region (0..N-1); the prompt offset is
applied only when materializing concrete sequences.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Vocabulary",
    "MaskedSequence",
    "Trajectory",
    "ValidationReport",
    "SampleRecord",
    "validate_partition",
    "apply_steps",
    "final_tokens",
    "load_records",
    "save_records",
]


@dataclass(frozen=True)
class Vocabulary:
    """Token id space 0..size-1 plus a reserved mask sentinel.

    The mask id is always one past the last real token, which keeps the
    serialized form stable regardless of vocabulary size.
    """

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"vocabulary size must be >= 2, got {self.size}")

    @property
    def mask_id(self) -> int:
        return self.size

    def is_token(self, t: int) -> bool:
        return 0 <= t < self.size


@dataclass(frozen=True)
class MaskedSequence:
    """A fixed-length token array with a prompt/generation split.

    Positions 0..prompt_len-1 are conditioning tokens and are never masked.
    Every other entry is either a real token id or the mask sentinel.
    """

    tokens: tuple
    prompt_len: int
    vocab: Vocabulary

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if not 0 <= self.prompt_len <= len(self.tokens):
            raise ValueError("prompt_len out of range")
        mask = self.vocab.mask_id
        for i, t in enumerate(self.tokens):
            if t == mask:
                if i < self.prompt_len:
                    raise ValueError(f"prompt position {i} is masked")
            elif not self.vocab.is_token(t):
                raise ValueError(f"token {t} at position {i} out of vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def gen_len(self) -> int:
        return len(self.tokens) - self.prompt_len

    def masked_positions(self) -> list:
        """Absolute indices of currently masked positions."""
        mask = self.vocab.mask_id
        return [i for i, t in enumerate(self.tokens) if t == mask]

    def reveal(self, assignments: Iterable) -> "MaskedSequence":
        """Return a copy with generation-relative (pos, token) pairs filled in.

        Each assignment is validated here, so the copy skips __post_init__'s
        pass over every token: the rest of the state was validated when self
        was built.
        """
        toks = list(self.tokens)
        for pos, tok in assignments:
            i = self.prompt_len + pos
            if not 0 <= pos < self.gen_len:
                raise ValueError(f"position {pos} outside generation region")
            if toks[i] != self.vocab.mask_id:
                raise ValueError(f"position {pos} already revealed")
            if not self.vocab.is_token(tok):
                raise ValueError(f"token {tok} out of vocabulary")
            toks[i] = int(tok)
        revealed = object.__new__(MaskedSequence)
        object.__setattr__(revealed, "tokens", tuple(toks))
        object.__setattr__(revealed, "prompt_len", self.prompt_len)
        object.__setattr__(revealed, "vocab", self.vocab)
        return revealed

    @staticmethod
    def fully_masked(prompt: Sequence, gen_len: int, vocab: Vocabulary) -> "MaskedSequence":
        toks = tuple(prompt) + (vocab.mask_id,) * gen_len
        return MaskedSequence(toks, len(prompt), vocab)


@dataclass(frozen=True)
class Trajectory:
    """Ordered list of step-sets of (position, token) pairs.

    Each step-set holds the generation-relative positions revealed in one
    decoding step together with the committed tokens. A legal trajectory is an
    ordered partition of the generation region.
    """

    steps: tuple
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "steps",
            tuple(frozenset((int(p), int(t)) for p, t in step) for step in self.steps),
        )

    @property
    def n(self) -> int:
        return len(self.steps)

    def positions(self) -> Iterator[int]:
        for step in self.steps:
            for pos, _ in step:
                yield pos


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, detail: str) -> None:
        self.violations.append((rule, detail))


def validate_partition(traj: Trajectory, gen_region: range) -> ValidationReport:
    """Check that a trajectory is an ordered partition of the generation region.

    Every violation is reported, not just the first; violations are data, not
    failures.
    """
    report = ValidationReport()
    seen: dict = {}
    for k, step in enumerate(traj.steps, start=1):
        if not step:
            report.add("empty-step", f"step {k} is empty")
        positions = [pos for pos, _ in step]
        if len(set(positions)) != len(positions):
            report.add("duplicate-position", f"step {k} repeats a position")
        for pos in positions:
            if pos in seen:
                report.add(
                    "disjointness",
                    f"position {pos} appears in steps {seen[pos]} and {k}",
                )
            else:
                seen[pos] = k
    region = set(gen_region)
    missing = region - set(seen)
    extra = set(seen) - region
    if missing:
        report.add("coverage", f"positions never revealed: {sorted(missing)}")
    if extra:
        report.add("coverage", f"positions outside region: {sorted(extra)}")
    return report


def apply_steps(base: MaskedSequence, traj: Trajectory, k: int) -> MaskedSequence:
    """Reconstruct the sequence state just before trajectory step k.

    Steps 1..k-1 are revealed at their trajectory tokens; everything later
    stays masked. k=1 returns the base unchanged, k=n+1 the fully revealed
    sequence.
    """
    if not 1 <= k <= traj.n + 1:
        raise ValueError(f"step index {k} out of range 1..{traj.n + 1}")
    state = base
    for step in traj.steps[: k - 1]:
        state = state.reveal(sorted(step))
    return state


def final_tokens(traj: Trajectory) -> list:
    """Map each generation position to its committed token."""
    pairs = {}
    for step in traj.steps:
        for pos, tok in step:
            pairs[pos] = tok
    n = len(pairs)
    report = validate_partition(traj, range(n))
    if not report.ok:
        raise ValueError(f"invalid partition: {report.violations}")
    return [pairs[i] for i in range(n)]


@dataclass(frozen=True)
class SampleRecord:
    """One decoded sample: prompt, vocabulary, and its trajectory.

    Mirrors the trajectory JSONL wire format, which is both the output format
    of this artifact and the ingestion format for external model traces.
    """

    id: str
    vocab: Vocabulary
    prompt: tuple
    gen_len: int
    trajectory: Trajectory

    def base(self) -> MaskedSequence:
        return MaskedSequence.fully_masked(self.prompt, self.gen_len, self.vocab)

    def to_json(self) -> str:
        steps = [[[p, t] for p, t in sorted(step)] for step in self.trajectory.steps]
        meta = self.trajectory.meta
        return json.dumps(
            {
                "id": self.id,
                "vocab_size": self.vocab.size,
                "prompt": list(self.prompt),
                "gen_len": self.gen_len,
                "steps": steps,
                "sampler": meta.get("sampler", ""),
                "seed": meta.get("seed", 0),
                "denoiser": meta.get("denoiser", ""),
            }
        )

    @staticmethod
    def from_json(line: str) -> "SampleRecord":
        """Parse one JSONL record; its steps must partition range(gen_len) and
        its prompt and tokens must lie in the vocabulary."""
        d = json.loads(line)
        traj = Trajectory(
            tuple(frozenset((p, t) for p, t in step) for step in d["steps"]),
            meta={"sampler": d["sampler"], "seed": d["seed"], "denoiser": d["denoiser"]},
        )
        vocab = Vocabulary(d["vocab_size"])
        report = validate_partition(traj, range(d["gen_len"]))
        if not report.ok:
            raise ValueError(
                f"record {d['id']!r}: steps are not a partition of range({d['gen_len']}): {report.violations}"
            )
        tokens = list(d["prompt"]) + [t for step in traj.steps for _, t in step]
        outside = sorted({t for t in tokens if not vocab.is_token(t)})
        if outside:
            raise ValueError(
                f"record {d['id']!r}: tokens {outside} outside the vocabulary of size {vocab.size}"
            )
        return SampleRecord(
            id=d["id"],
            vocab=vocab,
            prompt=tuple(d["prompt"]),
            gen_len=d["gen_len"],
            trajectory=traj,
        )


def save_records(records: Iterable[SampleRecord], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def load_records(path) -> list:
    with open(path) as fh:
        return [SampleRecord.from_json(line) for line in fh if line.strip()]
