"""Domain types for masked sequences, trajectories, and ordered partitions.

A trajectory records, step by step, which generation positions were revealed
and which token was committed at each of them. Positions inside a trajectory
are always relative to the generation region (0..N-1); the prompt offset is
applied only when materializing concrete sequences.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

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
    "load_archive",
    "check_members",
    "save_archive",
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
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens if all(type(t) is int for t in tokens) else tuple(map(_int, tokens)))
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

    @cached_property
    def token_array(self) -> np.ndarray:
        """The tokens as one read-only int64 array, built on first use."""
        a = np.fromiter(self.tokens, np.int64, len(self.tokens))
        a.flags.writeable = False
        return a

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
        toks, prompt_len, gen_len, mask = list(self.tokens), self.prompt_len, self.gen_len, self.vocab.mask_id
        for pos, tok in assignments:
            if type(pos) is not int or type(tok) is not int:
                pos, tok = _int(pos), _int(tok)
            if not 0 <= pos < gen_len:
                raise ValueError(f"position {pos} outside generation region")
            if toks[prompt_len + pos] != mask:
                raise ValueError(f"position {pos} already revealed")
            if not 0 <= tok < mask:  # the mask id is one past the last token
                raise ValueError(f"token {tok} out of vocabulary")
            toks[prompt_len + pos] = tok
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
    ordered partition of the generation region; finals and step_of index it by position.
    """

    steps: tuple
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(frozenset(map(_pair, step)) for step in self.steps))

    @property
    def n(self) -> int:
        return len(self.steps)

    @property
    def finals(self) -> np.ndarray:
        """Each generation position's committed token, read-only int64."""
        return self._position_table[0]

    @property
    def step_of(self) -> np.ndarray:
        """Each generation position's 1-based revealing step, read-only int64."""
        return self._position_table[1]

    @cached_property
    def _position_table(self) -> tuple:
        """(finals, step_of), built on first use; ValueError when the steps do not partition 0..N-1."""
        pairs = np.array([pair for step in self.steps for pair in step], dtype=np.int64).reshape(-1, 2)
        order = np.argsort(pairs[:, 0])
        if not all(self.steps) or not np.array_equal(pairs[order, 0], np.arange(len(pairs))):
            report = validate_partition(self, range(len(np.unique(pairs[:, 0]))))
            raise ValueError(f"invalid partition: {report.violations}")
        finals = pairs[order, 1]
        step_of = np.repeat(np.arange(1, self.n + 1), list(map(len, self.steps)))[order]
        finals.flags.writeable = step_of.flags.writeable = False
        return finals, step_of


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
    return base.reveal(pair for step in traj.steps[: k - 1] for pair in step)


def final_tokens(traj: Trajectory) -> list:
    """Map each generation position to its committed token."""
    return traj.finals.tolist()


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
        """Parse one JSONL record; ValueError naming the record id when a key is
        missing or mistyped, its steps do not partition range(gen_len) or a
        prompt or step token lies outside the vocabulary."""
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError(f"expected a JSON object, got {type(d).__name__}")
        bad = [key for key, ok in _RECORD_KEYS.items() if key not in d or not ok(d[key])]
        if bad:
            raise ValueError(f"record {d.get('id')!r}: keys {bad} are missing or invalid")
        traj = Trajectory(
            tuple(frozenset(map(tuple, step)) for step in d["steps"]),
            meta={"sampler": d["sampler"], "seed": d["seed"], "denoiser": d["denoiser"]},
        )
        vocab = Vocabulary(d["vocab_size"])
        report = validate_partition(traj, range(d["gen_len"]))
        if not report.ok:
            raise ValueError(
                f"record {d['id']!r}: steps are not a partition of range({d['gen_len']}): {report.violations}"
            )
        tokens = d["prompt"] + [t for step in traj.steps for _, t in step]
        outside = sorted({t for t in tokens if not vocab.is_token(t)})
        if outside:
            raise ValueError(
                f"record {d['id']!r}: tokens {outside} outside the vocabulary of size {vocab.size}"
            )
        return SampleRecord(d["id"], vocab, tuple(d["prompt"]), d["gen_len"], traj)


def _int(value) -> int:
    """A position or a token as an int: a Python or numpy integer, never a bool or a float like 1.7."""
    if type(value) is int or isinstance(value, np.integer):
        return int(value)
    raise TypeError(f"a position or token must be an integer, got {value!r}")


def _pair(pair) -> tuple:
    """A (position, token) pair of ints; a pair of Python ints passes as it is."""
    p, t = pair
    return (p, t) if type(p) is int and type(t) is int else (_int(p), _int(t))


def _is_int(value, least=-np.inf) -> bool:
    return type(value) is int and value >= least  # a bool or a float like 1.5 is not an int here


def _ints(value, length=None) -> bool:
    return isinstance(value, list) and all(map(_is_int, value)) and length in (None, len(value))


_RECORD_KEYS = {  # trajectory JSONL key -> check of its value
    "id": lambda v: isinstance(v, str),
    "vocab_size": lambda v: _is_int(v, 2),
    "prompt": _ints,
    "gen_len": lambda v: _is_int(v, 1),
    "steps": lambda v: isinstance(v, list) and all(isinstance(s, list) and all(_ints(p, 2) for p in s) for s in v),
    "sampler": lambda v: isinstance(v, str),
    "seed": _is_int,
    "denoiser": lambda v: isinstance(v, str),
}


def save_records(records: Iterable[SampleRecord], path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")


def load_records(path) -> list:
    """Every record of a trajectory JSONL file; a ValueError from a line is
    prefixed with `path:line`."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    records.append(SampleRecord.from_json(line))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
    return records


def save_archive(path, arrays: dict, meta: dict) -> None:
    """Write `arrays` as an uncompressed .npz at exactly `path` and `meta` as
    strict JSON to `<path>.meta.json`; ValueError, before either file is
    written, when the meta holds NaN or ±inf."""
    text = json.dumps(meta, allow_nan=False)
    with open(path, "wb") as fh:  # a file handle keeps numpy from appending ".npz"
        np.savez(fh, **arrays)
    with open(f"{path}.meta.json", "w") as fh:
        fh.write(text)


def load_archive(path) -> tuple:
    """(arrays, meta) of an archive; ValueError naming the path when the file
    is not an intact .npz (the zip CRC-32 catches a changed byte) or the meta
    file is missing or not a JSON object. Loads no pickles."""
    try:
        with open(path, "rb") as fh:
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("bad magic")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
        if not all(isinstance(a, np.ndarray) for a in arrays.values()):
            raise ValueError("a member is not an .npy array")
    except (OSError, ValueError, EOFError, NotImplementedError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{path}: not an intact .npz archive ({exc})") from None
    meta_path = f"{path}.meta.json"
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"{path}: meta file {meta_path} is missing") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"{meta_path}: not a JSON meta file ({exc})") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path}: holds a JSON {type(meta).__name__}, not an object")
    return arrays, meta


def check_members(path, arrays: dict, members: dict, error=ValueError) -> None:
    """`error` naming the path unless the arrays are exactly the members, a table of name -> (exact dtype, exact
    shape), with no NaN or ±inf in a float member."""
    if set(arrays) != set(members):
        missing, extra = sorted(set(members) - set(arrays)), sorted(set(arrays) - set(members))
        raise error(f"{path}: holds arrays {sorted(arrays)}, expected {sorted(members)}: missing {missing}, extra {extra}")
    for name, (dtype, shape) in members.items():
        a = arrays[name]
        if a.dtype != dtype or a.shape != shape:
            raise error(f"{path}: column {name} has dtype {a.dtype} and shape {a.shape}, expected {dtype} and shape {shape}")
        if a.dtype.kind == "f" and not np.isfinite(a).all():
            raise error(f"{path}: column {name} holds NaN or infinite values")
