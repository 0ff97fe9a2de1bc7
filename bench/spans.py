"""Span tracing for the benchmark's traced run.

The traced run records a span around each call into a layer, from the
benchmark's own files, in three ways: duck-typed proxies for the denoiser and
the indicator, rebinding module attributes the program looks up at call time,
and rebinding ``MaskedSequence.reveal``. Spans stay in memory and are written
out when the run ends. A span's self time is its duration minus the time its
child spans cover; children of one span never overlap, as everything runs in
one thread.

The untraced run uses ``NullTracer`` and installs no hooks at all.
"""

from __future__ import annotations

import copy
import importlib
import json
import time

_perf = time.perf_counter

NAME, START, END, PARENT, GROUP, N, M = range(7)
NEW = -1  # ``group=NEW`` starts a span group (a sequence, a label cut)


class NullTracer:
    """Calls go straight through; nothing is wrapped or recorded."""

    def call(self, name, fn, *args, counter=None, group=None, **kwargs):
        return fn(*args, **kwargs)

    def denoiser(self, den):
        return den

    def indicator(self, ind):
        return ind

    def set_epoch_size(self, minibatches: int) -> None:
        pass


def _one(args, kwargs, result):
    return 1, 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _select_counts(args, kwargs, result):
    # positions scored, positions chosen
    return len(_arg(args, kwargs, 0, "out").positions), len(result)


def traj_counts(args, kwargs, result):
    # steps, positions revealed
    return result.n, sum(len(step) for step in result.steps)


def _replayed(args, kwargs, result):
    return _arg(args, kwargs, 2, "k") - 1, 0


def _examples(args, kwargs, result):
    return len(result), 0


def _batch_rows(args, kwargs, result):
    return len(_arg(args, kwargs, 4, "labels")), 0


# (owner, attribute, span name, counter, starts a new span group)
HOOKS = (
    ("maskorder.orders", "select_positions", "orders.select", _select_counts, False),
    ("maskorder.ni_sampler", "select_positions", "orders.select", _select_counts, False),
    ("maskorder.harness", "decode", "orders.decode", traj_counts, True),
    ("maskorder.harness", "ni_decode", "ni_sampler.ni_decode", traj_counts, True),
    ("maskorder.core:MaskedSequence", "reveal", "core.reveal", _one, False),
    ("maskorder.labeling", "apply_steps", "core.apply_steps", _replayed, False),
    ("maskorder.merge", "count_mergeable", "merge.count_mergeable", _one, False),
    ("maskorder.labeling", "count_mergeable", "merge.count_mergeable", _one, False),
    ("maskorder.labeling", "label_state", "labeling.label_state", _examples, True),
    ("maskorder.labeling", "extract_features", "features", _one, False),
    ("maskorder.ni_sampler", "extract_features", "features", _one, False),
    ("maskorder.indicator", "loss_and_grad", "indicator.loss_and_grad", _batch_rows, False),
    ("maskorder.indicator", "adamw_step", "indicator.adamw_step", _one, False),
)

# per-layer metric -> hook targets it cannot be measured without
NEEDS = {
    "orders.select_calls": ("maskorder.orders.select_positions",),
    "orders.positions_scored": ("maskorder.orders.select_positions",),
    "orders.select_s": ("maskorder.orders.select_positions",),
    "orders.decode_steps": ("maskorder.harness.decode",),
    "orders.decode_self_s": ("maskorder.harness.decode",),
    "core.reveals": ("maskorder.core:MaskedSequence.reveal",),
    "core.reveal_s": ("maskorder.core:MaskedSequence.reveal",),
    "core.apply_steps_calls": ("maskorder.labeling.apply_steps",),
    "core.apply_steps_replayed": ("maskorder.labeling.apply_steps",),
    "core.apply_steps_s": ("maskorder.labeling.apply_steps",),
    "merge.count_mergeable_calls": ("maskorder.merge.count_mergeable",),
    "merge.count_mergeable_s": ("maskorder.merge.count_mergeable",),
    "labeling.cuts": ("maskorder.labeling.label_state",),
    "labeling.examples": ("maskorder.labeling.label_state",),
    "labeling.extract_features_s": ("maskorder.labeling.extract_features",),
    "indicator.minibatches": ("maskorder.indicator.loss_and_grad",),
    "indicator.loss_and_grad_s": ("maskorder.indicator.loss_and_grad",),
    "indicator.adamw_s": ("maskorder.indicator.adamw_step",),
    "indicator.train_self_s": ("maskorder.indicator.loss_and_grad", "maskorder.indicator.adamw_step"),
    "ni_sampler.steps": ("maskorder.harness.ni_decode",),
    "ni_sampler.base_reveals": ("maskorder.ni_sampler.select_positions",),
    "ni_sampler.gate_reveals": ("maskorder.harness.ni_decode", "maskorder.ni_sampler.select_positions"),
    "ni_sampler.gate_yield": ("maskorder.harness.ni_decode", "maskorder.ni_sampler.select_positions"),
    "ni_sampler.features_s": ("maskorder.ni_sampler.extract_features",),
    "ni_sampler.self_s": ("maskorder.harness.ni_decode",),
    "denoiser.posterior_s": ("denoiser.inner",),
    "denoiser.temper_s": ("denoiser.inner",),
}


def _resolve(owner: str):
    module, _, path = owner.partition(":")
    obj = importlib.import_module(module)
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class _DenoiserProxy:
    def __init__(self, tracer, inner, span):
        self._tracer, self._inner, self._span = tracer, inner, span
        self.vocab = inner.vocab
        self.feature_dim = inner.feature_dim
        self.config_id = inner.config_id

    def query(self, seq):
        return self._tracer.call(self._span, self._inner.query, seq, counter=_rows)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _rows(args, kwargs, result):
    return len(result.positions), 0


class _IndicatorProxy:
    def __init__(self, tracer, inner):
        self._tracer, self._inner = tracer, inner

    def score_bundles(self, bundles):
        return self._tracer.call("indicator.score", self._inner.score_bundles, bundles, counter=_bundles)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _bundles(args, kwargs, result):
    return len(args[0]), 0


class Tracer:
    """Records spans ``[name, start, end, parent, group, n, m]`` in memory.

    ``n`` and ``m`` are per-span counts (rows, steps, positions, ...). Spans
    of one sequence, one label cut or one training epoch share a group id.
    """

    def __init__(self):
        self.spans = []
        self.missing = set()
        self._stack = []
        self._groups = 0
        self._patches = []
        self._epoch_size = 1
        self._minibatches = 0
        self._epoch_group = 0

    def _new_group(self) -> int:
        self._groups += 1
        return self._groups

    def call(self, name, fn, *args, counter=None, group=None, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        if group == NEW:
            group = self._new_group()
        elif group is None:
            group = self.spans[parent][GROUP] if parent >= 0 else 0
        rec = [name, 0.0, 0.0, parent, group, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = _perf()
            self._stack.pop()
        if counter is not None:
            rec[N], rec[M] = counter(args, kwargs, result)
        return result

    def denoiser(self, den):
        inner = getattr(den, "inner", None)
        if inner is None:
            self.missing.add("denoiser.inner")
        else:
            den = copy.copy(den)
            den.inner = _DenoiserProxy(self, inner, "denoiser.posterior")
        return _DenoiserProxy(self, den, "denoiser.query")

    def indicator(self, ind):
        return _IndicatorProxy(self, ind)

    def set_epoch_size(self, minibatches: int) -> None:
        """Minibatches per training epoch, so each epoch's spans share a group."""
        self._epoch_size = max(1, minibatches)
        self._minibatches = 0

    def _wrap(self, fn, name, count, new_group):
        tracer = self

        if name == "indicator.loss_and_grad":

            def wrapper(*args, **kwargs):
                if tracer._minibatches % tracer._epoch_size == 0:
                    tracer._epoch_group = tracer._new_group()
                tracer._minibatches += 1
                return tracer.call(name, fn, *args, counter=count, group=tracer._epoch_group, **kwargs)

        elif name == "indicator.adamw_step":

            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, *args, counter=count, group=tracer._epoch_group, **kwargs)

        else:
            group = NEW if new_group else None

            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, *args, counter=count, group=group, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every hook target that exists; record the ones that do not."""
        for owner, attr, name, count, new_group in HOOKS:
            try:
                obj = _resolve(owner)
                fn = getattr(obj, attr)
            except (ImportError, AttributeError):
                self.missing.add(f"{owner}.{attr}")
                continue
            self._patches.append((obj, attr, fn))
            setattr(obj, attr, self._wrap(fn, name, count, new_group))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, fn = self._patches.pop()
            setattr(obj, attr, fn)

    def missing_metrics(self) -> list:
        return sorted(m for m, needs in NEEDS.items() if any(t in self.missing for t in needs))

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in microseconds from the first start."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, s, e, parent, group, n, m) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_us": round((s - t0) * 1e6, 1),
                            "end_us": round((e - t0) * 1e6, 1),
                            "parent": parent,
                            "group": group,
                            "n": n,
                            "m": m,
                        }
                    )
                    + "\n"
                )


MERGE_ANALYSES = ("merge.merge_trajectory", "merge.final_results_preserving")
_CONTEXTS = frozenset(
    MERGE_ANALYSES + ("orders.decode", "ni_sampler.ni_decode", "labeling.build_dataset", "indicator.train")
)


def layer_metrics(spans, start: int, end: int) -> dict:
    """Per-layer counts and times of the spans ``spans[start:end]``.

    Spans in the slice must form whole trees: a span's parent, if any, lies
    in the slice too.
    """
    count, rows, picked, total, own = {}, {}, {}, {}, {}
    child = [0.0] * (end - start)
    ctx = [None] * (end - start)
    for i in range(start, end):
        name, s, e, parent, _, n, m = spans[i]
        if parent >= start:
            child[parent - start] += e - s
            ctx[i - start] = ctx[parent - start]
        if name in _CONTEXTS:
            ctx[i - start] = name
        if name in ("features", "orders.select", "denoiser.query"):
            # the caller decides which layer this work belongs to
            key = (name, ctx[i - start])
        else:
            key = name
        count[key] = count.get(key, 0) + 1
        rows[key] = rows.get(key, 0) + n
        picked[key] = picked.get(key, 0) + m
        total[key] = total.get(key, 0.0) + (e - s)
    for i in range(start, end):
        name, s, e = spans[i][:3]
        own[name] = own.get(name, 0.0) + (e - s) - child[i - start]

    def total_of(prefix):
        return sum(v for k, v in total.items() if (k[0] if isinstance(k, tuple) else k) == prefix)

    def summed(table, name):
        return sum(v for k, v in table.items() if isinstance(k, tuple) and k[0] == name)

    def ctx_sum(table, name, contexts):
        return sum(table.get((name, c), 0) for c in contexts)

    query_s = total_of("denoiser.query")
    posterior_s = total.get("denoiser.posterior", 0.0)
    score_rows = rows.get("indicator.score", 0)
    base_reveals = picked.get(("orders.select", "ni_sampler.ni_decode"), 0)
    gate_reveals = picked.get("ni_sampler.ni_decode", 0) - base_reveals
    return {
        "denoiser.queries": summed(count, "denoiser.query"),
        "denoiser.rows": summed(rows, "denoiser.query"),
        "denoiser.query_s": query_s,
        "denoiser.posterior_s": posterior_s,
        "denoiser.temper_s": query_s - posterior_s,
        "orders.select_calls": summed(count, "orders.select"),
        "orders.positions_scored": summed(rows, "orders.select"),
        "orders.select_s": total_of("orders.select"),
        "orders.decode_steps": rows.get("orders.decode", 0),
        "orders.decode_self_s": own.get("orders.decode", 0.0),
        "core.reveals": count.get("core.reveal", 0),
        "core.reveal_s": total.get("core.reveal", 0.0),
        "core.apply_steps_calls": count.get("core.apply_steps", 0),
        "core.apply_steps_replayed": rows.get("core.apply_steps", 0),
        "core.apply_steps_s": total.get("core.apply_steps", 0.0),
        "merge.trajectories": sum(count.get(k, 0) for k in MERGE_ANALYSES),
        "merge.queries": ctx_sum(count, "denoiser.query", MERGE_ANALYSES),
        "merge.count_mergeable_calls": count.get("merge.count_mergeable", 0),
        "merge.count_mergeable_s": total.get("merge.count_mergeable", 0.0),
        "merge.self_s": sum(own.get(k, 0.0) for k in MERGE_ANALYSES + ("merge.count_mergeable",)),
        "labeling.cuts": count.get("labeling.label_state", 0),
        "labeling.examples": rows.get("labeling.label_state", 0),
        "labeling.extract_features_s": total.get(("features", "labeling.build_dataset"), 0.0),
        "labeling.self_s": own.get("labeling.build_dataset", 0.0) + own.get("labeling.label_state", 0.0),
        "labeling.save_s": total.get("labeling.save_dataset", 0.0),
        "labeling.load_s": total.get("labeling.load_dataset", 0.0),
        "indicator.minibatches": count.get("indicator.loss_and_grad", 0),
        "indicator.loss_and_grad_s": total.get("indicator.loss_and_grad", 0.0),
        "indicator.adamw_s": total.get("indicator.adamw_step", 0.0),
        "indicator.train_self_s": own.get("indicator.train", 0.0),
        "indicator.score_calls": count.get("indicator.score", 0),
        "indicator.score_rows": score_rows,
        "indicator.score_s": total.get("indicator.score", 0.0),
        "ni_sampler.steps": rows.get("ni_sampler.ni_decode", 0),
        "ni_sampler.base_reveals": base_reveals,
        "ni_sampler.gate_reveals": gate_reveals,
        "ni_sampler.gate_yield": gate_reveals / score_rows if score_rows else 0.0,
        "ni_sampler.features_s": total.get(("features", "ni_sampler.ni_decode"), 0.0),
        "ni_sampler.self_s": own.get("ni_sampler.ni_decode", 0.0),
        "harness.evaluate_s": total.get("harness.evaluate", 0.0),
        "harness.self_s": own.get("harness.gen_data", 0.0) + own.get("harness.evaluate", 0.0),
    }
