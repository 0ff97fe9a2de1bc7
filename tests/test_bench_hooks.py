"""The benchmark's traced run rebinds program attributes by name
(``bench/spans.py``); a rename in the program must fail here, not only in
the benchmark's own self-test. This file reads ``bench/`` and changes nothing
there."""

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import sticky_chain
from maskorder import harness
from maskorder.core import MaskedSequence, SampleRecord, apply_steps
from maskorder.denoiser import MarkovDenoiser, TemperedDenoiser
from maskorder.indicator import IndicatorModel, TrainHyper, train
from maskorder.labeling import LabelingConfig, build_dataset
from maskorder.ni_sampler import NIConfig
from maskorder.orders import DecodeConfig, decode, select_positions
from test_indicator import SMALL, separable_dataset

_spec = importlib.util.spec_from_file_location("bench_spans", Path(__file__).parent.parent / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("owner, attr", [(h[0], h[1]) for h in spans.HOOKS], ids=lambda v: str(v))
def test_hook_target_resolves(owner, attr):
    assert callable(getattr(spans._resolve(owner), attr))


def test_a_fresh_tracer_installs_every_hook_and_reaches_the_inner_denoiser():
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.denoiser(TemperedDenoiser(MarkovDenoiser(sticky_chain(4, 0.8))))
        assert tracer.missing == set()
        assert tracer.missing_metrics() == []
    finally:
        tracer.uninstall()


def test_training_calls_both_training_hooks_once_per_minibatch():
    # the traced run times training through these two module attributes; a
    # train loop that bypasses them would count no minibatches
    dataset = separable_dataset(SMALL, 50, np.random.default_rng(0))
    hyper = TrainHyper(batch_size=8, epochs=2)
    n_train = 50 - 50 // 10  # train() holds out a tenth
    tracer = spans.Tracer()
    tracer.install()
    try:
        train(IndicatorModel.init(SMALL, np.random.default_rng(1)), dataset, hyper, np.random.default_rng(2))
    finally:
        tracer.uninstall()
    names = [span[spans.NAME] for span in tracer.spans]
    minibatches = hyper.epochs * math.ceil(n_train / hyper.batch_size)
    assert names.count("indicator.loss_and_grad") == minibatches == 12
    assert names.count("indicator.adamw_step") == minibatches


def test_labeling_calls_its_hooks_once_per_cut():
    # the traced run counts cuts and examples through the label_state hook and
    # times each cut's replay, merge count and features through the other three
    den = TemperedDenoiser(MarkovDenoiser(sticky_chain(4, 0.8)), noise_scale=0.3, seed=1)
    records = [
        SampleRecord(f"r{i}", den.vocab, (i % 4,), 12, decode(den, (i % 4,), 12, DecodeConfig(threshold=0.8, seed=i)))
        for i in range(3)
    ]
    tracer = spans.Tracer()
    tracer.install()
    try:
        ds = build_dataset(records, den, 3, np.random.default_rng(0), LabelingConfig(2, 2, 0.0))
    finally:
        tracer.uninstall()
    cuts = [i for i, span in enumerate(tracer.spans) if span[spans.NAME] == "labeling.label_state"]
    assert len(cuts) == len({(ex.traj_id, ex.k) for ex in ds.examples}) == 9
    assert sum(tracer.spans[i][spans.N] for i in cuts) == len(ds.examples)
    for i in cuts:
        children = sorted(span[spans.NAME] for span in tracer.spans if span[spans.PARENT] == i)
        assert children == ["core.apply_steps", "features", "merge.count_mergeable"]


class TopOneGate:
    """Indicator scoring each row by its top-1 probability."""

    config = SimpleNamespace(k1=1, k2=1)

    def score_bundles(self, features):
        return np.exp(features.top_logits[:, 0])


def test_traced_ni_decode_counts_each_querys_rows_and_the_base_rule_picks():
    # orders.select spans count len(out.positions) scored and len(result)
    # chosen; the traced run's ni_sampler.base_reveals and gate_reveals rest on
    # select_positions returning the base rule's picks, one entry each
    den = TemperedDenoiser(MarkovDenoiser(sticky_chain(4, 0.8)), noise_scale=0.3, seed=1)
    base = DecodeConfig(threshold=0.95)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traj = harness.ni_decode(tracer.denoiser(den), TopOneGate(), (2,), 16, NIConfig(base=base, eps_phi=0.6))
    finally:
        tracer.uninstall()
    start = MaskedSequence.fully_masked((2,), 16, den.vocab)
    outs = [den.query(apply_steps(start, traj, k)) for k in range(1, traj.n + 1)]
    picks = [len(select_positions(out, base)) for out in outs]
    selects = [span for span in tracer.spans if span[spans.NAME] == "orders.select"]
    queries = [span for span in tracer.spans if span[spans.NAME] == "denoiser.query"]
    assert [span[spans.N] for span in selects] == [span[spans.N] for span in queries] == [len(o.positions) for o in outs]
    assert [span[spans.M] for span in selects] == picks
    metrics = spans.layer_metrics(tracer.spans, 0, len(tracer.spans))
    assert metrics["ni_sampler.base_reveals"] == sum(picks)
    assert metrics["ni_sampler.gate_reveals"] == 16 - sum(picks) > 0


def _traced(fn):
    tracer = spans.Tracer()
    tracer.install()
    try:
        return fn(tracer), tracer.spans
    finally:
        tracer.uninstall()


def test_a_one_prompt_gen_data_is_one_traced_decode_with_a_posterior_per_query():
    # the traced run counts decode steps through harness.decode and times the
    # posterior through den.inner: one prompt must not take the lockstep path
    model = sticky_chain(4, 0.8)
    den = TemperedDenoiser(MarkovDenoiser(model), noise_scale=0.3, seed=1)
    (record,), traced = _traced(
        lambda tr: harness.gen_data(tr.denoiser(den), model, 2, 12, 1, DecodeConfig(threshold=0.9), seed=3)
    )
    names = [span[spans.NAME] for span in traced]
    assert names.count("orders.decode") == 1
    assert [span[spans.N] for span in traced if span[spans.NAME] == "orders.decode"] == [record.trajectory.n]
    queries = [i for i, name in enumerate(names) if name == "denoiser.query"]
    assert len(queries) == record.trajectory.n > 1
    for i in queries:
        assert [span[spans.NAME] for span in traced if span[spans.PARENT] == i] == ["denoiser.posterior"]


def test_a_three_prompt_ni_gen_data_is_three_traced_ni_decodes():
    # NI stays prompt by prompt: its indicator scoring is not bit-exact across prompts
    model = sticky_chain(4, 0.8)
    den = TemperedDenoiser(MarkovDenoiser(model), noise_scale=0.3, seed=1)
    ni_cfg = NIConfig(base=DecodeConfig(threshold=0.95), eps_phi=0.6)
    records, traced = _traced(
        lambda tr: harness.gen_data(
            tr.denoiser(den), model, 2, 12, 3, DecodeConfig(), seed=3, indicator=tr.indicator(TopOneGate()), ni_cfg=ni_cfg
        )
    )
    decodes = [span for span in traced if span[spans.NAME] == "ni_sampler.ni_decode"]
    assert [span[spans.N] for span in decodes] == [r.trajectory.n for r in records] and len(decodes) == 3
    assert not any(span[spans.NAME] == "orders.decode" for span in traced)
