"""The benchmark's traced run rebinds program attributes by name
(``bench/spans.py``); a rename in the program must fail here, not only in
the benchmark's own self-test. This file reads ``bench/`` and changes nothing
there."""

import importlib.util
from pathlib import Path

import pytest

from conftest import sticky_chain
from maskorder.denoiser import MarkovDenoiser, TemperedDenoiser

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
