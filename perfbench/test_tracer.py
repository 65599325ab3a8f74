"""Self-checks of the benchmark's tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tracer.py

Runs whole passes of the workloads, so it takes a few minutes.  Not part of
the repository's test suite (pytest collects only ``tests/`` by default).
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import quiverforge  # noqa: E402
from quiverforge import cache, counting, ffield  # noqa: E402
from run import Run  # noqa: E402
from tracer import LAYER_CLASSES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _snapshot() -> dict:
    names = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "quiverforge" or mod_name.startswith("quiverforge."):
            for attr, obj in vars(mod).items():
                names[(mod_name, attr)] = obj
    for cls in LAYER_CLASSES:
        for attr, obj in vars(cls).items():
            names[(cls.__qualname__, attr)] = obj
    return names


def _answers(jobs, tracer=None) -> dict:
    out = {}
    for job in jobs:
        if tracer is not None:
            with tracer:
                out.setdefault(job.name, []).append(job.call())
        else:
            out.setdefault(job.name, []).append(job.call())
    return out


def _traced_counts(workload) -> dict:
    tracer = Tracer()
    run = Run()
    with tracer:
        run.run_pass(workload.next_pass(), tracer)
    assert run.failed == 0
    return {k: v for k, v in tracer.pass_metrics().items() if not k.endswith("_s")}


def test_uninstall_restores_every_patched_name():
    before = _snapshot()
    original = counting.orbit_partition
    tracer = Tracer().install()
    try:
        assert counting.orbit_partition is not original
        assert quiverforge.kac_polynomial is not before[("quiverforge", "kac_polynomial")]
        assert ffield.FqMatrix.det is not before[("FqMatrix", "det")]
        assert tracer._patched
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert all(
        not isinstance(obj, types.FunctionType) or "wrapper" not in obj.__code__.co_name
        for obj in after.values()
    )


@pytest.mark.parametrize("name", ["kac", "burnside", "moduli", "cli-cache"])
def test_traced_answers_match_untraced(name, tmp_path):
    plain = WORKLOADS[name](str(tmp_path / "plain"), seed=1)
    traced = WORKLOADS[name](str(tmp_path / "traced"), seed=1)
    expected = _answers(plain.next_pass())
    got = _answers(traced.next_pass(), Tracer())
    assert got == expected
    for job in plain.jobs:
        assert all(answer == job.expected for answer in expected[job.name]), job.name


@pytest.mark.parametrize("name", ["kac", "burnside", "moduli"])
def test_layer_counts_repeat_across_runs_and_seeds(name, tmp_path):
    first = WORKLOADS[name](str(tmp_path / "a"), seed=1)
    other_seed = WORKLOADS[name](str(tmp_path / "b"), seed=2)
    counts = _traced_counts(first)
    assert counts["counting.classify.calls"] > 0
    assert _traced_counts(first) == counts
    assert _traced_counts(other_seed) == counts


def test_lines_scanned_counts_lines_the_lookup_reads(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    for i in range(7):
        cache.cache_store(path, "h", "op", {"i": i}, "v", i)
    tracer = Tracer()
    with tracer:
        assert cache.cache_lookup(path, "h", "op", {"i": 3}, "v") == 3
        assert cache.cache_lookup(str(tmp_path / "missing.jsonl"), "h", "op", {}, "v") is None
        cache.cache_store(path, "h", "op", {"i": 7}, "v", 7)
        assert cache.cache_lookup(path, "h", "op", {"i": 7}, "v") == 7
    assert tracer.counts["cache.lines_scanned"] == 7 + 8
    assert "open" not in vars(cache)


def test_settle_charges_wrapper_cost_per_window(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setattr(tracer_module, "wrapper_cost", lambda: (1.0, 10.0))
    tracer = Tracer()
    leaf = tracer._wrap_function("x.leaf", lambda: None, keep=False)
    mid = tracer._wrap_function("x.mid", lambda: (leaf(), leaf()), keep=False)
    tracer.start_pass()
    mid()
    mid()
    tracer.settle()
    # leaf: 4 windows, no children; mid: 2 windows, 4 child windows
    assert tracer.charged["x.leaf"] == [4.0, 4.0]
    assert tracer.charged["x.mid"] == [2 * 1.0 + 4 * 10.0, 2 * 1.0 + 4 * 11.0]
    assert tracer.charged_pass == 6 * 11.0
    tracer.settle()  # nothing new to charge
    assert tracer.charged_pass == 6 * 11.0
