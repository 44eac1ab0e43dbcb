"""The per-layer names the traced benchmark reports.

perfbench/run.py reports every per-layer figure BENCHMARK.json lists: most
are a traced label's calls or self time, and four it derives, some from
labels it looks up by name.  A traced run (``--trace 1``) fails with a
ValueError or KeyError once one of these labels drops out of its module's
__all__.  The tracer is used as it is, from perfbench/ on sys.path.
"""

import json
from pathlib import Path

import ohmcov.cli  # noqa: F401  the tracer wraps every module that cli imports

ROOT = Path(__file__).resolve().parents[1]

# The per-layer figures perfbench/run.py derives, and the labels each reads.
DERIVED = {
    "minkowski.LorentzMatrix.calls_per_point": {"minkowski.LorentzMatrix"},
    "verify.sampler_accept_ratio": {"verify.sample_boost_setup", "verify.sample_point"},
    "cli.sweep_rows_ratio": set(),
    "trace.overhead_ratio": set(),
}


def test_benchmark_labels_are_traced(monkeypatch):
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert names - set(tracer.metrics()) == set(DERIVED)
        assert set().union(*DERIVED.values()) <= set(tracer.labels)
    finally:
        tracer.uninstall()
