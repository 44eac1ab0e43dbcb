"""The span labels the traced benchmark reads by name.

perfbench/run.py looks some per-layer figures up by label, so a traced run
(``--trace 1``) fails with a ValueError or KeyError once one of these names
drops out of its module's __all__.  The tracer is used as it is, from
perfbench/ on sys.path.
"""

from pathlib import Path

import ohmcov.cli  # noqa: F401  the tracer wraps every module that cli imports

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

LABELS = {"verify.sample_boost_setup", "verify.sample_point", "minkowski.LorentzMatrix", "cli.main"}


def test_benchmark_labels_are_traced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        assert LABELS <= set(tracer.labels)
    finally:
        tracer.uninstall()
