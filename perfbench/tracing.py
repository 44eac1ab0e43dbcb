"""Per-layer tracing of ohmcov from outside the package.

``Tracer.install()`` wraps every public function, every constructor and
every ``evaluate`` method that the seven modules below list in
``__all__``.  A function is rebound under each name that refers to it in
any ohmcov module, because ``cli``, ``verify``, ``ohm`` and ``transform``
import names directly; constructors and methods are wrapped on the class.
``uninstall()`` puts every original back.

Each call records a span (name, parent span, request number, start, end)
in preallocated arrays that stay in memory until ``dump()``.  A span's self
time is its duration minus the durations of its direct child spans, which
it covers; time in private helpers and in numpy counts towards the nearest
wrapped caller.  Span labels are ``<module>.<name>`` for functions and
constructors and ``<module>.<Class>.evaluate`` for methods.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("minkowski", "response", "transform", "materials", "ohm", "verify", "cli")
METHODS = ("evaluate",)


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.edges: Counter = Counter()  # (parent label id, child label id) -> calls
        self.request = -1  # set by the caller; spans of one request share it
        self._stack: list[list[int]] = []  # [span index, label id, ns covered by children]
        self._spans = {key: array("q") for key in ("label", "parent", "request", "start_ns", "end_ns")}
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        ours = [m for n, m in sys.modules.items() if n == "ohmcov" or n.startswith("ohmcov.")]
        for short in MODULES:
            mod = sys.modules[f"ohmcov.{short}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for attr in ("__init__", *METHODS):
                        if attr in vars(obj):
                            label = f"{short}.{name}" if attr == "__init__" else f"{short}.{name}.{attr}"
                            self._patch(obj, attr, self._wrap(label, vars(obj)[attr]))
                elif callable(obj):
                    traced = self._wrap(f"{short}.{name}", obj)
                    for module in ours:
                        for key, value in list(vars(module).items()):
                            if value is obj:
                                self._patch(module, key, traced)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, label: str, fn):
        lid = len(self.labels)
        self.labels.append(label)
        self.calls.append(0)
        self.self_ns.append(0)
        stack, calls, self_ns, edges = self._stack, self.calls, self.self_ns, self.edges
        s = self._spans
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(s["label"])
            s["label"].append(lid)
            s["parent"].append(parent[0] if parent else -1)
            s["request"].append(tracer.request)
            s["start_ns"].append(0)
            s["end_ns"].append(0)
            frame = [idx, lid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                s["start_ns"][idx] = start
                s["end_ns"][idx] = end
                calls[lid] += 1
                self_ns[lid] += end - start - frame[2]
                if parent is not None:
                    parent[2] += end - start
                    edges[parent[1], lid] += 1

        return traced

    def counts(self) -> dict[str, int]:
        return dict(zip(self.labels, self.calls))

    def child_calls(self, parent: str, child: str) -> int:
        return self.edges[self.labels.index(parent), self.labels.index(child)]

    def metrics(self) -> dict[str, float]:
        """``<label>.calls``, ``<label>.self_s`` and ``<module>.self_s``."""
        out: dict[str, float] = {}
        per_module = dict.fromkeys(MODULES, 0)
        for label, n, ns in zip(self.labels, self.calls, self.self_ns):
            out[f"{label}.calls"] = n
            out[f"{label}.self_s"] = ns / 1e9
            per_module[label.split(".", 1)[0]] += ns
        out.update({f"{m}.self_s": ns / 1e9 for m, ns in per_module.items()})
        return out

    def dump(self, path) -> None:
        """Write the spans as columns; start and end are ns after the first span."""
        s = self._spans
        t0 = min(s["start_ns"], default=0)
        doc = {
            "labels": self.labels,
            "label": s["label"].tolist(),
            "parent": s["parent"].tolist(),
            "request": s["request"].tolist(),
            "start_ns": [t - t0 for t in s["start_ns"]],
            "end_ns": [t - t0 for t in s["end_ns"]],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
