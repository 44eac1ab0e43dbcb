"""ohmcov benchmark: three seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from anywhere; it imports the package from ``src/`` beside this
directory and exits with code 2 if that is missing.  Workloads (see
workloads.py): sweep-drude, verify, point-requests.

One process drives the package in a closed loop with one client: a request
starts when the previous one and its correctness gates are done.  BLAS
thread variables are set to 1.  Inputs are generated from the seed into
``perfbench/out/<workload>-seed<N>-trace<T>/io/`` and removed at the end;
the run record and, for traced runs, the spans stay in the directory above.

``--trace 0`` serves requests in rounds: one untimed warm-up round, then
timed rounds until S seconds of request time have passed (at least three).
A round runs each of the workload's distinct requests once (1000 for
point-requests, one for the others); a request is one cli.main call.  Every
request is gated, the warm-up round too.  The end-to-end metrics
BENCHMARK.json lists are then:

* setup_s: the median over 12 fresh interpreters, started between rounds
  throughout the run, of the time to import ohmcov and ohmcov.cli, the
  entry module every workload uses.  Single imports vary by a factor of
  two on a shared host; the median of samples spread over the run repeats
  better from run to run than their minimum does;
* points_per_s: units of work over the request time of all timed rounds;
* request_p50_ms, request_p90_ms: the median over timed rounds of the
  percentile of all latencies in a round (one request per round where a
  workload has one distinct request, so p50 = p90 there).  A cost that
  recurs in every round and hits more than a tenth of its requests stays
  in each round's p90, while a slow spell of the shared host in a few
  rounds does not move the figure.  The p99 is printed and recorded but
  not bounded: on a shared 2-vCPU host it reads the host's pauses rather
  than the program (on point-requests it spread by 0.58 of its median
  over ten seeds, p90 by 0.07);
* peak_rss_mb: getrusage peak resident memory of this process.

The same figures over the whole run and for the worst round, the setup
samples and every timed latency are printed and kept in the run record.

``--trace 1`` runs one untimed warm-up round, then untraced and traced
rounds in turn, two of each, with every public function of the seven
modules wrapped in the traced ones (tracing.py).  It fails if the two
traced rounds disagree on any call count, and reports the per-layer
metrics BENCHMARK.json lists; trace.overhead_ratio is the faster traced
round's time over the faster untraced round's.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  attempted and failed count each
distinct operation once, so they depend only on the seed and the program
(see Tally).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
SETUP_SAMPLES = 12  # fresh interpreters, spread through the rounds
SETUP_SNIPPET = (
    "import time; t0 = time.perf_counter(); import ohmcov, ohmcov.cli; "
    "print(repr(time.perf_counter() - t0)); print(ohmcov.__file__)"
)
WORKLOAD_NAMES = ("sweep-drude", "verify", "point-requests")
CHILD_TIMEOUT_S = 180
MIN_ROUNDS = 3


class BenchError(Exception):
    """The benchmark cannot run or its own consistency checks failed."""


def _inside(path: str, root: Path) -> bool:
    return Path(path).resolve().is_relative_to(root.resolve())


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _src_lines() -> dict[str, int]:
    return {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "ohmcov").glob("*.py"))}


def _setup_times(samples: int) -> list[float]:
    """Import time of ohmcov in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or not _inside(lines[1], SRC):
            raise BenchError(f"fresh import of ohmcov failed: {proc.stderr.strip() or proc.stdout.strip()}")
        times.append(float(lines[0]))
    return times


class Tally:
    """Gate outcomes of one or more rounds of requests.

    ``attempted`` and ``failed`` count the operations of each distinct
    request once, at its first run; every repeat is gated again and must
    reproduce that first outcome exactly, or the run is incorrect.  So they
    depend on the seed and the program, not on how many rounds fit in the
    time.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.defects: list[str] = []
        self.misses: list[str] = []
        self.outcomes: dict[int, tuple] = {}  # first outcome of each distinct request
        self.notes: dict = {}  # figures kept in the run record beside the metrics

    def round(self, tracer=None) -> list[float]:
        """Serve each distinct request once; returns their latencies."""
        workload, clock = self.workload, time.perf_counter
        latencies = []
        for i in range(workload.distinct_requests):
            if tracer is not None:
                tracer.request = i
            start = clock()
            result = workload.request(i)
            latencies.append(clock() - start)
            verdict = workload.check(result)
            outcome = (verdict.failed, verdict.defects, verdict.misses)
            first = self.outcomes.setdefault(i, outcome)
            if first is outcome:
                self.attempted += verdict.operations
                self.failed += verdict.failed
                self.defects += verdict.defects
                self.misses += verdict.misses
            elif outcome != first:
                self.defects.append(f"request {i} gave {outcome} when repeated, {first} the first time")
        return latencies


def _percentile(sorted_values: list[float], p: int) -> float:
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[p - 1]


def _figures(workload, latencies: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles over the given requests."""
    ms = sorted(1e3 * t for t in latencies)
    return {
        "points_per_s": len(latencies) * workload.units_per_request / sum(latencies),
        "request_p50_ms": statistics.median(ms),
        "request_p90_ms": _percentile(ms, 90),
        "request_p99_ms": _percentile(ms, 99),
    }


def _end_to_end(workload, seconds: float) -> tuple[Tally, dict[str, float]]:
    tally = Tally(workload)
    setup = _setup_times(1)
    tally.round()  # warm-up, gated but not timed: first calls pay lazy imports and cold caches
    rounds: list[list[float]] = []
    spent = 0.0
    while spent < seconds or len(rounds) < MIN_ROUNDS:
        rounds.append(tally.round())
        spent += sum(rounds[-1])
        while len(setup) < SETUP_SAMPLES * min(1.0, spent / seconds):
            setup += _setup_times(1)
    setup += _setup_times(SETUP_SAMPLES - len(setup))
    latencies = [t for r in rounds for t in r]
    whole = _figures(workload, latencies)
    per_round = [_figures(workload, r) for r in rounds]
    metrics = {key: statistics.median(f[key] for f in per_round) for key in ("request_p50_ms", "request_p90_ms")}
    metrics["points_per_s"] = whole["points_per_s"]
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worst = max(per_round, key=lambda f: f["request_p99_ms"])
    print(f"{len(latencies)} requests in {len(rounds)} rounds after a warm-up round, request time {spent:.3f} s")
    for label, f in (("whole run", whole), ("worst round", worst)):
        print(f"  {label}: {f['points_per_s']:.6g} units/s, p50 {f['request_p50_ms']:.6g} ms, "
              f"p90 {f['request_p90_ms']:.6g} ms, p99 {f['request_p99_ms']:.6g} ms")
    print(f"  setup samples {[round(t, 4) for t in setup]}")
    tally.notes.update(setup_samples_s=setup, whole_run=whole, worst_round=worst, rounds=len(rounds),
                       latencies_s=latencies)
    return tally, metrics


def _per_layer(workload, workdir: Path) -> tuple[Tally, dict[str, float]]:
    from tracing import Tracer

    tally = Tally(workload)
    tally.round()  # warm-up: first calls pay lazy imports and cold caches
    untraced, traced, tracers = [], [], []
    for _ in range(2):
        untraced.append(sum(tally.round()))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(sum(tally.round(tracer=tracer)))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    tracer, again = tracers
    if tracer.counts() != again.counts():
        diff = {k: (v, again.counts()[k]) for k, v in tracer.counts().items() if v != again.counts()[k]}
        raise BenchError(f"call counts differ between two traced rounds with the same seed: {diff}")
    again.dump(workdir / "spans.json")

    metrics = again.metrics()
    draws = again.child_calls("verify.sample_boost_setup", "verify.sample_point")
    rows, points = workload.sweep_rows, workload.sweep_points
    metrics.update({
        "minkowski.LorentzMatrix.calls_per_point":
            metrics["minkowski.LorentzMatrix.calls"] / (workload.distinct_requests * workload.units_per_request),
        "verify.sampler_accept_ratio": metrics["verify.sample_boost_setup.calls"] / draws if draws else 0.0,
        "cli.sweep_rows_ratio": rows / points if points else 0.0,
        "trace.overhead_ratio": min(traced) / min(untraced),
    })
    print(f"warm-up round, then untraced rounds {untraced[0]:.3f} s and {untraced[1]:.3f} s in turn with "
          f"traced rounds {traced[0]:.3f} s and {traced[1]:.3f} s; call counts repeat")
    for label, calls in sorted(again.counts().items()):
        if calls:
            print(f"  {label:48s} calls {calls:8d}  self_s {metrics[label + '.self_s']:.6f}")
    return tally, metrics


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    began = time.perf_counter()
    if not (SRC / "ohmcov" / "__init__.py").is_file():
        raise BenchError(f"no ohmcov package under {SRC}; run from a full checkout")
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy
    import ohmcov

    if not _inside(ohmcov.__file__, SRC):
        raise BenchError(f"imported ohmcov from {ohmcov.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREADS},
        "loadavg_start": _loadavg(), "src_lines": _src_lines(),
    }
    io_dir = workdir / "io"
    io_dir.mkdir(exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, io_dir)
        if trace:
            tally, measured = _per_layer(workload, workdir)
        else:
            tally, measured = _end_to_end(workload, seconds)
    finally:
        shutil.rmtree(io_dir)  # generated inputs and outputs; up to a few MB each
    record["loadavg_end"] = _loadavg()
    record["wall_s"] = time.perf_counter() - began  # the whole run, set-up and gates included
    record["src_lines_total"] = sum(record["src_lines"].values())
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    record.update(tally.notes)
    record.update(attempted=tally.attempted, failed=tally.failed, defects=tally.defects[:20],
                  misses=tally.misses[:20], metrics=metrics)
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"record {json.dumps({k: v for k, v in record.items() if k not in ('metrics', 'defects', 'misses', 'latencies_s', 'setup_samples_s')})}")
    for key, m in metrics.items():
        print(f"{name} {key} {m['value']:.6g} {m['unit']}")
    print(f"{name} failed_share {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} operations)")
    for defect in tally.defects[:20]:
        print(f"wrong output: {defect}", file=sys.stderr)
    for miss in tally.misses[:20]:
        print(f"tolerance missed: {miss}", file=sys.stderr)
    result = {"correct": not tally.defects, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{name} exited with code {proc.returncode}")
        print("\n".join(line for line in lines[:-1] if line.startswith(name)))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
