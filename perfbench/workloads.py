"""The benchmark workloads and their correctness gates.

Each workload writes its inputs from a seed into a work directory, then
serves one request per call of ``request()`` through ``cli.main``; the
package sees only the generated files and the argv.  ``check()`` runs
after the request's timer has stopped and returns a ``Verdict`` for it.

Units of work: a grid point (sweep-drude), one sample of one suite
(verify), a request (point-requests).  Operations, the base of
``attempted``/``failed``: a grid point, a suite run, a request.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ohmcov import cli

# Gates; each is the tolerance the package's own tests use for that check.
ORACLE_TOL = 1e-10  # direct vs kernel-route residual (tests/test_acceptance.py)
CONTINUITY_TOL = 1e-12  # omega rho = k.j, scaled as verify.continuity_suite does
ABS_FLOOR = 1e-14

SWEEP_OMEGAS, SWEEP_KS, PLANTED = 200, 50, 5
VERIFY_SAMPLES = 1000
VERIFY_SUITES = 6
REQUEST_SPECS = 1000  # distinct point requests, so that p99 has ten beyond it


@dataclass
class Verdict:
    """Outcome of one request's gates.

    ``failed`` counts operations that missed a gate.  ``defects`` are misses
    that make the output wrong in kind: an unexpected exit code, missing or
    extra rows, a wrong skip count, a report that contradicts itself.  They
    make the run incorrect.  ``misses`` are numbers beyond their tolerance: a residual
    above its gate, a verify suite reporting failure.  They are counted in
    ``failed`` and reported, never hidden, but leave the run correct: the
    seed-dependent ones are the known defect of fixed tolerances on
    ill-conditioned points, which a correct build still shows.
    """

    operations: int
    failed: int = 0
    defects: list = field(default_factory=list)
    misses: list = field(default_factory=list)


def _csv_vec(vec) -> str:
    return ",".join(repr(float(x)) for x in vec)


def _direction(rng: np.random.Generator) -> np.ndarray:
    while True:
        g = rng.standard_normal(3)
        n = float(np.linalg.norm(g))
        if n > 1e-12:
            return g / n


def _drude_doc(rng: np.random.Generator) -> dict:
    return {
        "type": "drude",
        "sigma0": [float(rng.uniform(0.5, 5.0)), float(rng.uniform(-1.0, 1.0))],
        "tau": float(rng.uniform(0.1, 2.0)),
    }


def _drude_sigma(doc: dict, omega: float) -> np.ndarray:
    """The Drude law, written out here to build a tabulated model."""
    s0 = complex(*doc["sigma0"])
    return s0 / (1.0 - 1j * omega * doc["tau"]) * np.eye(3)


def _call_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in process; returns the exit code and captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, err.getvalue()


def _sweep_argv(model: Path, v, omegas, ks, out: Path) -> list[str]:
    # "--flag=value": argparse would read a leading minus sign as a flag
    return [
        "sweep", f"--model={model}", f"--velocity={_csv_vec(v)}",
        f"--omega={_csv_vec(omegas)}", "--k=" + ";".join(_csv_vec(k) for k in ks),
        "--format=csv", f"--output={out}",
    ]


class Workload:
    """Request ``i`` serves distinct request ``i % distinct_requests``.

    ``sweep_rows`` and ``sweep_points`` sum the rows a sweep wrote and the
    grid points it was given, as check() sees them.
    """

    distinct_requests = 1
    sweep_rows = 0
    sweep_points = 0


class SweepDrude(Workload):
    """One ``ohmcov sweep`` over a 200 omega x 50 k Drude grid to a CSV file.

    Five omegas are planted exactly on the resonance omega = v.k of one k
    each, so every request must skip exactly five points.
    """

    name = "sweep-drude"
    units_per_request = SWEEP_OMEGAS * SWEEP_KS

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.model = workdir / "drude.json"
        self.model.write_text(json.dumps(_drude_doc(rng)))
        speed, heading = 0.6, _direction(rng)
        v = speed * heading
        ks = [rng.uniform(0.0, 5.0) * _direction(rng) for _ in range(SWEEP_KS)]
        omegas = list(rng.uniform(0.1, 10.0, SWEEP_OMEGAS - PLANTED))
        for j in range(PLANTED):
            # v.k lands in [0.2, 2.8]; the package computes v.k with this same dot product
            ks[j] = rng.uniform(0.5, 2.5) / speed * heading + 0.5 * _direction(rng)
            omegas.append(float(v @ ks[j]))
        self.out = workdir / "sweep.csv"
        self.argv = _sweep_argv(self.model, v, omegas, ks, self.out)

    def request(self, i: int):
        return _call_cli(self.argv)

    def check(self, result) -> Verdict:
        code, err = result
        verdict = Verdict(self.units_per_request)
        if code != 0:
            verdict.failed = verdict.operations
            verdict.defects.append(f"exit code {code}")
            return verdict
        with self.out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.out.unlink()
        skipped = err.count("skipped omega=")
        self.sweep_rows += len(rows)
        self.sweep_points += self.units_per_request
        expected_rows = self.units_per_request - PLANTED
        if skipped != PLANTED or len(rows) != expected_rows:
            verdict.defects.append(f"{skipped} skips and {len(rows)} rows, planted {PLANTED}")
            verdict.failed += max(abs(skipped - PLANTED), abs(len(rows) - expected_rows))
        above = [float(r["residual"]) for r in rows if not float(r["residual"]) <= ORACLE_TOL]
        verdict.failed += len(above)
        if above:
            verdict.misses.append(f"{len(above)} rows above residual {ORACLE_TOL:g}, worst {max(above):.3e}")
        return verdict


class Verify(Workload):
    """``ohmcov verify --samples 1000 --seed <seed>``, report to a JSON file."""

    name = "verify"
    units_per_request = VERIFY_SUITES * VERIFY_SAMPLES

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "verify.json"
        self.argv = ["verify", f"--samples={VERIFY_SAMPLES}", f"--seed={seed}", f"--output={self.out}"]

    def request(self, i: int):
        return _call_cli(self.argv)

    def check(self, result) -> Verdict:
        code, _ = result
        verdict = Verdict(VERIFY_SUITES)
        try:
            suites = json.loads(self.out.read_text())["suites"]
            self.out.unlink()  # so a request that writes nothing cannot pass on a stale report
        except (OSError, ValueError, KeyError) as exc:
            verdict.failed = verdict.operations
            verdict.defects.append(f"exit code {code}, unreadable report: {exc}")
            return verdict
        verdict.failed = sum(1 for s in suites if not s["passed"])
        verdict.misses += [f"suite {s['name']}: max residual {s['max_residual']:.3e} against {s['tolerance']:g}"
                           for s in suites if not s["passed"]]
        consistent = (
            len(suites) == VERIFY_SUITES
            and all(s["samples"] == VERIFY_SAMPLES for s in suites)
            and all(s["passed"] == (s["max_residual"] < s["tolerance"]) for s in suites)
            and code == (1 if verdict.failed else 0)
        )
        if not consistent:
            verdict.failed = verdict.operations
            verdict.defects.append(f"exit code {code} contradicts the report {suites!r}")
        return verdict


def _model_docs(rng: np.random.Generator) -> list[dict]:
    """One model document of each of the four kinds."""
    axis = _drude_doc(rng)
    table = _drude_doc(rng)
    tab_ks = [rng.uniform(0.0, 1.0) * _direction(rng) for _ in range(4)]
    samples = []
    for k in tab_ks:
        for w in np.linspace(0.1, 12.0, 16):
            # a small real anisotropy, so the ohm command takes its non-scalar branch
            sigma = _drude_sigma(table, w) + 0.1 * rng.uniform(-1.0, 1.0, (3, 3))
            samples.append({
                "omega": float(w),
                "k": [float(x) for x in k],
                "sigma": [[[float(z.real), float(z.imag)] for z in row] for row in sigma],
            })
    return [
        {"type": "constant-scalar", "sigma0": [float(rng.uniform(0.5, 5.0)), float(rng.uniform(-1.0, 1.0))]},
        _drude_doc(rng),
        {"type": "diagonal", "entries": [
            [float(rng.uniform(0.5, 5.0)), 0.0],
            {"sigma0": axis["sigma0"], "tau": axis["tau"]},
            [float(rng.uniform(0.5, 5.0)), float(rng.uniform(-1.0, 1.0))],
        ]},
        {"type": "tabulated", "interpolation": "linear-in-omega", "samples": samples},
    ]


class PointRequests(Workload):
    """Single-point ``transform`` and ``ohm`` requests, alternating, over
    model files of all four kinds; each request writes a JSON file.

    omega in [1, 5], |k| <= 1 and |v| <= 0.5 keep omega - v.k >= 0.5 and
    the boosted frequency inside the tabulated model's [0.1, 12] span.
    """

    name = "point-requests"
    units_per_request = 1
    distinct_requests = REQUEST_SPECS

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        models = []
        for i, doc in enumerate(_model_docs(rng)):
            path = workdir / f"model{i}.json"
            path.write_text(json.dumps(doc))
            models.append(path)
        self.out = workdir / "point.json"
        self.specs = []
        for i in range(REQUEST_SPECS):
            command = "transform" if i % 2 == 0 else "ohm"
            omega = float(rng.uniform(1.0, 5.0))
            k = rng.uniform(0.0, 1.0) * _direction(rng)
            argv = [
                command, f"--model={models[(i // 2) % len(models)]}",
                f"--velocity={_csv_vec(rng.uniform(0.0, 0.5) * _direction(rng))}",
                f"--omega={omega!r}", f"--k={_csv_vec(k)}", f"--output={self.out}",
            ]
            if command == "ohm":
                argv.append(f"--E={_csv_vec(rng.uniform(-1.0, 1.0, 3))}")
            self.specs.append((command, omega, k, argv))

    def request(self, i: int):
        command, omega, k, argv = self.specs[i % len(self.specs)]
        code, _ = _call_cli(argv)
        return command, omega, k, code

    def check(self, result) -> Verdict:
        command, omega, k, code = result
        verdict = Verdict(1)
        try:
            doc = json.loads(self.out.read_text()) if code == 0 else None
            self.out.unlink(missing_ok=True)
        except (OSError, ValueError) as exc:
            doc = None
            verdict.defects.append(f"{command}: unreadable output: {exc}")
        if doc is None:
            verdict.failed = 1
            verdict.defects.append(f"{command}: exit code {code}")
        elif command == "transform":
            if not doc["residual"] <= ORACLE_TOL:
                verdict.failed = 1
                verdict.misses.append(f"transform residual {doc['residual']:.3e} > {ORACLE_TOL:g}")
        else:
            rho = complex(*doc["rho"])
            j = np.array([complex(*p) for p in doc["j"]])
            denom = abs(omega) * abs(rho) + float(np.abs(k) @ np.abs(j)) + ABS_FLOOR
            miss = abs(omega * rho - complex(k @ j)) / denom
            if not miss <= CONTINUITY_TOL:
                verdict.failed = 1
                verdict.misses.append(f"ohm continuity residual {miss:.3e} > {CONTINUITY_TOL:g}")
        return verdict


WORKLOADS = {w.name: w for w in (SweepDrude, Verify, PointRequests)}
