"""Command line front end.

Subcommands: transform (one point), sweep (a grid to CSV or JSON),
ohm (moving-medium current at one point), verify (randomized self checks).

Data goes to stdout or --output; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage or configuration error,
3 domain error (resonance, static frequency, out-of-range point).  Every
input is checked as it is read, before anything is computed at a point, and
no numpy warning reaches stderr.  Large
sweeps, in either format, compute and render on every usable CPU: forked
children that never outlive the call each return a chunk's result through an
unnamed temporary file, and the bytes are the same; a caller without os.fork
or with other Python threads alive runs them in one process.

Options may come from flags or from a JSON config file (--config) with
keys c, model, velocity, grid {omega, k}, output {format, path}, seed,
samples, E; flags win over the file.  "model" is a path to a model
document or the document itself inlined.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import marshal
import math
import os
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

from . import reader
from .errors import DomainError, InvariantViolation, OhmcovError, ParseError, SpeedLimit
from .materials import MaterialModel, _model_from_text, model_from_dict
from .minkowski import _EYE3, BoostParams, UnitsConfig, Wavevector4, _checked, transform_wavevector
from .ohm import fields_from_electric, generalized_ohm, textbook_ohm, textbook_ohm_nr
from .transform import _direct, _flagged, _frame_faults, _oracle, _raise  # the boost route's kernels and their faults
from .verify import _rel_errors, run_all

__all__ = ["main"]

# Output layouts.  Every command renders its records from the layout: a layout lists (record key, CSV column prefix,
# kind), and a record is one flat row of its leaves' values in the layout's column order.  The kind gives the shape of
# the key's JSON value and its CSV column suffixes; a complex value is its [re, im] pairs.  Dotted keys reach into
# nested objects.  JSON fills the layout's cached json.dumps(record, indent=2) text, "%s" at each leaf, with json's own
# text of the row's values, so the bytes are the standard library's; CSV fills its line with str of the same values, as
# a sweep row does in both formats.  A key that is None (ohm's "textbook") is null in JSON and blank cells in CSV, and
# has no values in the row.
_KINDS = {
    "scalar": ((), [""]),
    "vector": ((3,), ["x", "y", "z"]),
    "complex": ((2,), ["_re", "_im"]),
    "complex vector": ((3, 2), [f"{a}_{p}" for a in "xyz" for p in ("re", "im")]),
    "complex matrix": ((3, 3, 2), [f"{i}{j}_{p}" for i in range(3) for j in range(3) for p in ("re", "im")]),
}

_POINT = (
    ("omega", "omega", "scalar"),
    ("k", "k", "vector"),
    ("omega_prime", "omega_prime", "scalar"),
    ("k_prime", "kp", "vector"),
)
_TRANSFORM = _POINT + (
    ("gamma", "gamma", "scalar"),
    ("sigma", "s", "complex matrix"),
    ("sigma_prime", "sp", "complex matrix"),
    ("residual", "residual", "scalar"),
)
_SWEEP = _POINT + (("sigma_prime", "sp", "complex matrix"), ("residual", "residual", "scalar"))
_OHM = _POINT + (
    ("gamma", "gamma", "scalar"),
    ("j", "j", "complex vector"),
    ("rho", "rho", "complex"),
    ("drift", "drift", "complex vector"),
    ("textbook.drift", "tb", "complex vector"),
    ("textbook.nonrel_drift", "nr", "complex vector"),
    ("textbook.diff_generalized_textbook", "diff_generalized_textbook", "scalar"),
    ("textbook.diff_generalized_nonrel", "diff_generalized_nonrel", "scalar"),
    ("textbook.diff_textbook_nonrel", "diff_textbook_nonrel", "scalar"),
)
_VERIFY = tuple((key, key, "scalar") for key in ("name", "samples", "max_residual", "tolerance", "passed", "seconds"))


def _columns(layout) -> list[str]:
    return [prefix + suffix for _, prefix, kind in layout for suffix in _KINDS[kind][1]]


SWEEP_COLUMNS = _columns(_SWEEP)

SWEEP_BLOCK = 1024  # grid points per kernel call: spreads numpy's cost per call, bounds the temporaries

MODEL_CACHE_SIZE = 8  # parsed model files kept: each holds its text and arrays, a few tables' worth of memory

ISOTROPY_RTOL = 1e-12


class ConfigError(OhmcovError):
    """Bad or missing command line / config file input."""


# ---------------------------------------------------------------------------
# options: flags, then the config file, then defaults


def _floats(text: str, n: int | None, name: str) -> list[float]:
    """The comma-separated numbers in text: exactly n of them, or any number, blank parts skipped, where n is None."""
    parts = [p.strip() for p in text.split(",")]
    if n is None:
        parts = [p for p in parts if p]
    elif len(parts) != n:
        raise ConfigError(f"{name}: expected {n} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _option(flag, cfg: dict, key: str, read, default):
    """The flag's value if given, else cfg[key] as read checks it at its location in the config file, if present,
    else default."""
    if flag is not None:
        return flag
    if key not in cfg:
        return default
    return read(cfg[key], f"{cfg['__where__']}[{key!r}]")


def _object(*keys: str):
    """The check of a config object with keys among keys; the object it returns holds its location for _option."""
    return lambda x, where: {**reader.fields(x, where, (), keys), "__where__": where}


def _load_config(path: str) -> dict:
    doc = reader.parse(reader.read_text(path, "config"), path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be an object")
    return _object("c", "model", "velocity", "grid", "output", "seed", "samples", "E")(doc, path)


def _setup(args, default_format: str) -> tuple[dict, UnitsConfig, str, str | None]:
    """Config file, units and output destination, which every command takes."""
    cfg = _load_config(args.config) if args.config else {}
    units = UnitsConfig(_option(args.c, cfg, "c", reader.real, 1.0))
    out = _option(None, cfg, "output", _object("format", "path"), {})
    fmt = _option(args.format, out, "format", reader.choice("csv", "structured"), default_format)
    path = _option(args.output, out, "path", reader.of(str, "a string"), None)
    return cfg, units, fmt, path


# A model file is read on every call, so an edit is always seen, and parsed once per distinct text and location,
# all that a parse depends on.  An error is raised afresh on each call: lru_cache keeps only results.
_parsed_model = functools.lru_cache(maxsize=MODEL_CACHE_SIZE)(_model_from_text)


def _model_and_boost(args, cfg: dict, units: UnitsConfig) -> tuple[MaterialModel, BoostParams]:
    spec = _option(args.model, cfg, "model", reader.of((str, dict), "a path or an inline model"), None)
    if spec is None:
        raise ConfigError("no conductivity model given (use --model or the 'model' config key)")
    if isinstance(spec, dict):
        model = model_from_dict(spec, f"{cfg['__where__']}['model']")
    else:
        # a path from the config file is relative to that file; joining keeps an absolute one
        path = spec if args.model is not None else Path(cfg["__where__"]).parent / spec
        model = _parsed_model(reader.read_text(path, "model file"), str(path))
    flag = None if args.velocity is None else _floats(args.velocity, 3, "--velocity")
    return model, BoostParams(_option(flag, cfg, "velocity", reader.vec3, [0.0, 0.0, 0.0]), units)


def _resolve_grid(args, cfg: dict) -> tuple[list[float], list[list[float]]]:
    grid = _option(None, cfg, "grid", _object("omega", "k"), {})
    flag = None if args.omega is None else _floats(args.omega, None, "--omega")
    omegas = _option(flag, grid, "omega", reader.array(reader.real), [])
    flag = None if args.k is None else [_floats(part, 3, "--k") for part in args.k.split(";") if part.strip()]
    return omegas, _option(flag, grid, "k", reader.array(reader.vec3), [])


def _resolve_single_point(args, cfg: dict) -> Wavevector4:
    omegas, ks = _resolve_grid(args, cfg)
    if len(omegas) != 1 or len(ks) != 1:
        raise ConfigError("this command needs exactly one omega and one k")
    return Wavevector4(omegas[0], ks[0])


def _resolve_efield(args, cfg: dict) -> np.ndarray:
    flag = None if args.E is None else _floats(args.E, 3, "--E")
    e = _option(flag, cfg, "E", _E, None)
    if e is None:
        raise ConfigError("ohm needs an electric field amplitude (--E or the 'E' config key)")
    return _checked(e, (3,), complex, "E")


# the config's E: 3 entries, each a real number or a [re, im] pair
_E = reader.array(lambda x, where: reader.pair(x, where) if isinstance(x, list) else reader.real(x, where), 3,
                  "a 3-vector")


# ---------------------------------------------------------------------------
# output


@functools.cache  # once per layout, format and set of None keys; a few kB each
def _template(layout: tuple, fmt: str, nulls: frozenset = frozenset()) -> str:
    """One record of the layout as fmt writes it, without its newline, "%s" where each leaf's value goes in column
    order: json.dumps(record, indent=2) for structured, the CSV line for csv.  The top-level keys in nulls are None:
    null in JSON, blank cells in CSV."""
    if fmt == "csv":
        return ",".join("" if key.split(".")[0] in nulls else "%s" for key, _, kind in layout for _ in _KINDS[kind][1])
    record = {}
    for key, _, kind in layout:
        *parents, leaf = key.split(".")
        node = record
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = np.full(_KINDS[kind][0], "%s", dtype=object).tolist()
    record.update(dict.fromkeys(nulls))  # a key keeps its place
    return json.dumps(record, indent=2).replace('"%s"', "%s")


def _render(fmt: str, layout: tuple, rows: list, nulls: frozenset = frozenset()) -> str:
    """Records of the layout as text, each a row of its leaves' values in column order but those under nulls: the one
    record's JSON, or the CSV header and a line per record."""
    if fmt == "structured":
        (row,) = rows
        return _template(layout, fmt, nulls) % tuple(json.dumps(row)[1:-1].split(", ")) + "\n"  # floats: no ", " inside
    # csv.writer's bytes: no cell (float, int, bool, blank, suite name) needs quoting
    line = _template(layout, fmt, nulls) + "\n"
    return ",".join(_columns(layout)) + "\n" + "".join([line % tuple(row) for row in rows])


@contextlib.contextmanager
def _at(omega, k):
    """The errors of the checks made in the block at the requested point omega, k, as the same errors naming it."""
    try:
        yield
    except (DomainError, InvariantViolation) as exc:
        raise type(exc)(f"at omega={float(omega)!r} k={np.asarray(k).tolist()!r}: {exc}") from exc


def _row(layout: tuple, kw: Wavevector4, *leaves) -> list:
    """A transform or ohm record's row of the layout: the point kw, then the leaves (its image, gamma, ...), each
    flattened, a complex one as its [re, im] pairs.  A value that is not finite raises, naming the point and its
    column."""
    row = [float(kw.omega), *kw.kvec.tolist()]
    for leaf in map(np.asarray, leaves):
        row += (leaf.ravel().view(float) if leaf.dtype == complex else leaf.ravel()).tolist()
    if not all(map(math.isfinite, row)):
        column, x = next((c, x) for c, x in zip(_columns(layout), row) if not math.isfinite(x))
        with _at(kw.omega, kw.kvec):
            raise InvariantViolation(f"output {column} = {x!r} is not finite")
    return row


def _write(path: str | None, chunks) -> None:
    """Write the text chunks, in order, to path or to stdout."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _route(model: MaterialModel, bp: BoostParams, omega: np.ndarray, k: np.ndarray) -> tuple:
    """The transform route at N checked points: sigma by the model, sigma', omega' and k' by the closed form, and
    their residual against the oracle's sigma'; with the faults in the order a transform makes its checks: the
    model's, its tensor's, each law's ending with its result's, and last the residual's finiteness."""
    sigma, faults = model._evaluate(omega, k)
    sigma_p, omega_p, k_p, direct_faults = _direct(sigma, omega, k, bp)
    sigma_o, omega_o, k_o, oracle_faults = _oracle(sigma, omega, k, bp.matrix(), bp.units)
    residual = _rel_errors(sigma_p, sigma_o)

    def replay(i: int) -> None:  # _row's error for the residual column
        raise InvariantViolation(f"output residual = {float(residual[i])!r} is not finite")

    tensor = _frame_faults(sigma, omega, k)[1]  # the point's own check is the input check, made already
    faults += [tensor, *direct_faults, *_frame_faults(sigma_p, omega_p, k_p), *oracle_faults,
               *_frame_faults(sigma_o, omega_o, k_o), (~np.isfinite(residual), replay)]
    return sigma, sigma_p, omega_p, k_p, residual, faults


def _sweep_chunk(model, bp: BoostParams, grid: Wavevector4, texts: tuple, row: str, start: int, stop: int) -> tuple:
    """Grid points start:stop through the transform route, a block at a time: each block's text, the row template
    filled per kept point with its grid texts and values; and the skipped points' (omega, k, reason) in grid order."""
    omega_texts, k_texts = texts
    blocks, skipped = [], []
    for lo in range(start, stop, SWEEP_BLOCK):
        block = slice(lo, min(lo + SWEEP_BLOCK, stop))
        omega, k = grid.omega[block], grid.kvec[block]
        _, sigma_p, omega_p, k_p, residual, faults = _route(model, bp, omega, k)
        keep = np.ones(len(omega), dtype=bool)
        for i in np.flatnonzero(_flagged(faults)).tolist():
            try:
                _raise(faults, i)
            except DomainError as exc:
                skipped.append((omega[i].item(), k[i].tolist(), f"{type(exc).__name__}: {exc}"))
                keep[i] = False
            except InvariantViolation:
                with _at(omega[i], k[i]):
                    raise
        # every value of a kept row is finite (the route's faults), so str writes json's text of it
        values = np.column_stack((omega_p, k_p, sigma_p.view(float).reshape(-1, 18), residual))[keep].tolist()
        wi, ki = np.divmod(lo + np.flatnonzero(keep), len(k_texts))
        blocks.append("".join([row % (omega_texts[i], *k_texts[j], *cells)
                               for i, j, cells in zip(wi.tolist(), ki.tolist(), values)]))
    return blocks, skipped


def _in_chunks(compute, n: int) -> list:
    """compute(start, stop) over n points in contiguous chunks, one per usable CPU and at most one per SWEEP_BLOCK
    points: the first here, each further one in a forked child that sends its result back through an unnamed
    temporary file, or here if that file or fork cannot be made or that child fails."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, -(-n // SWEEP_BLOCK))
    bounds = [n * c // workers for c in range(workers + 1)]
    children = {}  # chunk -> (pid, its result file); each is reaped before return, killed first if this raises
    try:
        for c in range(1, workers if hasattr(os, "fork") and threading.active_count() == 1 else 1):
            try:
                result = tempfile.TemporaryFile()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                result.close()
                break
            if pid == 0:  # the child leaves only by os._exit, with status 0 once its whole result is written
                try:
                    marshal.dump(compute(*bounds[c:c + 2]), result)
                    result.flush()
                    os._exit(0)
                finally:
                    os._exit(1)
            children[c] = pid, result
        results = [compute(*bounds[0:2])]
        for c in range(1, workers):
            status = 1
            if c in children:
                status = os.waitpid(children[c][0], 0)[1]
                with children.pop(c)[1] as result:
                    if not status:
                        result.seek(0)
                        results.append(marshal.load(result))
            if status:
                results.append(compute(*bounds[c:c + 2]))
        return results
    finally:
        for pid, result in children.values():
            result.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# subcommands


def cmd_transform(args) -> int:
    """The sweep's route at one point; its first fault raises, naming the point."""
    cfg, units, fmt, path = _setup(args, "structured")
    model, bp = _model_and_boost(args, cfg, units)
    kw = _resolve_single_point(args, cfg)
    sigma, sigma_p, omega_p, k_p, residual, faults = _route(model, bp, np.array([kw.omega]), kw.kvec[None])
    with _at(kw.omega, kw.kvec):
        _raise(faults)
    _write(path, [_render(fmt, _TRANSFORM, [_row(_TRANSFORM, kw, omega_p, k_p, bp.gamma, sigma, sigma_p, residual)])])
    return 0


def cmd_sweep(args) -> int:
    cfg, units, fmt, path = _setup(args, "csv")
    model, bp = _model_and_boost(args, cfg, units)
    omegas, ks = _resolve_grid(args, cfg)
    if not omegas or not ks:
        raise ConfigError("sweep needs at least one omega and one k (--omega/--k or the 'grid' config key)")
    grid = Wavevector4(np.repeat(omegas, len(ks)), np.tile(ks, (len(omegas), 1)))  # omega-major
    texts = [repr(w) for w in omegas], [[repr(x) for x in kv] for kv in ks]
    # each row after the separator from the one before; the first row drops its first character
    row = "\n" + _template(_SWEEP, fmt) if fmt == "csv" else ",\n    " + _template(_SWEEP, fmt).replace("\n", "\n    ")
    results = _in_chunks(functools.partial(_sweep_chunk, model, bp, grid, texts, row), len(grid.omega))
    skipped = [skip for _, skips in results for skip in skips]
    for w, kv, reason in skipped:
        print(f"skipped omega={w!r} k={kv!r}: {reason}", file=sys.stderr)
    blocks = [text for block_texts, _ in results for text in block_texts if text]  # those of blocks with kept rows
    if not blocks:
        print("sweep produced no rows: every grid point was skipped", file=sys.stderr)
        return 3
    if fmt == "csv":
        head, tail = ",".join(SWEEP_COLUMNS) + "\n", ""
    else:
        skipped = [{"omega": w, "k": kv, "reason": reason} for w, kv, reason in skipped]
        head, tail = json.dumps({"rows": ["%s"], "skipped": skipped}, indent=2).split('\n    "%s"', 1)
    _write(path, [head, blocks[0][1:], *blocks[1:], tail + "\n"])
    return 0


def cmd_ohm(args) -> int:
    cfg, units, fmt, path = _setup(args, "structured")
    model, bp = _model_and_boost(args, cfg, units)
    kw = _resolve_single_point(args, cfg)
    evec = _resolve_efield(args, cfg)
    with _at(kw.omega, kw.kvec):
        kw_p = transform_wavevector(bp.matrix(), kw, units)
        sigma_p = model.evaluate(kw_p)
        fields = fields_from_electric(evec, kw)
        gen = generalized_ohm(sigma_p, bp, fields)

    s0 = complex((sigma_p / 3.0).trace())  # a third of each entry: the sum stays finite for finite sigma'
    iso_defect = float(np.abs(sigma_p - s0 * _EYE3).max())
    # |s0| as 2 |s0/2| (halving is exact for normal numbers): inf, not OverflowError, where |s0| is beyond float range
    scalar = iso_defect <= ISOTROPY_RTOL * max(2.0 * abs(s0 / 2.0), 1e-14)
    if args.textbook and not scalar:
        raise ConfigError(
            f"textbook formula requires a scalar conductivity; got anisotropy {iso_defect:.3e} at {kw_p!r}"
        )
    textbook, nulls = [], frozenset()
    if scalar:
        tb = textbook_ohm(s0, bp, fields)
        nr = textbook_ohm_nr(s0, bp.v, fields)
        diffs = [np.abs(gen.drift_current - tb).max(), np.abs(gen.drift_current - nr).max(), np.abs(tb - nr).max()]
        textbook = [tb, nr, diffs]
    else:
        print("conductivity is not scalar at the boosted point; textbook outputs omitted", file=sys.stderr)
        nulls = frozenset({"textbook"})

    row = _row(_OHM, kw, kw_p.omega, kw_p.kvec, bp.gamma, gen.jvec, gen.rho, gen.drift_current, *textbook)
    _write(path, [_render(fmt, _OHM, [row], nulls)])
    return 0


def cmd_verify(args) -> int:
    cfg, units, fmt, path = _setup(args, "structured")
    seed = _option(args.seed, cfg, "seed", reader.integer, 0)
    samples = _option(args.samples, cfg, "samples", reader.integer, 1000)
    if samples <= 0:
        raise ConfigError(f"samples must be positive, got {samples}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    fault = 1e-6 if args.inject_fault else 0.0
    results = run_all(seed, samples, units, fault=fault)
    suites = [{key: getattr(r, key) for key, _, _ in _VERIFY} for r in results]
    if fmt == "structured":  # the suite names are strings, so json.dumps writes the whole report
        doc = {"seed": seed, "samples": samples, "passed": all(r.passed for r in results), "suites": suites}
        _write(path, [json.dumps(doc, indent=2) + "\n"])
    else:
        _write(path, [_render(fmt, _VERIFY, [list(suite.values()) for suite in suites])])
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # built on the first call, not at import; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ohmcov",
        description="Transform conductivity tensors between inertial frames and check the result.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name: str, help: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--c", type=float, help="speed of light (default 1)")
        p.add_argument("--output", help="write data here instead of stdout")
        p.add_argument("--format", choices=("csv", "structured"), help="output format")
        return p

    def pointful(name: str, help: str, handler) -> argparse.ArgumentParser:
        p = common(name, help, handler)
        p.add_argument("--model", help="conductivity model file")
        p.add_argument("--velocity", help="frame velocity vx,vy,vz")
        p.add_argument("--omega", help="comma-separated frequencies")
        p.add_argument("--k", help="semicolon-separated k vectors, each kx,ky,kz")
        return p

    pointful("transform", "boost the conductivity at one point", cmd_transform)
    pointful("sweep", "boost the conductivity over a grid", cmd_sweep)
    p = pointful("ohm", "moving-medium current response at one point", cmd_ohm)
    p.add_argument("--E", help="electric field amplitude ex,ey,ez (real; use a config file for complex)")
    p.add_argument("--textbook", action="store_true", help="fail instead of skipping the textbook formula when the conductivity is not scalar")

    p = common("verify", "run the randomized self checks", cmd_verify)
    p.add_argument("--seed", type=int, help="random seed, a non-negative integer (default 0)")
    p.add_argument("--samples", type=int, help="samples per suite (default 1000)")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="perturb the boost law by 1e-6 to prove the checks can fail",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # numpy's floating-point warnings are off: every computed value is checked (the route's faults, _row, the
        # verify suites' rule that NaN fails), so an overflow or an invalid value surfaces as that check's error
        with np.errstate(all="ignore"):
            return args.handler(args)
    except (ConfigError, ParseError, InvariantViolation, SpeedLimit, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
