"""Conductivity models and their on-disk format.

Four model kinds cover the cases the command line tool needs:

* ``constant-scalar``  sigma(k, omega) = sigma0 * identity
* ``drude``            sigma(omega) = sigma0 / (1 - i omega tau) * identity
* ``diagonal``         independent xx, yy, zz entries, each a constant or
                       its own Drude pole
* ``tabulated``        explicit samples on a set of k points, interpolated
                       linearly in omega at fixed k (nearest k otherwise)

Models are stored as JSON documents.  Field names are case sensitive and
complex numbers are written as two-element [re, im] arrays::

    {"type": "constant-scalar", "sigma0": [2.0, 0.0]}
    {"type": "drude", "sigma0": [1.0, 0.0], "tau": 0.5}
    {"type": "diagonal", "entries": [[1.0, 0.0],
                                     {"sigma0": [2.0, 0.0], "tau": 0.3},
                                     [0.5, -0.1]]}
    {"type": "tabulated", "interpolation": "linear-in-omega",
     "samples": [{"omega": 1.0, "k": [0.0, 0.0, 0.0],
                  "sigma": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}]}

A tabulated model may carry ``"real_fields": true``, promising that it
describes a response to real fields; construction then checks the reality
condition sigma(-k, -omega) = conj(sigma(k, omega)) on every pair of
mirrored nodes present in the table.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Union

import numpy as np

from .errors import InvariantViolation, OutOfRange, ParseError
from .response import _static
from .minkowski import Wavevector4, _checked
from .transform import _raise

__all__ = [
    "MaterialModel",
    "ConstantScalar",
    "Drude",
    "DiagonalAnisotropic",
    "Tabulated",
    "RealityReport",
    "check_reality",
    "load_model",
    "save_model",
    "model_to_dict",
    "model_from_dict",
]

REALITY_TOL = 1e-10

_INTERPOLATIONS = ("linear-in-omega", "nearest")

_NEAREST_CELLS = 1 << 14  # (point, k column) pairs per nearest-k broadcast


class MaterialModel:
    """Base class; concrete models implement _evaluate(omega, k), which returns sigma at N
    checked points and the faults of evaluate (transform._raise) at them."""

    def evaluate(self, kw: Wavevector4) -> np.ndarray:
        return self.evaluate_batch(np.array([kw.omega]), kw.kvec[None])[0]

    def evaluate_batch(self, omega, k) -> np.ndarray:
        """The (N, 3, 3) conductivity at omega (N,), k (N, 3); raises as evaluate at the first bad point."""
        n = np.size(omega)
        sigma, faults = self._evaluate(_checked(omega, (n,), float, "omega"), _checked(k, (n, 3), float, "kvec"))
        _raise(faults)
        return sigma


def _drude(sigma0: complex, tau: float, omega: np.ndarray) -> np.ndarray:
    # Python's complex division, point by point: numpy's rounds differently
    return np.array([sigma0 / (1.0 - 1j * w * tau) for w in omega.tolist()], dtype=complex)


@dataclass(frozen=True)
class ConstantScalar(MaterialModel):
    """Isotropic, dispersionless conductivity."""

    sigma0: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma0", complex(_checked(self.sigma0, (), complex, "sigma0")))

    def _evaluate(self, omega: np.ndarray, k: np.ndarray) -> tuple:
        return np.repeat((self.sigma0 * np.eye(3, dtype=complex))[None], len(omega), axis=0), [_static(omega)]


@dataclass(frozen=True)
class Drude(MaterialModel):
    """Single-pole isotropic conductivity sigma0 / (1 - i omega tau)."""

    sigma0: complex
    tau: float

    def __post_init__(self) -> None:
        s = complex(_checked(self.sigma0, (), complex, "sigma0"))
        tau = float(self.tau)
        if not (np.isfinite(tau) and tau > 0.0):
            raise InvariantViolation(f"relaxation time must be positive, got {self.tau!r}")
        object.__setattr__(self, "sigma0", s)
        object.__setattr__(self, "tau", tau)

    def _evaluate(self, omega: np.ndarray, k: np.ndarray) -> tuple:
        return _drude(self.sigma0, self.tau, omega)[:, None, None] * np.eye(3, dtype=complex), [_static(omega)]


AxisEntry = Union[complex, Drude]


@dataclass(frozen=True)
class DiagonalAnisotropic(MaterialModel):
    """Diagonal tensor; each axis entry is a constant or a Drude pole."""

    entries: tuple[AxisEntry, AxisEntry, AxisEntry]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if len(entries) != 3:
            raise InvariantViolation(f"need exactly 3 axis entries, got {len(entries)}")
        normalized = []
        for i, e in enumerate(entries):
            if isinstance(e, Drude):
                normalized.append(e)
                continue
            normalized.append(complex(_checked(e, (), complex, f"axis entry {i}")))
        object.__setattr__(self, "entries", tuple(normalized))

    def _evaluate(self, omega: np.ndarray, k: np.ndarray) -> tuple:
        sigma = np.zeros((len(omega), 3, 3), dtype=complex)
        for axis, e in enumerate(self.entries):
            sigma[:, axis, axis] = _drude(e.sigma0, e.tau, omega) if isinstance(e, Drude) else e
        return sigma, [_static(omega)]

    @property
    def sx(self) -> AxisEntry:
        return self.entries[0]

    @property
    def sy(self) -> AxisEntry:
        return self.entries[1]

    @property
    def sz(self) -> AxisEntry:
        return self.entries[2]


class _Nodes(NamedTuple):
    """A table's samples as arrays: omega (N,), k (N, 3) and sigma (N, 3, 3)."""

    omega: np.ndarray
    k: np.ndarray
    sigma: np.ndarray


def _nodes_from_pairs(samples) -> _Nodes:
    """(point, tensor) pairs as arrays, each pair checked in turn: its point,
    its tensor, then that the point is new."""
    points, tensors, seen = [], [], set()
    for kw, sigma in samples:
        if not isinstance(kw, Wavevector4):
            kw = Wavevector4(*kw)
        # named by index: formatting kw for every sample would cost more than the check
        tensors.append(_checked(sigma, (3, 3), complex, f"tabulated tensor {len(tensors)}"))
        key = (kw.omega, *kw.kvec.tolist())
        if key in seen:
            raise InvariantViolation(f"duplicate sample point {kw!r}")
        seen.add(key)
        points.append(kw)
    omega = np.array([kw.omega for kw in points], dtype=float)
    return _Nodes(omega, np.array([kw.kvec for kw in points]).reshape(-1, 3), np.array(tensors).reshape(-1, 3, 3))


class Tabulated(MaterialModel):
    """Explicit samples; linear in omega at fixed k, nearest in k.

    samples: iterable of (Wavevector4, 3x3 complex tensor) pairs.  The
    (k, omega) keys must be distinct.  interpolation selects how omega is
    handled within the nearest k column: "linear-in-omega" interpolates
    between the bracketing nodes, "nearest" snaps to the closest node.
    Either way omega must lie inside the sampled span of that column.
    """

    def __init__(self, samples, interpolation: str = "linear-in-omega", real_fields: bool = False):
        if interpolation not in _INTERPOLATIONS:
            raise InvariantViolation(f"interpolation must be one of {_INTERPOLATIONS}, got {interpolation!r}")
        # model_from_dict hands over the arrays it read; the pairs' own checks run when a node is bad
        omega, k, sigma = samples if isinstance(samples, _Nodes) else _nodes_from_pairs(samples)
        n = len(omega)
        omega, k = _checked(omega, (n,), float, "omega"), _checked(k, (n, 3), float, "kvec")
        keys = [(w, *kv) for w, kv in zip(omega.tolist(), k.tolist())]
        if len(set(keys)) < n or not np.isfinite(sigma).all():
            _nodes_from_pairs(zip(zip(omega, k), sigma))  # raises the first bad pair's error
        if not n:
            raise InvariantViolation("tabulated model needs at least one sample")
        self._nodes = _Nodes(omega, k, sigma)
        self.interpolation = interpolation
        self.real_fields = bool(real_fields)
        # omegas and tensors at each k point of _kpoints, sorted in omega, and their span
        columns: dict[tuple, list[int]] = {}
        for i in np.argsort(omega, kind="stable").tolist():
            columns.setdefault(keys[i][1:], []).append(i)
        self._kpoints = np.array(sorted(columns))
        self._columns = [(omega[columns[kpt]], sigma[columns[kpt]]) for kpt in sorted(columns)]
        self._spans = np.array([(omegas[0], omegas[-1]) for omegas, _ in self._columns])
        if self.real_fields:
            self._check_mirrored_nodes(dict(zip(keys, sigma)))

    @functools.cached_property
    def samples(self) -> tuple:
        """The (Wavevector4, 3x3 complex tensor) pairs, in the order given."""
        omega, k, sigma = self._nodes
        return tuple((Wavevector4(w, kv), s) for w, kv, s in zip(omega.tolist(), k, sigma))

    def _check_mirrored_nodes(self, seen: dict[tuple, np.ndarray]) -> None:
        for key, s in seen.items():
            mirror = tuple(-x for x in key)
            if mirror not in seen:
                continue
            dev = float(np.max(np.abs(seen[mirror] - np.conj(s))))
            if dev > REALITY_TOL:
                raise InvariantViolation(
                    f"reality condition broken at omega={key[0]!r}, k={list(key[1:])!r}: deviation {dev:.3e}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tabulated):
            return NotImplemented
        if self.interpolation != other.interpolation or self.real_fields != other.real_fields:
            return False
        return all(np.array_equal(a, b) for a, b in zip(self._nodes, other._nodes))

    def __repr__(self) -> str:
        return (
            f"Tabulated({len(self._nodes.omega)} samples, interpolation={self.interpolation!r}, "
            f"real_fields={self.real_fields!r})"
        )

    def _nearest(self, k: np.ndarray) -> np.ndarray:
        """The index of each point's nearest k column; of equidistant columns the first."""
        step = max(1, _NEAREST_CELLS // len(self._kpoints))  # points per broadcast: bounds its temporary
        return np.concatenate([
            np.linalg.norm(k[i:i + step, None, :] - self._kpoints[None], axis=2).argmin(axis=1)
            for i in range(0, max(len(k), 1), step)  # one chunk at least: no points give an empty index array
        ])

    def _evaluate(self, omega: np.ndarray, k: np.ndarray) -> tuple:
        near = self._nearest(k)
        sigma = np.empty((len(omega), 3, 3), dtype=complex)
        for col in set(near.tolist()):
            omegas, tensors = self._columns[col]
            w = omega[near == col]
            if self.interpolation == "nearest" or len(omegas) == 1:  # one node: nothing to interpolate
                s = tensors[np.argmin(np.abs(omegas - w[:, None]), axis=1)]
            else:
                hi = np.clip(np.searchsorted(omegas, w), 1, len(omegas) - 1)
                with np.errstate(all="ignore"):  # points far outside the span may overflow; the faults flag them
                    t = ((w - omegas[hi - 1]) / (omegas[hi] - omegas[hi - 1]))[:, None, None]
                    s = (1.0 - t) * tensors[hi - 1] + t * tensors[hi]
            exact = omegas == w[:, None]
            sigma[near == col] = np.where(exact.any(axis=1)[:, None, None], tensors[exact.argmax(axis=1)], s)
        outside = (omega < self._spans[near, 0]) | (omega > self._spans[near, 1])
        return sigma, [_static(omega), (outside, lambda i: self._out_of_range(float(omega[i]), near[i]))]

    def _out_of_range(self, w: float, col: int):
        lo, hi = self._spans[col].tolist()
        k = self._kpoints[col].tolist()
        raise OutOfRange(f"omega = {w!r} outside the tabulated span [{lo!r}, {hi!r}] at k = {k!r}")


@dataclass(frozen=True)
class RealityReport:
    """Outcome of a reality-condition sweep; empty violations means pass."""

    violations: tuple
    tol: float = REALITY_TOL

    @property
    def passed(self) -> bool:
        return not self.violations


def check_reality(model: MaterialModel, sample_points, tol: float = REALITY_TOL) -> RealityReport:
    """Check sigma(-k, -omega) = conj(sigma(k, omega)) entrywise at each
    given point.  The model must be evaluable at every point and at its
    negation; violations are reported, not raised."""
    violations = []
    for kw in sample_points:
        if not isinstance(kw, Wavevector4):
            kw = Wavevector4(*kw)
        dev = float(np.max(np.abs(model.evaluate(-kw) - np.conj(model.evaluate(kw)))))
        if dev > tol:
            violations.append((kw, dev))
    return RealityReport(violations=tuple(violations), tol=tol)


# ---------------------------------------------------------------------------
# serialization


def _want(doc: dict, key: str, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    return doc[key]


def _no_extras(doc: dict, allowed: set, where: str) -> None:
    extras = set(doc) - allowed
    if extras:
        raise ParseError(f"{where}: unknown field(s) {sorted(extras)!r}")


def _as_real(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ParseError(f"{where}: expected a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise ParseError(f"{where}: expected a real number, got an integer beyond float range") from None


def _as_pair(x, where: str) -> complex:
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise ParseError(f"{where}: expected a [re, im] pair, got {x!r}")
    return complex(_as_real(x[0], where + "[0]"), _as_real(x[1], where + "[1]"))


def _as_vec3(x, where: str) -> list[float]:
    if not (isinstance(x, (list, tuple)) and len(x) == 3):
        raise ParseError(f"{where}: expected a 3-vector, got {x!r}")
    return [_as_real(v, f"{where}[{i}]") for i, v in enumerate(x)]


def _as_tensor(x, where: str) -> np.ndarray:
    if not (isinstance(x, (list, tuple)) and len(x) == 3):
        raise ParseError(f"{where}: expected 3 rows, got {x!r}")
    rows = []
    for i, row in enumerate(x):
        if not (isinstance(row, (list, tuple)) and len(row) == 3):
            raise ParseError(f"{where}[{i}]: expected 3 entries, got {row!r}")
        rows.append([_as_pair(e, f"{where}[{i}][{j}]") for j, e in enumerate(row)])
    return np.array(rows, dtype=complex)


_SAMPLE_KEYS = {"omega", "k", "sigma"}


def _sample_fault(entry, where: str) -> None:
    """Raise the error of a tabulated sample's first fault, read a field at a
    time: ParseError, or InvariantViolation for a non-finite point."""
    if not isinstance(entry, dict):
        raise ParseError(f"{where}: expected an object")
    _no_extras(entry, _SAMPLE_KEYS, where)
    omega = _as_real(_want(entry, "omega", where), where + ".omega")
    Wavevector4(omega, _as_vec3(_want(entry, "k", where), where + ".k"))  # the point before its tensor
    _as_tensor(_want(entry, "sigma", where), where + ".sigma")


def _reals(xs: list) -> list[float] | None:
    """xs as floats, converted in order, if each passes _as_real; None otherwise."""
    types = set(map(type, xs))
    if bool in types or not all(issubclass(t, (int, float)) for t in types):
        return None
    try:
        return list(map(float, xs))
    except OverflowError:  # an int beyond float range, which _as_real locates
        return None


def _read_sample(entry) -> tuple | None:
    """A tabulated sample's point [omega, kx, ky, kz] and the 18 floats of its
    sigma [re, im] pairs, row by row; None where _sample_fault finds a fault."""
    if not (isinstance(entry, dict) and entry.keys() == _SAMPLE_KEYS):
        return None
    k, sigma = entry["k"], entry["sigma"]
    if not (isinstance(k, (list, tuple)) and len(k) == 3 and isinstance(sigma, (list, tuple)) and len(sigma) == 3
            and all(isinstance(row, (list, tuple)) and len(row) == 3 for row in sigma)):
        return None
    pairs = [*sigma[0], *sigma[1], *sigma[2]]
    if not all(isinstance(z, (list, tuple)) and len(z) == 2 for z in pairs):
        return None
    point = _reals([entry["omega"], *k])
    if point is None or not all(map(math.isfinite, point)):
        return None
    parts = _reals([x for z in pairs for x in z])
    return None if parts is None else (point, parts)


def _tabulated_nodes(samples, where: str) -> _Nodes:
    """The samples of a tabulated document as arrays, read in one walk that
    formats a sample's location only to raise its error."""
    if not isinstance(samples, (list, tuple)):
        raise ParseError(f"{where}.samples: expected an array")
    points, parts = [], []
    for i, entry in enumerate(samples):
        sample = _read_sample(entry)
        if sample is None:
            _sample_fault(entry, f"{where}.samples[{i}]")
        points += sample[0]
        parts += sample[1]
    point = np.array(points, dtype=float).reshape(-1, 4)
    # [re, im] pairs read as complex keep the sign of a zero part, which re + 1j * im would not
    sigma = np.array(parts, dtype=float).reshape(-1, 3, 3, 2).view(complex)[..., 0]
    return _Nodes(point[:, 0], point[:, 1:], sigma)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def model_from_dict(doc: dict, where: str = "model") -> MaterialModel:
    """Build a model from a parsed document; raises ParseError on shape
    problems and InvariantViolation on bad values."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object, got {type(doc).__name__}")
    kind = _want(doc, "type", where)
    if kind == "constant-scalar":
        _no_extras(doc, {"type", "sigma0"}, where)
        return ConstantScalar(_as_pair(_want(doc, "sigma0", where), f"{where}.sigma0"))
    if kind == "drude":
        _no_extras(doc, {"type", "sigma0", "tau"}, where)
        return Drude(
            _as_pair(_want(doc, "sigma0", where), f"{where}.sigma0"),
            _as_real(_want(doc, "tau", where), f"{where}.tau"),
        )
    if kind == "diagonal":
        _no_extras(doc, {"type", "entries"}, where)
        entries = _want(doc, "entries", where)
        if not (isinstance(entries, (list, tuple)) and len(entries) == 3):
            raise ParseError(f"{where}.entries: expected 3 axis entries, got {entries!r}")
        axes = []
        for i, e in enumerate(entries):
            spot = f"{where}.entries[{i}]"
            if isinstance(e, dict):
                _no_extras(e, {"sigma0", "tau"}, spot)
                axes.append(Drude(_as_pair(_want(e, "sigma0", spot), spot + ".sigma0"),
                                  _as_real(_want(e, "tau", spot), spot + ".tau")))
            else:
                axes.append(_as_pair(e, spot))
        return DiagonalAnisotropic(tuple(axes))
    if kind == "tabulated":
        _no_extras(doc, {"type", "interpolation", "real_fields", "samples"}, where)
        nodes = _tabulated_nodes(_want(doc, "samples", where), where)
        interpolation = doc.get("interpolation", "linear-in-omega")
        if not isinstance(interpolation, str):
            raise ParseError(f"{where}.interpolation: expected a string")
        real_fields = doc.get("real_fields", False)
        if not isinstance(real_fields, bool):
            raise ParseError(f"{where}.real_fields: expected a boolean")
        return Tabulated(nodes, interpolation=interpolation, real_fields=real_fields)
    raise ParseError(
        f"{where}.type: unknown model type {kind!r}; "
        "expected constant-scalar, drude, diagonal, or tabulated"
    )


def model_to_dict(model: MaterialModel) -> dict:
    """Inverse of model_from_dict; the dict round-trips losslessly."""
    if isinstance(model, ConstantScalar):
        return {"type": "constant-scalar", "sigma0": _pair(model.sigma0)}
    if isinstance(model, Drude):
        return {"type": "drude", "sigma0": _pair(model.sigma0), "tau": model.tau}
    if isinstance(model, DiagonalAnisotropic):
        entries = [
            {"sigma0": _pair(e.sigma0), "tau": e.tau} if isinstance(e, Drude) else _pair(e)
            for e in model.entries
        ]
        return {"type": "diagonal", "entries": entries}
    if isinstance(model, Tabulated):
        samples = [
            {
                "omega": kw.omega,
                "k": kw.kvec.tolist(),
                "sigma": [[_pair(z) for z in row] for row in s],
            }
            for kw, s in model.samples
        ]
        return {
            "type": "tabulated",
            "interpolation": model.interpolation,
            "real_fields": model.real_fields,
            "samples": samples,
        }
    raise InvariantViolation(f"cannot serialize {type(model).__name__}")


def load_model(source) -> MaterialModel:
    """Load a model from a path or an open text stream."""
    if hasattr(source, "read"):
        text = source.read()
        where = getattr(source, "name", "model")
    else:
        where = str(source)
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ParseError(f"{where}: cannot read model file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal of more digits than Python converts
        raise ParseError(f"{where}: unreadable number: {exc}") from exc
    return model_from_dict(doc, where=where)


def save_model(model: MaterialModel, dest) -> None:
    """Write a model to a path or an open text stream."""
    doc = model_to_dict(model)
    if hasattr(dest, "write"):
        json.dump(doc, dest, indent=2)
        dest.write("\n")
    else:
        with open(dest, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")


# on each class too, for per-class timings and call counts (perfbench/tracing.py)
for _model in (ConstantScalar, Drude, DiagonalAnisotropic, Tabulated):
    _model.evaluate = MaterialModel.evaluate
