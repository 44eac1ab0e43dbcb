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

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from . import reader
from .errors import InvariantViolation, OutOfRange, ParseError
from .response import _static
from .minkowski import _EYE3, Wavevector4, _checked, _one_point
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
        """sigma at the point kw, (3, 3), or at each point of a stack, (N, 3, 3)."""
        sigma = self._raising(np.array(kw.omega, ndmin=1), kw.kvec.reshape(-1, 3))  # kw's values are checked
        return sigma.reshape(kw.kvec.shape[:-1] + (3, 3))

    def evaluate_batch(self, omega, k) -> np.ndarray:
        """The (N, 3, 3) conductivity at omega (N,), k (N, 3); raises as evaluate at the first bad point."""
        n = np.size(omega)
        return self._raising(_checked(omega, (n,), float, "omega"), _checked(k, (n, 3), float, "kvec"))

    def _raising(self, omega: np.ndarray, k: np.ndarray) -> np.ndarray:
        """sigma at N checked points, or the error of the first point _evaluate's faults reject."""
        sigma, faults = self._evaluate(omega, k)
        _raise(faults)
        return sigma


def _drude(sigma0: complex, tau: float, omega: np.ndarray) -> np.ndarray:
    return sigma0 / (1.0 - 1j * omega * tau)


@dataclass(frozen=True)
class ConstantScalar(MaterialModel):
    """Isotropic, dispersionless conductivity."""

    sigma0: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma0", complex(_checked(self.sigma0, (), complex, "sigma0")))

    def _evaluate(self, omega: np.ndarray, k: np.ndarray) -> tuple:
        return np.repeat((self.sigma0 * _EYE3)[None], len(omega), axis=0), [_static(omega)]


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
        return _drude(self.sigma0, self.tau, omega)[:, None, None] * _EYE3, [_static(omega)]


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
    """(point, tensor) pairs as arrays, each point checked as it is read and each tensor's shape."""
    points, tensors = [], []
    for kw, sigma in samples:
        if not isinstance(kw, Wavevector4):
            kw = Wavevector4(*kw)
        _one_point("a tabulated sample", kw.kvec.shape[:-1])
        tensors.append(np.asarray(sigma, dtype=complex))
        if tensors[-1].shape != (3, 3):
            raise InvariantViolation(f"tabulated tensor {len(points)} must have shape (3, 3), got {tensors[-1].shape}")
        points.append((kw.omega, *kw.kvec.tolist()))
    point = np.array(points, dtype=float).reshape(-1, 4)
    return _Nodes(point[:, 0], point[:, 1:], np.array(tensors).reshape(-1, 3, 3))


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
        # model_from_dict hands over the arrays it read; either way each point was checked as it was read
        omega, k, sigma = samples if isinstance(samples, _Nodes) else _nodes_from_pairs(samples)
        keys, seen = [(w, *kv) for w, kv in zip(omega.tolist(), k.tolist())], set()
        for i, finite in enumerate(np.isfinite(sigma).all(axis=(1, 2)).tolist()):  # the first bad node raises
            if not finite:
                raise InvariantViolation(f"tabulated tensor {i} entries must be finite")
            if keys[i] in seen:
                raise InvariantViolation(f"duplicate sample point {Wavevector4(keys[i][0], keys[i][1:])!r}")
            seen.add(keys[i])
        if not keys:
            raise InvariantViolation("tabulated model needs at least one sample")
        self._nodes = _Nodes(omega, k, sigma)
        self._interpolation = interpolation
        self._real_fields = bool(real_fields)
        # omegas and tensors at each k point of _kpoints, sorted in omega, and their span
        columns: dict[tuple, list[int]] = {}
        for i in np.argsort(omega, kind="stable").tolist():
            columns.setdefault(keys[i][1:], []).append(i)
        self._kpoints = np.array(sorted(columns))
        self._columns = tuple((omega[columns[kpt]], sigma[columns[kpt]]) for kpt in sorted(columns))
        self._spans = np.array([(omegas[0], omegas[-1]) for omegas, _ in self._columns])
        # read-only, the samples' views too: evaluate reads copies of the nodes that a write would not reach,
        # and the command line shares a loaded model between calls
        for a in (*self._nodes, *(a for column in self._columns for a in column), self._kpoints, self._spans):
            a.setflags(write=False)
        if self.real_fields:
            self._check_mirrored_nodes(dict(zip(keys, sigma)))

    # read-only, as the nodes are: evaluate and save_model read them
    @property
    def interpolation(self) -> str:
        return self._interpolation

    @property
    def real_fields(self) -> bool:
        return self._real_fields

    @property
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
        near = []
        with np.errstate(over="ignore"):  # a distance beyond float range reads inf, never nearer than a finite one
            for i in range(0, max(len(k), 1), step):  # one chunk at least: no points give an empty index array
                d = k[i:i + step, None, :] - self._kpoints[None]
                near.append(np.sqrt(np.add.reduce(d * d, axis=2)).argmin(axis=1))  # np.linalg.norm's arithmetic
        return near[0] if len(near) == 1 else np.concatenate(near)

    def _evaluate(self, omega: np.ndarray, k: np.ndarray) -> tuple:
        near = self._nearest(k)
        sigma = np.empty((len(omega), 3, 3), dtype=complex)
        for col in set(near.tolist()):
            omegas, tensors = self._columns[col]
            w = omega[near == col]
            if self.interpolation == "nearest" or len(omegas) == 1:  # one node: nothing to interpolate
                s = tensors[np.argmin(np.abs(omegas - w[:, None]), axis=1)]
            else:
                hi = np.minimum(np.maximum(np.searchsorted(omegas, w), 1), len(omegas) - 1)  # np.clip's, at less cost
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
        _one_point("check_reality", kw.kvec.shape[:-1])
        dev = float(np.max(np.abs(model.evaluate(-kw) - np.conj(model.evaluate(kw)))))
        if dev > tol:
            violations.append((kw, dev))
    return RealityReport(violations=tuple(violations), tol=tol)


# ---------------------------------------------------------------------------
# serialization


_SAMPLE_KEYS = ("omega", "k", "sigma")


def _sample(entry, where: str) -> list[float]:
    """_read_sample's values of a tabulated sample, read a field at a time: ParseError at its first fault, or
    InvariantViolation for a point that is not finite."""
    reader.fields(entry, where, _SAMPLE_KEYS)
    point = [reader.real(entry["omega"], where + ".omega"), *reader.vec3(entry["k"], where + ".k")]
    Wavevector4(point[0], point[1:])  # the point before its tensor
    return point + [x for row in reader.tensor(entry["sigma"], where + ".sigma") for z in row for x in (z.real, z.imag)]


def _read_sample(entry) -> list[float] | None:
    """The 22 values of a tabulated sample, its point omega, kx, ky, kz and then its sigma's [re, im] pairs row by row,
    if _sample would read it so; None where _sample may find a fault.  The bulk path of a table's walk."""
    if not (isinstance(entry, dict) and entry.keys() == set(_SAMPLE_KEYS)):
        return None
    k, sigma = entry["k"], entry["sigma"]
    if not (isinstance(k, (list, tuple)) and len(k) == 3 and isinstance(sigma, (list, tuple)) and len(sigma) == 3
            and all(isinstance(row, (list, tuple)) and len(row) == 3 for row in sigma)):
        return None
    pairs = [*sigma[0], *sigma[1], *sigma[2]]
    if not all(isinstance(z, (list, tuple)) and len(z) == 2 for z in pairs):
        return None
    values = reader.reals([entry["omega"], *k, *(x for z in pairs for x in z)])
    return values if values is not None and all(map(math.isfinite, values[:4])) else None


def _tabulated_nodes(samples, where: str) -> _Nodes:
    """The samples of a tabulated document as arrays, read in one walk that
    formats a sample's location only to raise its error."""
    reader.check(isinstance(samples, (list, tuple)), samples, "an array", where)
    values = []
    for i, entry in enumerate(samples):
        values += _read_sample(entry) or _sample(entry, f"{where}[{i}]")
    table = np.array(values, dtype=float).reshape(-1, 22)
    # [re, im] pairs read as complex keep the sign of a zero part, which re + 1j * im would not
    return _Nodes(table[:, 0], table[:, 1:4], table[:, 4:].copy().view(complex).reshape(-1, 3, 3))


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _drude_pole(doc, where: str, *keys: str) -> Drude:
    """A drude document, or a diagonal entry's pole: its sigma0 and tau, with the given keys besides."""
    reader.fields(doc, where, (*keys, "sigma0", "tau"))
    return Drude(reader.pair(doc["sigma0"], where + ".sigma0"), reader.real(doc["tau"], where + ".tau"))


# a diagonal model's entries: each a [re, im] pair or a pole
_axes = reader.array(lambda e, where: _drude_pole(e, where) if isinstance(e, dict) else reader.pair(e, where),
                     3, "3 axis entries")


def model_from_dict(doc: dict, where: str = "model") -> MaterialModel:
    """Build a model from a parsed document; raises ParseError on shape
    problems and InvariantViolation on bad values."""
    kind = reader.fields(doc, where, ("type",), None)["type"]
    if kind == "constant-scalar":
        reader.fields(doc, where, ("type", "sigma0"))
        return ConstantScalar(reader.pair(doc["sigma0"], where + ".sigma0"))
    if kind == "drude":
        return _drude_pole(doc, where, "type")
    if kind == "diagonal":
        reader.fields(doc, where, ("type", "entries"))
        return DiagonalAnisotropic(tuple(_axes(doc["entries"], where + ".entries")))
    if kind == "tabulated":
        reader.fields(doc, where, ("type", "samples"), ("interpolation", "real_fields"))
        nodes = _tabulated_nodes(doc["samples"], where + ".samples")
        interpolation, real_fields = doc.get("interpolation", "linear-in-omega"), doc.get("real_fields", False)
        reader.check(isinstance(interpolation, str), interpolation, "a string", where + ".interpolation")
        reader.check(isinstance(real_fields, bool), real_fields, "a boolean", where + ".real_fields")
        return Tabulated(nodes, interpolation=interpolation, real_fields=real_fields)
    raise ParseError(f"{where}.type: unknown model type {kind!r}; expected constant-scalar, drude, diagonal, "
                     "or tabulated")


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
        return _model_from_text(source.read(), getattr(source, "name", "model"))
    return _model_from_text(reader.read_text(source, "model file"), str(source))


def _model_from_text(text: str, where: str) -> MaterialModel:
    """The model a document's text describes; where locates it in error messages."""
    return model_from_dict(reader.parse(text, where), where=where)


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
