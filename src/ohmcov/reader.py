"""The reader of the package's JSON documents, model files and config files:
their text, its parse, and the checks of their values.

A check takes a value and its location in the document and returns the
value converted, or raises ParseError "<location>: expected ..., got ...".
A number is a JSON float or an integer within float range, never a bool.
Arrays may also be tuples, and numbers float subclasses, for documents
built in Python.
"""

from __future__ import annotations

import json
import reprlib

from .errors import ParseError


def read_text(path, what: str) -> str:
    """The text of the file at path, decoded as UTF-8, JSON's encoding (RFC 8259 section 8.1); ParseError naming
    it as what ("config") if it cannot be read or decoded."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} {str(path)!r}: {exc}") from exc


def parse(text: str, where: str):
    """The document text holds; where locates it in error messages."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal of more digits than Python converts
        raise ParseError(f"{where}: unreadable number: {exc}") from exc


def check(ok: bool, x, what: str, where: str):
    """x, if ok; else the fault that x at where is not what."""
    if not ok:
        raise ParseError(f"{where}: expected {what}, got {reprlib.repr(x)}")  # a bounded repr: x may be a table
    return x


def of(types, what: str):
    """The check that a value is an instance of types."""
    return lambda x, where: check(isinstance(x, types), x, what, where)


def choice(*values):
    """The check that a value is one of values."""
    what = " or ".join(map(str, values))
    return lambda x, where: check(x in values, x, what, where)


def real(x, where: str) -> float:
    check(isinstance(x, (int, float)) and not isinstance(x, bool), x, "a real number", where)
    try:
        return float(x)
    except OverflowError:
        raise ParseError(f"{where}: expected a real number, got an integer beyond float range") from None


def reals(xs: list) -> list[float] | None:
    """real() of each of xs in bulk, for tables: their floats if each is a plain float or int within float range;
    None otherwise, whether or not real() would refuse one."""
    if not set(map(type, xs)) <= {float, int}:
        return None
    try:
        return list(map(float, xs))
    except OverflowError:
        return None


def integer(x, where: str) -> int:
    return check(isinstance(x, int) and not isinstance(x, bool), x, "an integer", where)


def array(item, n: int | None = None, what: str = "an array"):
    """The check of an array of n values, or of any number where n is None, each checked in turn by item."""
    def read(x, where: str) -> list:
        check(isinstance(x, (list, tuple)) and (n is None or len(x) == n), x, what, where)
        return [item(e, f"{where}[{i}]") for i, e in enumerate(x)]
    return read


vec3 = array(real, 3, "a 3-vector")
_parts = array(real, 2, "a [re, im] pair")


def pair(x, where: str) -> complex:
    """A complex number written as its [re, im] pair."""
    return complex(*_parts(x, where))


tensor = array(array(pair, 3, "3 entries"), 3, "3 rows")  # a 3x3 complex tensor as nested lists


def fields(doc, where: str, required: tuple, optional: tuple | None = ()) -> dict:
    """doc, an object with each required key and none beyond required and optional; any key where optional is None."""
    check(isinstance(doc, dict), doc, "an object", where)
    extras = set() if optional is None else set(doc).difference(required, optional)
    if extras:
        raise ParseError(f"{where}: unknown field(s) {sorted(extras)!r}")
    for key in required:
        if key not in doc:
            raise ParseError(f"{where}: missing field {key!r}")
    return doc
