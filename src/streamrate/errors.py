"""Exception types, the `Record` base and the input rules shared across the
library (integers in a range, numbers inside (0, 1), probabilities, finite
variances, seeds, JSON input documents), `json_text`, the one writer of JSON
output, and `source_constants`, the one home of the Gauss-Markov powers of rho
and their complements.

The CLI maps validation failures to exit 1 and numerical failures (including
convergence and precision problems) to exit 2.  Each rule raises
ValidationError naming the parameter, and NaN fails every rule.  The rules
belong at the public boundary: inner loops, such as the root finders'
objectives, run on values already checked.
"""

import math
import numbers
import os

_set = object.__setattr__


class ValidationError(ValueError):
    """Inputs violate a documented precondition or type invariant."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its budget without reaching tolerance."""


class NumericalError(RuntimeError):
    """A linear-algebra or root-finding step is singular or inconsistent."""


class PrecisionError(NumericalError):
    """The requested target sits below attainable floating-point resolution."""


class Record:
    """Base of the library's records.  A subclass names its fields in `_fields`
    and keeps them in `__slots__`; its `__init__` runs its checks, then sets them
    by one call to `Record.__init__` with the values in `_fields` order.  A record
    prints as `Name(field=value, ...)`, compares and hashes by its fields, refuses
    assignment, and pickles and copies through its constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values()


def check_int(name: str, value, lo: int = 0, hi: int | None = None) -> None:
    """An integer, not a bool, with lo <= value (<= hi unless hi is None)."""
    # `type is int` first: the ABC check costs about 0.4 us
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValidationError(f"{name} must be an integer {span}, got {value!r}")


def check_open_unit(name: str, value) -> None:
    """A number strictly inside (0, 1)."""
    try:
        ok = 0.0 < value < 1.0
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def check_probability(name: str, value, zero_ok: bool = True) -> None:
    """A number in [0, 1], or in (0, 1] unless zero_ok; not a bool."""
    try:
        ok = not isinstance(value, bool) and (0.0 < value <= 1.0 or (zero_ok and value == 0.0))
    except TypeError:
        ok = False
    if not ok:
        raise ValidationError(f"{name} must lie in {'[' if zero_ok else '('}0, 1], got {value!r}")


def check_variance(name: str, value, zero_ok: bool = False) -> None:
    """A finite number > 0, or >= 0 when zero_ok; not a bool."""
    try:
        ok = not isinstance(value, bool) and (0.0 < value < math.inf or (zero_ok and value == 0.0))
    except TypeError:
        ok = False
    if not ok:
        kind = "nonnegative" if zero_ok else "positive"
        raise ValidationError(f"{name} must be {kind} and finite, got {value!r}")


def check_seed(value) -> None:
    """An integer in [0, 2**64): a Philox key, and the seed of the exchange
    check's `random.Random`."""
    check_int("seed", value, 0, 2**64 - 1)


def source_constants(rho: float, n: int) -> tuple[float, float, float, float]:
    """(a, q, c, 1 - c) of s_i = rho s_{i-1} + n_i for an even n >= 0: a = rho^2,
    q = 1 - rho^2 as (1 - rho)(1 + rho), c = rho^n and 1 - c as -expm1(n log rho),
    which is q at n = 2.  Neither complement cancels as rho nears 1, as
    1 - rho**2 does; callers form them once per solve or filter."""
    a, q = rho * rho, (1.0 - rho) * (1.0 + rho)
    return a, q, rho**n, q if n == 2 else -math.expm1(n * math.log(rho))


def read_json_object(source, *keys: str) -> dict:
    """The JSON object in source, which must hold every key in keys.

    source is a path, a file object, or a document json.load already returned.
    A file that cannot be read or parsed, a document that is not an object and
    a missing key each raise ValidationError.
    """
    import json

    if isinstance(source, (str, bytes, os.PathLike)) or hasattr(source, "read"):
        name = repr(getattr(source, "name", source))
        try:
            if hasattr(source, "read"):
                doc = json.load(source)
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read JSON from {name}: {exc}")
    else:
        name, doc = "the document", source
    if not isinstance(doc, dict):
        raise ValidationError(f"{name} must hold a JSON object")
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ValidationError(f"{name} lacks the key(s) {', '.join(missing)}")
    return doc


def json_text(doc) -> str:
    """`json.dumps(doc, indent=2)`, byte for byte, for a document of dicts with
    str keys, lists, tuples, str, int, float, bool and None.

    CPython runs its C encoder only without indent, so this writer recurses
    itself: strings go through the C `encode_basestring_ascii`, a list of plain
    ints is one join, and a list object met twice at one depth is encoded once
    (the worst-case reports share their received lists).  Other types raise
    TypeError, as `json.dumps` does; a cycle raises RecursionError.
    """
    from json.encoder import encode_basestring_ascii as quote

    done = {}  # (id, depth) -> text; the document keeps every list alive

    def text(o, pad):
        if isinstance(o, str):
            return quote(o)
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = pad + "  "
            body = ("," + inner).join([quote(k) + ": " + text(v, inner) for k, v in o.items()])
            return "{" + inner + body + pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            out = done.get((id(o), len(pad)))
            if out is None:
                inner = pad + "  "
                if set(map(type, o)) == {int}:  # not bool: int.__repr__(True) is "1"
                    body = ("," + inner).join(map(int.__repr__, o))
                else:
                    body = ("," + inner).join([text(v, inner) for v in o])
                out = done[id(o), len(pad)] = "[" + inner + body + pad + "]"
            return out
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            if o != o:
                return "NaN"
            return "Infinity" if o == math.inf else "-Infinity" if o == -math.inf else float.__repr__(o)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    return text(doc, "\n")
