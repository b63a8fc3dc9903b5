"""Exception types, the `Record` base and the input rules shared across the
library (integers in a range, real numbers, numbers inside (0, 1),
probabilities, finite variances, seeds, JSON input documents), `json_text`,
the one writer of JSON output, and `source_constants`, the one home of the
Gauss-Markov powers of rho and their complements.

The CLI maps validation failures to exit 1 and numerical failures (including
convergence and precision problems) to exit 2.  Each rule raises
ValidationError naming the parameter, and NaN fails every rule but
`check_real`.  A number rule returns `int(value)` or `float(value)` and
range-tests that: numpy scalars and `Fraction`s pass as Python numbers, a
`Decimal`, a `str`, a `bool` or a real with no float (10**400) fails.  The
rules belong at the public boundary: past them every module computes on
Python ints and floats alone, and inner loops, such as the root finders'
objectives, run on values already checked.
"""

import math
import numbers
import os


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
    _setters: tuple = ()  # the `__set__` of each field's slot descriptor, in `_fields` order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the descriptors' own setters skip the attribute lookup of
        # object.__setattr__ and the class's refusing __setattr__
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls._fields])

    def __init__(self, *values):
        for setter, value in zip(self._setters, values):
            setter(self, value)

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


def _shown(value) -> str:
    """repr(value) for a rule's message, or the size of an int that CPython
    refuses to print (past `sys.get_int_max_str_digits()`, 4300 by default)."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, numbers.Integral):
            n = abs(int(value))
            k = int(n.bit_length() * math.log10(2.0))  # n has k or k + 1 digits
            return f"an integer of {k + (n >= 10**k)} digits"
        return f"a {type(value).__name__} too long to print"


def check_int(name: str, value, lo: int = 0, hi: int | None = None) -> int:
    """An integer, not a bool, with lo <= value (<= hi unless hi is None), as an int."""
    # `type is int` first: the ABC check costs about 0.4 us
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {_shown(value)}")
        value = int(value)
    if value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValidationError(f"{name} must be an integer {span}, got {_shown(value)}")
    return value


def check_real(name: str, value) -> float:
    """A real number, not a bool, as a float; NaN and the infinities pass, a real with no float not."""
    if type(value) is float:  # first: the ABC check costs about 0.3 us
        return value
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an int or a Fraction past the float range
            pass
    raise ValidationError(f"{name} must be a real number with a float value, got {_shown(value)}")


def _float(value) -> float:
    """`check_real`'s float, or NaN, which fails every range test, where it raises."""
    try:
        return check_real("value", value)
    except ValidationError:
        return math.nan


def check_open_unit(name: str, value) -> float:
    """A number strictly inside (0, 1), as a float."""
    x = value if type(value) is float else _float(value)
    if not 0.0 < x < 1.0:
        raise ValidationError(f"{name} must lie strictly inside (0, 1), got {_shown(value)}")
    return x


def check_probability(name: str, value, zero_ok: bool = True) -> float:
    """A number in [0, 1], or in (0, 1] unless zero_ok, as a float."""
    x = value if type(value) is float else _float(value)
    if not (0.0 < x <= 1.0 or (zero_ok and x == 0.0)):
        raise ValidationError(f"{name} must lie in {'[' if zero_ok else '('}0, 1], got {_shown(value)}")
    return x


def check_variance(name: str, value, zero_ok: bool = False) -> float:
    """A finite number > 0, or >= 0 when zero_ok, as a float."""
    x = value if type(value) is float else _float(value)
    if not (0.0 < x < math.inf or (zero_ok and x == 0.0)):
        kind = "nonnegative" if zero_ok else "positive"
        raise ValidationError(f"{name} must be {kind} and finite, got {_shown(value)}")
    return x


def check_seed(value) -> int:
    """An integer in [0, 2**64), as an int: a Philox key and the exchange check's `random.Random` seed."""
    return check_int("seed", value, 0, 2**64 - 1)


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
    (the worst-case reports share their received lists).  A value is written
    by its exact type; None, a bool or a subclass is written by the first
    type it is an instance of, as `json.dumps` does.  Other types raise
    TypeError, as `json.dumps` does; a cycle raises RecursionError.
    """
    from json.encoder import encode_basestring_ascii as quote

    done = {}  # (id, depth) -> text; the document keeps every list alive

    def text(o, pad, kind=None):
        if kind is None:
            kind = type(o)
        if kind is str:
            return quote(o)
        if kind is dict:
            if not o:
                return "{}"
            inner = pad + "  "
            body = ("," + inner).join([quote(k) + ": " + text(v, inner) for k, v in o.items()])
            return "{" + inner + body + pad + "}"
        if kind is list or kind is tuple:
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
        if kind is float:
            if o != o:
                return "NaN"
            return "Infinity" if o == math.inf else "-Infinity" if o == -math.inf else float.__repr__(o)
        if kind is int:
            return int.__repr__(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        for kind in (str, dict, list, tuple, float, int):
            if isinstance(o, kind):
                return text(o, pad, kind)
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    return text(doc, "\n")
