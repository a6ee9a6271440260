"""Degree-based symmetric edge-weight functions.

A weight function f(x, y) maps a pair of positive integer vertex degrees to a
positive real. The built-in named functions are

    abc           sqrt((x + y - 2) / (x * y))
    randic        1 / sqrt(x * y)
    sombor        sqrt(x^2 + y^2)
    zagreb1       x + y
    zagreb2       x * y
    recip_randic  sqrt(x * y)

Weights may also be a finite positive constant or an explicit table of
finite positive values on unordered degree pairs; a constant or table value
below the smallest normal float (about 2.2e-308) is refused. The string
grammar accepted by :func:`parse_weight`, and as a comma-separated list by
:func:`parse_weights`, is

    abc | randic | sombor | zagreb1 | zagreb2 | recip-randic
    | const:<float>
    | table:<x>,<y>=<v>(;<x>,<y>=<v>)*

Spec strings read back exactly: ``str(f)`` writes each number as ``:g``
text when that reads back, else as its repr, so ``parse_weight(str(f)) == f``.
"""

import math
import operator
import sys
from dataclasses import dataclass, field

from .errors import BadParams, MissingTableEntry, NonPositiveValue

DEFAULT_MAX_DEGREE = 16

# Slack for floating-point comparisons in grid property checks. Exact-zero
# second differences (e.g. linear functions) must count as convex.
_GRID_EPS = 1e-12

_FORMULAS = {
    "abc": lambda x, y: math.sqrt((x + y - 2) / (x * y)),
    "randic": lambda x, y: 1.0 / math.sqrt(x * y),
    "sombor": lambda x, y: math.sqrt(x * x + y * y),
    "zagreb1": lambda x, y: float(x + y),
    "zagreb2": lambda x, y: float(x * y),
    "recip_randic": lambda x, y: math.sqrt(x * y),
}

NAMED_WEIGHTS = tuple(_FORMULAS)


def _exact(v):
    """v as ``:g`` text when that reads back to v, else as its repr."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def _require_normal(what, v):
    """Raise BadParams for a subnormal v > 0: a Perron value of that size
    cannot be resolved to a relative tolerance."""
    if v < sys.float_info.min:
        raise BadParams(
            f"{what} must be >= {sys.float_info.min!r}, the smallest normal float, got {v!r}"
        )


@dataclass(frozen=True)
class WeightSpec:
    """A named, constant, or table-defined symmetric weight function.

    ``text`` is the spec string, which reads back through
    :func:`parse_weight` to an equal spec and alone decides equality and
    hashing; ``func`` is the degree-pair function. Use the classmethods
    :meth:`named`, :meth:`constant`, :meth:`from_table` or
    :func:`parse_weight`, which validate their input, instead of the raw
    constructor. Instances are immutable, hashable and picklable.
    """

    text: str
    func: object = field(compare=False, repr=False)

    @classmethod
    def named(cls, name):
        name = name.replace("-", "_")
        if name not in _FORMULAS:
            raise BadParams(f"unknown named weight {name!r}")
        return cls(name.replace("_", "-"), _FORMULAS[name])

    @classmethod
    def constant(cls, c):
        c = float(c)
        if not 0 < c < math.inf:
            raise BadParams(f"constant weight must be finite and > 0, got {c}")
        _require_normal("constant weight", c)
        return cls(f"const:{_exact(c)}", lambda x, y: c)

    @classmethod
    def from_table(cls, entries):
        """Build a table spec from a mapping {(x, y): value} or an iterable
        of ((x, y), value) pairs on unordered integer degree pairs."""
        items = {}
        for (x, y), v in entries.items() if hasattr(entries, "items") else entries:
            try:
                x, y = operator.index(x), operator.index(y)
            except TypeError:
                raise BadParams(f"table degrees must be integers, got ({x!r}, {y!r})") from None
            key = (min(x, y), max(x, y))
            if key in items and items[key] != float(v):
                raise BadParams(f"conflicting table values for pair {key}")
            items[key] = float(v)
        if not items:
            raise BadParams("table weight needs at least one entry")
        items = dict(sorted(items.items()))
        for (x, y), v in items.items():
            if x < 1 or y < 1:
                raise BadParams(f"table degrees must be >= 1, got ({x}, {y})")
            if not (v > 0):
                raise NonPositiveValue(f"table value for ({x}, {y}) must be > 0, got {v}")
            _require_normal(f"table value for ({x}, {y})", v)
            if v == math.inf:
                raise BadParams(f"table value for ({x}, {y}) must be finite, got {v}")

        def lookup(x, y):
            try:
                return items[(x, y) if x <= y else (y, x)]
            except KeyError:
                raise MissingTableEntry(x, y) from None

        body = ";".join(f"{x},{y}={_exact(v)}" for (x, y), v in items.items())
        return cls(f"table:{body}", lookup)

    def __str__(self):
        return self.text

    def __reduce__(self):
        return parse_weight, (self.text,)


def parse_weight(text):
    """Parse a weight-spec string (see module docstring for the grammar)."""
    text = text.strip()
    plain = text.replace("-", "_")
    if plain in NAMED_WEIGHTS:
        return WeightSpec.named(plain)
    if text.startswith("const:"):
        try:
            c = float(text[len("const:"):])
        except ValueError:
            raise BadParams(f"bad constant weight spec {text!r}") from None
        return WeightSpec.constant(c)
    if text.startswith("table:"):
        entries = []
        for chunk in text[len("table:"):].split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                pair, val = chunk.split("=")
                xs, ys = pair.split(",")
                entries.append(((int(xs), int(ys)), float(val)))
            except ValueError:
                raise BadParams(f"bad table entry {chunk!r}") from None
        return WeightSpec.from_table(entries)
    raise BadParams(f"unrecognized weight spec {text!r}")


def parse_weights(text):
    """Parse a comma-separated list of weight specs.

    A piece starts a new weight only when it is a named weight or begins
    with ``const:`` or ``table:``; any other piece is the rest of a table
    entry ``x,y=v`` and is joined back onto the weight before it.
    """
    specs = []
    for piece in text.split(","):
        head = piece.strip()
        named = head.replace("-", "_") in NAMED_WEIGHTS
        if not specs or named or head.startswith(("const:", "table:")):
            specs.append(piece)
        else:
            specs[-1] += "," + piece
    return [parse_weight(spec) for spec in specs]


def eval_weight(f, x, y):
    """Evaluate f at a pair of positive integer degrees.

    Symmetric by construction: eval_weight(f, x, y) == eval_weight(f, y, x);
    the named formulas join x and y only by sums and products, which commute.
    """
    if x < 1 or y < 1:
        raise BadParams(f"degrees must be >= 1, got ({x}, {y})")
    return f.func(x, y)


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a grid property check.

    ``grid`` records the inclusive degree range [1, D] that was examined, so
    a ``holds=True`` claim is scoped to that range. When ``holds`` is False,
    ``witness`` is a tuple of degree arguments reproducing the violation.
    """

    property: str
    holds: bool
    grid: tuple
    witness: tuple | None = None
    strict: bool = False


def _symmetric(f, max_degree, strict):
    for x in range(1, max_degree + 1):
        for y in range(1, max_degree + 1):
            if eval_weight(f, x, y) != eval_weight(f, y, x):
                yield (x, y)


def _increasing(f, max_degree, strict):
    for y in range(1, max_degree + 1):
        for x in range(1, max_degree):
            lo, hi = eval_weight(f, x, y), eval_weight(f, x + 1, y)
            bad = (hi <= lo) if strict else (hi < lo - _GRID_EPS)
            if bad:
                yield (x, y)


def _convex(f, max_degree, strict):
    for y in range(1, max_degree + 1):
        for x in range(1, max_degree - 1):
            second = (
                eval_weight(f, x + 2, y)
                - 2.0 * eval_weight(f, x + 1, y)
                + eval_weight(f, x, y)
            )
            if second < -_GRID_EPS:
                yield (x, y)


def _same_sum_pairs(max_degree):
    """Yield (x1, y1, x2, y2) with x1 + y1 = x2 + y2, y1 <= x1, y2 <= x2 and
    |x1 - y1| > |x2 - y2|, by increasing sum, then x1, then x2."""
    for total in range(2, 2 * max_degree + 1):
        xs = range((total + 1) // 2, min(total - 1, max_degree) + 1)
        for x1 in xs:
            for x2 in xs:
                if x1 > x2:
                    yield x1, total - x1, x2, total - x2


def _favours_imbalance(f, max_degree, strict):
    for x1, y1, x2, y2 in _same_sum_pairs(max_degree):
        if eval_weight(f, x1, y1) < eval_weight(f, x2, y2) - _GRID_EPS:
            yield (x1, y1, x2, y2)


def _strictly_favours_balance(f, max_degree, strict):
    for x1, y1, x2, y2 in _same_sum_pairs(max_degree):
        if eval_weight(f, x1, y1) >= eval_weight(f, x2, y2):
            yield (x1, y1, x2, y2)


# Each property -> the witness checks it chains. A check yields its
# violations in grid order; the first one found refutes the property.
_WITNESS_CHECKS = {
    "symmetric": (_symmetric,),
    "increasing_in_x": (_increasing,),
    "convex_in_x": (_convex,),
    "Pstar": (_increasing, _convex, _favours_imbalance),
    "Pstarstar": (_increasing, _convex, _strictly_favours_balance),
}


def check_property(f, property, max_degree=DEFAULT_MAX_DEGREE, strict=False):
    """Check a structural property of f on the integer grid [1, D]^2.

    ``increasing_in_x`` and ``convex_in_x`` are finite-difference checks.
    ``Pstar`` requires increasing (non-strict unless ``strict``), convex, and
    f to favor imbalanced degree pairs among equal-sum pairs; ``Pstarstar``
    requires increasing, convex, and strictly favoring balanced pairs.
    Degrees in simple graphs are positive integers, so a grid check at the
    default D = 16 covers every pair these weights ever see in practice.
    """
    if property not in _WITNESS_CHECKS:
        raise BadParams(f"unknown property {property!r}")
    if max_degree < 3:
        raise BadParams("property grid needs max_degree >= 3")
    checks = _WITNESS_CHECKS[property]
    witness = next((w for check in checks for w in check(f, max_degree, strict)), None)
    return PropertyReport(property, witness is None, (1, max_degree), witness, strict)
