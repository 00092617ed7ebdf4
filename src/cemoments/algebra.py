"""Exact values: integer polynomials in the formal dimension d, rational
polynomials in the block size M, and truncated power series in u.

Every value here is immutable and exact, and is only built, evaluated,
rendered and JSON-encoded; none of the types has arithmetic. Floats never
enter; the only numeric types are Python ints and fractions.Fraction. Series
carry an explicit truncation cap and refuse to report coefficients beyond it.
format_series is the one series renderer: trace moments and entry moments
both print through it. Record is the frozen value base of every library
value type, here and in the other modules; the two polynomial types share
the members of _Polynomial.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class Record:
    """Frozen value whose fields are the names annotated in its class body.

    __init__ takes the fields by position or keyword, falls back on
    class-level defaults, then calls __post_init__.
    Equality, hashing and repr use the field tuple; a class's own __init__,
    __eq__ or __hash__ wins. No __slots__: pickle and copy fill __dict__.
    Building the classes imports nothing, so a cold start stays light.
    """

    def __init_subclass__(cls):
        names = tuple(cls.__annotations__)
        if names:  # a subclass with no annotations keeps its parent's fields
            get = operator.attrgetter(*names)
            cls._fields = names  # _values gives a tuple, even of one field
            cls._values = staticmethod(get if len(names) > 1
                                       else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if len(args) < len(names):
            try:
                args += tuple([kwargs.pop(k) if k in kwargs else vars(cls)[k]
                               for k in names[len(args):]])
            except KeyError as missing:
                raise TypeError(f"{cls.__name__}() needs {missing}") from None
        if kwargs or len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes only {names}")
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self):
        """Validate the fields; a class may override it."""

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = type(self)._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(type(self)._values(self))

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, type(self)._values(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete field {name!r}")

    __delattr__ = __setattr__


def _strip_trailing_zeros(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _format_poly(coeffs, var):
    """Render descending-power form like 2d^3+4d^2+10d+8 or 4M^2+4M."""
    pieces = []
    for power in range(len(coeffs) - 1, -1, -1):
        if coeffs[power]:
            text = str(coeffs[power])
            mag = text.lstrip("-")
            body = "" if mag == "1" and power else mag
            pieces.append((text[0] == "-", body, power_of(var, power)))
    return format_terms(pieces).replace(" ", "")


def _horner(coeffs, x):
    """Exact sum of coeffs[k] x^k, in integers over one common denominator."""
    x = x if type(x) is Fraction else Fraction(x)
    # lcm(*list), not lcm(*generator): CPython grows a tuple built from a
    # generator in place, and the grown tuple stays on a freelist when freed
    denominator = math.lcm(*[c.denominator for c in coeffs])
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = (acc * x.numerator
               + c.numerator * (denominator // c.denominator) * scale)
        scale *= x.denominator
    return Fraction(acc * x.denominator, denominator * scale)


def power_of(var, power):
    """'' for power 0, 'u' for 1 and 'u^k' above."""
    if power == 0:
        return ""
    return var if power == 1 else f"{var}^{power}"


def format_terms(pieces):
    """Join (negative, body, unit) pieces like '(4M^2+4M)u^2 - 2Mu^3'.

    body is the magnitude's text; it is parenthesized when it holds a sign
    past its first character. The first piece's sign folds into the text,
    later signs stand between spaces.
    """
    out = ""
    for negative, body, unit in pieces:
        if "+" in body or "-" in body[1:]:
            body = f"({body})"
        if out:
            out += " - " if negative else " + "
        elif negative:
            out = "-"
        out += body + unit
    return out or "0"


def format_series(series, start):
    """Render u^start..u^cap like '(1/2)u - u^3 + 0u^4' or '4Mu^2 - 2Mu^3'.

    A Fraction renders as nothing for +-1 and parenthesized when it is not
    whole; an MPolynomial renders bare, signed by its leading coefficient.
    """
    pieces = []
    for power in range(start, series.cap + 1):
        c = series.coefficient(power)
        if isinstance(c, MPolynomial):
            negative = bool(c.coeffs) and c.coeffs[-1] < 0
            body = _format_poly([-x for x in c.coeffs] if negative
                                else c.coeffs, "M")
        else:
            negative, mag = c < 0, abs(c)
            body = ("" if mag == 1 else str(mag) if mag.denominator == 1
                    else f"({mag})")
        pieces.append((negative, body, power_of("u", power)))
    return format_terms(pieces)


class _Polynomial(Record):
    """Members shared by the two polynomial types.

    coeffs[k] is the coefficient of x^k; the tuple carries no trailing
    zeros, so the zero polynomial is the empty tuple. A subclass keeps its
    own __init__, eval_at and __str__, and its own zero coefficient.
    """

    coeffs: tuple

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coefficient(self, power):
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return self._zero

    def __bool__(self):
        return bool(self.coeffs)

    def to_json(self):
        return [str(c) for c in self.coeffs]


class DimPolynomial(_Polynomial):
    """Integer-coefficient polynomial in the formal dimension d."""

    _zero = 0

    def __init__(self, coeffs=()):
        # index(), not int(): 1.5 or "3" is an error, not a silent int
        cleaned = _strip_trailing_zeros(operator.index(c) for c in coeffs)
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def leading_coefficient(self):
        return self.coeffs[-1] if self.coeffs else 0

    def eval_at(self, x):
        """Exact Horner evaluation; an integer point gives an int."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self):
        return _format_poly(self.coeffs, "d")


class MPolynomial(_Polynomial):
    """Polynomial in the block size M with exact rational coefficients."""

    _zero = Fraction(0)

    def __init__(self, coeffs=()):
        cleaned = _strip_trailing_zeros(
            c if type(c) is Fraction or isinstance(c, Fraction)
            else Fraction(operator.index(c)) for c in coeffs)
        object.__setattr__(self, "coeffs", cleaned)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPolynomial((other,))
        if not isinstance(other, MPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant polynomial equals its scalar, so it hashes like it
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def eval_at(self, m):
        return _horner(self.coeffs, m)

    def __str__(self):
        # Rational coefficients render with an explicit slash, e.g. 1/2M^2.
        return _format_poly(self.coeffs, "M")


class TruncatedSeries(Record):
    """Power series in u known only through u^cap.

    Coefficients are Fractions (entry moments) or MPolynomials (trace
    moments); the two compare and hash equal where their values agree.
    A series is built, evaluated, rendered and JSON-encoded, never combined
    with another. Powers above cap are semantically unknown, not zero:
    coefficient() for a power above cap raises rather than returning 0.
    """

    cap: int
    terms: tuple

    def __init__(self, cap, terms=()):
        cap = operator.index(cap)
        if cap < 0:
            raise ValueError("truncation cap must be >= 0")
        kinds = (MPolynomial, Fraction)  # exact types first: the usual case
        terms = [t if type(t) in kinds or isinstance(t, kinds)
                 else Fraction(operator.index(t)) for t in terms]
        if len(terms) > cap + 1:
            raise ValueError("more terms than the cap allows")
        terms += [MPolynomial._zero] * (cap + 1 - len(terms))
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "terms", tuple(terms))

    def coefficient(self, power):
        if power < 0:
            raise IndexError("negative power")
        if power > self.cap:
            raise IndexError(
                f"power {power} is beyond the truncation cap {self.cap}"
            )
        return self.terms[power]

    def eval_at(self, u, m=None):
        """Exact value of the truncated sum at u (and M=m where needed)."""
        low = next((k for k, t in enumerate(self.terms) if t), self.cap + 1)
        values = [0] * low
        for t in self.terms[low:]:
            if isinstance(t, MPolynomial):
                if m is None:
                    raise ValueError("series has M-dependence; m is required")
                t = t.eval_at(m)
            values.append(t)
        return _horner(values, u)

    def to_json(self):
        encoded = []
        for t in self.terms:
            if isinstance(t, MPolynomial):
                encoded.append(t.to_json())
            else:
                encoded.append(str(t))
        return {"var": "u", "cap": self.cap, "terms": encoded}

