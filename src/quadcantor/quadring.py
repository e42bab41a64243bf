"""Exact arithmetic in the ring of integers of an imaginary quadratic field.

For squarefree d < 0 the field Q(sqrt(d)) has ring of integers Z[w], where
w = sqrt(d) when d = 2, 3 (mod 4) and w = (1 + sqrt(d))/2 when d = 1 (mod 4).
Either way w^2 = s*w + t, with s = 1, t = (d - 1)/4 when d = 1 (mod 4) and
s = 0, t = d otherwise.  These two integers settle all arithmetic in Z[w],
and ``FieldSpec`` is their one home: every product, conjugate, norm, root
of w modulo p and lattice scan in the package reads them there.
Ring elements are stored in integral-basis coordinates (x, y), meaning
x + y*w, with plain Python integers, so every decision taken here is
integer-exact; floating point appears only in the complex embeddings
(``omega_complex``, ``to_complex``).

Non-integral field elements are carried as a ring numerator over a positive
rational-integer denominator (``FieldElement``); a denominator from the ring
is rationalized by multiplying through with its conjugate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import FieldError, ParseError
from .ntheory import is_squarefree


class FieldSpec(NamedTuple):
    """An imaginary quadratic field Q(sqrt(d)) and its integral basis {1, w}.

    Built by ``make_field``, which derives the rest from d: disc is the
    field discriminant; w^2 = s*w + t, and s = 1 exactly when d = 1 (mod 4),
    i.e. w = (1+sqrt(d))/2.
    """

    d: int
    disc: int
    s: int
    t: int

    def element(self, x: int, y: int = 0) -> QuadInt:
        """x + y*w; a coordinate that is no ``int``, or is a ``bool``, raises
        ``TypeError``, as a float would make the arithmetic inexact."""
        for c in (x, y):
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coordinates must be ints, not {type(c).__name__}")
        return QuadInt(self, x, y)

    @property
    def zero(self) -> QuadInt:
        return QuadInt(self, 0, 0)

    @property
    def one(self) -> QuadInt:
        return QuadInt(self, 1, 0)

    @property
    def omega(self) -> QuadInt:
        return QuadInt(self, 0, 1)

    def omega_complex(self) -> complex:
        return complex(self.s / 2, math.sqrt(-self.disc) / 2)

    def __repr__(self) -> str:
        return f"FieldSpec(d={self.d})"


def make_field(d: int) -> FieldSpec:
    """Validated field for a negative squarefree int d."""
    if not isinstance(d, int) or isinstance(d, bool):
        raise TypeError(f"d must be an int, not {type(d).__name__}")
    if d >= 0:
        raise FieldError(f"d must be negative, got {d}")
    if not is_squarefree(d):
        raise FieldError(f"d must be squarefree, got {d}")
    if d % 4 == 1:
        return FieldSpec(d, d, 1, (d - 1) // 4)
    return FieldSpec(d, 4 * d, 0, d)


class QuadInt:
    """An algebraic integer x + y*w of a fixed imaginary quadratic field."""

    __slots__ = ("field", "x", "y")

    def __init__(self, field: FieldSpec, x: int, y: int = 0):
        self.field = field
        self.x = x
        self.y = y

    def _coerce(self, other) -> QuadInt | None:
        if isinstance(other, QuadInt):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("operands belong to different fields")
            return other
        if isinstance(other, int):
            return QuadInt(self.field, other, 0)
        return None

    def __add__(self, other) -> QuadInt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.field, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, other) -> QuadInt:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadInt(self.field, self.x - o.x, self.y - o.y)

    def __rsub__(self, other) -> QuadInt:
        return (-self) + other

    def __neg__(self) -> QuadInt:
        return QuadInt(self.field, -self.x, -self.y)

    def __mul__(self, other) -> QuadInt:
        f = self.field
        # the common operand skips the call to _coerce, which pays for the
        # two named-tuple reads of s and t below
        if other.__class__ is QuadInt and other.field is f:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        yy = self.y * o.y
        return QuadInt(
            f, self.x * o.x + f.t * yy, self.x * o.y + self.y * o.x + f.s * yy
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadInt:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are defined")
        acc = QuadInt(self.field, 1, 0)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.x == other and self.y == 0
        if isinstance(other, QuadInt):
            return (
                (self.field is other.field or self.field == other.field)
                and self.x == other.x
                and self.y == other.y
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.d, self.x, self.y))

    def conj(self) -> QuadInt:
        """Complex conjugate, which again lies in the ring: conj(w) = s - w."""
        return QuadInt(self.field, self.x + self.field.s * self.y, -self.y)

    def norm(self) -> int:
        """The exact nonnegative integer |z|^2 = z * conj(z)."""
        f = self.field
        return self.x * self.x + f.s * self.x * self.y - f.t * self.y * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def to_complex(self) -> complex:
        return complex(self.x) + self.y * self.field.omega_complex()

    def __str__(self) -> str:
        return element_text(self)

    def __repr__(self) -> str:
        return f"QuadInt(d={self.field.d}, {element_text(self)})"


def exact_div(a: QuadInt, b: QuadInt) -> QuadInt | None:
    """The quotient a/b when b divides a in the ring, else None."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero in the ring")
    if a.field != b.field:
        raise FieldError("operands belong to different fields")
    n = b.norm()
    p = a * b.conj()
    if p.x % n or p.y % n:
        return None
    return QuadInt(a.field, p.x // n, p.y // n)


def mul_matrix(q: QuadInt) -> tuple[int, int, int, int]:
    """Integer matrix (m00, m01, m10, m11) of z -> q*z in the basis {1, w}.

    q*(x + y*w) = (m00*x + m01*y) + (m10*x + m11*y)*w, which lets inner loops
    multiply raw coordinate pairs without building QuadInt objects.
    """
    f = q.field
    return q.x, f.t * q.y, q.y, q.x + f.s * q.y


class FieldElement:
    """A field element num/den in lowest terms, den a positive rational integer."""

    __slots__ = ("num", "den")

    def __init__(self, num: QuadInt, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(math.gcd(abs(num.x), abs(num.y)), den)
        if g > 1:
            num = QuadInt(num.field, num.x // g, num.y // g)
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def from_ratio(cls, num: QuadInt, den: QuadInt) -> FieldElement:
        """num/den with an arbitrary ring denominator, rationalized."""
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.y == 0:
            return cls(num, den.x)
        return cls(num * den.conj(), den.norm())

    @property
    def field(self) -> FieldSpec:
        return self.num.field

    def is_integral(self) -> bool:
        return self.den == 1

    def _coerce(self, other) -> FieldElement | None:
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise FieldError("operands belong to different fields")
            return other
        if isinstance(other, QuadInt):
            return FieldElement(other)
        if isinstance(other, int):
            return FieldElement(QuadInt(self.field, other, 0))
        return None

    def __add__(self, other) -> FieldElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> FieldElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other) -> FieldElement:
        return (-self) + other

    def __neg__(self) -> FieldElement:
        return FieldElement(-self.num, self.den)

    def __mul__(self, other) -> FieldElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> FieldElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero")
        # 1/(n/d) = d*conj(n)/|n|^2
        return FieldElement(self.num * o.num.conj() * o.den, self.den * o.num.norm())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, QuadInt)):
            other = self._coerce(other)
        if isinstance(other, FieldElement):
            # QuadInt equality compares the fields too
            return self.den == other.den and self.num == other.num
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.d, self.num.x, self.num.y, self.den))

    def norm(self) -> Fraction:
        return Fraction(self.num.norm(), self.den * self.den)

    def to_complex(self) -> complex:
        return self.num.to_complex() / self.den

    def __str__(self) -> str:
        t = element_text(self.num)
        if self.den == 1:
            return t
        if self.num.y != 0 and self.num.x != 0:
            return f"({t})/{self.den}"
        return f"{t}/{self.den}"

    def __repr__(self) -> str:
        return f"FieldElement(d={self.field.d}, {self})"


def element_text(z: QuadInt) -> str:
    """Canonical text form: ``x``, ``x+y*w``, ``x-y*w`` (coefficient 1 omitted)."""
    if z.y == 0:
        return str(z.x)
    if z.y > 0:
        wpart = "w" if z.y == 1 else f"{z.y}*w"
        return wpart if z.x == 0 else f"{z.x}+{wpart}"
    wpart = "w" if z.y == -1 else f"{-z.y}*w"
    return f"-{wpart}" if z.x == 0 else f"{z.x}-{wpart}"


def _tokens(text: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j]))
            i = j
            continue
        if ch in "+-*w/":
            out.append((ch, ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} in element text", ch)
    return out


def parse_element(text: str, field: FieldSpec) -> QuadInt:
    """Parse element text ``x``, ``x+y*w``, ``x-y*w`` (spaces optional)."""
    toks = _tokens(text)
    if not toks:
        raise ParseError("empty element text", text)
    i = 0
    x_acc = 0
    y_acc = 0
    first = True
    while i < len(toks):
        kind, val = toks[i]
        sign = 1
        if kind in "+-":
            sign = -1 if kind == "-" else 1
            i += 1
        elif not first:
            raise ParseError(f"expected '+' or '-' before {val!r}", val)
        if i >= len(toks):
            raise ParseError("dangling sign at end of element", toks[-1][1])
        kind, val = toks[i]
        if kind == "int":
            coef = int(val)
            i += 1
            if i < len(toks) and toks[i][0] == "*":
                i += 1
                if i < len(toks) and toks[i][0] == "w":
                    y_acc += sign * coef
                    i += 1
                else:
                    bad = toks[i][1] if i < len(toks) else "end of input"
                    raise ParseError(f"expected 'w' after '*', got {bad!r}", bad)
            else:
                x_acc += sign * coef
        elif kind == "w":
            y_acc += sign
            i += 1
        else:
            raise ParseError(f"unexpected token {val!r} in element text", val)
        first = False
    return QuadInt(field, x_acc, y_acc)


def _strip_parens(s: str) -> str:
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        return s[1:-1]
    return s


def parse_point(text: str, field: FieldSpec) -> FieldElement:
    """Parse ``v`` or ``v/u`` where both sides are element texts,
    optionally parenthesized."""
    parts = text.split("/")
    if len(parts) == 1:
        return FieldElement(parse_element(_strip_parens(parts[0]), field))
    if len(parts) == 2:
        num = parse_element(_strip_parens(parts[0]), field)
        den = parse_element(_strip_parens(parts[1]), field)
        if den.is_zero():
            raise ParseError("zero denominator in point", parts[1].strip())
        return FieldElement.from_ratio(num, den)
    raise ParseError("at most one '/' allowed in a point", text)
