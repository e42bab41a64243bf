"""Integral ideals in Hermite normal form, prime splitting, factorization.

An integral ideal is the lattice spanned over Z by {a, b + c*w} with
c | a, c | b and 0 <= b < a, which makes membership, products and quotient
reduction plain integer linear algebra.  Rational primes are split by the
Kronecker symbol of the field discriminant; the two-element forms (p, w - r)
are converted to HNF on construction and every splitting is re-verified by
reconstructing p*O_K from the claimed prime powers, which in particular
covers the delicate p = 2 cases without trusting a formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldError
from .ntheory import ext_gcd, factor_int, is_prime, kronecker_at_prime, sqrt_mod
from .quadring import FieldSpec, QuadInt


@dataclass(frozen=True)
class IdealHNF:
    """Integral ideal spanned by {a, b + c*w} in canonical Hermite form."""

    field: FieldSpec
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a < 1 or self.c < 1:
            raise ValueError("HNF requires a >= 1 and c >= 1")
        if not (0 <= self.b < self.a):
            raise ValueError("HNF requires 0 <= b < a")
        if self.a % self.c or self.b % self.c:
            raise ValueError("HNF of an ideal requires c | a and c | b")

    @property
    def norm(self) -> int:
        """Cardinality of the quotient ring, equal to a*c."""
        return self.a * self.c

    def is_unit(self) -> bool:
        return self.a == 1 and self.c == 1

    def basis(self) -> tuple[QuadInt, QuadInt]:
        return (
            QuadInt(self.field, self.a, 0),
            QuadInt(self.field, self.b, self.c),
        )

    def contains(self, z: QuadInt) -> bool:
        if z.field != self.field:
            raise FieldError("element from a different field")
        if z.y % self.c:
            return False
        return (z.x - (z.y // self.c) * self.b) % self.a == 0

    def conjugate(self) -> IdealHNF:
        # conj(b + c*w) = (b + c*s) - c*w, and the lattice holds its negative
        b = (-self.b - self.c * self.field.s) % self.a
        return IdealHNF(self.field, self.a, b, self.c)

    def __str__(self) -> str:
        return f"({self.a}, {self.b}+{self.c}w)"


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime ideal with its rational prime p, ramification e, degree f.

    ``root`` is the residue r with w = r (mod ideal) when f = 1, None when
    inert; it doubles as the two-element form (p, w - r).
    """

    hnf: IdealHNF
    p: int
    e: int
    f: int
    root: int | None

    @property
    def norm(self) -> int:
        return self.p**self.f

    @property
    def field(self) -> FieldSpec:
        return self.hnf.field

    def contains(self, z: QuadInt) -> bool:
        return self.hnf.contains(z)

    def conjugate(self) -> PrimeIdeal:
        if self.root is None or self.e == 2:
            return self
        return PrimeIdeal(
            hnf=self.hnf.conjugate(),
            p=self.p,
            e=self.e,
            f=self.f,
            root=_other_root(self.field, self.p, self.root),
        )

    def __str__(self) -> str:
        if self.root is None:
            return f"({self.p})"
        return f"({self.p}, w-{self.root})"


@dataclass(frozen=True)
class PrimeSplitting:
    """How a rational prime decomposes: ramified, split or inert."""

    p: int
    kind: str  # "ramified" | "split" | "inert"
    primes: tuple[PrimeIdeal, ...]

    def factors(self) -> tuple[tuple[PrimeIdeal, int], ...]:
        if self.kind == "ramified":
            return ((self.primes[0], 2),)
        if self.kind == "split":
            return ((self.primes[0], 1), (self.primes[1], 1))
        return ((self.primes[0], 1),)


@dataclass(frozen=True)
class ElementFactorization:
    """alpha * O_K as a product of distinct prime-ideal powers."""

    element: QuadInt
    factors: tuple[tuple[PrimeIdeal, int], ...]

    @property
    def primes(self) -> tuple[PrimeIdeal, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(b for _, b in self.factors)

    @property
    def ell(self) -> int:
        return len(self.factors)

    def product_hnf(self) -> IdealHNF:
        return prime_power_product(self.element.field, self.primes, self.exponents)


def _from_rows(field: FieldSpec, rows: list[tuple[int, int]]) -> IdealHNF:
    """Hermite form of the lattice spanned by coordinate rows (x, y)."""
    b = c = 0
    xs: list[int] = []
    for x, y in rows:
        if y == 0:
            if x:
                xs.append(x)
            continue
        if c == 0:
            b, c = x, y
            continue
        g, s, t = ext_gcd(c, y)
        leftover = (c // g) * x - (y // g) * b
        if leftover:
            xs.append(leftover)
        b, c = s * b + t * x, g
    a = 0
    for x in xs:
        a = math.gcd(a, x)
    if c < 0:
        b, c = -b, -c
    if a == 0 or c == 0:
        raise ValueError("generators do not span a full-rank ideal lattice")
    b %= a
    return IdealHNF(field, a, b, c)


def ideal_from_generators(gens: list[QuadInt] | tuple[QuadInt, ...]) -> IdealHNF:
    """HNF of the ideal generated by ``gens`` (lattice closure under w)."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    field = gens[0].field
    rows: list[tuple[int, int]] = []
    for g in gens:
        if g.field != field:
            raise FieldError("generators from different fields")
        rows.append((g.x, g.y))
        gw = g * field.omega
        rows.append((gw.x, gw.y))
    return _from_rows(field, rows)


def principal_ideal(z: QuadInt) -> IdealHNF:
    return ideal_from_generators([z])


def unit_ideal(field: FieldSpec) -> IdealHNF:
    return IdealHNF(field, 1, 0, 1)


def ideal_mul(i: IdealHNF, j: IdealHNF) -> IdealHNF:
    """Product ideal via HNF reduction of the four pairwise basis products."""
    if i.field != j.field:
        raise FieldError("ideals from different fields")
    rows = []
    for g in i.basis():
        for h in j.basis():
            prod = g * h
            rows.append((prod.x, prod.y))
    return _from_rows(i.field, rows)


def ideal_sum(i: IdealHNF, j: IdealHNF) -> IdealHNF:
    if i.field != j.field:
        raise FieldError("ideals from different fields")
    rows = []
    for g in (*i.basis(), *j.basis()):
        rows.append((g.x, g.y))
    return _from_rows(i.field, rows)


_POW_CACHE: dict[IdealHNF, list[IdealHNF]] = {}


def ideal_pow(i: IdealHNF, k: int) -> IdealHNF:
    """i^k with ascending powers memoized per ideal."""
    if k < 0:
        raise ValueError("negative ideal power")
    powers = _POW_CACHE.setdefault(i, [unit_ideal(i.field), i])
    while len(powers) <= k:
        powers.append(ideal_mul(powers[-1], i))
    return powers[k]


def prime_power_product(field: FieldSpec, primes, exponents) -> IdealHNF:
    """prod P_j^{n_j} over paired primes and exponents, one ideal_pow each."""
    out = unit_ideal(field)
    for prime, n in zip(primes, exponents):
        out = ideal_mul(out, ideal_pow(prime.hnf, n))
    return out


def _minpoly_roots_mod_p(field: FieldSpec, p: int) -> list[int]:
    """Roots of the minimal polynomial x^2 - s*x - t of w modulo p (0, 1 or 2)."""
    s, t = field.s, field.t
    if p == 2:
        return [r for r in (0, 1) if (r * r - s * r - t) % 2 == 0]
    q = sqrt_mod(field.disc % p, p)
    if q is None:
        return []
    inv2 = pow(2, -1, p)
    return sorted({(s + q) * inv2 % p, (s - q) * inv2 % p})


def _other_root(field: FieldSpec, p: int, r: int) -> int:
    # the roots of x^2 - s*x - t sum to s
    return (field.s - r) % p


def _prime_from_root(field: FieldSpec, p: int, r: int, e: int) -> PrimeIdeal:
    hnf = ideal_from_generators([QuadInt(field, p, 0), QuadInt(field, -r, 1)])
    if hnf.norm != p:
        raise ArithmeticError(f"two-element form (p={p}, w-{r}) is not prime")
    return PrimeIdeal(hnf=hnf, p=p, e=e, f=1, root=r)


def factor_rational_prime(field: FieldSpec, p: int) -> PrimeSplitting:
    """Splitting of the rational prime p in the ring, verified by rebuild."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k = kronecker_at_prime(field.disc, p)
    p_principal = principal_ideal(QuadInt(field, p, 0))
    if k == -1:
        hnf = IdealHNF(field, p, 0, p)
        if hnf != p_principal:
            raise ArithmeticError(f"inert reconstruction failed at p={p}")
        prime = PrimeIdeal(hnf=hnf, p=p, e=1, f=2, root=None)
        return PrimeSplitting(p=p, kind="inert", primes=(prime,))
    roots = _minpoly_roots_mod_p(field, p)
    if k == 0:
        if len(roots) != 1:
            raise ArithmeticError(f"expected a double root at ramified p={p}")
        prime = _prime_from_root(field, p, roots[0], e=2)
        if ideal_mul(prime.hnf, prime.hnf) != p_principal:
            raise ArithmeticError(f"ramified reconstruction failed at p={p}")
        return PrimeSplitting(p=p, kind="ramified", primes=(prime,))
    if len(roots) != 2:
        raise ArithmeticError(f"expected two roots at split p={p}")
    p1 = _prime_from_root(field, p, roots[0], e=1)
    p2 = _prime_from_root(field, p, roots[1], e=1)
    if p1.hnf == p2.hnf or ideal_mul(p1.hnf, p2.hnf) != p_principal:
        raise ArithmeticError(f"split reconstruction failed at p={p}")
    return PrimeSplitting(p=p, kind="split", primes=(p1, p2))


def valuation(z: QuadInt, prime: PrimeIdeal) -> int:
    """Largest k with z in prime^k, by ascending HNF-power membership."""
    if z.is_zero():
        raise ValueError("valuation of zero is infinite")
    k = 0
    while ideal_pow(prime.hnf, k + 1).contains(z):
        k += 1
    return k


def factor_element(alpha: QuadInt) -> ElementFactorization:
    """Prime-ideal factorization of alpha * O_K for a nonzero nonunit alpha."""
    n = alpha.norm()
    if n == 0:
        raise ValueError("cannot factor zero")
    if n == 1:
        raise ValueError("cannot factor a unit")
    field = alpha.field
    factors: list[tuple[PrimeIdeal, int]] = []
    for p in sorted(factor_int(n)):
        for prime in factor_rational_prime(field, p).primes:
            v = valuation(alpha, prime)
            if v:
                factors.append((prime, v))
    result = ElementFactorization(element=alpha, factors=tuple(factors))
    # reconstruction safety net: product of prime powers must rebuild (alpha)
    if result.product_hnf() != principal_ideal(alpha):
        raise ArithmeticError(f"factorization of {alpha} failed reconstruction")
    if math.prod(p.norm**b for p, b in factors) != n:
        raise ArithmeticError(f"norm mismatch factoring {alpha}")
    return result


def are_coprime(alpha: QuadInt, beta: QuadInt) -> bool:
    """Whether (alpha) + (beta) is the unit ideal."""
    if alpha.is_zero() or beta.is_zero():
        raise ValueError("coprimality is undefined for zero")
    return ideal_from_generators([alpha, beta]).is_unit()


def reduce_mod(z: QuadInt, ideal: IdealHNF) -> QuadInt:
    """Canonical residue of z modulo the ideal: 0 <= y' < c, 0 <= x' < a."""
    if z.field != ideal.field:
        raise FieldError("element from a different field")
    q, y = divmod(z.y, ideal.c)
    x = (z.x - q * ideal.b) % ideal.a
    return QuadInt(ideal.field, x, y)
