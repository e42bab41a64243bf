"""Integral ideals in Hermite normal form, prime splitting, factorization.

An integral ideal is the lattice spanned over Z by {a, b + c*w} with
c | a, c | b and 0 <= b < a, which makes membership, products and quotient
reduction plain integer linear algebra.  Rational primes are split by the
Kronecker symbol of the field discriminant; the two-element forms (p, w - r)
are written in Hermite form from a checked root, and every splitting is
re-verified by reconstructing p*O_K from the claimed prime powers, which in
particular covers the delicate p = 2 cases without trusting a formula.  An
element's factorization splits only the primes of its content that way;
every other prime is read off the element as a root of w's minimal
polynomial, and the product of the prime powers must rebuild the element's
ideal.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FieldError
from .ntheory import ext_gcd, factor_int, is_prime, kronecker_at_prime, padic_valuation, sqrt_mod
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


class PrimeIdeal(NamedTuple):
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

    def contains(self, z: QuadInt) -> bool:
        return self.hnf.contains(z)

    def __str__(self) -> str:
        if self.root is None:
            return f"({self.p})"
        return f"({self.p}, w-{self.root})"


class PrimeSplitting(NamedTuple):
    """How a rational prime decomposes: ramified, split or inert."""

    p: int
    kind: str  # "ramified" | "split" | "inert"
    primes: tuple[PrimeIdeal, ...]


class ElementFactorization(NamedTuple):
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
    """Product ideal via HNF reduction of the four pairwise basis products.

    With w^2 = s*w + t the last one is
    (b + c*w)(b' + c'*w) = (b*b' + t*c*c') + (b*c' + c*b' + s*c*c')*w.
    """
    if i.field != j.field:
        raise FieldError("ideals from different fields")
    s, t = i.field.s, i.field.t
    a, b, c, a2, b2, c2 = i.a, i.b, i.c, j.a, j.b, j.c
    cc = c * c2
    rows = [(a * a2, 0), (a * b2, a * c2), (a2 * b, a2 * c)]
    rows.append((b * b2 + t * cc, b * c2 + c * b2 + s * cc))
    return _from_rows(i.field, rows)


def ideal_pow(i: IdealHNF, k: int) -> IdealHNF:
    """i^k by square-and-multiply."""
    if k < 0:
        raise ValueError("negative ideal power")
    out = i if k else unit_ideal(i.field)
    for bit in bin(k)[3:]:  # the bits after the leading one
        out = ideal_mul(out, out)
        if bit == "1":
            out = ideal_mul(out, i)
    return out


def prime_power_product(field: FieldSpec, primes, exponents) -> IdealHNF:
    """prod P_j^{n_j} over paired primes and exponents, one ideal_pow each."""
    powers = [ideal_pow(prime.hnf, n) for prime, n in zip(primes, exponents)]
    return functools.reduce(ideal_mul, powers) if powers else unit_ideal(field)


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


def _prime_from_root(field: FieldSpec, p: int, r: int, e: int) -> PrimeIdeal:
    """The prime (p, w - r) for a root r of x^2 - s*x - t modulo p.

    Its Hermite form is (p, -r mod p, 1): w*p = p*(w - r) + r*p and
    w*(w - r) = (s - r)*(w - r) - (r^2 - s*r - t), so the lattice
    {p, w - r} is closed under w exactly when p divides r^2 - s*r - t, and
    it then has norm p.
    """
    if (r * r - field.s * r - field.t) % p:
        raise ArithmeticError(f"two-element form (p={p}, w-{r}) is not prime")
    return PrimeIdeal(hnf=IdealHNF(field, p, -r % p, 1), p=p, e=e, f=1, root=r)


def factor_rational_prime(field: FieldSpec, p: int) -> PrimeSplitting:
    """Splitting of the rational prime p in the ring, verified by rebuild.

    Raises ``ValueError`` for a p that is not prime and, from ``is_prime``,
    ``CapExceededError`` for a p that no Miller-Rabin base proves prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _split_prime(field, p)


def _split_prime(field: FieldSpec, p: int) -> PrimeSplitting:
    """``factor_rational_prime`` for a p already known to be prime."""
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
    """Largest k with z in prime^k, from rational integers alone.

    Write z = p^c * z' with c = v_p(gcd(x, y)), so z' = x' + y'*w lies
    outside p*O_K; then v_P(z) = e*c + v_P(z'), and v_P(z') is
    v_p(N(z')) when P contains z' and 0 otherwise.  Proof: for inert P,
    P = p*O_K misses z'.  For ramified P, p*O_K = P^2 gives v_P(z') <= 1,
    and v_p(N(z')) = v_P(z') as conj(P) = P and N(P) = p.  For split P,
    z' in P puts z' outside conj(P), since P*conj(P) = p*O_K does not hold
    z', so v_p(N(z')) = v_P(z') + v_conj(P)(z') = v_P(z').
    """
    if z.is_zero():
        raise ValueError("valuation of zero is infinite")
    p = prime.p
    c = padic_valuation(math.gcd(z.x, z.y), p)
    q = p**c
    rest = QuadInt(z.field, z.x // q, z.y // q)
    if not prime.contains(rest):
        return prime.e * c
    return prime.e * c + padic_valuation(rest.norm(), p)


def factor_element(alpha: QuadInt) -> ElementFactorization:
    """Prime-ideal factorization of alpha * O_K for a nonzero nonunit alpha.

    Write alpha = g * alpha' with g = gcd(x, y), so alpha' = x' + y'*w is
    primitive and N(alpha) = g^2 * N(alpha').  Let p divide N(alpha') but
    not g.  Then p does not divide y', for else it would divide x'^2 and
    alpha' would not be primitive.  So r = -x'/y' mod p is a root of w's
    minimal polynomial, as r^2 - s*r - t = N(alpha')/y'^2 = 0 mod p, and
    alpha' lies in P = (p, w - r).  Such a p splits or ramifies, ramified
    exactly when p | disc; alpha' lies outside p*O_K, so conj(P) does not
    divide alpha when P != conj(P), and v_P(alpha) = v_p(N(alpha')) (see
    ``valuation``).  A p of g is split as a rational prime: with
    E_p = v_p(N(alpha)), the one prime over an inert or ramified p has
    exponent E_p / f, and a split p's two have v_P(alpha) and
    E_p - v_P(alpha)."""
    n = alpha.norm()
    if n == 0:
        raise ValueError("cannot factor zero")
    if n == 1:
        raise ValueError("cannot factor a unit")
    field = alpha.field
    g = math.gcd(alpha.x, alpha.y)
    x, y = alpha.x // g, alpha.y // g
    # factor_int proves each p prime; _split_prime does not prove it again
    content = factor_int(g)
    norm_primes = factor_int(n // (g * g))
    factors: list[tuple[PrimeIdeal, int]] = []
    for p in sorted(content.keys() | norm_primes.keys()):
        if p not in content:
            e = 2 if field.disc % p == 0 else 1
            prime = _prime_from_root(field, p, -x * pow(y, -1, p) % p, e)
            factors.append((prime, norm_primes[p]))
            continue
        e_p = 2 * content[p] + norm_primes.get(p, 0)
        splitting = _split_prime(field, p)
        if splitting.kind == "split":
            v = valuation(alpha, splitting.primes[0])
            exps = (v, e_p - v)
        else:
            exps = (e_p // splitting.primes[0].f,)
        factors += [(prime, b) for prime, b in zip(splitting.primes, exps) if b]
    result = ElementFactorization(element=alpha, factors=tuple(factors))
    # reconstruction safety net: product of prime powers must rebuild (alpha)
    if prime_power_product(field, result.primes, result.exponents) != principal_ideal(alpha):
        raise ArithmeticError(f"factorization of {alpha} failed reconstruction")
    return result


def reduce_mod(z: QuadInt, ideal: IdealHNF) -> QuadInt:
    """Canonical residue of z modulo the ideal: 0 <= y' < c, 0 <= x' < a."""
    if z.field != ideal.field:
        raise FieldError("element from a different field")
    q, y = divmod(z.y, ideal.c)
    x = (z.x - q * ideal.b) % ideal.a
    return QuadInt(ideal.field, x, y)
