"""Geometry of the attractor S(beta, A): radius, dimension, covering bounds.

The attractor of the maps z -> (z + a)/beta, a in A, lies in the closed disk
of radius R = max|a| / (|beta| - 1).  All certificate arithmetic replaces R
by a rational over-approximation R', read from integer square roots
(``least_radius_sq``), so that every covering count is the explicit integer
(#A)^k with k decided by the exact comparison N(beta)^k * delta^2 >= R'^2.
Floating point is confined to the similarity dimension
sigma = 2*log(#A)/log(N(beta)), which is only reported, and the sampling
and box-counting diagnostics.  The spec owns both R'^2 (``radius_sq``) and
the disk that prunes membership's orbit graphs (``disk``), each computed once.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import CapExceededError, PreconditionError
from .quadring import FieldElement, FieldSpec, QuadInt


@dataclass(frozen=True)
class IFSSpec:
    """A base beta with norm >= 2 and a digit set of at least two elements.

    Everything derived from the spec alone is cached on it: R'^2, the orbit
    disk and the labels ``membership`` searches find (``_spaces``, from u to
    the labelled states over u).  The labels cover only the states some
    search finished, not whole orbit graphs.  So the caches live exactly as
    long as the spec does.
    """

    field: FieldSpec
    beta: QuadInt
    digits: tuple[QuadInt, ...]
    _spaces: dict = dataclasses.field(default_factory=dict, init=False, compare=False, repr=False)

    @cached_property
    def radius_sq(self) -> Fraction:
        """R'^2 for the least rational R' >= R with denominator at most 64."""
        m = max(a.norm() for a in self.digits)
        return least_radius_sq(m, self.beta.norm(), range(1, 65))

    @cached_property
    def disk(self) -> tuple[FieldElement, Fraction]:
        """Centre c and squared radius r'^2 of the disk that prunes orbit graphs.

        c = m/(beta - 1) for the digit centroid m.  With n = #A, r'^2 is the
        radius bound of the integral digits n*a - sum(A), divided by n^2.  Its
        search tries the one denominator 64, one integer search in place of
        the 64 of ``radius_sq``; but the comparison with R' reads
        ``radius_sq``, so the first access runs that search too (and caches
        it).  When the disk is not smaller than R', the 0-centred disk of R'
        is kept.  ``membership.state_count`` counts the states a walk reaches
        in this disk, testing each one; it reads no stored label.
        """
        n = len(self.digits)
        total = sum(self.digits, self.field.zero)
        m = max((a * n - total).norm() for a in self.digits)
        r2 = least_radius_sq(m, self.beta.norm(), (64,)) / (n * n)
        if r2 < self.radius_sq:
            return FieldElement.from_ratio(total, (self.beta - 1) * n), r2
        return FieldElement(self.field.zero), self.radius_sq


def ifs_new(beta: QuadInt, digits) -> IFSSpec:
    digits = tuple(digits)
    if beta.norm() < 2:
        raise PreconditionError("|beta| > 1 is required (norm at least 2)")
    if len(digits) < 2:
        raise PreconditionError("need at least two digits")
    if len(set(digits)) != len(digits):
        raise PreconditionError("digits must be pairwise distinct")
    field = beta.field
    for a in digits:
        if a.field != field:
            raise PreconditionError("digits must lie in beta's field")
    return IFSSpec(field=field, beta=beta, digits=digits)


@dataclass(frozen=True)
class CoveringConstants:
    """Explicit constants behind the covering chain for one spec."""

    radius_sq_bound: Fraction
    digit_count: int
    beta_norm: int


def least_radius_sq(m: int, b: int, dens) -> Fraction:
    """r^2 for the least r = num/den >= sqrt(m)/(sqrt(b) - 1) over den in dens.

    The radius bound for digits of largest norm m and a base of norm b.  For
    X = m*b*den^2 and Y = m*den^2, num = ceil(S/(b - 1)) with
    S = sqrt(X) + sqrt(Y), and floor(S) = isqrt(X + Y + isqrt(4XY)), since
    floor(sqrt(z)) = isqrt(floor(z)).  S is rational, so an integer, only
    when X and Y are squares, as sqrt(X) - sqrt(Y) = (X - Y)/S; otherwise
    S/(b - 1) is no integer and its ceiling is floor(S) // (b - 1) + 1.
    """
    radii = []
    for den in dens:
        y = m * den * den
        x = b * y
        s = math.isqrt(x + y + math.isqrt(4 * x * y))
        exact = math.isqrt(x) ** 2 == x and math.isqrt(y) ** 2 == y
        radii.append(Fraction(-(-s // (b - 1)) if exact else s // (b - 1) + 1, den))
    return min(radii) ** 2


def similarity_dimension(spec: IFSSpec) -> float:
    """sigma = 2 log(#A) / log(N(beta)); upper bound for dim_H in general."""
    return 2.0 * math.log(len(spec.digits)) / math.log(spec.beta.norm())


def covering_constants(spec: IFSSpec) -> CoveringConstants:
    return CoveringConstants(
        radius_sq_bound=spec.radius_sq,
        digit_count=len(spec.digits),
        beta_norm=spec.beta.norm(),
    )


def covering_exponent(b: int, r2: Fraction, delta_sq: Fraction) -> int:
    """Least k with b^k * delta^2 >= r2, decided exactly.

    For b = N(beta), that depth shrinks a disk of squared radius r2 to
    squared radius at most delta^2.  Cross-multiplied into integers:
    b^k * dn * rd >= rn * dd.
    """
    lhs = delta_sq.numerator * r2.denominator
    rhs = r2.numerator * delta_sq.denominator
    k = 0
    while lhs < rhs:
        lhs *= b
        k += 1
    return k


def covering_bound(spec: IFSSpec, delta: Fraction | int) -> int:
    """Upper bound (#A)^k on the number of delta-balls needed to cover S."""
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    k = covering_exponent(spec.beta.norm(), spec.radius_sq, delta * delta)
    return len(spec.digits) ** k


def period_bound(spec: IFSSpec, u_norm: int) -> int:
    """State-count bound for points with denominator of norm u_norm.

    This is the covering bound at radius 1/(3 sqrt(u_norm)): points of the
    orbit lattice are 1/|u|-separated, so each ball holds at most one.
    """
    if u_norm < 1:
        raise ValueError("u_norm must be a positive integer")
    k = covering_exponent(spec.beta.norm(), spec.radius_sq, Fraction(1, 9 * u_norm))
    return len(spec.digits) ** k


def sample_points(spec: IFSSpec, depth: int, cap: int = 1 << 20) -> list[complex]:
    """All (#A)^depth partial sums sum_{j<=depth} a_j beta^-j, a_1 varying slowest."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    count = len(spec.digits) ** depth
    if count > cap:
        raise CapExceededError(
            f"sample size {count} exceeds cap {cap}", estimate=count, cap=cap
        )
    bz = spec.beta.to_complex()
    digs = [a.to_complex() for a in spec.digits]
    z = [0j]
    for _ in range(depth):
        z = [(w + a) / bz for a in digs for w in z]
    return z


@dataclass(frozen=True)
class BoxDimEstimate:
    dimension: float
    counts: tuple[tuple[int, float, int], ...]  # (depth, delta, boxes)


def box_dim_estimate(spec: IFSSpec, depths) -> BoxDimEstimate:
    """Least-squares slope of log N_delta against -log delta; diagnostic only."""
    depths = list(depths)
    if len(depths) < 2:
        raise ValueError("need at least two depths for a slope")
    if sorted(depths) != depths:
        raise ValueError("depths must be ascending")
    abs_beta = math.sqrt(spec.beta.norm())
    rows = []
    for depth in depths:
        delta = abs_beta**-depth
        cells = {
            (math.floor(z.real / delta), math.floor(z.imag / delta))
            for z in sample_points(spec, depth)
        }
        rows.append((depth, delta, len(cells)))
    xs = [-math.log(delta) for _, delta, _ in rows]
    ys = [math.log(n) for _, _, n in rows]
    slope = statistics.linear_regression(xs, ys).slope
    return BoxDimEstimate(dimension=slope, counts=tuple(rows))
