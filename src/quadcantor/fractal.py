"""Geometry of the attractor S(beta, A): radius, dimension, covering bounds.

The attractor of the maps z -> (z + a)/beta, a in A, lies in the closed disk
of radius R = max|a| / (|beta| - 1).  All certificate arithmetic replaces R
by a rational over-approximation R', read from integer square roots
(``least_radius_sq``), so that every covering count is the explicit integer
(#A)^k with k decided by the exact comparison N(beta)^k * delta^2 >= R'^2.
Floating point is confined to the similarity dimension
sigma = 2*log(#A)/log(N(beta)), which is only reported, and the sampling
and box-counting diagnostics.  The spec owns R'^2 (``radius_sq``), the disk
that prunes membership's orbit graphs (``disk``), the integral digits its
walks and word trees step by (``shifted_digits``) and the raster cover of S
that later prunes them instead (``cover``), each computed once.
``_hole_search`` certifies holes in S + O_K for the hole test of a
case-(ii) run, which keeps its outcomes for that run alone.  The cover, the
hole search and the sweeps of ``intersection`` grow the same pieces of S by
``_piece_steps``, take their depths from ``covering_exponent`` and read
lattice points in disks with ``_ball_candidates``.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import NamedTuple

from .errors import CapExceededError, PreconditionError
from .quadring import FieldElement, FieldSpec, QuadInt, mul_matrix


class Hole(NamedTuple):
    """A closed disk D(centre, rho) that misses S + O_K, with rho^2 = ``rho_sq``,
    certified after ``nodes`` piece tests (``_hole_search``)."""

    centre: FieldElement
    rho_sq: Fraction
    nodes: int


@dataclass(frozen=True)
class IFSSpec:
    """A base beta with norm >= 2 and a digit set of at least two elements.

    Everything derived from the spec alone is cached on it: R'^2, the orbit
    disk, its integral digits, the matrix of beta and the digits as integer
    pairs, the raster cover of S (``cover``, its cells built once the
    searches have paid for them) and the labels ``membership`` searches find
    (``_spaces``, from u to the labelled states over u).  The labels cover
    only the states some search finished, not whole orbit graphs.  So the
    caches live exactly as long as the spec does.  No run keeps state here.
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

    @cached_property
    def shifted_digits(self) -> tuple[tuple[int, int], ...]:
        """The integral digits D*a - (beta - 1)*C, as (x, y), for the centre
        c = C/D of ``disk``.

        In the coordinate s = D*z - C the map z -> beta*z + a reads
        s -> beta*s + (D*a - (beta - 1)*C), which keeps every word and every
        orbit state integral.
        """
        centre, _ = self.disk
        c, d = centre.num, centre.den
        shift = (self.beta - 1) * c
        return tuple((a.x * d - shift.x, a.y * d - shift.y) for a in self.digits)

    @cached_property
    def beta_matrix(self) -> tuple[int, int, int, int]:
        """``mul_matrix(beta)``, the integer matrix of z -> beta*z."""
        return mul_matrix(self.beta)

    @cached_property
    def digit_pairs(self) -> frozenset[tuple[int, int]]:
        """The digits as coordinate pairs (x, y)."""
        return frozenset((a.x, a.y) for a in self.digits)

    @cached_property
    def cover(self) -> Cover:
        """The raster cover of S for membership's searches, cells not yet built."""
        return Cover(self)


class Cover:
    """A raster cover K of S, for ``membership`` to prune its searches by.

    K is read in T = D*(S - c), for the centre c = C/D of ``IFSSpec.disk``:
    a cell (i, j) holds the points x + y*w with floor(x/h) = i and
    floor(y/h) = j, h = gd/gn, about 1/32 of the disk's diameter 2*D*r'.
    T lies in the union of the #A^t depth-t pieces of ``_piece_steps``,
    scaled by D: disks of squared radius rho_t^2 = D^2*r'^2/N(beta)^t, with
    t (``depth``) the least depth at which rho_t <= h/2.  A point of a piece
    lies in its bounding box, whose half-sides in x and y are
    rho_t*sqrt(4*nyy/disc) and rho_t*sqrt(4/disc), for the norm
    Q(x, y) = x^2 + s*x*y + nyy*y^2 and disc = 4*nyy - s^2 (as
    4*Q = (2x + s*y)^2 + disc*y^2 and, as a form in y,
    4*nyy*Q >= disc*x^2).  ``build`` keeps every cell such a box
    meets, its half-sides rounded up by exact ceiling square roots: the
    floors of the box's ends bound the cell of each of its points.  So
    every point of T lies in a kept cell, and K is bounded.

    ``cells`` stays None until ``membership`` builds them, once its
    searches on the spec have labelled ``pieces`` = #A^t states
    (``labelled``), as many as the cover has pieces.  The count only times
    the build: an update lost between threads delays it, and threads that
    build at once publish equal cells.
    """

    __slots__ = ("gn", "gd", "depth", "pieces", "labelled", "cells")

    def __init__(self, spec: IFSSpec):
        centre, r2 = spec.disk
        # h = D*ceil(32*r')/512, within D/512 of D*r'/16
        gn, gd = 512, centre.den * _ceil_sqrt(1024 * r2.numerator, r2.denominator)
        g = math.gcd(gn, gd)
        self.gn, self.gd = gn // g, gd // g
        # rho_t <= h/2 for rho_t^2 = D^2*r'^2/N(beta)^t
        self.depth = covering_exponent(
            spec.beta.norm(), centre.den**2 * r2, Fraction(self.gd**2, 4 * self.gn**2)
        )
        self.pieces = len(spec.digits) ** self.depth
        self.labelled = 0
        self.cells: frozenset[tuple[int, int]] | None = None

    def build(self, spec: IFSSpec) -> frozenset[tuple[int, int]]:
        """The cells that the bounding boxes of the depth-t pieces meet.

        A piece's centre is P/N(beta)^t for an integer pair P, grown from
        (0, 0) by ``_piece_steps``.  Words with equal centres, which
        overlapping digit sets make, are kept once.
        """
        centre, r2 = spec.disk
        nyy, disc = -spec.field.t, -spec.field.disc
        b = spec.beta.norm()
        pieces = {(0, 0)}
        for _, step in zip(range(self.depth), _piece_steps(spec, spec.field.one)):
            pieces = {(b * x + ax, b * y + ay) for x, y in pieces for ax, ay in step}
        # the half-sides over N(beta)^t, from 4*(rho_t*N(beta)^t)^2 = rho/rd
        rho = 4 * centre.den**2 * r2.numerator * b**self.depth
        hx = _ceil_sqrt(nyy * rho, disc * r2.denominator)
        hy = _ceil_sqrt(rho, disc * r2.denominator)
        gn, unit = self.gn, self.gd * b**self.depth
        cells = set()
        for x, y in pieces:
            for j in range((y - hy) * gn // unit, (y + hy) * gn // unit + 1):
                for i in range((x - hx) * gn // unit, (x + hx) * gn // unit + 1):
                    cells.add((i, j))
        return frozenset(cells)


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


class CoveringConstants(NamedTuple):
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
    Candidates stay integer pairs (num, den), compared by cross-multiplying;
    only the least becomes a ``Fraction``.
    """
    best_num, best_den = None, 1
    for den in dens:
        y = m * den * den
        x = b * y
        s = math.isqrt(x + y + math.isqrt(4 * x * y))
        exact = math.isqrt(x) ** 2 == x and math.isqrt(y) ** 2 == y
        num = -(-s // (b - 1)) if exact else s // (b - 1) + 1
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den = num, den
    if best_num is None:
        raise ValueError("dens must not be empty")
    return Fraction(best_num, best_den) ** 2


def _ceil_sqrt(n: int, d: int) -> int:
    """The least integer k >= 0 with k^2 >= n/d, for n >= 0 and d > 0."""
    k = math.isqrt(n // d)
    return k if k * k * d >= n else k + 1


def _piece_steps(spec: IFSSpec, m: QuadInt) -> Iterator[list[tuple[int, int]]]:
    """The steps m*a'*conj(beta)^j of the depth-j pieces, as integer pairs,
    for j = 1, 2, ..., a' running over ``IFSSpec.shifted_digits``.

    The pieces.  S lies in the disk D(c, r') of ``IFSSpec.disk``, c = C/D,
    which every map f_a(z) = (z + a)/beta sends into itself.  So S lies in
    the union of the #A^j depth-j pieces f_W(D(c, r')) = D(f_W(c), r_j),
    r_j = r'/|beta|^j, over the words W = a_1 ... a_j, where
    f_W = f_{a_1} o ... o f_{a_j}: the piece of W holds f_W(S), and the #A
    pieces of depth j + 1 below it lie inside it.  In the coordinate
    s = D*z - C the map f_a reads s -> (s + a')/beta, so f_W(c) = (C + s_W)/D
    with s_W = sum_{i<=j} a'_i beta^-i, and beta^-i = conj(beta)^i/N(beta)^i.
    So from P_0 = m*X the steps P_j = N(beta)*P_{j-1} + m*a'_j*conj(beta)^j
    give the integer pair P_j = m*N(beta)^j*(X + s_W), grown one digit
    deeper at a time; for X = C + D*g it is m*D*N(beta)^j times the centre
    f_W(c) + g of the piece translated by g in O_K.  ``Cover.build`` starts
    from X = 0, ``_hole_search`` from X = C + D*g, both with m = 1, and
    ``intersection._candidate_numerators`` from X = C with m = delta.
    """
    m00, m01, m10, m11 = mul_matrix(m)
    step = [(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in spec.shifted_digits]
    c00, c01, c10, c11 = mul_matrix(spec.beta.conj())
    while True:
        step = [(c00 * x + c01 * y, c10 * x + c11 * y) for x, y in step]
        yield step


def _ball_candidates(
    field: FieldSpec,
    centres: Iterable[tuple[int, int]],
    D: int,
    rn: int,
    rd: int,
    hnf: tuple[int, int, int],
) -> Iterator[tuple[int, int]]:
    """Every (x, y) with |x + y*w - (X + Y*w)/D|^2 <= rn/rd, ball by ball for
    the (X, Y) in ``centres``, in the ideal whose Hermite form is
    hnf = (a, b, c); a point of several balls comes once for each.

    Every ball sits over one common denominator D and shares one radius, so
    the constants below are computed once and each ball is scanned row by
    row with its exact chord from ``isqrt``.  With w^2 = s*w + t, the scale
    m = 1 + s (so w = (s + sqrt(d))/m) and a' = y*D - Y, the disk test reads

      rd*(m*D*x - m*X + s*a')^2 + rd*|d|*a'^2 <= budget = m^2*rn*D^2,

    so the rows are |a'| <= isqrt(budget // (rd*|d|)) and each row keeps
    m*D*x in [m*X - s*a' - r, m*X - s*a' + r] with
    r = isqrt((budget - rd*|d|*a'^2) // rd).  The ideal's rows are y = c*t,
    and row t holds the x = b*t (mod a): exactly its points in the closed
    balls.
    """
    a, b, c = hnf
    s = field.s
    m = 1 + s
    budget = m * m * rn * D * D
    rdd = rd * -field.d
    amax = math.isqrt(budget // rdd)
    md = m * D
    cd = c * D
    isqrt = math.isqrt
    for X, Y in centres:
        mx = m * X
        for t in range(-((amax - Y) // cd), (Y + amax) // cd + 1):
            y = c * t
            dy = y * D - Y
            r = isqrt((budget - rdd * dy * dy) // rd)
            mid = mx - s * dy
            lo = -((r - mid) // md)
            lo += (b * t - lo) % a
            for x in range(lo, (mid + r) // md + 1, a):
                yield x, y


def _hole_search(spec: IFSSpec, rho_sq: Fraction, budget: int) -> Hole | None:
    """A hole of squared radius rho_sq in S + O_K, by one best-first descent
    over the quadtree cells of the unit cell {x + y*w : 0 <= x, y < 1} of O_K,
    or None.  It gives up before its piece tests pass ``budget``: each root
    translate is one test, and each expansion is charged its tests before it
    runs, so the search holds at most about ``budget`` pieces.  Its path does
    not depend on ``budget``, so it finds its hole exactly when the hole's
    ``nodes`` are at most ``budget``.

    The pieces.  S + O_K lies in the union of the depth-j pieces of
    ``_piece_steps`` translated by O_K, D(f_W(c) + g, r_j); each holds the
    point f_W(S) + g of S + O_K, and the #A pieces of depth j + 1 below it
    lie inside it.  Their centres are P/E_j, E_j = D*N(beta)^j, for the
    integer pairs P grown from C + D*g by the steps of ``_piece_steps``.

    The descent.  A node is a cell of side 2^-l with centre m, and the pieces
    of depth j(l) that may come within rho of it.  The root's depth is
    j(0) = 0; below it j(l) is the least depth with r_j at most twice the
    cell's circumradius R_l (``covering_exponent``), which never falls as l
    grows.  Its four subcells test each child piece exactly in integers.  In
    units of the common denominator of m and the pieces, let ``a``, ``rho``
    and ``r`` be the ceilings of R_l, rho and r_j:
      - a piece with |m - p| > a + rho + r (``keep``) is dropped: every point
        of the cell, and so every later centre below it, is more than
        rho + r_j from it and from every piece below it;
      - a piece with |m - p| + a + r at most the floor of rho (``full``)
        holds a point of S + O_K within rho of every point of the cell,
        which is dropped: it holds no centre;
      - a subcell whose pieces all have |m - p| > rho + r (``clear``) is a
        hole at m.  Every piece of the tree below (W, g) is in its own piece,
        each of those is more than rho + r from m, and together they cover
        S + O_K, so the closed disk D(m, rho) misses it.
    The root's pieces are the translates g with |c + g - m| <= a + rho + r,
    read by ``_ball_candidates``.  Cells are taken by the upper bound
    |m - p| - r_j + R_l of the clearance in them, the largest first; every
    comparison is on integers, and ties go to the older cell, so the path
    depends on the spec and rho^2 alone.
    """
    field = spec.field
    s, nyy = field.s, -field.t
    kappa = 1 + s + nyy  # Q(1, 1): R_l^2 = kappa / 4^(l+1)
    centre, r2 = spec.disk
    C, D = centre.num, centre.den
    b = spec.beta.norm()
    rn, rd = r2.numerator, r2.denominator
    pn, pd = rho_sq.numerator, rho_sq.denominator
    n_digits = len(spec.digits)
    grow = _piece_steps(spec, field.one)
    steps: list[list[tuple[int, int]]] = [[]]  # steps[j]: the a'*conj(beta)^j
    bounds: dict[int, tuple[int, int, int, int, int, int]] = {}

    def step(j):
        while len(steps) <= j:
            steps.append(next(grow))
        return steps[j]

    def bound(level):
        """(j, keep, clear, full, key_shift, scale) for the cells of one
        level: the depth of their pieces, the squared bounds and the shift
        in units of scale = E_j * 2^(l+1)."""
        if level not in bounds:
            # r_j^2 <= 4*R_l^2 = kappa/4^l
            j = covering_exponent(b, r2, Fraction(kappa, 4**level)) if level else 0
            scale = D * b**j << (level + 1)
            a = _ceil_sqrt(kappa * scale * scale, 4 ** (level + 1))
            rho = _ceil_sqrt(pn * scale * scale, pd)
            r = _ceil_sqrt(rn * scale * scale, rd * b**j)
            low = math.isqrt(pn * scale * scale // pd) - a - r
            full = low * low if low >= 0 else -1
            bounds[level] = (j, (a + rho + r) ** 2, (rho + r) ** 2, full, r - a, scale)
        return bounds[level]

    _, keep, clear, full, _, _ = bound(0)
    # the root: centre (1 + w)/2 and pieces (C + g*D)/D within sqrt(keep)
    # of it in units of 2*D, so the g within sqrt(keep)/(2*D) of
    # ((1 + w)*D - 2*C)/(2*D)
    ball = _ball_candidates(field, [(D - 2 * C.x, D - 2 * C.y)], 2 * D, keep, 4 * D * D, (1, 0, 1))
    near = list(islice(ball, max(budget + 1, 0)))
    if len(near) > budget:
        return None
    root = [(C.x + gx * D, C.y + gy * D) for gx, gy in near]
    nearest = None
    for px, py in root:
        x, y = 2 * px - D, 2 * py - D
        q = x * x + s * x * y + nyy * y * y
        if q <= full:
            return None
        if nearest is None or q < nearest:
            nearest = q
    nodes = len(root)
    if nearest is None or nearest > clear:
        return Hole(FieldElement(QuadInt(field, 1, 1), 2), rho_sq, nodes)
    heap = [(0, 0, 0, 0, 0, root)]
    tick = 0
    while heap:
        _, _, level, i, k, pieces = heapq.heappop(heap)
        j0 = bound(level)[0]
        j1, keep, clear, full, key_shift, scale = bound(level + 1)
        # an expansion is charged its 4 * (child pieces) tests up front
        nodes += 4 * len(pieces) * n_digits ** (j1 - j0)
        if nodes > budget:
            return None
        for j in range(j0 + 1, j1 + 1):
            pieces = [(b * x + ax, b * y + ay) for x, y in pieces for ax, ay in step(j)]
        e = scale >> (level + 2)
        f = 1 << (level + 2)
        scaled = [(x * f, y * f, (x, y)) for x, y in pieces]
        for i2 in (2 * i, 2 * i + 1):
            for k2 in (2 * k, 2 * k + 1):
                mx, my = (2 * i2 + 1) * e, (2 * k2 + 1) * e
                live = []
                nearest = None
                for px, py, piece in scaled:
                    dx, dy = px - mx, py - my
                    q = dx * (dx + s * dy) + nyy * dy * dy
                    if q <= keep:
                        if q <= full:
                            break
                        live.append(piece)
                        if nearest is None or q < nearest:
                            nearest = q
                else:
                    if nearest is None or nearest > clear:
                        m = FieldElement(QuadInt(field, 2 * i2 + 1, 2 * k2 + 1), f)
                        return Hole(m, rho_sq, nodes)
                    tick += 1
                    key = -((math.isqrt(nearest) - key_shift) << 40) // scale
                    heapq.heappush(heap, (key, tick, level + 1, i2, k2, live))
    return None


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
    b^k * dn * rd >= rn * dd.  Found by binary lifting: the squares
    b^(2^i) are built until lhs * b^(2^n) reaches rhs, so 2^(n-1) < k <= 2^n;
    then the largest j < 2^n with lhs * b^j < rhs is read off bit by bit
    from the largest square down, the test being monotone in j, and k = j + 1.
    """
    lhs = delta_sq.numerator * r2.denominator
    rhs = r2.numerator * delta_sq.denominator
    if lhs >= rhs:
        return 0
    squares = [b]
    while lhs * squares[-1] < rhs:
        squares.append(squares[-1] * squares[-1])
    j = 0
    for i in range(len(squares) - 2, -1, -1):
        trial = lhs * squares[i]
        if trial < rhs:
            lhs = trial
            j += 1 << i
    return j + 1


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


class BoxDimEstimate(NamedTuple):
    dimension: float
    counts: tuple[tuple[int, float, int], ...]  # (depth, delta, boxes)


def box_dim_estimate(spec: IFSSpec, depths) -> BoxDimEstimate:
    """Least-squares slope of log N_delta against -log delta; diagnostic only."""
    depths = list(depths)
    if len(depths) < 2:
        raise ValueError("need at least two depths for a slope")
    if any(a >= b for a, b in zip(depths, depths[1:])):
        raise ValueError("depths must be strictly ascending")
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
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / math.fsum((x - mx) ** 2 for x in xs)
    return BoxDimEstimate(dimension=slope, counts=tuple(rows))
