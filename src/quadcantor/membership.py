"""Exact membership of v/u in S(beta, A) via a finite orbit graph.

A query point v/u (u a positive rational integer after conjugate
normalization) is the root of the edge relation z -> beta*z - a, pruned to
a bounded region that contains the attractor.  The states are points over
the denominator u, at least 1/u apart, so the graph is finite, and v/u
lies in the attractor exactly when a cycle is reachable from the root.

Any bounded region K that contains S gives the same answers.  If v/u is
in S, a coding of it keeps every tail in S, so inside K, and that is an
infinite path.  An infinite path inside K makes v/u = sum_{j<=k} a_j
beta^-j + beta^-k z_k with z_k bounded, which converges to a point of S.
So a state is alive exactly when it lies in S, whatever K is.  Membership
does not depend on K, nor do codings, whose walk takes the lowest digit
with a successor in S, nor the labels the searches store.

Two regions serve.  The first is the disk ``IFSSpec.disk``, recentred on
the attractor: c = m/(beta - 1) with m the digit centroid, since S - c is
the attractor of the digits a - m.  When S has dimension below 2 it has
area 0, and most states in the disk are dead.  The second is the spec's
raster cover ``IFSSpec.cover``: the cells of a grid, 32 across the disk,
that the bounding boxes of the pieces of S one cell across meet.  Those
pieces cover S, so the cells do (``fractal.Cover`` has the proof), and the
test of a state is two floor divisions and one set lookup.  Building the
cells costs about #A^t for #A^t pieces, so they are built only once the
spec's searches have labelled #A^t states: the cost of waiting has then
reached the cost of building.  A short run, such as a level sweep, never
pays for them.  Each search reads its region once, at its start, and
labels found under the disk stay exact under the cover.  ``state_count``
counts the states in the disk, whichever region the searches read.

Each spec keeps one labelled graph per denominator u at which some query's
root lay in the disk, so repeated queries over one spec and u search each
state at most once, a query far from S keeps nothing, and dropping the spec
frees them.  A query is one depth-first search in digit order that stops
at its first proof (``_label``), and it stores for each state it finishes
that state's coding digit: the lowest digit whose successor lies in S, or
-1 for none.  For each state it proves alive it also stores that
successor, so a coding follows the recorded successors, one lookup per
step, and computes no product of beta.  Level sweeps decide their
candidates by a counting peel of their own (``intersection``) and query
only the points they keep, so the spec holds just those points' searches.

A coding is checked by the same orbit map: ``verify_coding`` walks
s -> beta*s - a*u from the numerator v along the coding's digits and
accepts exactly when the period brings the walk back to the state where it
began.  Like the search, it runs on integer coordinate pairs and needs
no power of beta.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import FieldError
from .fractal import IFSSpec
from .quadring import FieldElement, QuadInt, mul_matrix


class Coding(NamedTuple):
    """Eventually periodic digit expansion: preperiod then repeating period."""

    preperiod: tuple[QuadInt, ...]
    period: tuple[QuadInt, ...]


class _Space:
    """The lazily searched orbit graph over the denominator u.

    With c = C/D in lowest terms, the point v/u has the state
    s = D*v - C*u, so s/(D*u) = v/u - c.  The edge v -> beta*v - a*u becomes
    s -> beta*s - D*(a - m)*u, whose digits D*(a - m) = D*a - (beta - 1)*C
    (``IFSSpec.shifted_digits``, scaled here by u) are integral, and the
    disk test is N(s) * rd <= rn * D^2 * u^2 for r'^2 = rn/rd.  The state
    is the point s/u of T = D*(S - c) scaled by u, so its cell of the
    spec's cover is ((x*gn)//(u*gd), (y*gn)//(u*gd)) (``fractal.Cover``).

    ``alive`` maps each state a search has finished to its label: the index
    of its lowest digit whose successor is alive, or -1 when no infinite
    path leaves it (``_label``).  Only final labels are written, so queries
    in several threads may share it.  Every key lies in a region a search
    read, the disk or the cover, but a search stops at its first proof and
    leaves the other successors of the states it finished alive
    unlabelled: the keys are not closed under successors.

    ``succ`` maps each state labelled i >= 0 to its successor
    beta*s - a_i, the state its coding goes to next; a state labelled -1
    has none.  A search writes ``succ[s]`` before ``alive[s]``, so a reader
    in another thread that finds a label >= 0 also finds the successor.
    """

    def __init__(self, spec: IFSSpec, u: int):
        centre, r2 = spec.disk
        c, d = centre.num, centre.den
        self.u = u
        self.scaled_digits = tuple((x * u, y * u) for x, y in spec.shifted_digits)
        self.d, self.cux, self.cuy = d, c.x * u, c.y * u
        self.nxy, self.nyy = spec.field.s, -spec.field.t
        self.bound_num = r2.numerator * d * d * u * u
        self.bound_den = r2.denominator
        self.alive: dict[tuple[int, int], int] = {}
        self.succ: dict[tuple[int, int], tuple[int, int]] = {}

    def inside(self, x: int, y: int) -> bool:
        return (x * x + self.nxy * x * y + self.nyy * y * y) * self.bound_den <= self.bound_num


def _label(spec: IFSSpec, space: _Space, root: tuple[int, int]) -> int:
    """The label of a state, found by one search in digit order.

    The search reads its region once, at its start: the spec's cover K once
    it is built, the disk before.  A root outside K is labelled -1 without
    a search, and is not stored.  A depth-first search keeps its path, the
    states it has started and not finished, in a set of its own.  A state
    tries its successors w_i = beta*s - a_i for i = 0, 1, ... in turn: it
    skips w_i when w_i lies outside the region or is labelled -1, and
    searches w_i first when w_i is unlabelled and off the path.  It
    finishes with the label i as soon as w_i is labelled alive (>= 0) or
    lies on the path, and with -1 once it has skipped every successor.
    When one state finishes alive, so does each state below it on the
    path, with the digit it was trying: the search stops at its first
    proof.

    Proof, by induction on the finish order, that a state finishes with
    i >= 0 exactly when it lies in S, and then i is its lowest digit whose
    successor lies in S.  Let every state that finished before s have an
    exact label, in this search or another, under either region.  If w_i
    is labelled alive, it lies in S, and so does s = (w_i + a_i)/beta.  If
    w_i lies on the path, the search reached s from w_i by edges in the
    region, and w_i -> ... -> s -> w_i is a cycle in a bounded region, so s
    lies in S (see the module docstring).  Each w_j with j < i was skipped:
    it lies outside the region, so not in S, or it finished with -1 before
    s, which is exact.  If s finishes with -1, each of its successors lies
    outside the region or finished with -1 before s, so none lies in S,
    and neither does s, whose coding would give it one.  A self-loop is a
    successor on the path, as for 0 when 0 is a digit.  Labels enter
    ``alive`` only when final, so another search reads only exact ones.

    While the cover is not built, the search adds the states it labelled
    to ``Cover.labelled``, and the search that brings that count to
    ``Cover.pieces`` builds the cells and publishes them by one assignment.

    A state finished alive records its successor w_i in ``space.succ``,
    before its label: for the top state of the path the w_i that proved
    it, for each state below it the state above it on the path.
    """
    alive = space.alive
    known = alive.get(root)
    if known is not None:
        return known
    cover = spec.cover
    cells = cover.cells
    gn, ud = cover.gn, space.u * cover.gd
    if cells is not None and ((root[0] * gn) // ud, (root[1] * gn) // ud) not in cells:
        return -1
    before = len(alive)
    m00, m01, m10, m11 = spec.beta_matrix
    nxy, nyy = space.nxy, space.nyy
    bound_num, bound_den = space.bound_num, space.bound_den
    digits = space.scaled_digits
    n = len(digits)
    x, y = root
    path = {root}
    # one frame per state on the path: the state, beta*state, the digit tried
    stack = [[root, m00 * x + m01 * y, m10 * x + m11 * y, 0]]
    while True:
        frame = stack[-1]
        key, bx, by, i = frame
        while i < n:
            ax, ay = digits[i]
            wx = bx - ax
            wy = by - ay
            if (
                ((wx * gn) // ud, (wy * gn) // ud) in cells
                if cells is not None
                else (wx * wx + nxy * wx * wy + nyy * wy * wy) * bound_den <= bound_num
            ):
                w = (wx, wy)
                if w in path:
                    break
                known = alive.get(w)
                if known is None:
                    frame[3] = i
                    path.add(w)
                    stack.append([w, m00 * wx + m01 * wy, m10 * wx + m11 * wy, 0])
                    break
                if known >= 0:
                    break
            i += 1
        else:
            alive[key] = -1
            path.remove(key)
            stack.pop()
            if not stack:
                label = -1
                break
            stack[-1][3] += 1
            continue
        if stack[-1] is frame:
            # w_i proves the top state alive, and with it the whole path
            frame[3] = i
            succ = space.succ
            for key, _, _, label in reversed(stack):
                succ[key] = w
                alive[key] = label
                w = key
            break
    if cells is None:
        cover.labelled += len(alive) - before
        if cover.labelled >= cover.pieces and cover.cells is None:
            cover.cells = cover.build(spec)
    return label


def _check_numerator(v: QuadInt, spec: IFSSpec) -> None:
    """Raise ``TypeError`` unless v is a ``QuadInt``, and ``FieldError``
    unless it lies in the spec's field."""
    if not isinstance(v, QuadInt):
        raise TypeError(f"numerator v must be a QuadInt, not {type(v).__name__}")
    if v.field is not spec.field and v.field != spec.field:
        raise FieldError("operands belong to different fields")


def _root(
    v: QuadInt, u: int, spec: IFSSpec, keep: bool = True
) -> tuple[_Space, tuple[int, int] | None]:
    """The query's space and root state, the root None when v/u lies outside the disk.

    The inputs are checked before any space is looked up or built.  A new
    space is stored in ``spec._spaces`` only when ``keep`` is set and the
    root lies in the disk, so a query that searches nothing leaves nothing.
    """
    if type(u) is not int or type(v) is not QuadInt or v.field is not spec.field:
        if not isinstance(u, int) or isinstance(u, bool):
            raise TypeError("denominator u must be an int")
        if u < 1:
            raise ValueError("denominator u must be a positive integer")
        _check_numerator(v, spec)
    elif u < 1:
        raise ValueError("denominator u must be a positive integer")
    space = spec._spaces.get(u)
    new = space is None
    if new:
        space = _Space(spec, u)
    root = (space.d * v.x - space.cux, space.d * v.y - space.cuy)
    if not space.inside(*root):
        return space, None
    if new and keep:
        space = spec._spaces.setdefault(u, space)
    return space, root


def is_member(v: QuadInt, u: int, spec: IFSSpec) -> bool:
    """Whether v/u lies in S(beta, A); exact, independent of the pruning region."""
    space, root = _root(v, u, spec)
    return root is not None and _label(spec, space, root) >= 0


def state_count(v: QuadInt, u: int, spec: IFSSpec) -> int:
    """Number of orbit states reachable from v/u in the disk, 0 outside it.

    The walk tests each successor against the disk and keeps its states to
    itself: it neither reads nor writes labels, and stores no space.
    """
    space, root = _root(v, u, spec, keep=False)
    if root is None:
        return 0
    m00, m01, m10, m11 = spec.beta_matrix
    seen = {root}
    stack = [root]
    while stack:
        x, y = stack.pop()
        bx = m00 * x + m01 * y
        by = m10 * x + m11 * y
        for ax, ay in space.scaled_digits:
            w = (bx - ax, by - ay)
            if w not in seen and space.inside(*w):
                seen.add(w)
                stack.append(w)
    return len(seen)


def coding_of(v: QuadInt, u: int, spec: IFSSpec) -> Coding | None:
    """An eventually periodic coding of v/u, or None for non-members.

    The walk always takes the lowest digit index whose successor still
    reaches a cycle, the label of its state, and goes to the successor the
    search recorded for it, then cuts at the first repeated state, which
    makes the returned coding deterministic.  A state the walk finds
    unlabelled (another thread's search may not have finished it yet) is
    searched.  Every state on the walk lies in S, so a state labelled -1
    there means a wrong label, and raises ``ArithmeticError`` rather than
    walk on.
    """
    space, root = _root(v, u, spec)
    if root is None:
        return None
    i = _label(spec, space, root)
    if i < 0:
        return None
    alive, succ, digits = space.alive, space.succ, spec.digits
    pos = {root: 0}
    values: list[QuadInt] = []
    cur = root
    while True:
        values.append(digits[i])
        cur = succ[cur]
        if cur in pos:
            cut = pos[cur]
            return Coding(tuple(values[:cut]), tuple(values[cut:]))
        pos[cur] = len(values)
        i = alive.get(cur)
        if i is None:
            i = _label(spec, space, cur)
        if i < 0:
            raise ArithmeticError(f"state {cur} over {u} on the coding walk is labelled dead")


def _coding_ratio(coding: Coding, beta: QuadInt) -> tuple[QuadInt, QuadInt]:
    """The coding's value as a ring quotient num/den (den nonzero).

    With wpre, wper the Horner values of the preperiod and the period and
    k, m their lengths, the value is wpre/beta^k + wper/(beta^k (beta^m - 1)).
    One Horner pass per part carries (w, beta^k) as coordinate pairs through
    the matrix of beta, and the products with beta^m - 1 go through its
    matrix; only num and den become ring elements.  A plain ``int`` digit
    counts as a rational integer, and a digit of another field raises
    ``FieldError``.
    """
    m00, m01, m10, m11 = mul_matrix(beta)
    field = beta.field

    def horner(digits):
        wx = wy = 0
        bx, by = 1, 0
        for a in digits:
            if type(a) is not QuadInt or a.field is not field:
                a = field.zero + a
            wx, wy = m00 * wx + m01 * wy + a.x, m10 * wx + m11 * wy + a.y
            bx, by = m00 * bx + m01 * by, m10 * bx + m11 * by
        return wx, wy, bx, by

    px, py, kx, ky = horner(coding.preperiod)
    qx, qy, mx, my = horner(coding.period)
    e00, e01, e10, e11 = mul_matrix(QuadInt(field, mx - 1, my))
    num = QuadInt(field, e00 * px + e01 * py + qx, e10 * px + e11 * py + qy)
    return num, QuadInt(field, e00 * kx + e01 * ky, e10 * kx + e11 * ky)


def coding_value(coding: Coding, beta: QuadInt) -> FieldElement:
    """Exact value of the coding in the field of beta: num*conj(den)/N(den).

    An empty period raises ``ValueError``: it gives no value.
    """
    if not coding.period:
        raise ValueError("coding must have a nonempty period")
    num, den = _coding_ratio(coding, beta)
    return FieldElement(num * den.conj(), den.norm())


def verify_coding(coding: Coding, v: QuadInt, u: int, spec: IFSSpec) -> bool:
    """Exact check that the coding re-evaluates to v/u in the field.

    The check walks the orbit map z -> beta*z - a on the numerator over u:
    s_0 = v and s_{k+1} = beta*s_k - a_k*u, so by induction
    s_k/u = beta^k z - sum_{j<k} a_j beta^(k-1-j) for z = v/u.  With k the
    preperiod's length, m the period's and wpre, wper their Horner values,
    s_k/u = beta^k z - wpre and s_{k+m}/u = beta^m s_k/u - wper.  So
    s_{k+m} = s_k exactly when s_k/u = wper/(beta^m - 1), that is when
    beta^k z = wpre + wper/(beta^m - 1), the coding's value times beta^k.
    N(beta) >= 2 makes beta^k nonzero and beta^m != 1, so the walk returns
    to s_k exactly when v/u is the coding's value.  The argument holds for
    any u != 0, negative u and v/u not in lowest terms included, and needs
    no power of beta.  A u that is no ``int``, or is a ``bool``, raises
    ``TypeError``: a float u would make the walk decide in floating point.
    """
    if not coding.period:
        raise ValueError("coding must have a nonempty period")
    if type(u) is not int and (not isinstance(u, int) or isinstance(u, bool)):
        raise TypeError("denominator u must be an int")
    if u == 0:
        raise ZeroDivisionError("zero denominator")
    field, pairs = spec.field, spec.digit_pairs
    for a in (*coding.preperiod, *coding.period):
        # a plain int equal to a digit compares equal to it but is no digit
        if (
            (type(a) is not QuadInt or a.field is not field)
            and (not isinstance(a, QuadInt) or a.field != field)
        ) or (a.x, a.y) not in pairs:
            raise ValueError(f"digit {a} is not in the digit set")
    if type(v) is not QuadInt or v.field is not field:
        _check_numerator(v, spec)
    m00, m01, m10, m11 = spec.beta_matrix
    x, y = v.x, v.y
    for a in coding.preperiod:
        x, y = m00 * x + m01 * y - a.x * u, m10 * x + m11 * y - a.y * u
    x_pre, y_pre = x, y
    for a in coding.period:
        x, y = m00 * x + m01 * y - a.x * u, m10 * x + m11 * y - a.y * u
    return x == x_pre and y == y_pre
