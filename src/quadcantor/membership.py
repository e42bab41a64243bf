"""Exact membership of v/u in S(beta, A) via a finite orbit graph.

A query point v/u (u a positive rational integer after conjugate
normalization) is the root of the edge relation z -> beta*z - a, pruned to
a closed disk D(c, r') that contains the attractor.  The states are points
over the denominator u, at least 1/u apart, so the graph is finite, and v/u
lies in the attractor exactly when a cycle is reachable from the root.

The disk, ``IFSSpec.disk``, is recentred on the attractor: c = m/(beta - 1)
with m the digit centroid, since S - c is the attractor of the digits
a - m.  Any bounded region K that contains S gives the same answers.  If
v/u is in S, a coding of it keeps every tail in S, so inside K, and that is
an infinite path.  An infinite path inside K makes v/u = sum_{j<=k} a_j
beta^-j + beta^-k z_k with z_k bounded, which converges to a point of S.
So a state is alive exactly when it lies in S, whatever K is.  Membership
does not depend on the disk, nor do codings, whose walk takes the lowest
digit with a successor in S; only ``state_count`` does.

Each spec keeps one explored graph per denominator u, so repeated queries
over one spec and u explore each state once, and dropping the spec frees
them.  A graph keeps one label per state, and walks recompute the
successors beta*s - a.  Level sweeps decide their candidates by the same
``peel`` (``intersection``) and query only the points they keep, so the
spec holds just those points' orbits.

A coding is checked by the same orbit map: ``verify_coding`` walks
s -> beta*s - a*u from the numerator v along the coding's digits and
accepts exactly when the period brings the walk back to the state where it
began.  Like the exploration, it runs on integer coordinate pairs and needs
no power of beta.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldError
from .fractal import IFSSpec
from .quadring import FieldElement, QuadInt, mul_matrix, norm_form


@dataclass(frozen=True)
class Coding:
    """Eventually periodic digit expansion: preperiod then repeating period."""

    preperiod: tuple[QuadInt, ...]
    period: tuple[QuadInt, ...]


def shifted_digits(spec: IFSSpec) -> tuple[tuple[int, int], ...]:
    """The integral digits D*a - (beta - 1)*C, as (x, y), for c = C/D.

    c is the centre of ``IFSSpec.disk``.  In the coordinate s = D*z - C the
    map z -> beta*z + a reads s -> beta*s + (D*a - (beta - 1)*C), which
    keeps every word and every orbit state integral.
    """
    centre, _ = spec.disk
    c, d = centre.num, centre.den
    shift = (spec.beta - 1) * c
    return tuple((a.x * d - shift.x, a.y * d - shift.y) for a in spec.digits)


class _Space:
    """The lazily explored orbit graph over the denominator u.

    With c = C/D in lowest terms, the point v/u has the state
    s = D*v - C*u, so s/(D*u) = v/u - c.  The edge v -> beta*v - a*u becomes
    s -> beta*s - D*(a - m)*u, whose digits D*(a - m) = D*a - (beta - 1)*C
    (``shifted_digits``) are integral, and the disk test is
    N(s) * rd <= rn * D^2 * u^2 for r'^2 = rn/rd.

    ``alive`` maps each explored state to whether an infinite path leaves
    it.  A region enters it only after ``_ensure_alive`` has explored and
    labelled all of it, so every key lies in the disk and every successor of
    a key that lies in the disk is a key: being a key is the disk test.
    """

    def __init__(self, spec: IFSSpec, u: int):
        centre, r2 = spec.disk
        c, d = centre.num, centre.den
        self.beta_matrix = mul_matrix(spec.beta)
        self.scaled_digits = tuple((x * u, y * u) for x, y in shifted_digits(spec))
        self.d, self.cux, self.cuy = d, c.x * u, c.y * u
        self.nxy, self.nyy = norm_form(spec.field)
        self.bound_num = r2.numerator * d * d * u * u
        self.bound_den = r2.denominator
        self.alive: dict[tuple[int, int], bool] = {}

    def inside(self, x: int, y: int) -> bool:
        return (x * x + self.nxy * x * y + self.nyy * y * y) * self.bound_den <= self.bound_num


def peel(count: dict, preds: dict, dead: list) -> None:
    """Lower ``count`` to 0 on exactly the states no infinite path leaves.

    The graph is a finite region plus states outside it already labelled.
    ``count`` maps each state of the region to its number of successors that
    lie in the region or are known alive, ``preds`` lists for each state of
    the region its predecessors in the region (once per edge), and ``dead``
    holds the states whose count is 0.  A dead state's death lowers the
    count of each of its predecessors, and one that reaches 0 is dead too.

    Proof.  A state is peeled only once all its successors are known dead or
    peeled before it, so by induction on the peeling order no infinite path
    leaves a peeled state.  An unpeeled state has a successor that is known
    alive or unpeeled itself, so following such successors never stops.  A
    self-loop counts like any other edge and keeps its state's count
    positive, as for 0 when 0 is a digit.
    """
    while dead:
        for p in preds[dead.pop()]:
            count[p] -= 1
            if not count[p]:
                dead.append(p)


def _ensure_alive(space: _Space, root: tuple[int, int]) -> None:
    """Explore and label the unlabelled region the root reaches, in one pass.

    A state is alive when an infinite path leaves it; in a finite graph that
    is the same as reaching a cycle.  A DFS over the new region counts each
    state's successors in the disk not known dead and records its
    predecessors in the region; ``peel`` then finds the dead states.
    """
    alive = space.alive
    if root in alive:
        return
    m00, m01, m10, m11 = space.beta_matrix
    nxy, nyy = space.nxy, space.nyy
    bound_num, bound_den = space.bound_num, space.bound_den
    digits = space.scaled_digits
    count = {}
    dead = []
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {root: []}
    stack = [root]
    while stack:
        key = stack.pop()
        x, y = key
        bx = m00 * x + m01 * y
        by = m10 * x + m11 * y
        n = 0
        for ax, ay in digits:
            wx = bx - ax
            wy = by - ay
            if (wx * wx + nxy * wx * wy + nyy * wy * wy) * bound_den <= bound_num:  # inside()
                w = (wx, wy)
                known = alive.get(w)
                if known is None:
                    n += 1
                    into = preds.get(w)
                    if into is None:
                        preds[w] = [key]
                        stack.append(w)
                    else:
                        into.append(key)
                elif known:
                    n += 1
        count[key] = n
        if not n:
            dead.append(key)
    peel(count, preds, dead)
    alive.update({key: n > 0 for key, n in count.items()})


def _explore(v: QuadInt, u: int, spec: IFSSpec) -> tuple[_Space, tuple[int, int]] | None:
    """The query's space and root, or None when v/u lies outside the disk.

    This is each query's one exploration: on return every state reachable
    from the root within the disk is a key of ``alive``, with its label.
    """
    space = spec._spaces.get(u)
    if space is None:
        if u < 1:
            raise ValueError("denominator u must be a positive integer")
        space = spec._spaces[u] = _Space(spec, u)
    root = (space.d * v.x - space.cux, space.d * v.y - space.cuy)
    if not space.inside(*root):
        return None
    _ensure_alive(space, root)
    return space, root


def is_member(v: QuadInt, u: int, spec: IFSSpec) -> bool:
    """Whether v/u lies in S(beta, A); exact, independent of the pruning disk."""
    found = _explore(v, u, spec)
    if found is None:
        return False
    space, root = found
    return space.alive[root]


def state_count(v: QuadInt, u: int, spec: IFSSpec) -> int:
    """Number of orbit states reachable from v/u in the disk, 0 outside it.

    The walk recomputes successors and follows the keys of ``alive``, the
    ones in the disk, so it creates no states and makes no disk test.
    """
    found = _explore(v, u, spec)
    if found is None:
        return 0
    space, root = found
    alive = space.alive
    m00, m01, m10, m11 = space.beta_matrix
    digits = space.scaled_digits
    seen = {root}
    stack = [root]
    while stack:
        x, y = stack.pop()
        bx = m00 * x + m01 * y
        by = m10 * x + m11 * y
        for ax, ay in digits:
            w = (bx - ax, by - ay)
            if w in alive and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def coding_of(v: QuadInt, u: int, spec: IFSSpec) -> Coding | None:
    """An eventually periodic coding of v/u, or None for non-members.

    The walk always takes the lowest digit index whose successor still
    reaches a cycle, then cuts at the first repeated state, which makes the
    returned coding deterministic.
    """
    found = _explore(v, u, spec)
    if found is None:
        return None
    space, root = found
    alive = space.alive
    if not alive[root]:
        return None
    m00, m01, m10, m11 = space.beta_matrix
    digits = space.scaled_digits
    pos = {root: 0}
    digit_indices: list[int] = []
    cur = root
    while True:
        x, y = cur
        bx = m00 * x + m01 * y
        by = m10 * x + m11 * y
        for i, (ax, ay) in enumerate(digits):
            cur = (bx - ax, by - ay)
            if alive.get(cur):
                break
        else:
            raise AssertionError("alive node must have an alive successor")
        digit_indices.append(i)
        if cur in pos:
            cut = pos[cur]
            values = [spec.digits[i] for i in digit_indices]
            return Coding(tuple(values[:cut]), tuple(values[cut:]))
        pos[cur] = len(digit_indices)


def _coding_ratio(coding: Coding, beta: QuadInt) -> tuple[QuadInt, QuadInt]:
    """The coding's value as a ring quotient num/den (den nonzero).

    With wpre, wper the Horner values of the preperiod and the period and
    k, m their lengths, the value is wpre/beta^k + wper/(beta^k (beta^m - 1)).
    One Horner pass per part carries (w, beta^k) as coordinate pairs through
    the matrix of beta; only the final products are ring elements.  A plain
    ``int`` digit counts as a rational integer, and a digit of another
    field raises ``FieldError``.
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
        return QuadInt(field, wx, wy), QuadInt(field, bx, by)

    wpre, bk = horner(coding.preperiod)
    wper, bm = horner(coding.period)
    return wpre * (bm - 1) + wper, bk * (bm - 1)


def coding_value(coding: Coding, beta: QuadInt) -> FieldElement:
    """Exact value of the coding in the field of beta."""
    return FieldElement.from_ratio(*_coding_ratio(coding, beta))


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
    no power of beta.
    """
    if not coding.period:
        raise ValueError("coding must have a nonempty period")
    if u == 0:
        raise ZeroDivisionError("zero denominator")
    digits = spec.digits
    for a in (*coding.preperiod, *coding.period):
        # a plain int equal to a digit compares equal to it but is no digit
        if not isinstance(a, QuadInt) or a not in digits:
            raise ValueError(f"digit {a} is not in the digit set")
    if v.field is not spec.field and v.field != spec.field:
        raise FieldError("operands belong to different fields")
    m00, m01, m10, m11 = mul_matrix(spec.beta)
    x, y = v.x, v.y
    for a in coding.preperiod:
        x, y = m00 * x + m01 * y - a.x * u, m10 * x + m11 * y - a.y * u
    x_pre, y_pre = x, y
    for a in coding.period:
        x, y = m00 * x + m01 * y - a.x * u, m10 * x + m11 * y - a.y * u
    return x == x_pre and y == y_pre
