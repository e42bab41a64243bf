"""Exact membership of v/u in S(beta, A) via a finite orbit graph.

A query point v/u (u a positive rational integer after conjugate
normalization) is the root of the edge relation xi -> beta*xi - a over
numerators, pruned to the closed disk |xi| <= R'.  The graph is finite, and
v/u lies in the attractor exactly when a cycle is reachable from the root:
any infinite pruned orbit telescopes back to a convergent digit series.

Exploration state is shared between queries through a per-(spec, u) cache,
since intersection sweeps ask about many points over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fractal import IFSSpec, bounding_radius_sq
from .quadring import FieldElement, QuadInt, mul_matrix, norm_form


@dataclass(frozen=True)
class Coding:
    """Eventually periodic digit expansion: preperiod then repeating period."""

    preperiod: tuple[QuadInt, ...]
    period: tuple[QuadInt, ...]


class _Node:
    __slots__ = ("succ", "alive")

    def __init__(self):
        self.succ: list[tuple[int, tuple[int, int]]] | None = None
        self.alive: bool | None = None


class _Space:
    """Lazily explored orbit graph over the lattice (1/u)*O_K."""

    def __init__(self, spec: IFSSpec, u: int):
        r2 = bounding_radius_sq(spec)
        self.beta_matrix = mul_matrix(spec.beta)
        self.scaled_digits = [(a.x * u, a.y * u) for a in spec.digits]
        self.nxy, self.nyy = norm_form(spec.field)
        self.bound_num = r2.numerator * u * u
        self.bound_den = r2.denominator
        self.nodes: dict[tuple[int, int], _Node] = {}

    def inside(self, x: int, y: int) -> bool:
        return (x * x + self.nxy * x * y + self.nyy * y * y) * self.bound_den <= self.bound_num

    def succ_keys(self, key: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
        nodes = self.nodes
        n = nodes[key]
        if n.succ is None:
            x, y = key
            m00, m01, m10, m11 = self.beta_matrix
            bx = m00 * x + m01 * y
            by = m10 * x + m11 * y
            inside = self.inside
            lst = []
            for i, (ax, ay) in enumerate(self.scaled_digits):
                wx = bx - ax
                wy = by - ay
                if inside(wx, wy):
                    wk = (wx, wy)
                    if wk not in nodes:
                        nodes[wk] = _Node()
                    lst.append((i, wk))
            n.succ = lst
        return n.succ


_SPACES: dict[tuple[IFSSpec, int], _Space] = {}


def _space(spec: IFSSpec, u: int) -> _Space:
    if u < 1:
        raise ValueError("denominator u must be a positive integer")
    key = (spec, u)
    sp = _SPACES.get(key)
    if sp is None:
        sp = _SPACES[key] = _Space(spec, u)
    return sp


def _ensure_alive(space: _Space, root_key: tuple[int, int]) -> None:
    """Assign alive flags on the whole unknown region reachable from the root.

    A node is alive when some infinite path leaves it, i.e. when it reaches a
    nontrivial strongly connected component or a self-loop.  Iterative Tarjan
    emits components in reverse topological order, so each component only
    needs the flags of already-emitted or previously-known nodes.
    """
    nodes = space.nodes
    if nodes[root_key].alive is not None:
        return
    index_of: dict[tuple[int, int], int] = {}
    low: dict[tuple[int, int], int] = {}
    on_stack: set[tuple[int, int]] = set()
    scc_stack: list[tuple[int, int]] = []
    next_index = 0
    work: list[tuple[tuple[int, int], int]] = [(root_key, 0)]
    while work:
        v, pi = work.pop()
        if pi == 0:
            if v in index_of:
                continue
            index_of[v] = low[v] = next_index
            next_index += 1
            scc_stack.append(v)
            on_stack.add(v)
        succs = space.succ_keys(v)
        descended = False
        while pi < len(succs):
            w = succs[pi][1]
            pi += 1
            if nodes[w].alive is not None:
                continue
            wi = index_of.get(w)
            if wi is None:
                work.append((v, pi))
                work.append((w, 0))
                descended = True
                break
            if w in on_stack and wi < low[v]:
                low[v] = wi
        if descended:
            continue
        if work:
            parent = work[-1][0]
            if low[v] < low[parent]:
                low[parent] = low[v]
        if low[v] == index_of[v]:
            comp = []
            while True:
                w = scc_stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            alive = len(comp) > 1
            if not alive:
                only = comp[0]
                for _, s in space.succ_keys(only):
                    if s == only or nodes[s].alive:
                        alive = True
                        break
            for w in comp:
                nodes[w].alive = alive


def _explore(v: QuadInt, u: int, spec: IFSSpec) -> tuple[_Space, tuple[int, int]] | None:
    """The query's space and root key, or None when v/u lies outside the disk.

    This is each query's one exploration: on return every state reachable
    from the root carries its successor list and its alive flag.
    """
    space = _space(spec, u)
    if not space.inside(v.x, v.y):
        return None
    key = (v.x, v.y)
    if key not in space.nodes:
        space.nodes[key] = _Node()
    _ensure_alive(space, key)
    return space, key


def is_member(v: QuadInt, u: int, spec: IFSSpec) -> bool:
    """Whether v/u lies in S(beta, A); exact, independent of R' enlargement."""
    found = _explore(v, u, spec)
    if found is None:
        return False
    space, root_key = found
    return bool(space.nodes[root_key].alive)


def state_count(v: QuadInt, u: int, spec: IFSSpec) -> int:
    """Number of orbit states reachable from v/u, 0 outside the disk.

    The walk reads only the successor lists that exploration cached, so it
    creates no states and makes no disk test.
    """
    found = _explore(v, u, spec)
    if found is None:
        return 0
    space, root_key = found
    nodes = space.nodes
    seen = {root_key}
    stack = [root_key]
    while stack:
        for _, w in nodes[stack.pop()].succ:
            if w not in seen:
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
    space, root_key = found
    if not space.nodes[root_key].alive:
        return None
    pos = {root_key: 0}
    digit_indices: list[int] = []
    cur = root_key
    while True:
        nxt = None
        for i, s in space.succ_keys(cur):
            if space.nodes[s].alive:
                nxt = (i, s)
                break
        assert nxt is not None, "alive node must have an alive successor"
        digit_indices.append(nxt[0])
        cur = nxt[1]
        if cur in pos:
            cut = pos[cur]
            values = [spec.digits[i] for i in digit_indices]
            return Coding(tuple(values[:cut]), tuple(values[cut:]))
        pos[cur] = len(digit_indices)


def coding_value(coding: Coding, beta: QuadInt) -> FieldElement:
    """Exact value of the coding in the field of beta."""
    field = beta.field
    wpre = field.zero
    for a in coding.preperiod:
        wpre = wpre * beta + a
    wper = field.zero
    for a in coding.period:
        wper = wper * beta + a
    bm = beta ** len(coding.period)
    bk = beta ** len(coding.preperiod)
    return FieldElement.from_ratio(wpre * (bm - 1) + wper, bk * (bm - 1))


def verify_coding(coding: Coding, v: QuadInt, u: int, spec: IFSSpec) -> bool:
    """Exact check that the coding re-evaluates to v/u in the field."""
    if not coding.period:
        raise ValueError("coding must have a nonempty period")
    allowed = set(spec.digits)
    for a in (*coding.preperiod, *coding.period):
        if a not in allowed:
            raise ValueError(f"digit {a} is not in the digit set")
    return coding_value(coding, spec.beta) == FieldElement(v, u)
