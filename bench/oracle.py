"""Brute-force membership oracle, independent of the library's orbit graphs.

v/u lies in S(beta, A) exactly when the orbit xi -> beta*xi - a*u, started at
v and kept inside any closed disk that contains u*S, has an infinite path.
This oracle uses its own ring arithmetic on integer pairs, its own disk
(radius max|a| / (isqrt(N(beta)) - 1), which contains the attractor because
|beta| >= isqrt(N(beta))), a full breadth-first closure, and peeling of
states with no successor in place of the library's Tarjan pass.
"""

from __future__ import annotations

from math import isqrt

STATE_CAP = 1 << 21


def _mul(d: int, half: bool, a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    (x1, y1), (x2, y2) = a, b
    if half:  # w^2 = w + (d - 1)/4
        t = (d - 1) // 4
        return x1 * x2 + t * y1 * y2, x1 * y2 + x2 * y1 + y1 * y2
    return x1 * x2 + d * y1 * y2, x1 * y2 + x2 * y1


def _norm(d: int, half: bool, z: tuple[int, int]) -> int:
    x, y = z
    if half:
        return x * x + x * y + ((1 - d) // 4) * y * y
    return x * x - d * y * y


def is_member(
    d: int,
    half: bool,
    beta: tuple[int, int],
    digits: list[tuple[int, int]],
    v: tuple[int, int],
    u: int,
) -> bool:
    """Whether v/u lies in S(beta, digits) over the ring with basis {1, w}."""
    s = isqrt(_norm(d, half, beta))
    if s < 2:
        raise ValueError("the oracle needs N(beta) >= 4")
    # |xi| <= u * max|a| / (s - 1), squared and cleared of denominators
    bound = max(_norm(d, half, a) for a in digits) * u * u
    scale = (s - 1) ** 2

    def inside(z: tuple[int, int]) -> bool:
        return _norm(d, half, z) * scale <= bound

    if not inside(v):
        return False
    scaled = [(a[0] * u, a[1] * u) for a in digits]
    succ: dict[tuple[int, int], list[tuple[int, int]]] = {}
    frontier = [v]
    succ[v] = []
    while frontier:
        nxt = []
        for z in frontier:
            bz = _mul(d, half, beta, z)
            out = succ[z]
            for ax, ay in scaled:
                w = (bz[0] - ax, bz[1] - ay)
                if not inside(w):
                    continue
                out.append(w)
                if w not in succ:
                    succ[w] = []
                    nxt.append(w)
        if len(succ) > STATE_CAP:
            raise RuntimeError(f"oracle exceeded {STATE_CAP} states at u={u}")
        frontier = nxt
    # peel states whose successors are all gone; what remains has an
    # infinite path, which for a finite graph means it reaches a cycle
    outdeg = {z: len(out) for z, out in succ.items()}
    preds: dict[tuple[int, int], list[tuple[int, int]]] = {z: [] for z in succ}
    for z, out in succ.items():
        for w in out:
            preds[w].append(z)
    dead = [z for z, k in outdeg.items() if k == 0]
    while dead:
        z = dead.pop()
        for p in preds[z]:
            outdeg[p] -= 1
            if outdeg[p] == 0:
                dead.append(p)
    return outdeg[v] > 0
