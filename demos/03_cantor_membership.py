"""Deciding exactly whether v/u lies in the middle-third Cantor set.

The orbit z -> 3*z - a (a in {0, 2}) is pruned to the spec's disk
``spec.disk``, which contains the set: |z - c| <= r' with c = m/(beta - 1)
for the digit centroid m, here c = 1/2 and r' = 1/2.  Over a denominator u
the states are 1/u apart, so the orbit graph is finite, and v/u belongs to
the set exactly when it reaches a cycle.  Any disk that contains the set gives the same answers; only the
state counts depend on it.

Run:  python demos/03_cantor_membership.py
"""

from fractions import Fraction

import quadcantor as qc

F = qc.make_field(-1)
cantor = qc.ifs_new(F.element(3), [F.element(0), F.element(2)])

for num, den in [(1, 4), (3, 4), (1, 2), (1, 1), (1, 13), (1, 10)]:
    v = F.element(num)
    member = qc.is_member(v, den, cantor)
    coding = qc.coding_of(v, den, cantor)
    states = qc.state_count(v, den, cantor)
    line = f"{Fraction(num, den)!s:>6}: member={member!s:<5} states={states:<3}"
    if coding:
        pre = [str(a) for a in coding.preperiod]
        per = [str(a) for a in coding.period]
        line += f" coding = {pre} ({per})^inf"
    print(line)

# every returned coding re-evaluates exactly: for 1/4 the period [0,2]
# telescopes to (2/9) / (1 - 1/9) = 1/4
coding = qc.coding_of(F.element(1), 4, cantor)
print("\nexact value of the 1/4 coding:", qc.coding_value(coding, cantor.beta))
print("verify_coding:", qc.verify_coding(coding, F.element(1), 4, cantor))


def orbit(v, u, spec):
    """Numerators xi of the orbit xi -> beta*xi - a*u with xi/u in the pruning disk."""
    centre, r2 = spec.disk
    seen, todo = [v], [v]
    while todo:
        z = todo.pop()
        for a in spec.digits:
            w = spec.beta * z - a * u
            if (qc.FieldElement(w, u) - centre).norm() <= r2 and w not in seen:
                seen.append(w)
                todo.append(w)
    return seen


# state separation: distinct states over denominator u differ by >= 1/u,
# which caps how many can fit in the disk -- the finiteness mechanism
centre, r2 = cantor.disk
print(f"\npruning disk: centre {centre}, radius^2 {r2} (R'^2 = {cantor.radius_sq})")
states = orbit(F.element(1), 4, cantor)
print(
    "states of 1/4 over u=4:",
    [str(z) for z in states],
    f"(state_count {qc.state_count(F.element(1), 4, cantor)})",
)
print("period bound for u=4:", qc.period_bound(cantor, 16))
