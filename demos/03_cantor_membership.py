"""Deciding exactly whether v/u lies in the middle-third Cantor set.

The orbit xi -> 3*xi - a (a in {0, 2}) stays in a finite disk of lattice
points; v/u belongs to the set exactly when the orbit graph reaches a cycle.

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
    """Numerators xi of the orbit xi -> beta*xi - a*u kept in the disk |xi| <= u*R'."""
    r2 = qc.bounding_radius_sq(spec)
    seen, todo = [v], [v]
    while todo:
        z = todo.pop()
        for a in spec.digits:
            w = spec.beta * z - a * u
            if w.norm() * r2.denominator <= r2.numerator * u * u and w not in seen:
                seen.append(w)
                todo.append(w)
    return seen


# state separation: distinct states over denominator u differ by >= 1/u,
# which caps how many can fit in the disk -- the finiteness mechanism
print("\nstates of 1/4 over u=4:", [str(z) for z in orbit(F.element(1), 4, cantor)])
print("period bound for u=4:", qc.period_bound(cantor, 16))
