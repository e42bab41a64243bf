"""The two classical finite intersections with the middle-third Cantor set:
dyadic rationals (denominators 2^n) and decimal rationals (10^n), first at
fixed levels and then certified complete.

Run:  python demos/04_wall_sets.py
"""

import quadcantor as qc

F = qc.make_field(-1)
cantor = qc.ifs_new(F.element(3), [F.element(0), F.element(2)])

for alpha_int, level in ((2, 4), (10, 3)):
    alpha = F.element(alpha_int)
    report = qc.full_intersection(alpha, cantor, mode="bounded", n_max=level)
    print(f"alpha = {alpha_int}, levels 0..{level}:")
    print(f"  certificate level n0 = {report.certified_n0}")
    for pt in report.points:
        per = ",".join(str(a) for a in pt.coding.period)
        pre = ",".join(str(a) for a in pt.coding.preperiod)
        print(
            f"  {pt.value!s:>7}  tuple={pt.exponents}  "
            f"coding=[{pre}]([{per}])^inf"
        )
    print()

# the dyadic case certificate: every exponent tuple with sum >= n0 is
# provably empty, by the exact covering-vs-order contradiction
alpha = F.element(2)
rep = qc.preconditions(alpha, cantor)
cov = qc.covering_constants(cantor)
lb = qc.c2_constant(cantor.beta, rep.alpha_factorization.primes)
n0 = qc.certified_bound(rep, cov, lb)
print(f"case: {rep.applicable_case}, sigma = {rep.sigma:.6f}, c2 = {lb.c2}")
print(f"certified n0 = {n0}")
print("tuple (n0,) excluded exactly:", qc.tuple_is_excluded(cantor, lb, "case_i", (n0,)))
print()

# certified runs: the exact order of 3 modulo prod P_j^{n_j} empties all but
# a few tuple classes, and sweeping the lattices of the maximal survivors
# finds every point; each sweep scans the depth-k balls around (W + c)/3^k
# of the attractor's own disk D(c, r') = cantor.disk, c = 1/2
for alpha_int in (2, 10):
    report = qc.full_intersection(F.element(alpha_int), cantor, mode="certified")
    print(f"alpha = {alpha_int}, certified: n0 = {report.certified_n0}, "
          f"exhausted = {report.exhausted}")
    for sweep in report.swept:
        print(f"  survivor {sweep.exponents}: sweep cost {sweep.cost}")
    print("  points:", ", ".join(str(pt.value) for pt in report.points))
