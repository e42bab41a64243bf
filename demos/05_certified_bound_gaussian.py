"""A genuinely complex example: alpha = -4+i, beta = -2+i, digits {0,1,2,3}.

Here sigma = 2 log4 / log5 > 1, so the planar (case ii) hypotheses carry the
finiteness proof: the field is a UFD and alpha is coprime to its conjugate.
The certificate level n0 is far beyond any enumerable lattice, but a hole
in S + O_K empties every tuple above (2,), so the certified run sweeps one
small lattice, and every reported point re-verifies exactly.

Run:  python demos/05_certified_bound_gaussian.py
"""

import quadcantor as qc

F = qc.make_field(-1)
spec = qc.ifs_new(F.element(-2, 1), [F.element(k) for k in range(4)])
alpha = F.element(-4, 1)

report = qc.preconditions(alpha, spec)
print("alpha coprime to beta:   ", report.alpha_beta_coprime, " (gcd(17, 5) = 1)")
print("UFD + alpha coprime conj:", report.case_ii_eligible)
print("applicable case:         ", report.applicable_case)
print("sigma =", round(report.sigma, 6), " (< 2)")

covering = qc.covering_constants(spec)
lb = qc.c2_constant(spec.beta, report.alpha_factorization.primes)
print("radius bound R'^2 =", covering.radius_sq_bound)
print("c2 =", lb.c2)

n0 = qc.certified_bound(report, covering, lb)
print("\ncertified bound n0 =", n0)
print("exclusion at (n0,):", qc.tuple_is_excluded(spec, lb, "case_ii", (n0,)))
print("(level", n0, "holds ~17^%d lattice points -- certified, not swept)" % n0)

result = qc.full_intersection(alpha, spec, mode="bounded", n_max=3)
print("\nbounded sweep, levels 0..3:")
for pt in result.points:
    ok = qc.verify_coding(pt.coding, pt.value.num, pt.value.den, spec)
    congruent = qc.period_congruence_holds(pt, report.alpha_factorization, spec.beta)
    print(f"  {pt.value}  tuple={pt.exponents}  verified={ok} congruence={congruent}")

certified = qc.full_intersection(alpha, spec, mode="certified")
hole = certified.hole
print("\ncertified run: survivors", certified.survivors, " exhausted:", certified.exhausted)
print(f"hole: the closed disk around {hole.centre} of squared radius {hole.rho_sq}")
print(f"  misses S + O_K ({hole.nodes} piece tests) and drops {certified.dropped} tuples")
print("points:", [str(p.value) for p in certified.points])
