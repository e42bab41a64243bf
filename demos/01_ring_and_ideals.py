"""Exact arithmetic in Z[i] and friends: norms, conjugates, prime ideals.

Run:  python demos/01_ring_and_ideals.py
"""

import quadcantor as qc
from quadcantor.ideals import prime_power_product

# The Gaussian integers: d = -1, basis {1, w} with w = sqrt(-1)
F = qc.make_field(-1)
z = F.element(2, 1)  # 2 + i
print("field:", F)
print("z = 2+w   norm:", z.norm(), "  conjugate:", z.conj())
print("(1+w)(1-w) =", F.element(1, 1) * F.element(1, -1))

# exact division knows when a quotient exists in the ring
print("5 / (2+w)  =", qc.exact_div(F.element(5), z))
print("3 / (1+w)  =", qc.exact_div(F.element(3), F.element(1, 1)))

# half-integer basis: d = -3 has w = (1+sqrt(-3))/2, a sixth root of unity
E = qc.make_field(-3)
print("\nd=-3: w*w =", E.omega * E.omega, " norm(w) =", E.omega.norm())

# how rational primes decompose in Z[i]
print("\nsplitting in Z[i]:")
for p in (2, 3, 5, 7, 13):
    s = qc.factor_rational_prime(F, p)
    parts = ", ".join(f"{q} (e={q.e}, f={q.f})" for q in s.primes)
    print(f"  {p:>2}: {s.kind:<8} {parts}")

# an element factors into prime-ideal powers; the product rebuilds (alpha)
alpha = F.element(10)
fact = qc.factor_element(alpha)
print("\n10 * Z[i] =", " * ".join(f"{p}^{b}" for p, b in fact.factors))
rebuilt = prime_power_product(F, fact.primes, fact.exponents)
print("rebuilt HNF equals (10):", rebuilt == qc.principal_ideal(alpha))

# valuations see through units: 4 = -(1+i)^4
p2 = qc.factor_rational_prime(F, 2).primes[0]
print("v_(1+i)(4) =", qc.valuation(F.element(4), p2))
