"""Multiplicative orders modulo prime powers and their exact lifting law.

Above a computable level n0, the order modulo p^(n0+n) is the closed form
m * p^ceil(n/e) -- no more group computations needed.  Every exponent
above e + 1 follows that law from m alone; the table checks each order
against a sequential count of the powers.

Run:  python demos/02_orders_and_stabilization.py
"""

import quadcantor as qc


def sequential_order(beta, ideal):
    """The order by stepping through beta, beta^2, ... modulo the ideal."""
    one = qc.reduce_mod(beta.field.one, ideal)
    acc, n = qc.reduce_mod(beta, ideal), 1
    while acc != one:
        acc, n = qc.reduce_mod(acc * beta, ideal), n + 1
    return n


F = qc.make_field(-1)
beta = F.element(3)
prime = next(p for p in qc.factor_rational_prime(F, 5).primes if p.root == 2)

print("prime:", prime, " e =", prime.e, " f =", prime.f)
stab = qc.stabilization(beta, prime)
print(f"stabilization of beta=3: m = {stab.m}, n0 = {stab.n0}")
print("(3^20 - 1 is divisible by 25 but not 125, hence n0 = 2)\n")

print(" n   ord(3 mod p^n)   closed form used?")
for n in range(1, 7):
    order = stab.order(n)
    brute = sequential_order(beta, qc.ideal_pow(prime.hnf, n))
    mark = "yes" if n > prime.e + 1 else "no (ord_mod)"
    assert order == brute
    print(f" {n}   {order:>10}       {mark}")

# the ramified prime over 2 with beta = 5: 5 - 1 = -(1+i)^4
p2 = qc.factor_rational_prime(F, 2).primes[0]
stab2 = qc.stabilization(F.element(5), p2)
print(f"\nbeta=5 at (1+i): m = {stab2.m}, n0 = {stab2.n0}, e = {p2.e}")
print("ord(5 mod (1+i)^6) =", stab2.order(6))

# the explicit lower-bound constant c2 = 1/prod p^n0 and the bound it yields
lb = qc.c2_constant(beta, [p2, prime])
print("\nc2 over {(1+i), (5,w-2)} =", lb.c2)
for tup in [(1, 0), (0, 2), (2, 2)]:
    ideal = qc.ideal_mul(qc.ideal_pow(p2.hnf, tup[0]), qc.ideal_pow(prime.hnf, tup[1]))
    actual = qc.ord_mod(beta, ideal)
    bound = qc.order_lower_bound(lb, tup)
    print(f"  tuple {tup}: bound {bound} <= actual order {actual}")
