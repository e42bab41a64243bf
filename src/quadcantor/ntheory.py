"""Rational integer helpers: primality, factorization, square roots mod p."""

from __future__ import annotations

import math

from .errors import CapExceededError

# Witnesses sufficient for deterministic Miller-Rabin below 3.1 * 10^23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Primes below this are found by trial division; composites left over have no
# factor below it, so every rho call works on a product of two or more of them.
_TRIAL_LIMIT = 1000

# Rho steps (x -> x^2 + c) allowed for splitting one cofactor, over all its
# walks.  A walk needs about sqrt(p) steps to find a prime factor p, so the
# budget splits off prime factors up to about 10^12.
_RHO_STEP_BUDGET = 1 << 22


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, {p: exponent}.

    Primes below ``_TRIAL_LIMIT`` are divided out first; every cofactor left
    is then either found prime by ``is_prime`` or split by Pollard-Brent rho.
    Every key of the result is a proven prime, so a cofactor that is already
    a key is counted again without a second proof.
    Raises ``CapExceededError`` when rho spends ``_RHO_STEP_BUDGET`` steps on
    a cofactor without splitting it.
    """
    if n < 1:
        raise ValueError("factor_int expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f < _TRIAL_LIMIT and f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m in out or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            g = _brent_factor(m)
            stack += [g, m // g]
    return out


def _brent_factor(n: int) -> int:
    """A nontrivial factor of an odd composite n by Pollard-Brent rho.

    The walks x -> x^2 + c start from 2 with c = 1, 2, ... in turn, so the
    factor returned is deterministic.  Products of |x - y| are batched into
    one gcd every ``block`` steps; a batch that overshoots to n is replayed
    one step at a time before moving on to the next c.  A round with r
    doubled costs 2r steps, counted against ``_RHO_STEP_BUDGET`` before it
    starts.
    """
    block = 128
    steps = 0
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps + 2 * r > _RHO_STEP_BUDGET:
                raise CapExceededError(
                    f"Pollard-Brent rho found no factor of {n} "
                    f"within {_RHO_STEP_BUDGET} steps",
                    estimate=steps + 2 * r,
                    cap=_RHO_STEP_BUDGET,
                )
            steps += 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(block, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += block
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def padic_valuation(n: int, p: int) -> int:
    """Largest k with p^k | n, for n != 0 and p >= 2.

    k = 2*j + r, where j = v_{p^2}(n) is found the same way and r = 1 when p
    still divides n / p^(2j).  The recursion gallops over p^(2^i): O(log k)
    divisions in place of k, so n = 3 * 2^800 recurses ten deep.
    """
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    if n % p:
        return 0
    j = padic_valuation(n, p * p)
    return 2 * j + int(n // p ** (2 * j) % p == 0)


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factor_int(abs(n)).values()) if n != 0 else False


def kronecker_at_prime(a: int, p: int) -> int:
    """Kronecker symbol (a/p) for prime p, in {-1, 0, 1}."""
    if p == 2:
        if a % 2 == 0:
            return 0
        return 1 if a % 8 in (1, 7) else -1
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo prime p, or None when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if kronecker_at_prime(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker_at_prime(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
