"""Rational integer helpers: primality, factorization, square roots mod p."""

from __future__ import annotations

import bisect
import itertools
import math

from .errors import CapExceededError

# Miller-Rabin bases, the first 14 primes.  _PSI[k - 1] is psi_k, the least
# odd composite that is a strong probable prime to each of the first k bases
# (Jaeschke, Math. Comp. 1993; Sorenson and Webster, Math. Comp. 2017), so
# those k bases prove every n < psi_k.  psi_7 = psi_8, psi_9 = psi_10 = psi_11.
# From psi_13 on all 14 bases run, the last only to look for a witness: it
# refutes psi_13 itself, but no table proves a prime there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def is_prime(n: int) -> bool:
    """Whether n is prime, proven by the first k bases where n < psi_k.

    A witness proves n composite at any size; from psi_13 on, where the
    bases prove no prime, an n that none of them refutes raises
    ``CapExceededError``.
    """
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
    k = bisect.bisect_right(_PSI, n) + 1
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if k > len(_PSI):
        raise CapExceededError(
            f"{n} passes every Miller-Rabin base, and they prove primality "
            f"only below {_PSI[-1]}",
            estimate=n,
            cap=_PSI[-1] - 1,
        )
    return True


# Primes below this are found by trial division in an n below its square and
# by one gcd with their product in a larger n; composites left over have no
# factor below it, so every rho call works on a product of two or more of them.
_TRIAL_LIMIT = 1000


def _primes_below(n: int) -> tuple[int, ...]:
    """Primes below n by a sieve of Eratosthenes on slices."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    return tuple(itertools.compress(range(n), sieve))


_TRIAL_PRIMES = _primes_below(_TRIAL_LIMIT)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)

# Rho steps (x -> x^2 + c) allowed for splitting one cofactor, over all its
# walks.  A walk needs about sqrt(p) steps to find a prime factor p, so the
# budget splits off prime factors up to about 10^12.
_RHO_STEP_BUDGET = 1 << 22


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, {p: exponent}.

    The primes below ``_TRIAL_LIMIT`` that divide n are found by trial
    division up to sqrt(n) when n is below ``_TRIAL_LIMIT``^2; in a larger n
    they are read off one gcd with their product, and each is divided out
    with its p-adic valuation.  Every cofactor left is then either found
    prime by ``is_prime`` or split by Pollard-Brent rho.
    Every key of the result is a proven prime, so a cofactor that is already
    a key is counted again without a second proof.
    Raises ``CapExceededError`` when rho spends ``_RHO_STEP_BUDGET`` steps on
    a cofactor without splitting it, and when ``is_prime`` can prove no
    answer for a cofactor.
    """
    if n < 1:
        raise ValueError("factor_int expects a positive integer")
    out: dict[int, int] = {}
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
        # trial division up to sqrt(n), at this size cheaper than the gcd; it
        # leaves 1 or a prime, which needs no proof below _TRIAL_LIMIT
        for p in _TRIAL_PRIMES:
            if p * p > n:
                break
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        if 1 < n < _TRIAL_LIMIT:
            out[n] = 1
            n = 1
    else:
        # the trial primes dividing n are those of g, which is squarefree, so
        # a p with p^2 > the rest of g leaves that rest prime
        g = math.gcd(n, _TRIAL_PRODUCT)
        for p in _TRIAL_PRIMES:
            if p * p > g:
                break
            if g % p == 0:
                g //= p
                out[p] = k = padic_valuation(n, p)
                n //= p**k
        if g > 1:
            out[g] = k = padic_valuation(n, g)
            n //= g**k
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
    divisions in place of k, so n = 3 * 2^800 recurses nine deep.
    """
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    if n % p:
        return 0
    q = p * p
    if n % q:
        return 1
    j = padic_valuation(n, q)
    return 2 * j + int(n // q**j % p == 0)


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
