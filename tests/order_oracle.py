"""Brute-force multiplicative order, the reference for ``quadcantor.ord_mod``.

The library computes orders from a multiple of the group order; this oracle
steps through the powers of beta one at a time on raw integer coordinates,
reducing by the ideal's Hermite form (a, b, c) after every product.  It costs
up to N(ideal) steps, so tests keep the norms small.
"""


def brute_ord_mod(beta, ideal):
    """Least n >= 1 with beta^n = 1 (mod ideal), by sequential powering.

    Raises ArithmeticError when no power of beta returns to 1 within the
    group size, which happens exactly when beta is not a unit modulo ideal.
    """
    a, b, c = ideal.a, ideal.b, ideal.c
    f = ideal.field
    # w^2 = s*w + t
    s, t = (1, (f.d - 1) // 4) if f.d % 4 == 1 else (0, f.d)

    def reduce(x, y):
        q, y = divmod(y, c)
        return (x - q * b) % a, y

    bx, by = reduce(beta.x, beta.y)
    one = reduce(1, 0)
    x, y = bx, by
    n = 1
    while (x, y) != one:
        x, y = reduce(x * bx + t * y * by, x * by + y * bx + s * y * by)
        n += 1
        if n > ideal.norm:
            raise ArithmeticError(f"{beta} has no order modulo {ideal}")
    return n
