"""Quaternion lattice point counts, the reference for the theta identity.

For X^{p,q}, 2 sum_r f_{m-2r} equals the number of lattice points of
norm p^m counted here; tests compare the exact f_m sweep against it.
"""

from math import isqrt


def lattice_count(qprime: int, target: int) -> int:
    """Count integer solutions of x1^2 + 4q^2(x2^2 + x3^2 + x4^2) = target.

    Exhaustive search over the three scaled coordinates with the tight
    bound |x_i| <= sqrt(target)/(2q); the residual is tested for being a
    perfect square.  Signs count separately and zero coordinates are not
    doubled.
    """
    if target < 0:
        raise ValueError("target must be nonnegative")
    if qprime < 1:
        raise ValueError("qprime must be positive")
    s = 4 * qprime * qprime
    bound = isqrt(target // s) if target >= s else 0
    total = 0
    for x2 in range(-bound, bound + 1):
        r2 = target - s * x2 * x2
        if r2 < 0:
            continue
        b3 = isqrt(r2 // s)
        for x3 in range(-b3, b3 + 1):
            r3 = r2 - s * x3 * x3
            if r3 < 0:
                continue
            b4 = isqrt(r3 // s)
            for x4 in range(-b4, b4 + 1):
                r4 = r3 - s * x4 * x4
                if r4 < 0:
                    continue
                x1 = isqrt(r4)
                if x1 * x1 == r4:
                    total += 1 if x1 == 0 else 2
    return total
