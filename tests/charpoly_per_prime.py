"""The one-prime characteristic polynomial kernel, kept as a reference.

This is the earlier nbt._charpoly_mod, unchanged: it reduces one prime
at a time, so the stacked kernel that reduces every prime in one pass
has an independent target, residue by residue.
"""

import numpy as np


def charpoly_mod(matrix: np.ndarray, p: int) -> list[int]:
    """det(xI - L) mod p for an int64 matrix L, constant term first.

    Hessenberg form by similarity (pivot swaps, row eliminations undone
    by column operations), then the Hessenberg recurrence over the leading
    blocks.  Residues are below p < 2^26, so products stay below 2^52 and
    any int64 dot product over at most 2047 terms stays below 2^63.
    """
    h = matrix % p
    size = len(h)
    for j in range(size - 2):
        nonzero = np.flatnonzero(h[j + 1 :, j])
        if nonzero.size == 0:
            continue
        piv = j + 1 + nonzero[0]
        h[[j + 1, piv]] = h[[piv, j + 1]]
        h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        t = h[j + 2 :, j] * pow(int(h[j + 1, j]), -1, p) % p
        h[j + 2 :, j:] = (h[j + 2 :, j:] - np.outer(t, h[j + 1, j:])) % p
        h[:, j + 1] = (h[:, j + 1] + h[:, j + 2 :] @ t) % p
    # polys[c]: charpoly of the leading c x c block; w[r] = prod_{r<k<=c} h[k,k-1]
    polys = np.zeros((size + 1, size + 1), dtype=np.int64)
    polys[0, 0] = 1
    w = np.zeros(0, dtype=np.int64)
    for c in range(size):
        if c:
            w = np.append(w, 1) * h[c, c - 1] % p
        nxt = np.roll(polys[c], 1) - h[c, c] * polys[c]
        nxt[:c] -= (h[:c, c] * w % p) @ polys[:c, :c]
        polys[c + 1] = nxt % p
    return polys[size].tolist()
