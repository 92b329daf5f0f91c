"""The matrices B_m and A_m by their matrix recurrences, the reference for the row and trace sweeps.

The library checks M_m = B_m + e_m(q-1)I once in Z[x]
(nbt.m_and_b_polynomials) and sweeps only traces and single rows of
B_m and A_m; tests compare those against the full matrices built here.
"""

from iharalab.graphs import Graph, RegularityCertificate
from iharalab.nbt import ExactMatrixSeq, IntMatrix, _adjacency_rows, _identity_rows, _mul_adj


def chebyshev_b_range(g: Graph, cert: RegularityCertificate, m_max: int) -> list[IntMatrix]:
    """Exact [B_0..B_{m_max}] with B_m = 2q^{m/2} T_m(A/(2 sqrt q)).

    Despite the irrational-looking definition these are integer matrices:
    B_0 = 2I, B_1 = A, B_m = B_{m-1}A - qB_{m-2}.  The identity
    M_m = B_m + e_m(q-1)I for m >= 1 links them to the reduced-cycle
    matrices without any floating point.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    out = [_identity_rows(g.n, 2)]
    if m_max == 0:
        return out
    out.append(_adjacency_rows(g))
    for _ in range(2, m_max + 1):
        out.append(_mul_adj(out[-1], out[-2], cert.q, g.neighbors))
    return out


def a_matrix_range(g: Graph, cert: RegularityCertificate, m_max: int) -> list[IntMatrix]:
    """Exact [A_0, ..., A_{m_max}] in one sweep (materializes all of them)."""
    seq = ExactMatrixSeq(g, cert)
    out = [[row[:] for row in seq.a_current()]]
    for _ in range(m_max):
        seq.advance()
        out.append([row[:] for row in seq.a_current()])
    return out
