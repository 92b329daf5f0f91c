"""The matrices B_m and A_m by their matrix recurrences, and full rows of B_m, the reference for the row and trace sweeps.

The library checks M_m = B_m + e_m(q-1)I once in Z[x]
(nbt.m_and_b_polynomials) and sweeps only traces and single rows of
B_m and A_m, the rows of B_m on a rooted quotient; tests compare those
against the full matrices and rows built here.
"""

from iharalab.graphs import Graph, RegularityCertificate
from iharalab.nbt import (
    ExactMatrixSeq,
    IntMatrix,
    _adjacency_row,
    _adjacency_rows,
    _dot,
    _identity_rows,
    _mul_adj,
    _row_mul_adj,
)


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


def row_b_diagonals(g: Graph, q: int, m_max: int, v: int) -> list[int]:
    """Exact [(B_0)_vv..(B_{m_max})_vv] from the length-n rows r_k = e_v^T B_k.

    The identities of nbt._row_b_stream on whole rows:
    (B_{2k})_vv = <r_k, r_k> - 2q^k and (B_{2k+1})_vv = <r_{k+1}, r_k> - q^k A_vv,
    one row step per two entries and no quotient.
    """
    prev, cur = [0] * g.n, _adjacency_row(g.n, g.neighbors[v])
    prev[v] = 2
    a_vv = g.neighbors[v].count(v)
    out, qk = [2], 1  # q^k while prev = r_k and cur = r_{k+1}
    while len(out) <= m_max:
        out.append(_dot(cur, prev) - qk * a_vv)
        qk *= q
        out.append(_dot(cur, cur) - 2 * qk)
        prev, cur = cur, _row_mul_adj(cur, prev, q, g.neighbors)
    return out[: m_max + 1]
