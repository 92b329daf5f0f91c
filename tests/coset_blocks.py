"""The spectrum of X^{p,q} from its twisted coset blocks, the reference for spectral.quotient_decompose.

The library reads a certified X^{p,q}'s spectrum off its rooted
equitable quotient at the identity vertex.  This module keeps the
independent route it replaced: every vertex factored as r_i u_b, and
one Hermitian block per character of U = {[[1, b], [0, 1]]} (Terras,
Fourier Analysis on Finite Groups and Applications, 1999).  Tests
compare the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from iharalab.graphs import Graph, RegularityCertificate
from iharalab.lps import LpsParams, build_lps, canonical_form, cayley_root, group_elements, mat_mul
from iharalab.spectral import CLUSTER_TOL, Cluster, SpectralData, _group, theta_of


@dataclass(frozen=True)
class CosetData:
    """The vertices of X^{p,q} as r_i u_b, with u_b = [[1, b], [0, 1]] and U = {u_b} = Z/q.

    Vertex v is r_{coset[v]} u_{shift[v]}; reps[i] is the vertex r_i.
    The representatives are [[1, 0], [c, det]] and [[0, 1], [c, 0]], so
    the identity vertex is one of them.  Right translations commute
    with the adjacency (v is joined to s v), so U acts on every
    eigenspace.
    """

    q: int
    coset: np.ndarray
    shift: np.ndarray
    reps: np.ndarray
    identity: int


def cayley_cosets(g: Graph, params: LpsParams) -> CosetData | None:
    """The coset data of X^{p,q} if g is build_lps's graph in build_lps's own vertex order, else None.

    The coset table is in those labels, so a relabeled copy that
    lps.cayley_root certifies by its search gets None here.
    """
    if g.neighbors != build_lps(params.p, params.q, allow_large=True)[0].neighbors:
        return None
    identity = cayley_root(g, params)
    q = params.q
    # the coset of (1, b, c, d) is keyed by (c, d - bc), that of (0, 1, c, d) by c
    a, b, c, d = group_elements(q, params.group_kind).T
    high = a == 1
    key = np.where(high, q + c * q + (d - b * c) % q, c)
    inverse = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)])
    shift = np.where(high, b, d * inverse[c] % q)
    _, coset = np.unique(key, return_inverse=True)
    reps = np.empty(g.n // q, dtype=np.int64)
    at_rep = np.flatnonzero(shift == 0)
    reps[coset[at_rep]] = at_rep
    return CosetData(q=q, coset=coset, shift=shift, reps=reps, identity=identity)


def block_decompose(g: Graph, cert: RegularityCertificate, cosets: CosetData) -> SpectralData:
    """The clustered spectrum of X^{p,q} from its q twisted coset blocks.

    g must be the graph cosets describes (cayley_cosets checks that).
    For the character psi_t(b) = exp(2 pi i t b / q) of U,
    M_t[i, j] = sum of psi_t(b) over the generators s with
    s r_i = r_j u_b; its eigenvector phi lifts to the eigenvector
    F(r_i u_b) = psi_t(b) phi_i / sqrt(q) of A, and spec(A) is the union
    of the q block spectra.  M_{q-t} is the complex conjugate of M_t, so
    only t <= q/2 is solved.  A first pass clusters the block
    eigenvalues with the library's gap rule; a second pass recomputes
    each block's eigenvectors and keeps, per cluster, the row P_l(e, .)
    at the identity vertex e, one entry per vertex.
    """
    q = cert.q
    cluster_tol = CLUSTER_TOL * (q + 1)
    field, k = cosets.q, len(cosets.reps)
    nbrs = np.array([g.neighbors[r] for r in cosets.reps])
    rows = np.repeat(np.arange(k), nbrs.shape[1])
    cols = cosets.coset[nbrs].ravel()
    shifts = cosets.shift[nbrs].ravel()
    roots = np.exp(2j * np.pi * np.arange(field) / field)

    def eig(t: int, vectors: bool):
        m = np.zeros((k, k), dtype=complex)
        np.add.at(m, (rows, cols), roots[t * shifts % field])
        return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)

    # psi_{q-t} = conj(psi_t), so M_{q-t} = conj(M_t): same eigenvalues, conjugate eigenvectors
    half = range(field // 2 + 1)
    spectra = [eig(t, False) for t in half]
    evals = np.sort(np.concatenate(spectra + spectra[1:]))
    groups = _group(evals, q, cluster_tol)
    # block eigenvalues are assigned to clusters by the midpoints of the gaps between them
    cuts = np.array([(evals[start - 1] + evals[start]) / 2.0 for start, _, _, _ in groups[1:]])
    e0 = cosets.coset[cosets.identity]
    # r[l, t, j] = sum over the cluster-l eigenvectors phi of block t of phi_e0 conj(phi_j)
    r = np.zeros((len(groups), field, k), dtype=complex)
    for t in half:
        block_evals, phi = eig(t, True)
        ids = np.searchsorted(cuts, block_evals)
        firsts = np.flatnonzero(np.diff(ids, prepend=-1))
        sums = np.add.reduceat(phi.conj() * phi[e0], firsts, axis=1).T
        r[ids[firsts], t] = sums
        if t:
            r[ids[firsts], field - t] = sums.conj()
    clusters = []
    for l, (start, stop, value, principal) in enumerate(groups):
        # P_l(e, r_j u_b) = sum_t conj(psi_t(b)) r[l, t, j] / q: a DFT over t
        row = (np.fft.fft(r[l], axis=0).real / field)[cosets.shift, cosets.coset]
        row.setflags(write=False)
        clusters.append(Cluster(value, stop - start, None, theta_of(value, q), principal, row))
    return SpectralData(n=g.n, q=q, cluster_tol=cluster_tol, clusters=tuple(clusters))


# collected where test_lps.py imports it
@pytest.mark.parametrize("p, q", [(13, 5), (17, 13)])
def test_cayley_cosets_factor_every_vertex(p, q):
    g, params = build_lps(p, q)
    cosets = cayley_cosets(g, params)
    vert = [tuple(v) for v in group_elements(q, params.group_kind).tolist()]
    assert vert[cosets.identity] == (1, 0, 0, 1)
    assert cosets.reps[cosets.coset[cosets.identity]] == cosets.identity
    assert np.bincount(cosets.coset).tolist() == [q] * (g.n // q)
    for v in range(g.n):
        r = vert[cosets.reps[cosets.coset[v]]]
        assert canonical_form(mat_mul(r, (1, int(cosets.shift[v]), 0, 1), q), q) == vert[v]
    # the table is in build_lps's labels: a relabeled copy gets none, though cayley_root certifies it
    perm = np.random.default_rng(p * q).permutation(g.n)
    copy = Graph(g.n, tuple(tuple(sorted(int(perm[w]) for w in g.neighbors[v])) for v in np.argsort(perm)))
    assert cayley_root(copy, params) == 0 and cayley_cosets(copy, params) is None
