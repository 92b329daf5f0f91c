"""Spectral decomposition of a regular graph with eigenvalue clustering.

A (q+1)-regular graph has its spectrum inside [-(q+1), q+1].  The
decomposition groups numerically equal eigenvalues into clusters, snaps
cluster values that are within 1e-9 of an integer, and classifies
clusters as principal (|lambda| strictly inside the tempered interval
(-2 sqrt q, 2 sqrt q)) or singular (on or outside the boundary,
including the trivial eigenvalues +-(q+1)).  Both routes below share
one clustering rule (_group) and raise the same ClusterAmbiguity.

There are two routes:

- eigendecompose, the dense route, for every graph: one n x n `eigh`.
  Each cluster keeps its orthonormal eigenvector block V_l, a read-only
  column slice of the eigenvector matrix, so the decomposition holds
  n^2 floats; past DENSE_BYTES_CEILING it raises DepthExceeded.  The
  projector P_l = V_l V_l^T is formed only when `Cluster.projector` is
  read.
- block_decompose, for a graph that lps.cayley_cosets confirms is
  exactly build_lps's X^{p,q}: q Hermitian (n/q) x (n/q) blocks, one per
  character of U = {[[1, b], [0, 1]]} (Terras, Fourier Analysis on
  Finite Groups and Applications, 1999).  Each cluster keeps no
  eigenvectors, only the row P_l(e, .) at the identity vertex e; on a
  Cayley graph that row holds every entry, P_l(v, w) = P_l(e, w v^-1).

suite.SuiteContext.sd picks the block route whenever cayley_cosets
accepts the graph, and the dense route otherwise.

The spectral angle theta of an eigenvalue is defined by
lambda = 2 sqrt(q) cos(theta).  Principal eigenvalues get a real angle
in (0, pi); eigenvalues at or beyond +-2 sqrt(q) get a complex angle,
with the branch chosen so Im(theta) <= 0 for lambda >= 2 sqrt(q) and
theta = pi + i y (y > 0) beyond the negative edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClusterAmbiguity, DegreeTooSmall, DepthExceeded, EigensolverFailure, OutOfRange
from .graphs import Graph, RegularityCertificate
from .lps import CosetData

# The dense route holds the adjacency and the eigenvector matrix, 16 n^2
# bytes; past this many bytes (n > 8192) it raises DepthExceeded.
DENSE_BYTES_CEILING = 2**30


@dataclass(frozen=True)
class Cluster:
    """One eigenvalue cluster: snapped value, multiplicity, eigenvectors, angle.

    From the dense route, vectors is the read-only n x mult block V_l
    of orthonormal eigenvectors (blocks of different clusters are
    mutually orthogonal) and identity_row is None.  From the block
    route, vectors is None and identity_row is the read-only row
    P_l(e, .) of the projector at the identity vertex.
    """

    value: float
    mult: int
    vectors: np.ndarray | None
    theta: complex
    principal: bool
    identity_row: np.ndarray | None = None

    @property
    def projector(self) -> np.ndarray:
        """The spectral projector V_l V_l^T, a new read-only n x n array per read."""
        v = self.vectors
        proj = v @ v.T
        proj = (proj + proj.T) / 2.0
        proj.setflags(write=False)
        return proj


@dataclass(frozen=True)
class SpectralData:
    """Clustered eigendecomposition of a regular graph's adjacency matrix."""

    n: int
    q: int
    cluster_tol: float
    clusters: tuple[Cluster, ...]

    def principal(self) -> list[Cluster]:
        return [c for c in self.clusters if c.principal]

    def singular(self) -> list[Cluster]:
        return [c for c in self.clusters if not c.principal]

    def multiplicity_at(self, value: float, tol: float | None = None) -> int:
        """Total multiplicity of clusters within tol of the given value."""
        t = self.cluster_tol if tol is None else tol
        return sum(c.mult for c in self.clusters if abs(c.value - value) <= t)


def theta_of(lam: float, q: int, tol: float | None = None) -> complex:
    """Spectral angle theta with lam = 2 sqrt(q) cos(theta).

    Real in (0, pi) for |lam| < 2 sqrt(q); -i*y (y >= 0) at and beyond
    the positive edge; pi + i*y beyond the negative edge.  Raises
    OutOfRange when |lam| exceeds q + 1 by more than tol, and
    DegreeTooSmall at q = 0, where no angle exists.
    """
    if q < 1:
        raise DegreeTooSmall(f"the spectral angle needs q >= 1, got q = {q}")
    if tol is None:
        tol = 1e-9 * (q + 1)
    if abs(lam) > q + 1 + tol:
        raise OutOfRange(f"|{lam}| exceeds the regular-graph bound {q + 1}")
    x = lam / (2.0 * math.sqrt(q))
    if abs(x) <= 1.0:
        return complex(math.acos(x), 0.0)
    if x > 1.0:
        return complex(0.0, -math.acosh(x))
    return complex(math.pi, math.acosh(-x))


def _group(evals: np.ndarray, q: int, cluster_tol: float) -> list[tuple[int, int, float, bool]]:
    """Ascending eigenvalues grouped by gap: (start, stop, value, principal) per cluster.

    Consecutive eigenvalues closer than cluster_tol merge; a gap inside
    [cluster_tol, 10*cluster_tol) raises ClusterAmbiguity.  A cluster's
    value is its mean, snapped to an integer within 1e-9.
    """
    gaps = np.diff(evals)
    ambiguous = (gaps >= cluster_tol) & (gaps < 10.0 * cluster_tol)
    if ambiguous.any():
        gap = float(gaps[ambiguous][0])
        raise ClusterAmbiguity(
            f"eigenvalue gap {gap:.3e} falls in the ambiguous window "
            f"[{cluster_tol:.3e}, {10 * cluster_tol:.3e})",
            gap=gap,
            tol=cluster_tol,
        )
    starts = [0, *(np.flatnonzero(gaps >= cluster_tol) + 1).tolist()]
    root = 2.0 * math.sqrt(q)
    out = []
    for start, stop in zip(starts, starts[1:] + [len(evals)]):
        value = float(np.mean(evals[start:stop]))
        snapped = round(value)
        if abs(value - snapped) <= 1e-9:
            value = float(snapped)
        out.append((start, stop, value, abs(value) < root - cluster_tol))
    return out


def eigendecompose(
    g: Graph, cert: RegularityCertificate, cluster_tol: float | None = None
) -> SpectralData:
    """Eigendecompose the adjacency matrix densely and cluster equal eigenvalues.

    Clusters follow the gap rule of _group; the default tolerance scales
    with the spectral radius: 1e-8 * (q + 1).  Raises DepthExceeded when
    the adjacency and eigenvector matrices would exceed
    DENSE_BYTES_CEILING.
    """
    q = cert.q
    if cluster_tol is None:
        cluster_tol = 1e-8 * (q + 1)
    if 16 * g.n**2 > DENSE_BYTES_CEILING:
        raise DepthExceeded(
            f"dense eigh at n={g.n} needs {16 * g.n**2 / 2**30:.2f} GiB, "
            f"over {DENSE_BYTES_CEILING / 2**30:.0f} GiB"
        )
    a = g.as_numpy()
    try:
        evals, evecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"symmetric eigensolver failed: {exc}") from exc
    evecs.setflags(write=False)
    clusters = tuple(
        Cluster(value, stop - start, evecs[:, start:stop], theta_of(value, q), principal)
        for start, stop, value, principal in _group(evals, q, cluster_tol)
    )
    return SpectralData(n=g.n, q=q, cluster_tol=cluster_tol, clusters=clusters)


def block_decompose(
    g: Graph, cert: RegularityCertificate, cosets: CosetData, cluster_tol: float | None = None
) -> SpectralData:
    """The clustered spectrum of X^{p,q} from its q twisted coset blocks.

    g must be the graph cosets describes (lps.cayley_cosets checks
    that).  For the character psi_t(b) = exp(2 pi i t b / q) of U,
    M_t[i, j] = sum of psi_t(b) over the generators s with
    s r_i = r_j u_b; its eigenvector phi lifts to the eigenvector
    F(r_i u_b) = psi_t(b) phi_i / sqrt(q) of A, and spec(A) is the union
    of the q block spectra.  M_{q-t} is the complex conjugate of M_t, so
    only t <= q/2 is solved.  A first pass clusters the block
    eigenvalues with the same gap rule as eigendecompose; a second pass
    recomputes each block's eigenvectors and keeps, per cluster, only
    the row P_l(e, .) at the identity vertex e.  Memory stays
    O(n * clusters + (n/q)^2) floats.
    """
    q = cert.q
    if cluster_tol is None:
        cluster_tol = 1e-8 * (q + 1)
    field, k = cosets.q, len(cosets.reps)
    nbrs = np.array([g.neighbors[r] for r in cosets.reps])
    rows = np.repeat(np.arange(k), nbrs.shape[1])
    cols = cosets.coset[nbrs].ravel()
    shifts = cosets.shift[nbrs].ravel()
    roots = np.exp(2j * np.pi * np.arange(field) / field)

    def eig(t: int, vectors: bool):
        m = np.zeros((k, k), dtype=complex)
        np.add.at(m, (rows, cols), roots[t * shifts % field])
        try:
            return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)
        except np.linalg.LinAlgError as exc:
            raise EigensolverFailure(f"block eigensolver failed at t={t}: {exc}") from exc

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
