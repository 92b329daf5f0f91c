"""Spectral decomposition of a regular graph with eigenvalue clustering.

A (q+1)-regular graph has its spectrum inside [-(q+1), q+1].  Numerically
equal eigenvalues are grouped into clusters (_group), values within 1e-9
of an integer are snapped, and clusters are principal (|lambda| strictly
inside (-2 sqrt q, 2 sqrt q)) or singular (on or outside the boundary,
including the trivial eigenvalues +-(q+1)).

One constructor, _spectrum, is the only place that calls `eigh` and
builds SpectralData: it owns the size guard (DepthExceeded before the
matrix is built), the clustering and the check that the multiplicities
sum to n.  Its two routes pass in only a matrix and how a cluster reads
its eigenvector columns:

- eigendecompose, for every graph: the n x n adjacency.  Each cluster
  keeps its read-only eigenvector block V_l (n^2 floats in all);
  `Cluster.projector` forms P_l = V_l V_l^T when read.
- quotient_decompose, for a vertex-transitive graph: the C x C matrix of
  its rooted equitable quotient at v (graphs.rooted_quotient).  Each
  cluster keeps its multiplicity n P_l(v, v) and the row P_l(v, .) once
  per cell; on a Cayley graph with v the identity that row holds every
  entry, P_l(x, y) = P_l(v, y x^-1), and an isomorphism carries that to
  any relabeling of the graph.  identity_row[quotient.cell_of] is the
  row on all n vertices.  suite.SuiteContext.sd takes this route when
  lps.cayley_root certifies the graph.

The spectral angle theta is defined by lambda = 2 sqrt(q) cos(theta):
real in (0, pi) for a principal eigenvalue, complex at or beyond
+-2 sqrt(q), with Im(theta) <= 0 for lambda >= 2 sqrt(q) and
theta = pi + i y (y > 0) beyond the negative edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ClusterAmbiguity, DegreeTooSmall, DepthExceeded, EigensolverFailure, OutOfRange
from .graphs import Graph, RegularityCertificate, RootedQuotient

# One eigh holds its size x size matrix and eigenvectors, 16 size^2
# bytes; past this many bytes (size > 8192) _spectrum raises DepthExceeded.
DENSE_BYTES_CEILING = 2**30

# quotient_decompose raises ClusterAmbiguity when n P_l(v, v) is farther
# than this from an integer.  The worst cluster of a certified X^{p,q}
# read 8.5e-14 at n=120, 5.1e-12 at n=1092, 6.3e-9 at n=12180 and
# 5.1e-10 at n=50616; the Frucht graph, which is not vertex-transitive,
# reads n P_l(v, v) = 0.11 at its lowest eigenvalue.
MULT_TOL = 1e-3

# Both routes' default cluster tolerance, per unit of the spectral radius q + 1.
CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class Cluster:
    """One eigenvalue cluster: snapped value, multiplicity, eigenvectors, angle.

    From the dense route, vectors is the read-only n x mult block V_l
    of orthonormal eigenvectors (blocks of different clusters are
    mutually orthogonal) and identity_row is None.  From the quotient
    route, vectors is None and identity_row is the read-only row
    P_l(v, .) of the projector at the root v, one entry per cell of the
    rooted quotient: P_l(v, x) for every x in that cell.
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
    # the longest (cos, sin quotient) pair principal_trig_table has built
    _trig: list = field(default_factory=list, init=False, repr=False, compare=False)

    def principal(self) -> list[Cluster]:
        return [c for c in self.clusters if c.principal]

    def principal_angles(self) -> tuple[np.ndarray, np.ndarray]:
        """(theta, mult) of the principal clusters, in cluster order: a float and an int array."""
        return np.array([c.theta.real for c in self.principal()]), np.array([c.mult for c in self.principal()])

    def principal_trig_table(self, m_top: int) -> tuple[np.ndarray, np.ndarray]:
        """cos(m theta_l) and sin((m+1) theta_l)/sin(theta_l), rows m = 1..m_top, columns as principal_angles.

        The scalars of a_m = sum_l cos(m theta_l) P_l and of s_m, read-only.
        The longest table built so far serves every request up to its
        length as a prefix of its rows; a longer request builds it anew.
        """
        if not self._trig or len(self._trig[0]) < m_top:
            self._trig[:] = self._trig_rows(m_top)
        cos_m, u_m = self._trig
        return cos_m[:m_top], u_m[:m_top]

    def _trig_rows(self, m_top: int) -> tuple[np.ndarray, np.ndarray]:
        theta = self.principal_angles()[0]
        m = np.arange(1, m_top + 1, dtype=float)
        cos_m = np.cos(np.outer(m, theta))
        u_m = np.sin(np.outer(m + 1, theta)) / np.sin(theta)
        cos_m.setflags(write=False)
        u_m.setflags(write=False)
        return cos_m, u_m

    def singular(self) -> list[Cluster]:
        return [c for c in self.clusters if not c.principal]

    def multiplicity_at(self, value: float) -> int:
        """Total multiplicity of clusters within cluster_tol of the given value."""
        return sum(c.mult for c in self.clusters if abs(c.value - value) <= self.cluster_tol)


def theta_of(lam: float, q: int) -> complex:
    """Spectral angle theta with lam = 2 sqrt(q) cos(theta).

    Real in (0, pi) for |lam| < 2 sqrt(q); -i*y (y >= 0) at and beyond
    the positive edge; pi + i*y beyond the negative edge.  Raises
    OutOfRange when |lam| exceeds q + 1 by more than 1e-9 (q + 1), and
    DegreeTooSmall at q = 0, where no angle exists.
    """
    if q < 1:
        raise DegreeTooSmall(f"the spectral angle needs q >= 1, got q = {q}")
    if abs(lam) > q + 1 + 1e-9 * (q + 1):
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


def _spectrum(g: Graph, cert: RegularityCertificate, size: int, matrix, cluster) -> SpectralData:
    """The clustered spectrum of g from one eigh of the symmetric size x size matrix().

    Raises DepthExceeded before matrix() runs when its eigh would hold
    more than DENSE_BYTES_CEILING.  cluster(evecs, start, stop, value)
    gives (mult, vectors, identity_row) from the read-only eigenvector
    columns start:stop of one cluster of _group, at tolerance
    CLUSTER_TOL (q + 1).
    """
    q = cert.q
    cluster_tol = CLUSTER_TOL * (q + 1)
    if 16 * size**2 > DENSE_BYTES_CEILING:
        raise DepthExceeded(
            f"dense eigh of {size} x {size} at n={g.n} needs {16 * size**2 / 2**30:.2f} GiB, "
            f"over {DENSE_BYTES_CEILING / 2**30:.0f} GiB"
        )
    try:
        evals, evecs = np.linalg.eigh(matrix())
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"symmetric eigensolver failed: {exc}") from exc
    evecs.setflags(write=False)
    clusters = []
    for start, stop, value, principal in _group(evals, q, cluster_tol):
        mult, vectors, row = cluster(evecs, start, stop, value)
        clusters.append(Cluster(value, mult, vectors, theta_of(value, q), principal, row))
    total = sum(cl.mult for cl in clusters)
    if total != g.n:
        raise ClusterAmbiguity(f"the multiplicities sum to {total}, not n = {g.n}", tol=MULT_TOL)
    return SpectralData(n=g.n, q=q, cluster_tol=cluster_tol, clusters=tuple(clusters))


def eigendecompose(g: Graph, cert: RegularityCertificate) -> SpectralData:
    """The clustered spectrum from one n x n eigh of the adjacency; each cluster keeps its eigenvector block."""
    return _spectrum(
        g, cert, g.n, g.as_numpy, lambda evecs, start, stop, value: (stop - start, evecs[:, start:stop], None)
    )


def quotient_decompose(g: Graph, cert: RegularityCertificate, quotient: RootedQuotient) -> SpectralData:
    """The clustered spectrum of a vertex-transitive graph from its rooted equitable quotient at v.

    quotient is graphs.rooted_quotient(g, v) at its fixpoint.  With Q
    its quotient matrix and D its cell sizes, A acts as
    S = D^{1/2} Q D^{-1/2} on the span of the cells' indicators scaled
    by D^{-1/2}, which holds e_v (Godsil, Algebraic Combinatorics,
    1993, ch. 5).  For the eigenvector columns W of S in a cluster,
    P_l(v, v) = sum W[c(v)]^2, and identity_row holds
    P_l(v, x) = (W W[c(v)])[c(x)] / sqrt|c(x)| once per cell.  If
    every vertex looks like v, mult_l = n P_l(v, v); ClusterAmbiguity is
    raised when some n P_l(v, v) is not a positive integer within
    MULT_TOL.  S goes through _spectrum and its size guard.
    """
    k = len(quotient.sizes)
    root = np.sqrt(np.array(quotient.sizes))

    def matrix() -> np.ndarray:
        arcs = [c * k + d for c, nb in enumerate(quotient.neighbours) for d in nb]
        s = np.bincount(arcs, minlength=k * k).reshape(k, k) * root[:, None] / root
        return (s + s.T) / 2.0

    def cluster(evecs, start, stop, value):
        w = evecs[quotient.root, start:stop]
        scaled = g.n * float(w @ w)
        mult = round(scaled)
        if abs(scaled - mult) > MULT_TOL or mult == 0:
            raise ClusterAmbiguity(f"n P(v, v) = {scaled:.6g} at {value:.6g} is not a positive integer", tol=MULT_TOL)
        row = evecs[:, start:stop] @ w / root
        row.setflags(write=False)
        return mult, None, row

    return _spectrum(g, cert, k, matrix, cluster)
