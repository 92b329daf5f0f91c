"""Dense spectral decomposition with eigenvalue clustering.

A (q+1)-regular graph has its spectrum inside [-(q+1), q+1].  The
decomposition groups numerically equal eigenvalues into clusters, snaps
cluster values that are within 1e-9 of an integer, keeps each cluster's
orthonormal eigenvector block V_l, and classifies clusters as principal
(|lambda| strictly inside the tempered interval (-2 sqrt q, 2 sqrt q))
or singular (on or outside the boundary, including the trivial
eigenvalues +-(q+1)).

The blocks are read-only column slices of one n x n eigenvector matrix,
so the whole decomposition holds n^2 floats.  The spectral projector
P_l = V_l V_l^T is formed only when `Cluster.projector` is read;
consumers work on the blocks instead.

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

from .errors import ClusterAmbiguity, EigensolverFailure, OutOfRange
from .graphs import Graph, RegularityCertificate


@dataclass(frozen=True)
class Cluster:
    """One eigenvalue cluster: snapped value, multiplicity, eigenvector block, angle.

    vectors is the read-only n x mult block V_l of orthonormal
    eigenvectors; blocks of different clusters are mutually orthogonal.
    """

    value: float
    mult: int
    vectors: np.ndarray
    theta: complex
    principal: bool

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
    OutOfRange when |lam| exceeds q + 1 by more than tol.
    """
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


def eigendecompose(
    g: Graph, cert: RegularityCertificate, cluster_tol: float | None = None
) -> SpectralData:
    """Eigendecompose the adjacency matrix and cluster equal eigenvalues.

    Consecutive eigenvalues closer than cluster_tol merge into one
    cluster; a consecutive gap inside [cluster_tol, 10*cluster_tol)
    raises ClusterAmbiguity because neither merging nor splitting is
    defensible at that tolerance.  The default tolerance scales with the
    spectral radius: 1e-8 * (q + 1).
    """
    q = cert.q
    if cluster_tol is None:
        cluster_tol = 1e-8 * (q + 1)
    a = g.as_numpy()
    try:
        evals, evecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"symmetric eigensolver failed: {exc}") from exc
    evecs.setflags(write=False)
    # group ascending eigenvalues by gap into [start, stop) column ranges
    starts = [0]
    for i in range(1, g.n):
        gap = evals[i] - evals[i - 1]
        if gap < cluster_tol:
            continue
        if gap < 10.0 * cluster_tol:
            raise ClusterAmbiguity(
                f"eigenvalue gap {gap:.3e} falls in the ambiguous window "
                f"[{cluster_tol:.3e}, {10 * cluster_tol:.3e})",
                gap=gap,
                tol=cluster_tol,
            )
        starts.append(i)
    root = 2.0 * math.sqrt(q)
    clusters = []
    for start, stop in zip(starts, starts[1:] + [g.n]):
        value = float(np.mean(evals[start:stop]))
        snapped = round(value)
        if abs(value - snapped) <= 1e-9:
            value = float(snapped)
        principal = abs(value) < root - cluster_tol
        clusters.append(
            Cluster(
                value=value,
                mult=stop - start,
                vectors=evecs[:, start:stop],
                theta=theta_of(value, q),
                principal=principal,
            )
        )
    return SpectralData(n=g.n, q=q, cluster_tol=cluster_tol, clusters=tuple(clusters))
