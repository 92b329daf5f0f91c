"""Eigendecomposition into integer-snapped clusters with eigenvector blocks."""

import cmath
import math

import numpy as np
import pytest

from iharalab.errors import ClusterAmbiguity, OutOfRange
from iharalab.graphs import build_graph, certify_regular
from iharalab.spectral import eigendecompose, theta_of

PINNED_SPECTRA = {
    "K3": {2: 1, -1: 2},
    "K4": {3: 1, -1: 3},
    "K33": {3: 1, 0: 4, -3: 1},
    "PETERSEN": {3: 1, 1: 5, -2: 4},
    "CUBE": {3: 1, 1: 3, -1: 3, -3: 1},
}


def test_pinned_corpus_spectra(spectra):
    for name, want in PINNED_SPECTRA.items():
        sd = spectra[name]
        got = {round(cl.value): cl.mult for cl in sd.clusters}
        assert got == want, name
        for cl in sd.clusters:
            assert abs(cl.value - round(cl.value)) < 1e-9


def test_multiplicities_sum_to_n(spectra, corpus):
    for name, sd in spectra.items():
        assert sum(cl.mult for cl in sd.clusters) == corpus[name][0].n


def test_projector_algebra(spectra):
    for name, sd in spectra.items():
        n = sd.n
        total = np.zeros((n, n))
        recon = np.zeros((n, n))
        for cl in sd.clusters:
            p = cl.projector
            assert np.allclose(p, p.T, atol=1e-10), name
            assert np.allclose(p @ p, p, atol=1e-9), name
            assert abs(np.trace(p) - cl.mult) < 1e-9, name
            total += p
            recon += cl.value * p
        assert np.allclose(total, np.eye(n), atol=1e-9), name


def test_projectors_reconstruct_adjacency(spectra, corpus):
    for name, sd in spectra.items():
        g, _ = corpus[name]
        recon = sum(cl.value * cl.projector for cl in sd.clusters)
        assert np.allclose(recon, g.as_numpy().astype(float), atol=1e-9), name


def test_projectors_orthogonal_across_clusters(spectra):
    sd = spectra["PETERSEN"]
    cls = sd.clusters
    for i in range(len(cls)):
        for j in range(i + 1, len(cls)):
            assert np.allclose(cls[i].projector @ cls[j].projector, 0, atol=1e-9)


def test_principal_split(spectra):
    sd = spectra["PETERSEN"]
    principal, singular = sd.principal(), sd.singular()
    assert {round(c.value) for c in principal} == {1, -2}
    assert {round(c.value) for c in singular} == {3}
    sd33 = spectra["K33"]
    principal, singular = sd33.principal(), sd33.singular()
    assert {round(c.value) for c in principal} == {0}
    assert {round(c.value) for c in singular} == {3, -3}


def test_projectors_readonly(spectra):
    p = spectra["K4"].clusters[0].projector
    with pytest.raises(ValueError):
        p[0, 0] = 1.0


def test_vector_blocks_orthonormal(spectra, x135):
    for name, sd in [*spectra.items(), ("X{13,5}", x135[3])]:
        cls = sd.clusters
        for i, ci in enumerate(cls):
            assert ci.vectors.shape == (sd.n, ci.mult), name
            gram = ci.vectors.T @ ci.vectors
            assert np.allclose(gram, np.eye(ci.mult), atol=1e-10), name
            for cj in cls[i + 1 :]:
                assert np.allclose(ci.vectors.T @ cj.vectors, 0, atol=1e-10), name


def test_vector_blocks_readonly(spectra):
    for cl in spectra["PETERSEN"].clusters:
        with pytest.raises(ValueError):
            cl.vectors[0, 0] = 1.0


def test_vector_blocks_are_one_matrix(spectra, x135):
    # the blocks are column slices of one n x n array: no n x n array per cluster
    for name, sd in [*spectra.items(), ("X{13,5}", x135[3])]:
        assert sum(cl.vectors.nbytes for cl in sd.clusters) == 8 * sd.n**2, name
        bases = {id(cl.vectors.base) for cl in sd.clusters}
        assert len(bases) == 1 and sd.clusters[0].vectors.base is not None, name


def test_theta_real_inside():
    th = theta_of(1.0, 2)
    assert th.imag == 0
    assert abs(math.cos(th.real) - 1.0 / (2 * math.sqrt(2))) < 1e-12


def test_theta_complex_outside():
    q = 2
    th = theta_of(3.0, q)  # untempered: cosh branch
    assert th.imag != 0
    assert abs(cmath.cos(th) - 3.0 / (2 * math.sqrt(q))) < 1e-12
    th_neg = theta_of(-3.0, q)
    assert abs(cmath.cos(th_neg) + 3.0 / (2 * math.sqrt(q))) < 1e-12


def test_theta_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        theta_of(4.0, 2)  # beyond q + 1 = 3
    with pytest.raises(OutOfRange):
        theta_of(-3.5, 2)


def test_theta_at_band_edge():
    th = theta_of(2 * math.sqrt(2), 2)
    assert abs(th.real) < 1e-6 and abs(th.imag) < 1e-6


def test_multiplicity_at(spectra):
    sd = spectra["PETERSEN"]
    assert sd.multiplicity_at(1.0) == 5
    assert sd.multiplicity_at(-2.0) == 4
    assert sd.multiplicity_at(2.0 * math.sqrt(2)) == 0


def test_cluster_ambiguity_raised():
    # C60-free zone: build a graph whose spectrum has a gap right at the
    # ambiguity band by using a tight cluster_tol on distinct eigenvalues
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C4: spectrum 2, 0, 0, -2
    cert = certify_regular(g)
    with pytest.raises(ClusterAmbiguity):
        eigendecompose(g, cert, cluster_tol=1.9)  # gap 2 lands in [tol, 10 tol)


def test_custom_cluster_tol_merges():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    cert = certify_regular(g)
    sd = eigendecompose(g, cert, cluster_tol=0.15)
    assert {round(c.value) for c in sd.clusters} == {2, 0, -2}
