"""Eigendecomposition into integer-snapped clusters: the dense route and the rooted-quotient route."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from coset_blocks import block_decompose, cayley_cosets
from test_suite import cycle_plus_matching, frucht_graph

from iharalab import spectral
from iharalab.errors import ClusterAmbiguity, DepthExceeded, OutOfRange
from iharalab.graphs import Graph, build_graph, certify_regular, rooted_quotient
from iharalab.lps import build_lps, cayley_root
from iharalab.spectral import eigendecompose, quotient_decompose, theta_of
from iharalab.suite import range_abs_max

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


def test_cluster_ambiguity_raised(monkeypatch):
    # C60-free zone: build a graph whose spectrum has a gap right at the
    # ambiguity band by using a tight cluster tolerance on distinct eigenvalues
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # C4: spectrum 2, 0, 0, -2
    cert = certify_regular(g)
    monkeypatch.setattr(spectral, "CLUSTER_TOL", 0.95)  # tol 1.9 at q + 1 = 2
    with pytest.raises(ClusterAmbiguity):
        eigendecompose(g, cert)  # gap 2 lands in [tol, 10 tol)


def test_custom_cluster_tol_merges(monkeypatch):
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    cert = certify_regular(g)
    monkeypatch.setattr(spectral, "CLUSTER_TOL", 0.075)  # tol 0.15 at q + 1 = 2
    sd = eigendecompose(g, cert)
    assert sd.cluster_tol == 0.15
    assert {round(c.value) for c in sd.clusters} == {2, 0, -2}


def test_dense_route_refuses_past_its_memory_ceiling(monkeypatch):
    # 16 n^2 bytes at n = 8200 exceed 1 GiB; the guard fires before any matrix exists
    n = 8200
    g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    cert = certify_regular(g)

    def no_dense(self):
        raise AssertionError("the dense adjacency was built")

    monkeypatch.setattr(Graph, "as_numpy", no_dense)
    with pytest.raises(DepthExceeded, match="n=8200"):
        eigendecompose(g, cert)


def _count_eigh(monkeypatch) -> list:
    calls = []
    real = np.linalg.eigh

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_both_routes_share_one_size_guard(monkeypatch, corpus):
    """Below 16 * 10^2 bytes, the 12-cell quotient of X^{13,5} and dense PETERSEN are refused before any eigh."""
    calls = _count_eigh(monkeypatch)
    g, params = build_lps(13, 5)
    cert = certify_regular(g)
    quotient = rooted_quotient(g, cayley_root(g, params))
    assert len(quotient.sizes) == 12
    petersen, petersen_cert = corpus["PETERSEN"]
    assert quotient_decompose(g, cert, quotient).n == 120
    assert eigendecompose(petersen, petersen_cert).n == 10
    assert calls == [(12, 12), (10, 10)]
    monkeypatch.setattr(spectral, "DENSE_BYTES_CEILING", 16 * 10**2 - 1)
    with pytest.raises(DepthExceeded, match="12 x 12 at n=120"):
        quotient_decompose(g, cert, quotient)
    with pytest.raises(DepthExceeded, match="10 x 10 at n=10"):
        eigendecompose(petersen, petersen_cert)
    assert len(calls) == 2


def test_quotient_route_rejects_a_vertex_outside_the_graph():
    g = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    for v in (-1, 4):
        with pytest.raises(ValueError, match="outside 0..3"):
            quotient_decompose(g, certify_regular(g), rooted_quotient(g, v))


# the rooted-quotient route of X^{p,q} against the dense route and the coset-block reference


@pytest.fixture(scope="module", params=[(13, 5), (17, 5), (17, 13), (5, 13)], ids=lambda pq: f"X{pq[0]}_{pq[1]}")
def both_routes(request):
    """(e, cell_of, quotient, dense, block): the spectra of X^{p,q} by the three routes."""
    g, params = build_lps(*request.param)
    cert = certify_regular(g)
    e = cayley_root(g, params)
    quotient = rooted_quotient(g, e)
    sd = quotient_decompose(g, cert, quotient)
    block = block_decompose(g, cert, cayley_cosets(g, params))
    return e, quotient.cell_of, sd, eigendecompose(g, cert), block


def _assert_same_clusters(got, want):
    assert [cl.mult for cl in got.clusters] == [cl.mult for cl in want.clusters]
    assert [cl.principal for cl in got.clusters] == [cl.principal for cl in want.clusters]
    for a, b in zip(got.clusters, want.clusters):
        assert abs(a.value - b.value) <= 1e-12
        assert abs(a.theta - b.theta) <= 1e-9


def test_quotient_route_matches_dense_clusters(both_routes):
    _, _, quotient, dense, _ = both_routes
    _assert_same_clusters(quotient, dense)
    assert all(cl.vectors is None for cl in quotient.clusters)


def test_quotient_route_identity_rows_match_dense_projectors(both_routes):
    e, cell_of, quotient, dense, _ = both_routes
    for got, want in zip(quotient.clusters, dense.clusters):
        assert got.identity_row.shape == (cell_of.max() + 1,)
        assert np.max(np.abs(got.identity_row[cell_of] - want.vectors[e] @ want.vectors.T)) <= 1e-12
        assert not got.identity_row.flags.writeable
    assert np.max(np.abs(range_abs_max(quotient, 200) - range_abs_max(dense, 200))) <= 1e-12


def test_quotient_route_matches_the_block_reference(both_routes):
    _, cell_of, quotient, _, block = both_routes
    _assert_same_clusters(quotient, block)
    for got, want in zip(quotient.clusters, block.clusters):
        assert np.max(np.abs(got.identity_row[cell_of] - want.identity_row)) <= 1e-12


def test_block_route_matches_dense_clusters(both_routes):
    _, _, _, dense, block = both_routes
    _assert_same_clusters(block, dense)
    for got, want in zip(block.clusters, dense.clusters):
        assert got.vectors is None and want.identity_row is None


def test_block_route_identity_rows_match_dense_projectors(both_routes):
    e, _, _, dense, block = both_routes
    for got, want in zip(block.clusters, dense.clusters):
        assert np.max(np.abs(got.identity_row - want.vectors[e] @ want.vectors.T)) <= 1e-12
        assert not got.identity_row.flags.writeable
    assert np.max(np.abs(range_abs_max(block, 200) - range_abs_max(dense, 200))) <= 1e-12


def test_quotient_route_memory_stays_below_the_dense_matrix(x513):
    # X^{5,13}: n = 2184; one dense n x n float matrix is 36 MiB
    g, params, cert = x513
    e = cayley_root(g, params)
    tracemalloc.start()
    try:
        sd = quotient_decompose(g, cert, rooted_quotient(g, e))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(cl.mult for cl in sd.clusters) == g.n
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("graph", [frucht_graph, lambda: cycle_plus_matching(50, 11)], ids=["FRUCHT", "C50_matching"])
def test_quotient_route_refuses_a_graph_that_is_not_vertex_transitive(graph):
    # n P(0, 0) lands about 0.5 from an integer, and the multiplicities miss n
    g = graph()
    with pytest.raises(ClusterAmbiguity):
        quotient_decompose(g, certify_regular(g), rooted_quotient(g, 0))
