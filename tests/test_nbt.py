"""Matrix recurrences against the enumeration oracle and each other.

The spectral routes below (principal_am, s_matrix, the recurrence route
principal_am_recurrence and the trace identity's spectral side) are the
references the exact recurrences are compared against; m_matrix is the
exact M_m they start from.
"""

import math

import numpy as np
import pytest
from b_matrices import a_matrix_range, chebyshev_b_range
from reduced_walks_bf import reduced_cycle_counts, reduced_walk_matrices

from iharalab import nbt, suite
from iharalab.errors import NotRamanujan
from iharalab.graphs import Graph, RegularityCertificate, build_graph, certify_regular, named_graph, rooted_quotient
from iharalab.lps import cayley_root
from iharalab.nbt import (
    ExactMatrixSeq,
    a_rows,
    adjacency_power_traces,
    cheb_t_real,
    cheb_u_real,
    f_values,
    m_matrix_chebyshev,
    n_reduced_range,
    t_tilde_traces,
)

# ---------------------------------------------------------------------------
# reference routes


def m_matrix(g: Graph, cert: RegularityCertificate, m: int):
    """Exact M_m from a fresh A_m sweep."""
    seq = ExactMatrixSeq(g, cert)
    seq.run_to(m)
    return seq.m_current()


def principal_am(sd, m: int) -> np.ndarray:
    """a_m = sum over principal eigenvalues of T_m(l/(2 sqrt q)) P_l."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = np.zeros((sd.n, sd.n))
    for cl in sd.principal():
        out += math.cos(m * cl.theta.real) * cl.projector
    return out


def s_matrix(sd, m: int) -> np.ndarray:
    """s_m = sum over principal eigenvalues of U_m(l/(2 sqrt q)) P_l."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = np.zeros((sd.n, sd.n))
    for cl in sd.principal():
        th = cl.theta.real
        out += (math.sin((m + 1) * th) / math.sin(th)) * cl.projector
    return out


def principal_am_recurrence(g: Graph, cert: RegularityCertificate, sd, m: int) -> np.ndarray:
    """a_m recovered from the exact M_m by stripping the singular spectrum.

    Uses closed-form projectors for the trivial eigenvalues q+1 (all-ones
    matrix over n) and -(q+1) (the signed analogue from the bipartition)
    and the computed projectors for any +-2 sqrt(q) clusters.  Requires
    the graph to be Ramanujan apart from those singular values.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    q = sd.q
    root = 2.0 * math.sqrt(q)
    tol = sd.cluster_tol
    exact = np.array(m_matrix(g, cert, m), dtype=float)
    out = exact.copy()
    if m % 2 == 0:
        out -= (q - 1) * np.eye(sd.n)
    for cl in sd.singular():
        lam = cl.value
        if abs(lam - (q + 1)) <= tol:
            proj = np.full((sd.n, sd.n), 1.0 / sd.n)
            weight = float(q**m + 1)
        elif abs(lam + (q + 1)) <= tol:
            if not cert.bipartite:
                raise NotRamanujan("eigenvalue -(q+1) on a non-bipartite graph")
            sign = np.ones(sd.n)
            for v in cert.parts[1]:
                sign[v] = -1.0
            proj = np.outer(sign, sign) / sd.n
            weight = float((-1) ** m * (q**m + 1))
        elif abs(abs(lam) - root) <= tol:
            proj = cl.projector
            weight = (1.0 if lam > 0 else (-1.0) ** m) * 2.0 * q ** (m / 2.0)
        else:
            raise NotRamanujan(
                f"eigenvalue {lam} lies outside [-2 sqrt q, 2 sqrt q] and is not trivial"
            )
        out -= weight * proj
    return out / (2.0 * q ** (m / 2.0))


def m_matrix_projector_sum(sd, m: int) -> np.ndarray:
    """M_m = sum_l 2q^{m/2} T_m(l/(2 sqrt q)) P_l + e_m(q-1)I over the projectors."""
    q = sd.q
    scale = 2.0 * q ** (m / 2.0)
    out = np.zeros((sd.n, sd.n))
    for cl in sd.clusters:
        out += scale * cheb_t_real(m, cl.value / (2.0 * math.sqrt(q))) * cl.projector
    if m % 2 == 0:
        out += (q - 1) * np.eye(sd.n)
    return out


def trace_identity_rhs(sd, m: int) -> float:
    """Spectral side of N_m: 2q^{m/2} sum_l mult(l) T_m(l/(2 sqrt q)) + n e_m (q-1)."""
    q = sd.q
    total = 0.0
    for cl in sd.clusters:
        total += cl.mult * cheb_t_real(m, cl.value / (2.0 * math.sqrt(q)))
    total *= 2.0 * q ** (m / 2.0)
    if m % 2 == 0:
        total += sd.n * (q - 1)
    return total


M_ORACLE = 8


def test_a_matrix_counts_paths(corpus):
    for name, (g, cert) in corpus.items():
        mats = reduced_walk_matrices(g, M_ORACLE)
        recs = a_matrix_range(g, cert, M_ORACLE)
        assert recs == mats, name


def test_a_rows_are_the_rows_of_the_a_matrices(corpus, x135):
    graphs = dict(corpus)
    looped = build_graph(4, [(0, 1, 2), (1, 2), (2, 3, 2), (3, 0), (0, 0), (1, 1), (2, 2), (3, 3)])
    graphs["looped 5-regular"] = (looped, certify_regular(looped))
    graphs["X^{13,5}"] = (x135[0], x135[2])
    for name, (g, cert) in graphs.items():
        mats = a_matrix_range(g, cert, M_ORACLE)
        for v in sorted({0, g.n // 2, g.n - 1}):
            for m_max in (0, 1, 2, M_ORACLE):
                want = [mats[m][v] for m in range(m_max + 1)]
                assert a_rows(g, cert, m_max, v) == want, (name, v, m_max)


def test_adjacency_power_traces_from_one_row_of_a_cayley_graph(x135):
    g, params, _, _ = x135
    full = adjacency_power_traces(g, 40)
    for v in (0, cayley_root(g, params)):
        assert adjacency_power_traces(g, 40, rooted_quotient(g, v)) == full, v


def test_no_one_row_of_the_frucht_graph_gives_the_power_traces():
    # the Frucht graph is 3-regular with no automorphism but the identity,
    # so the row route is wrong from every vertex; no certificate grants it
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    g = build_graph(12, [(i, (i + 1) % 12) for i in range(12)] + [
        (i, (i + s) % 12) for i, s in enumerate(lcf) if i < (i + s) % 12
    ])
    full = adjacency_power_traces(g, 10)
    assert all(adjacency_power_traces(g, 10, rooted_quotient(g, v)) != full for v in range(g.n))


def test_m_matrix_trace_is_cycle_count(corpus):
    for name, (g, cert) in corpus.items():
        counts = reduced_cycle_counts(g, M_ORACLE)
        seq = ExactMatrixSeq(g, cert)
        for m in range(1, M_ORACLE + 1):
            seq.advance()
            mm = seq.m_current()
            assert sum(mm[i][i] for i in range(g.n)) == counts[m - 1], (name, m)


def test_n_reduced_matches_oracle(corpus):
    for name, (g, cert) in corpus.items():
        counts = reduced_cycle_counts(g, M_ORACLE)
        assert n_reduced_range(g, cert, M_ORACLE, method="full") == counts, name


def test_row_method_matches_full(corpus):
    # every graph in the corpus is vertex-transitive
    for name, (g, cert) in corpus.items():
        full = n_reduced_range(g, cert, M_ORACLE, method="full")
        row = n_reduced_range(g, cert, M_ORACLE, method="row")
        assert full == row, name


def test_row_method_on_cayley_graph(x135):
    g, _, cert, _ = x135
    assert n_reduced_range(g, cert, 12, method="row") == n_reduced_range(
        g, cert, 12, method="full"
    )


def test_n_reduced_single(corpus):
    g, cert = corpus["PETERSEN"]
    assert n_reduced_range(g, cert, 8, method="full")[4:] == [120, 120, 0, 240]


def test_t_tilde_is_parity_sum_of_a(corpus):
    for name, (g, cert) in corpus.items():
        mats = a_matrix_range(g, cert, 7)
        seq = ExactMatrixSeq(g, cert)
        for m in range(8):
            want = mats[m]
            j = m - 2
            while j >= 0:
                want = [[want[r][c] + mats[j][r][c] for c in range(g.n)] for r in range(g.n)]
                j -= 2
            assert seq.t_tilde_current() == want, (name, m)
            seq.advance()


def test_t_tilde_traces_match_matrices(corpus):
    g, cert = corpus["CUBE"]
    traces = t_tilde_traces(g, cert, 9)
    seq = ExactMatrixSeq(g, cert)
    for m in range(10):
        tm = seq.t_tilde_current()
        assert traces[m] == sum(tm[i][i] for i in range(g.n))
        seq.advance()


def test_t_tilde_traces_name_a_missing_cert_and_sweep(corpus):
    g, cert = corpus["PETERSEN"]
    with pytest.raises(ValueError, match="cert or a sweep"):
        t_tilde_traces(g, None, 4)
    sweep = suite.SuiteContext(g).sweep
    assert t_tilde_traces(g, None, 4, sweep=sweep) == t_tilde_traces(g, cert, 4)


def test_f_values_are_diagonal_entries(corpus):
    for name, (g, cert) in corpus.items():
        vals = f_values(g, cert, M_ORACLE, v=0)
        mats = a_matrix_range(g, cert, M_ORACLE)
        assert vals == [mats[m][0][0] for m in range(M_ORACLE + 1)], name


def test_f_values_rejects_a_vertex_outside_the_graph(corpus):
    g, cert = corpus["PETERSEN"]
    for v in (-1, g.n):
        with pytest.raises(ValueError, match="outside 0..9"):
            f_values(g, cert, 3, v=v)


def test_chebyshev_b_identity_small(corpus):
    """M_m = B_m + e_m (q-1) I exactly, B_m the integer Chebyshev matrices."""
    for name, (g, cert) in corpus.items():
        q = cert.q
        bs = chebyshev_b_range(g, cert, 30)
        seq = ExactMatrixSeq(g, cert)
        for m in range(1, 31):
            seq.advance()
            mm = seq.m_current()
            shift = (q - 1) if m % 2 == 0 else 0
            for i in range(g.n):
                for j in range(g.n):
                    want = bs[m][i][j] + (shift if i == j else 0)
                    assert mm[i][j] == want, (name, m)


def test_chebyshev_b_identity_x135(x135):
    """M_m = B_m + e_m (q-1) I entry by entry for m <= 30: the reference for the sweep code."""
    g, _, cert, _ = x135
    q = cert.q
    bs = chebyshev_b_range(g, cert, 30)
    seq = ExactMatrixSeq(g, cert)
    for m in range(1, 31):
        seq.advance()
        mm = seq.m_current()
        shift = (q - 1) if m % 2 == 0 else 0
        for i in range(g.n):
            row_m, row_b = mm[i], bs[m][i]
            for j in range(g.n):
                assert row_m[j] == row_b[j] + (shift if i == j else 0), m


def test_b_matrices_match_float_chebyshev(corpus):
    """B_m = 2 q^{m/2} T_m(A / 2 sqrt q) numerically on small graphs."""
    for name, (g, cert) in corpus.items():
        q = cert.q
        a = g.as_numpy().astype(float)
        x = a / (2.0 * math.sqrt(q))
        t_prev = np.eye(g.n)
        t_cur = x.copy()
        bs = chebyshev_b_range(g, cert, 10)
        for m in range(1, 11):
            want = 2.0 * q ** (m / 2.0) * t_cur
            got = np.array(bs[m], dtype=float)
            assert np.allclose(got, want, atol=1e-8), (name, m)
            t_prev, t_cur = t_cur, 2.0 * x @ t_cur - t_prev


def test_adjacency_power_traces_vs_numpy(corpus):
    for name, (g, _) in corpus.items():
        a = g.as_numpy().astype(np.int64)
        w = adjacency_power_traces(g, 8)
        pw = np.eye(g.n, dtype=np.int64)
        for k in range(9):
            assert w[k] == int(np.trace(pw)), (name, k)
            pw = pw @ a


def test_cheb_real_branches():
    assert abs(cheb_t_real(7, 0.3) - math.cos(7 * math.acos(0.3))) < 1e-12
    assert abs(cheb_t_real(6, 1.5) - math.cosh(6 * math.acosh(1.5))) < 1e-6
    # odd parity at x < -1
    assert abs(cheb_t_real(5, -1.5) + math.cosh(5 * math.acosh(1.5))) < 1e-6
    u = math.sin(4 * 1.1) / math.sin(1.1)
    assert abs(cheb_u_real(3, math.cos(1.1)) - u) < 1e-12


def test_principal_am_spectral_vs_recurrence(corpus, spectra):
    """Two routes to the principal part: projector sums vs. weight-corrected B_m."""
    for name in ("K4", "K33", "PETERSEN", "CUBE"):
        g, cert = corpus[name]
        sd = spectra[name]
        for m in (1, 2, 3, 8, 15):
            spec = principal_am(sd, m)
            rec = principal_am_recurrence(g, cert, sd, m)
            assert np.allclose(spec, rec, atol=1e-9), (name, m)


def test_principal_am_entry_bounds(spectra):
    for name, sd in spectra.items():
        for m in range(1, 60):
            am = principal_am(sd, m)
            assert np.max(np.abs(am)) <= 1.0 + 1e-9, (name, m)


def test_s_matrix_entry_bounds(spectra):
    sd = spectra["PETERSEN"]
    # rows of U_m(cos)/U-type sums: |s_m entries| <= 1/sin(theta) per cluster sum
    bound = sum(cl.mult for cl in sd.principal())  # very loose sanity bound
    for m in range(1, 20):
        sm = s_matrix(sd, m)
        assert np.max(np.abs(sm)) <= bound


def test_trace_identity(corpus, spectra):
    """N_m = 2 q^{m/2} sum m_lambda T_m(lambda / 2 sqrt q) + n e_m (q - 1)."""
    for name, (g, cert) in corpus.items():
        counts = n_reduced_range(g, cert, 20, method="full")
        sd = spectra[name]
        for m in range(1, 21):
            rhs = trace_identity_rhs(sd, m)
            assert abs(rhs - counts[m - 1]) < 1e-6 * max(1, abs(counts[m - 1])), (name, m)


def test_m_matrix_rejects_zero(spectra):
    with pytest.raises(ValueError):
        m_matrix_chebyshev(spectra["K4"], 0)


def test_m_matrix_chebyshev_matches_projector_sum(spectra, x135):
    # compared at the scale check_chebyshev uses: |difference| / q^{m/2}
    for name, sd in [*spectra.items(), ("X{13,5}", x135[3])]:
        for m in range(1, 13):
            diff = m_matrix_chebyshev(sd, m) - m_matrix_projector_sum(sd, m)
            assert np.max(np.abs(diff)) / sd.q ** (m / 2.0) <= 1e-9, (name, m)


def test_chebyshev_float_route_metric_unchanged(monkeypatch):
    for name in ("K4", "PETERSEN"):
        got = suite.check_chebyshev(suite.SuiteContext(named_graph(name)))
        with monkeypatch.context() as mp:
            mp.setattr(nbt, "m_matrix_chebyshev", m_matrix_projector_sum)
            want = suite.check_chebyshev(suite.SuiteContext(named_graph(name)))
        assert got == want, name
        assert "float_route_metric" in got["detail"], name


def test_a_matrix_low_orders(corpus):
    g, cert = corpus["PETERSEN"]
    q = cert.q
    a0, a1, a2 = a_matrix_range(g, cert, 2)
    assert all(a0[i][i] == 1 for i in range(g.n))
    adj = g.as_numpy().astype(int)
    assert a1 == adj.tolist()
    want = adj @ adj - (q + 1) * np.eye(g.n, dtype=int)
    assert (np.array(a2) == want).all()
