"""Zeta series, determinant routes, Eisenstein/cusp splits, phi.

The reference functions below are the earlier determinant route, kept
unchanged: det(I - uA + u^2(D-I)) by Bareiss elimination at the 2n+1
points u = 0, +-1, ..., +-n and Fraction Newton interpolation, and the
spectrum-factored product for regular graphs with integral spectra.
They give the Bass-matrix charpoly route an independent exact target.
The series helpers after them exponentiate the factored polynomial, the
power sums of zeta.determinant_power_sums and the counts N_m, so that
tests compare whole zeta series where the library compares N_m.
"""

import dataclasses
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import isqrt, prod

import pytest
import sqrt_ext_sums
from lattice_points import lattice_count
from sqrt_ext import SqrtExt, graded_values, half_power
from test_suite import _count_calls_everywhere

import iharalab
from iharalab import nbt, suite, zeta
from iharalab.errors import DepthExceeded, InvalidPrime
from iharalab.graphs import Graph, _edges_canonical, build_graph, named_graph
from iharalab.lps import build_lps, cayley_root, is_prime, legendre_symbol
from iharalab.nbt import f_values, n_reduced_range
from iharalab.series import TruncatedSeries, binomial_one_minus_u2
from iharalab.suite import SuiteContext, VerificationSuiteConfig, run_check
from iharalab.zeta import (
    cusp_coefficients_range,
    determinant_power_sums,
    eisenstein_C,
    ihara_bass_reciprocal,
    phi_closed_point,
    phi_series,
    reciprocal_series,
    verify_ihara_bass,
)

# ---------------------------------------------------------------------------
# reference routes


def bareiss_determinant(mat: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            rik = m[i][k]
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - rik * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _det_point(g: Graph, degrees: list[int], u: int) -> int:
    n = g.n
    adj = g.as_numpy().astype(int).tolist()
    mat = [
        [
            (1 + u * u * (degrees[i] - 1) if i == j else 0) - u * adj[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return bareiss_determinant(mat)


def _interpolate_integer_poly(points: list[tuple[int, int]]) -> list[int]:
    """Exact polynomial through the given points; must have integer coefficients."""
    k = len(points)
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    # Newton divided differences
    table = ys[:]
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - level])
    # expand Newton form to monomial coefficients
    coeffs = [Fraction(0)] * k
    poly = [Fraction(1)]  # running product (x - x_0)...(x - x_{level-1})
    for level in range(k):
        for j, c in enumerate(poly):
            coeffs[j] += table[level] * c
        new_poly = [Fraction(0)] * (len(poly) + 1)
        for j, c in enumerate(poly):
            new_poly[j] -= xs[level] * c
            new_poly[j + 1] += c
        poly = new_poly
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError(f"interpolation produced non-integer coefficient {c}")
        out.append(int(c))
    return out


def spectrum_factored_poly(sd) -> list:
    """prod_lambda (1 - lambda u + q u^2)^{mult} expanded; exact if the spectrum is integral."""
    exact = all(float(c.value).is_integer() for c in sd.clusters)
    coeffs = [1 if exact else 1.0]
    for cl in sd.clusters:
        lam = int(cl.value) if exact else cl.value
        factor = [1, -lam, sd.q]
        for _ in range(cl.mult):
            new = [0] * (len(coeffs) + 2)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(factor):
                    new[i + j] += a * b
            coeffs = new
    return coeffs


def reference_det_coeffs(g: Graph) -> list[int]:
    """det(I - uA + u^2(D-I)) through 2n+1 Bareiss points, trailing zeros trimmed."""
    degrees = [g.degree(v) for v in range(g.n)]
    pts = [(0, _det_point(g, degrees, 0))]
    for x in range(1, g.n + 1):
        pts.append((x, _det_point(g, degrees, x)))
        pts.append((-x, _det_point(g, degrees, -x)))
    return _interpolate_integer_poly(pts)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def factored_series(zr, order: int) -> TruncatedSeries:
    """Z(u)^{-1} = (1 - u^2)^{r-1} det_poly(u) from ihara_bass_reciprocal's factored form, truncated."""
    det = TruncatedSeries.from_coeffs(list(zr.det_coeffs), order)
    return binomial_one_minus_u2(zr.betti_r - 1, order) * det


def det_series(ctx, order: int) -> TruncatedSeries:
    """det(I - uA + u^2(D-I)) = exp(-sum p_m u^m / m), with p_m from zeta.determinant_power_sums."""
    log_det = [0] + [Fraction(-p, m) for m, p in enumerate(determinant_power_sums(ctx, order), 1)]
    return TruncatedSeries.from_coeffs(log_det, order).exp()


def zeta_series_from_counts(counts: list[int]) -> TruncatedSeries:
    """Z(u) = exp(sum N_m u^m / m) from exact reduced-cycle counts N_1..N_M."""
    log_z = [0] + [Fraction(nm, m) for m, nm in enumerate(counts, 1)]
    return TruncatedSeries.from_coeffs(log_z).exp()


def test_bareiss_known_determinants():
    assert bareiss_determinant([[2]]) == 2
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert bareiss_determinant([[2, 0, 1], [1, 3, 2], [0, 1, 4]]) == 21


def test_k3_reciprocal_polynomial(corpus):
    # (1 - u)^2 (1 + u + u^2)^2 ... assembled as (1 - 2u + u^2)(1 + u + u^2)^2
    g, _ = corpus["K3"]
    zr = ihara_bass_reciprocal(g)
    want = _poly_mul([1, -2, 1], _poly_mul([1, 1, 1], [1, 1, 1]))
    assert list(zr.det_coeffs) == want
    assert zr.betti_r == 1


def test_k4_reciprocal_polynomial(corpus):
    # det factorization over the spectrum: (1 - 3u + 2u^2)(1 + u + 2u^2)^3
    g, _ = corpus["K4"]
    zr = ihara_bass_reciprocal(g)
    want = [1, -3, 2]
    for _ in range(3):
        want = _poly_mul(want, [1, 1, 2])
    assert list(zr.det_coeffs) == want
    assert zr.betti_r == 3
    assert list(factored_series(zr, 8).coeffs) == [1, 0, 0, -8, -6, 0, 16, 24, -3]


def test_det_series_matches_interpolation(corpus, contexts):
    """Power-sum route equals the Bass charpoly route, coefficientwise."""
    for name, (g, cert) in corpus.items():
        zr = ihara_bass_reciprocal(g)
        series = det_series(contexts[name], 12)
        for k in range(13):
            det_coeff = zr.det_coeffs[k] if k < len(zr.det_coeffs) else 0
            assert series.coeffs[k] == det_coeff, (name, k)


def test_reciprocal_series_matches_full_product(corpus, contexts):
    for name in ("K4", "PETERSEN"):
        g, cert = corpus[name]
        zr = ihara_bass_reciprocal(g)
        fast = reciprocal_series(contexts[name], 10)
        slow = factored_series(zr, 10)
        assert fast.coeffs == slow.coeffs, name


def test_spectrum_factored_poly(spectra, corpus):
    for name in ("K4", "K33", "CUBE"):
        g, _ = corpus[name]
        sd = spectra[name]
        coeffs = spectrum_factored_poly(sd)
        assert coeffs == list(ihara_bass_reciprocal(g).det_coeffs), name
        assert coeffs == reference_det_coeffs(g), name


def test_verify_ihara_bass_zero(contexts):
    for name in ("K3", "K4", "K33", "PETERSEN"):
        assert verify_ihara_bass(contexts[name], order=10) == 0, name


def test_verify_ihara_bass_on_the_identity_row(x135):
    g, params, _, _ = x135
    row, full = SuiteContext(g, params), SuiteContext(g)
    assert row.row_vertex == cayley_root(g, params) and full.row_vertex is None
    assert verify_ihara_bass(row, order=10) == 0
    assert reciprocal_series(row, 10) == reciprocal_series(full, 10)


def test_a_row_route_without_a_certificate_fails_the_identity():
    # the Frucht graph is 3-regular with no automorphism but the identity,
    # so no one row's diagonal entries give the traces
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    g = build_graph(12, [(i, (i + 1) % 12) for i in range(12)] + [
        (i, (i + s) % 12) for i, s in enumerate(lcf) if i < (i + s) % 12
    ])
    assert SuiteContext(g).row_vertex is None
    assert verify_ihara_bass(SuiteContext(g), order=10) == 0


def test_tree_zeta_is_one():
    g = build_graph(3, [(0, 1), (1, 2)])
    zr = ihara_bass_reciprocal(g)
    assert list(zr.det_coeffs) == [1, 0, -1]  # (1 - u^2), cancelled by (1-u^2)^{r-1}
    zs = factored_series(zr, 8).inverse()
    assert zs == reciprocal_series(SuiteContext(g), 8).inverse()
    assert zs.coeffs[0] == 1
    assert all(c == 0 for c in zs.coeffs[1:])


def test_irregular_graph_route():
    # path with a doubled middle edge: irregular but still checkable
    g = build_graph(3, [(0, 1, 2), (1, 2, 1)])
    assert verify_ihara_bass(SuiteContext(g), order=8) == 0


# one N_m moved by delta must move the check's metric by |delta| and fail it


def test_a_perturbed_sweep_count_fails_the_ihara_bass_check(monkeypatch):
    g, params = build_lps(13, 5)
    assert verify_ihara_bass(SuiteContext(g, params), order=10) == 0
    ctx = SuiteContext(g, params)
    real = ctx.sweep.prefix

    def prefix(m_max):
        out = list(real(m_max))
        if m_max >= 6:
            out[6] -= 3  # Tr B_6, so N_6
        return out

    monkeypatch.setattr(ctx.sweep, "prefix", prefix)
    discrepancy = verify_ihara_bass(ctx, order=10)
    assert type(discrepancy) is int and discrepancy == 3
    result = run_check("ihara-bass", ctx, VerificationSuiteConfig(source_kind="lps", p=13, q=5))
    assert (result.status, result.metric) == ("fail", 3.0)


def test_a_perturbed_walker_count_fails_the_ihara_bass_check(monkeypatch):
    # irregular, with a double edge and a loop: the walker against the Bass charpoly
    g = build_graph(4, [(0, 1, 2), (1, 2), (2, 2), (2, 3)])
    assert verify_ihara_bass(SuiteContext(g), order=8) == 0
    real = zeta.reduced_walks

    def walks(g, m_max, sources, **kwargs):
        for v, (closed, rows) in zip(sources, real(g, m_max, sources, **kwargs)):
            if v == 0:
                closed[4] += 5  # N_5
            yield closed, rows

    monkeypatch.setattr(zeta, "reduced_walks", walks)
    ctx = SuiteContext(g)
    discrepancy = verify_ihara_bass(ctx, order=8)
    assert type(discrepancy) is int and discrepancy == 5
    result = run_check("ihara-bass", ctx, VerificationSuiteConfig(source_kind="named", order=8))
    assert (result.status, result.metric) == ("fail", 5.0)


def test_determinant_power_sums_are_the_b_traces_on_a_regular_graph(contexts):
    # p_m = Tr B_m: alpha^m + beta^m over the roots of 1 - lambda u + q u^2
    for name, ctx in contexts.items():
        assert determinant_power_sums(ctx, 12) == ctx.sweep.prefix(12)[1:], name


# ---------------------------------------------------------------------------
# Bass-matrix charpoly route


# a 5-regular multigraph with double edges and one loop at every vertex
MULTI_EDGES = [(0, 1, 2), (1, 2), (2, 3, 2), (3, 0), (0, 0), (1, 1), (2, 2), (3, 3)]


def _random_multigraph(rng: random.Random) -> Graph:
    """Connected: a random spanning tree, then random extra edges and loops."""
    n = rng.randint(1, 13)
    edges = [(v, rng.randrange(v), rng.randint(1, 2)) for v in range(1, n)]
    for _ in range(rng.randint(0, 2 * n)):
        edges.append((rng.randrange(n), rng.randrange(n), rng.randint(1, 2)))
    return build_graph(n, edges)


def _grafted(g: Graph, rng: random.Random, extra: int) -> Graph:
    """g with extra new vertices, each joined by one edge to a random earlier vertex: pendant trees."""
    edges = _edges_canonical(g)
    for v in range(g.n, g.n + extra):
        edges.append((v, rng.randrange(v)))
    return build_graph(g.n + extra, edges)


def two_core(g: Graph) -> Graph:
    """g with its lowest-numbered leaf deleted and the rest renumbered, until no leaf or one vertex is left."""
    while g.n > 1:
        leaf = next((v for v in range(g.n) if g.degree(v) == 1), None)
        if leaf is None:
            break
        edges = [(i - (i > leaf), j - (j > leaf), c) for i, j, c in _edges_canonical(g) if leaf not in (i, j)]
        g = build_graph(g.n - 1, edges)
    return g


def _hadamard_bound(g: Graph) -> int:
    total = 1
    for i, nb in enumerate(g.neighbors):
        row = [nb.count(j) for j in range(g.n)]
        diag = 1 + row[i] + abs(g.degree(i) - 1)
        total *= diag**2 + sum(x * x for j, x in enumerate(row) if j != i)
    return isqrt(total) + 1


@pytest.fixture
def charpoly_primes(monkeypatch):
    """(matrix size, primes) of every stacked charpoly call, in call order."""
    calls = []
    real = nbt._charpoly_mod

    def counting(bass, primes):
        calls.append((len(bass), list(primes)))
        return real(bass, primes)

    monkeypatch.setattr(nbt, "_charpoly_mod", counting)
    return calls


def _check_bass_result(g: Graph, coeffs: list[int], calls: list[tuple[int, list[int]]]) -> None:
    """P(1) = 0, c_2n = prod(d_i - 1), |c_k| <= H, and one stacked call on the fewest primes past 2H.

    The matrix actually reduced is the 2k x 2k Bass matrix of g's 2-core,
    so H is the core's Hadamard bound, and c_2k = prod(d_i - 1) over the
    core's degrees is the nonzero leading coefficient.
    """
    core = two_core(g)
    full = coeffs + [0] * (2 * g.n + 1 - len(coeffs))
    bound = _hadamard_bound(core)
    assert sum(full) == 0
    assert full[-1] == prod(g.degree(v) - 1 for v in range(g.n))
    assert len(coeffs) == 2 * core.n + 1
    assert coeffs[-1] == prod(core.degree(v) - 1 for v in range(core.n))
    assert max(abs(c) for c in full) <= bound
    [(size, primes)] = calls
    assert size == 2 * core.n
    assert primes == [nbt._prime(i) for i in range(len(primes))]
    assert prod(primes) > 2 * bound >= prod(primes[:-1])


def test_two_core_by_hand():
    lollipop = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert two_core(lollipop) == build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert two_core(build_graph(4, [(0, 1), (1, 2), (1, 3)])) == build_graph(1, [])
    assert two_core(build_graph(2, [(0, 0), (0, 1)])) == build_graph(1, [(0, 0)])
    doubled = build_graph(2, [(0, 1, 2)])
    assert two_core(doubled) == doubled


def test_bass_route_matches_reference(corpus, charpoly_primes):
    graphs = {name: g for name, (g, _) in corpus.items()}
    graphs["tree"] = build_graph(3, [(0, 1), (1, 2)])
    graphs["doubled path"] = build_graph(3, [(0, 1, 2), (1, 2, 1)])
    graphs["looped 5-regular"] = build_graph(4, MULTI_EDGES)
    graphs["one vertex, two loops"] = build_graph(1, [(0, 0, 2)])
    # pendant trees, which the route prunes before it builds the Bass matrix
    tail = [(i, i + 1) for i in range(4, 10)]
    graphs["cycle with a long tail"] = build_graph(11, [(i, (i + 1) % 5) for i in range(5)] + tail)
    graphs["star"] = build_graph(7, [(0, v) for v in range(1, 7)])
    graphs["leaf on a looped vertex"] = build_graph(2, [(0, 0, 2), (0, 1)])
    graphs["branching tree"] = build_graph(9, [(1, 0), (2, 0), (3, 1), (4, 1), (5, 4), (6, 2), (7, 6), (8, 6)])
    graphs["one edge"] = build_graph(2, [(0, 1)])
    graphs["double edge to a degree-2 vertex"] = build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3, 2)])
    rng = random.Random(20260)
    for k in range(20):
        graphs[f"random {k}"] = _random_multigraph(rng)
    for k in range(6):
        graphs[f"grafted random {k}"] = _grafted(_random_multigraph(rng), rng, rng.randint(1, 6))
    multi_prime_negative = 0
    for name, g in graphs.items():
        charpoly_primes.clear()
        zr = ihara_bass_reciprocal(g)
        coeffs = zr.det_coeffs
        assert type(coeffs) is tuple and all(type(c) is int for c in coeffs), name
        assert list(coeffs) == reference_det_coeffs(g), name
        _check_bass_result(g, list(coeffs), charpoly_primes)
        if len(charpoly_primes[0][1]) >= 2 and min(coeffs) < 0:
            multi_prime_negative += 1
        core = two_core(g)
        if core.n == 1 and core.degree(0) == 0:
            assert coeffs == (1, 0, -1), name  # a tree: Z(u) = 1
        assert ihara_bass_reciprocal(core) == zr, name
    assert multi_prime_negative >= 1


def test_bass_route_x135_full_polynomial(x135, charpoly_primes):
    """The whole degree-240 polynomial against the power-sum series."""
    g, _, cert, _ = x135
    coeffs = list(ihara_bass_reciprocal(g).det_coeffs)
    [(size, primes)] = charpoly_primes
    assert (size, len(primes)) == (240, 18)  # X^{13,5} has no leaf, so nothing is pruned
    _check_bass_result(g, coeffs, charpoly_primes)
    want = det_series(SuiteContext(g), 2 * g.n).coeffs
    assert coeffs + [0] * (2 * g.n + 1 - len(coeffs)) == list(want)


def test_bass_route_checks_its_result(corpus, monkeypatch, charpoly_primes):
    # one residue of the first or the last prime, on graphs that take one prime (K4) and two (CYCLE(30))
    real = nbt._charpoly_mod
    layer = 0

    def corrupted(bass, primes):
        residues = real(bass, primes)
        residues[layer, residues.shape[1] // 2] += 1
        residues[layer] %= primes[layer]
        return residues

    monkeypatch.setattr(nbt, "_charpoly_mod", corrupted)
    for layer in (0, -1):
        for g in (corpus["K4"][0], named_graph("CYCLE(30)")):
            with pytest.raises(ArithmeticError):
                ihara_bass_reciprocal(g)
    assert [len(primes) for _, primes in charpoly_primes] == [1, 2, 1, 2]


def test_bass_cost_guard_fails_fast():
    g = named_graph("CYCLE(1024)")
    start = time.perf_counter()
    with pytest.raises(DepthExceeded):
        ihara_bass_reciprocal(g)
    assert time.perf_counter() - start < 0.5


def test_prime_table_fits_int64_dot_products():
    primes = [nbt._prime(i) for i in range(64)]
    assert primes == sorted(set(primes), reverse=True)
    assert all(p < 2**26 and is_prime(p) for p in primes)
    assert all(2047 * (p - 1) ** 2 < 2**63 for p in primes)


def test_import_leaves_prime_table_empty():
    src = os.path.dirname(os.path.dirname(iharalab.__file__))
    code = "import iharalab, iharalab.nbt as z; assert z._PRIMES == [], z._PRIMES"
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_petersen_zeta_coefficients(corpus):
    g, cert = corpus["PETERSEN"]
    counts = n_reduced_range(g, cert, 8)
    zs = zeta_series_from_counts(counts)
    assert zs.coeffs[0] == 1
    assert zs.coeffs[5] == 24  # 120/5 prime pentagon classes
    assert zs.coeffs[6] == 20  # 120/6 hexagon classes
    assert all(zs.coeffs[k] == 0 for k in (1, 2, 3, 4))


def test_zeta_log_derivative_recovers_counts(corpus, contexts):
    g, cert = corpus["CUBE"]
    counts = n_reduced_range(g, cert, 10)
    recip = reciprocal_series(contexts["CUBE"], 10)
    logder = (-recip.derivative()) * recip.inverse()
    for m in range(1, 11):
        assert logder.coeffs[m - 1] == counts[m - 1], m


def test_eisenstein_values():
    assert eisenstein_C(5, 13, 2) == Fraction(31, 546)
    assert eisenstein_C(5, 13, 1) == 0  # odd power, legendre -1
    assert eisenstein_C(13, 5, 0) == Fraction(4, 5 * 24)
    assert eisenstein_C(13, 5, 2) == Fraction(1, 30) * Fraction(13**3 - 1, 12)


def test_eisenstein_rejects():
    with pytest.raises(InvalidPrime):
        eisenstein_C(4, 13, 1)
    with pytest.raises(InvalidPrime):
        eisenstein_C(13, 13, 1)
    with pytest.raises(ValueError):
        eisenstein_C(5, 13, -1)


def test_cusp_split_reconstructs_theta(x135):
    g, params, cert, _ = x135
    from iharalab.nbt import t_tilde_traces

    traces = t_tilde_traces(g, cert, 6)
    cusps = cusp_coefficients_range(g, params, 6)
    for m in range(7):
        theta_coeff = Fraction(2 * traces[m], g.n)
        assert cusps[m] + eisenstein_C(13, 5, m) == theta_coeff


def test_cusp_a1_value(x135):
    # a(1) = 2 l / n with l the tempered count: 2 * 118/120
    g, params, _, sd = x135
    a1 = cusp_coefficients_range(g, params, 0)[0]
    l = sum(c.mult for c in sd.principal())
    assert a1 == Fraction(2 * l, g.n)


def test_cusp_odd_vanishes_bipartite(x135):
    g, params, _, _ = x135
    cusps = cusp_coefficients_range(g, params, 9)
    for m in (1, 3, 5, 7, 9):
        assert cusps[m] == 0


def eisenstein_reference(p: int, q: int, m: int) -> Fraction:
    """C(p^m) = ((1 + (p/q)^m)/2) (4/(q(q^2-1))) ((p^{m+1}-1)/(p-1)), factor by factor."""
    leg = legendre_symbol(p, q)
    first = Fraction(1 + leg**m, 2)
    return first * Fraction(4, q * (q * q - 1)) * Fraction(p ** (m + 1) - 1, p - 1)


def cusp_reference(ctx, m_max: int) -> tuple[list, list]:
    """([a(p^m)], [a(p^m)/(2 p^{m/2})]) for m <= m_max, one term at a time in Q(sqrt p).

    a(p^m) = 2 Tr T~_m / n - C(p^m), and each term is SqrtExt.of(p, a) /
    (2 p^{m/2}).
    """
    p, q, n = ctx.params.p, ctx.params.q, ctx.g.n
    traces = nbt.t_tilde_traces(ctx.g, None, m_max, sweep=ctx.sweep)
    amounts = [Fraction(2 * traces[m], n) - eisenstein_C(p, q, m) for m in range(m_max + 1)]
    terms = [SqrtExt.of(p, a) / (2 * half_power(p, m)) for m, a in enumerate(amounts)]
    return amounts, terms


@pytest.fixture(scope="module")
def x295_ctx():
    """X^{29,5}: n = 60, not bipartite, (29/5) = +1, so odd-m terms carry sqrt(29)."""
    return SuiteContext(*build_lps(29, 5))


@pytest.mark.parametrize("p, q", [(5, 13), (13, 5), (29, 5), (17, 13)])
def test_eisenstein_matches_the_factored_formula(p, q):
    assert [eisenstein_C(p, q, m) for m in range(201)] == [
        eisenstein_reference(p, q, m) for m in range(201)
    ]


@pytest.mark.parametrize("which, order", [("x135_ctx", 200), ("x295_ctx", 200), ("x295_ctx", 0)])
def test_cusp_terms_match_the_per_term_reference(request, which, order):
    """One Fraction per term on every graph and at every order: the rational slot at even m, sqrt(p)'s at odd m."""
    ctx = request.getfixturevalue(which)
    want_amounts, want_terms = cusp_reference(ctx, order)
    amounts = cusp_coefficients_range(ctx.g, ctx.params, order, sweep=ctx.sweep)
    terms = zeta.normalized_cusp_terms(ctx.g, ctx.params, order, sweep=ctx.sweep)
    assert amounts == want_amounts
    assert all(type(a) is Fraction for a in amounts)
    assert all(type(t) is Fraction for t in terms)
    assert graded_values(terms, ctx.params.p) == want_terms
    if order:
        # the odd terms carry sqrt(p) exactly when the graph is not bipartite
        assert any(terms[1::2]) != ctx.cert.bipartite


def test_cusp_terms_take_no_per_term_field_arithmetic(x135_ctx, x295_ctx, monkeypatch):
    """201 terms check the primes at most once and are Fractions whose values are the field reference's."""
    eisenstein = _count_calls_everywhere(monkeypatch, zeta, "eisenstein_C")
    for ctx in (x135_ctx, x295_ctx):
        ctx.sweep
        eisenstein.clear()
        terms = zeta.normalized_cusp_terms(ctx.g, ctx.params, 200, sweep=ctx.sweep)
        assert len(terms) == 201
        assert len(eisenstein) <= 1
        assert all(type(t) is Fraction for t in terms)
        assert graded_values(terms, ctx.params.p) == cusp_reference(ctx, 200)[1]


def test_theta_identity_x135(x135):
    """2 sum_r f_{m-2r} equals the lattice point count of the quadratic form."""
    g, _, cert, _ = x135
    vals = f_values(g, cert, 5, v=0)
    for m in range(1, 6):
        total = 0
        j = m
        while j >= 0:
            total += vals[j]
            j -= 2
        assert 2 * total == lattice_count(5, 13**m), m


def test_phi_routes_agree_exactly(x135_ctx):
    spectral, closed = phi_series(x135_ctx, 10)
    assert spectral.coeffs == closed.coeffs


def test_phi_constant_term(x135, x135_ctx):
    g, params, cert, sd = x135
    spectral, _ = phi_series(x135_ctx, 4)
    l = sum(c.mult for c in sd.principal())
    assert spectral.coeffs[0] == Fraction(l, g.n)


def test_phi_odd_coefficients_vanish(x135_ctx):
    spectral, closed = phi_series(x135_ctx, 9)
    for m in (1, 3, 5, 7, 9):
        assert spectral.coeffs[m] == 0
        assert closed.coeffs[m] == 0


def determinant_counts(ctx, order: int) -> list:
    """Reference N_1..N_order: Z'/Z = -R'/R = sum N_m u^{m-1} for R = reciprocal_series."""
    recip = reciprocal_series(ctx, order)
    logder = (-recip.derivative()) * recip.inverse()
    return list(logder.coeffs[:order])


@pytest.mark.parametrize("p, q", [(13, 5), (17, 5), (29, 5), (17, 13)])
def test_phi_closed_form_matches_the_determinant_counts(p, q, monkeypatch):
    ctx = SuiteContext(*build_lps(p, q))
    g, cert = ctx.g, ctx.cert
    want = determinant_counts(ctx, 8)
    assert want == n_reduced_range(g, cert, 8)
    spectral, closed = phi_series(ctx, 8)
    # the closed form's N_m, as SuiteContext.remainders reads them
    monkeypatch.setattr(nbt, "n_reduced_range", lambda *args, **kwargs: want)
    ref_spectral, ref_closed = phi_series(ctx, 8)
    assert closed.coeffs == ref_closed.coeffs
    assert spectral.coeffs == ref_spectral.coeffs
    assert all(type(c) is Fraction for c in spectral.coeffs + closed.coeffs)


PHI_LADDER = [(13, 5), (29, 5), (17, 13), (5, 13)]


@pytest.fixture(scope="module")
def phi_ladder():
    """(p, q) -> SuiteContext on X^{p,q}, bipartite and not."""
    return {pq: SuiteContext(*build_lps(*pq)) for pq in PHI_LADDER}


def phi_point_reference(ctx, t: Fraction) -> SqrtExt:
    """phi_series' closed form at t, exact in Q(sqrt p) for the float cluster values of ctx.sd:

    (1/(n(1-t^2))) {l + u (Z'/Z)(u) - (p-1) n t^2/(p - t^2) + t F(t)}, u = t/sqrt p,
    with Z'/Z = 2u(r-1)/(1-u^2) + sum mult (lambda - 2pu)/(1 - lambda u + p u^2)
    over every cluster, trivial ones included.
    """
    p, n = ctx.params.p, ctx.g.n
    root = half_power(p, 1)
    u = root * t / p
    betti_r = ctx.g.edge_count - n + 1
    logder = 2 * u * (betti_r - 1) / (1 - u * u)
    for cl in ctx.sd.clusters:
        lam = Fraction(cl.value)
        logder += cl.mult * (lam - 2 * p * u) / (1 - lam * u + p * u * u)
    if ctx.cert.bipartite:
        f = -2 * p * t / (1 - p * t * t) - Fraction(2, p) * t / (1 - t * t / p)
    else:
        f = -root / (1 - root * t) - half_power(p, -1) / (1 - root * t / p)
    tempered = sum(cl.mult for cl in ctx.sd.principal())
    braces = tempered + u * logder - (p - 1) * n * t * t / (p - t * t) + t * f
    return braces / (n * (1 - t * t))


@pytest.mark.parametrize("p, q", PHI_LADDER)
def test_parity_slots_hold_the_field_reference_values(phi_ladder, p, q):
    """Cusp terms to m = 200 and both sides of phi to t^60, against the SqrtExt reference."""
    ctx = phi_ladder[p, q]
    terms = zeta.normalized_cusp_terms(ctx.g, ctx.params, 200, sweep=ctx.sweep)
    assert graded_values(terms, p) == cusp_reference(ctx, 200)[1]
    spectral, closed = phi_series(ctx, 60)
    want_spectral, want_closed = sqrt_ext_sums.phi_series(ctx, 60)
    assert graded_values(spectral.coeffs, p) == want_spectral
    assert graded_values(closed.coeffs, p) == want_closed


@pytest.mark.parametrize("p, q", [(29, 5), (17, 13)])
def test_phi_check_diffs_match_the_field_reference(phi_ladder, p, q):
    """check_phi's coefficient_diffs on the non-bipartite graphs, float for float."""
    ctx = phi_ladder[p, q]
    assert not ctx.cert.bipartite
    diffs = suite.check_phi(ctx)["detail"]["coefficient_diffs"]
    assert diffs == sqrt_ext_sums.phi_coefficient_diffs(ctx, 8)


@pytest.mark.parametrize("p, q", PHI_LADDER)
def test_phi_point_keeps_its_relative_accuracy_near_the_pole(phi_ladder, p, q):
    ctx = phi_ladder[p, q]
    t = 1.0 - 1e-4
    want = float(phi_point_reference(ctx, Fraction(t)))
    assert abs(phi_closed_point(ctx, t) - want) <= 1e-14 * abs(want)


def test_phi_point_reads_clusters_outside_the_tempered_band(x135_ctx):
    """Flag the tempered cluster nearest 0 as not principal: its term moves to the other branch."""
    ctx = SuiteContext(x135_ctx.g, x135_ctx.params)
    sd = x135_ctx.sd
    low = min(sd.principal(), key=lambda cl: abs(cl.value))
    clusters = tuple(
        dataclasses.replace(cl, principal=False) if cl is low else cl for cl in sd.clusters
    )
    ctx._sd = dataclasses.replace(sd, clusters=clusters)
    for t in (0.5, 1.0 - 1e-4):
        want = float(phi_point_reference(ctx, Fraction(t)))
        assert abs(phi_closed_point(ctx, t) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("p, q", PHI_LADDER)
def test_phi_point_sums_the_closed_series(phi_ladder, p, q):
    ctx = phi_ladder[p, q]
    _, closed = phi_series(ctx, 60)
    t = 0.5
    total = sum(zeta.graded_float(c, m, p) * t**m for m, c in enumerate(closed.coeffs))
    assert abs(total - phi_closed_point(ctx, t)) <= 1e-13 * abs(total)


def test_zeta_series_mode_exact(contexts):
    s = reciprocal_series(contexts["K4"], 6)
    assert all(isinstance(c, (int, Fraction)) for c in s.coeffs)
