"""Cesaro limits, averaged counts, trace formula, positivity sequence.

cesaro_matrix_average below is the reference for the scalar Cesaro
route: it sums the k-th powers of the spectral matrices explicitly.
cesaro_reference_by_cluster is the reference for cesaro's
reference_constant: it sums the partial-sum bounds one cluster and one
frequency at a time.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iharalab import limits, zeta
from iharalab.chebyshev import central_binomial_weight, cos_power_as_cosines
from iharalab.errors import AngleConditionViolated, DegreeTooSmall, NotRamanujan
from iharalab.graphs import build_graph, certify_regular
from iharalab.limits import (
    StfTestFunction,
    angle_condition,
    average_cusp_reference,
    average_cusp_sweep,
    average_nm_reference,
    average_nm_sweep,
    cesaro,
    cos_partial_sum_bound,
    cusp_term_bound,
    huang_range,
    normalized_cusp_terms,
    require_ramanujan,
    shifted_cos_partial_sum_bound,
    stf_verify,
)
from iharalab.lps import build_lps
from iharalab.nbt import n_reduced_range
from iharalab.spectral import eigendecompose
from iharalab.suite import SuiteContext
from iharalab.zeta import cusp_coefficients_range, phi_series
import sqrt_ext_sums
from sqrt_ext import SqrtExt, graded_values, half_power
from sqrt_ext_sums import identity_coefficient


def _prism(k):
    """Circular ladder on 2k vertices: two k-cycles joined by rungs; 3-regular."""
    edges = []
    for i in range(k):
        edges.append((i, (i + 1) % k))
        edges.append((k + i, k + (i + 1) % k))
        edges.append((i, k + i))
    return build_graph(2 * k, edges)


@pytest.fixture(scope="module")
def prism16():
    g = _prism(16)
    cert = certify_regular(g)
    sd = eigendecompose(g, cert)
    return g, cert, sd


# ---------------------------------------------------------------------------
# reference routes


def cesaro_matrix_average(sd, k: int, N: int, variant: str = "a") -> np.ndarray:
    """(1/N) sum_{m<=N} a_m^k (or s_m^k) as an explicit matrix.

    Slow reference route used to validate the scalar shortcut in
    cesaro; k-th powers of the spectral matrices reduce to k-th
    powers of scalars because the projectors are orthogonal idempotents.
    """
    out = np.zeros((sd.n, sd.n))
    for m in range(1, N + 1):
        acc = np.zeros((sd.n, sd.n))
        for cl in sd.principal():
            th = cl.theta.real
            if variant == "a":
                s = math.cos(m * th)
            else:
                s = math.sin((m + 1) * th) / math.sin(th)
            acc += (s**k) * cl.projector
        out += acc
    return out / N


def cesaro_reference_by_cluster(sd, k: int, variant: str) -> float:
    """cesaro's reference_constant, one principal cluster and one frequency of cos^k at a time.

    Each cluster's deviation is at most the sum over frequencies h > 0 of
    w_h times the partial-sum bound at h theta (the shifted bound over
    sin(theta)^k for "s"); the Frobenius norm aggregates with sqrt(mult).
    """
    total = 0.0
    for cl in sd.principal():
        th = cl.theta.real
        per = 0.0
        for h, w in cos_power_as_cosines(k):
            if h == 0:
                continue
            if variant == "a":
                per += float(w) * cos_partial_sum_bound(h * th)
            else:
                per += float(w) * shifted_cos_partial_sum_bound(h * th) / math.sin(th) ** k
        total += cl.mult * per * per
    return math.sqrt(total)




# ---------------------------------------------------------------------------
# partial-sum lemma


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=2.0 * math.pi - 0.05),
    st.integers(min_value=1, max_value=400),
)
def test_cos_partial_sum_lemma(phi, N):
    s = sum(math.cos(m * phi) for m in range(1, N + 1))
    assert abs(s) <= cos_partial_sum_bound(phi) + 1e-9


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=2.0 * math.pi - 0.05),
    st.integers(min_value=1, max_value=400),
)
def test_shifted_cos_partial_sum_lemma(phi, N):
    s = sum(math.cos((m + 1) * phi) for m in range(1, N + 1))
    assert abs(s) <= shifted_cos_partial_sum_bound(phi) + 1e-9


def test_bounds_relative_size():
    for phi in (0.3, 1.0, 2.5, 3.0):
        assert shifted_cos_partial_sum_bound(phi) == cos_partial_sum_bound(phi) + 0.5


# ---------------------------------------------------------------------------
# angle condition


def test_angle_condition_gates(spectra):
    # K3: theta = 2 pi / 3 resonates at frequency 3
    assert angle_condition(spectra["K3"], 3) is False
    assert angle_condition(spectra["K3"], 1) is True
    assert angle_condition(spectra["K3"], 2) is True
    # K33: theta = pi / 2 resonates at frequency 4
    assert angle_condition(spectra["K33"], 4) is False
    assert angle_condition(spectra["K33"], 2) is True
    assert angle_condition(spectra["K33"], 1) is True
    # Petersen: worst angle 3 pi / 4 never hits 2 pi Z below frequency 8
    for k in (1, 2, 3, 4):
        assert angle_condition(spectra["PETERSEN"], k) is True


def test_angle_condition_rejects_bad_k(spectra):
    with pytest.raises(ValueError):
        angle_condition(spectra["K4"], 0)


def test_gated_cesaro_raises(spectra):
    with pytest.raises(AngleConditionViolated):
        cesaro(spectra["K33"], 4, (10, 20), "a")
    with pytest.raises(AngleConditionViolated):
        cesaro(spectra["K3"], 3, (10, 20), "s")


def test_cesaro_reference_is_finite_off_resonance(spectra):
    # K33: theta = pi / 2 resonates at k = 4, where no finite constant exists
    for variant in ("a", "s"):
        with pytest.raises(AngleConditionViolated):
            cesaro(spectra["K33"], 4, (10, 20), variant)
        assert math.isfinite(cesaro(spectra["K33"], 2, (10, 20), variant).reference_constant)


def test_cesaro_refuses_an_unknown_variant(spectra):
    with pytest.raises(ValueError, match="variant"):
        cesaro(spectra["K4"], 2, (10, 20), "b")


# ---------------------------------------------------------------------------
# Cesaro averages


def test_cesaro_band_over_corpus(corpus, spectra):
    for name in corpus:
        sd = spectra[name]
        for k in (1, 2, 3, 4):
            if not angle_condition(sd, k):
                continue
            for variant in ("a", "s"):
                report = cesaro(sd, k, (100, 200, 400), variant)
                band = 4 * report.reference_constant
                assert max(report.scaled_deviations) <= band, (name, k, variant)
                assert report.limit_constant == central_binomial_weight(k)


def test_cesaro_matrix_route_matches_scalar(spectra, x135):
    for name, sd in (("PETERSEN", spectra["PETERSEN"]), ("X{13,5}", x135[3])):  # both dense
        for k, variant in ((1, "a"), (2, "a"), (2, "s"), (3, "s")):
            report = cesaro(sd, k, (40,), variant)
            ref = cesaro_reference_by_cluster(sd, k, variant)
            assert abs(report.reference_constant - ref) <= 1e-12 * ref, (name, k, variant)
            mat = cesaro_matrix_average(sd, k, 40, variant)
            weight = float(central_binomial_weight(k))
            target = np.zeros((sd.n, sd.n))
            for cl in sd.principal():
                if variant == "a":
                    target += weight * cl.projector
                else:
                    target += weight / math.sin(cl.theta.real) ** k * cl.projector
            dev = float(np.linalg.norm(mat - target))
            assert abs(dev - report.deviations[0]) < 1e-9, (name, k, variant)


def test_cesaro_report_fields(spectra):
    report = cesaro(spectra["K4"], 2, (50, 100, 200), "a")
    assert report.N_values == (50, 100, 200)
    assert len(report.deviations) == 3
    assert report.scaled_deviations == tuple(
        d * N for d, N in zip(report.deviations, report.N_values)
    )
    assert report.reference_constant > 0.0


def test_cesaro_bad_horizons(spectra):
    with pytest.raises(ValueError):
        cesaro(spectra["K4"], 2, (100, 50), "a")
    with pytest.raises(ValueError):
        cesaro(spectra["K4"], 2, (), "a")


# ---------------------------------------------------------------------------
# Ramanujan detection


def test_corpus_is_ramanujan(spectra):
    for name, sd in spectra.items():
        require_ramanujan(sd)


def test_prism_is_not_ramanujan(prism16):
    g, cert, sd = prism16
    # 2 cos(pi/8) + 1 = 2.847... exceeds 2 sqrt(2) = 2.828...
    assert max(abs(v) for v in (c.value for c in sd.clusters) if abs(abs(v) - 3.0) > 1e-9) > 2.0 * math.sqrt(2)
    with pytest.raises(NotRamanujan):
        require_ramanujan(sd)


# ---------------------------------------------------------------------------
# averaged N_m


def test_average_nm_band(contexts):
    for name in ("K33", "PETERSEN", "CUBE", "K4"):
        for report in average_nm_sweep(contexts[name], (20, 40, 80)):
            assert abs(report.scaled_residual) <= 4.0 * report.reference_constant, (
                name,
                report.N,
            )


def test_average_nm_exact_k33(corpus, contexts):
    g, cert = corpus["K33"]
    report = average_nm_sweep(contexts["K33"], [10])[0]
    # bipartite main term: (1/N) 2 q^{N//2+1}/(q-1), no eigenvalue at 2 sqrt 2
    assert report.main_terms == 2.0 * 2 ** (10 // 2 + 1) / 1 / 10
    counts = n_reduced_range(g, cert, 10)
    lhs = Fraction(0)
    for m in range(2, 11, 2):
        lhs += Fraction(counts[m - 1], 2 ** (m // 2))
    assert all(counts[m - 1] == 0 for m in range(1, 11, 2))
    assert report.lhs == float(lhs / 10)


def test_average_nm_rejects_small_n(contexts):
    with pytest.raises(ValueError):
        average_nm_sweep(contexts["K33"], [1])[0]


def test_average_nm_rejects_degree_two(corpus, spectra, contexts):
    g, cert = corpus["K3"]
    with pytest.raises(DegreeTooSmall):
        average_nm_sweep(contexts["K3"], [10])[0]
    with pytest.raises(DegreeTooSmall):
        average_nm_reference(spectra["K3"], cert)


def test_average_nm_rejects_non_ramanujan(prism16):
    with pytest.raises(NotRamanujan):
        average_nm_sweep(SuiteContext(prism16[0]), [10])[0]


def test_average_nm_sweep_shares_reference(contexts):
    reports = average_nm_sweep(contexts["PETERSEN"], (10, 20, 40))
    assert len(reports) == 3
    refs = {r.reference_constant for r in reports}
    assert len(refs) == 1


def test_average_nm_sweep_reads_each_horizon_off_one_running_sum(corpus, contexts):
    g, cert = corpus["PETERSEN"]
    horizons = (2, 3, 10, 21, 40)
    reports = average_nm_sweep(contexts["PETERSEN"], horizons)
    counts = n_reduced_range(g, cert, 40)
    for report, N in zip(reports, horizons):
        total = SqrtExt.of(2, 0)
        for m in range(1, N + 1):
            total = total + counts[m - 1] * half_power(2, -m)
        assert report == average_nm_sweep(contexts["PETERSEN"], [N])[0]
        assert (report.N, report.lhs) == (N, float(total / N))
    with pytest.raises(ValueError, match="at least 2"):
        average_nm_sweep(contexts["PETERSEN"], (1, 10))


# ---------------------------------------------------------------------------
# averaged cusp coefficients


def test_normalized_terms_match_phi(x135, x135_ctx):
    g, params, _, _ = x135
    spectral, _ = phi_series(x135_ctx, 8)
    assert normalized_cusp_terms(g, params, 8) == list(spectral.coeffs)


def test_normalize_cusp_is_a_over_two_p_to_the_half_m():
    amounts = [Fraction(59, 30), Fraction(-3, 7), 5, 0, Fraction(1, 11), -4]
    want = [SqrtExt.of(13, a) / (2 * half_power(13, m)) for m, a in enumerate(amounts)]
    got = zeta.normalize_cusp(amounts, 13)
    assert all(type(x) is Fraction for x in got)
    assert graded_values(got, 13) == want
    even = [0 if m % 2 else a for m, a in enumerate(amounts)]
    got = zeta.normalize_cusp(even, 13)
    assert all(type(x) is Fraction for x in got)
    assert got == [Fraction(a) / (2 * 13 ** (m // 2)) for m, a in enumerate(even)]


def test_normalized_terms_resolve_from_limits():
    assert limits.normalized_cusp_terms is zeta.normalized_cusp_terms


def test_average_cusp_degenerate_horizon(x135_ctx):
    (row,) = average_cusp_sweep(x135_ctx, [1])
    assert row["average"] == 0.0  # a(13) vanishes on a bipartite graph
    assert row["scaled_average"] == 0.0
    assert row["reference_constant"] > 0.0


def test_average_cusp_band(x135_ctx):
    for row in average_cusp_sweep(x135_ctx, (50, 100, 200)):
        assert row["scaled_average"] <= 4.0 * row["reference_constant"], row["N"]
        assert row["max_term"] <= cusp_term_bound(x135_ctx.sd) + 1e-12


def test_average_cusp_matches_hand_sum(x135, x135_ctx):
    g, params, _, _ = x135
    terms = normalized_cusp_terms(g, params, 6)
    (row,) = average_cusp_sweep(x135_ctx, [6])
    assert row["average"] == float(sum(terms[1:7], Fraction(0))) / 6


def per_horizon_rows(terms, sd, horizons):
    """Reference: each horizon's average and report formed on its own, term list sliced to N."""
    rows = []
    for N in horizons:
        average = float(sum(terms[1 : N + 1], Fraction(0))) / N
        rows.append(
            {
                "N": N,
                "average": average,
                "scaled_average": abs(average) * N,
                "reference_constant": average_cusp_reference(sd),
                "term_bound": cusp_term_bound(sd),
                "max_term": max(abs(float(t)) for t in terms[1 : N + 1]),
            }
        )
    return rows


@pytest.mark.parametrize("p, q", [(13, 5), (29, 5)])
def test_average_cusp_sweep_matches_per_horizon_rows(p, q):
    ctx = SuiteContext(*build_lps(p, q))
    horizons = (1, 7, 10, 20, 50, 100, 200)
    terms = graded_values(normalized_cusp_terms(ctx.g, ctx.params, 200), p)
    want = per_horizon_rows(terms, ctx.sd, horizons)
    assert average_cusp_sweep(ctx, horizons) == want


@pytest.mark.parametrize("horizons", [(200, 50), (50, 50), (0, 5), (-5, 5), ()])
def test_average_cusp_sweep_refuses_bad_horizons(x135_ctx, horizons):
    """The cesaro and average-nm sweeps' rule: a strictly increasing list of positive ints."""
    with pytest.raises(ValueError, match="strictly increasing"):
        average_cusp_sweep(x135_ctx, horizons)


def test_normalized_terms_exact_on_non_bipartite():
    # X^{29,5} is non-bipartite (n = 60): odd-m terms carry sqrt(29)
    g, params = build_lps(29, 5)
    cert = certify_regular(g)
    assert not cert.bipartite
    terms = graded_values(normalized_cusp_terms(g, params, 50), 29)
    assert not terms[1].is_rational()
    amounts = cusp_coefficients_range(g, params, 50)
    assert all(t * 2 * half_power(29, m) == a for m, (t, a) in enumerate(zip(terms, amounts)))
    ctx = SuiteContext(g, params)
    (row,) = average_cusp_sweep(ctx, [50])
    assert row["average"] == float(sum(terms[1:51], Fraction(0))) / 50
    assert row["scaled_average"] <= 4.0 * row["reference_constant"]
    assert row["max_term"] <= cusp_term_bound(ctx.sd) + 1e-12


# ---------------------------------------------------------------------------
# trace formula


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 8, 13, 29])
def test_identity_coefficients_match_the_plancherel_integral(q):
    """I_m against (2q(q+1)/pi) Integral_0^pi sin^2 t cos(mt) / ((q+1)^2 - 4q cos^2 t) dt."""
    integrate = pytest.importorskip("scipy.integrate")
    scale = 2 * q * (q + 1) / math.pi
    for m in range(25):
        # (q+1)^2 - 4q cos^2 t = (q-1)^2 + 4q sin^2 t, which keeps q = 1 stable near t = 0
        value, _ = integrate.quad(
            lambda t: scale * math.sin(t) ** 2 * math.cos(m * t) / ((q - 1) ** 2 + 4 * q * math.sin(t) ** 2),
            0.0, math.pi, epsabs=1e-14, limit=200,
        )
        assert abs(value - float(identity_coefficient(q, m))) < 1e-13, (q, m)


def test_identity_coefficients_are_rational():
    assert identity_coefficient(5, 0) == 1
    assert all(identity_coefficient(5, m) == 0 for m in (1, 3, 11))
    assert identity_coefficient(5, 4) == Fraction(-4, 50)
    assert identity_coefficient(1, 6) == 0


def test_stf_constant_function(contexts):
    for name in ("K4", "PETERSEN"):
        h = StfTestFunction(hhat0=1.0)
        lhs, geometric, disc = stf_verify(contexts[name], h)
        assert lhs == geometric == float(contexts[name].g.n)
        assert disc == 0.0, name


def test_stf_single_frequencies(contexts):
    for m in range(1, 7):
        lhs, geometric, disc = stf_verify(contexts["K4"], StfTestFunction.single(m))
        assert disc < 1e-8, m


def test_stf_even_frequency_anchor(contexts):
    # k4: N_2 = 0, so the geometric side is the identity term n 2 I_2 = -n (q-1)/q
    lhs, geometric, disc = stf_verify(contexts["K4"], StfTestFunction.single(2))
    assert geometric == -2.0
    assert abs(lhs - (-2.0)) < 1e-12


def test_stf_mixed_function(contexts):
    h = StfTestFunction(hhat0=0.7, support=((1, 0.3), (4, -0.2)))
    lhs, geometric, disc = stf_verify(contexts["PETERSEN"], h)
    assert disc < 1e-8


@pytest.mark.parametrize("p", [17, 29])
def test_stf_is_scale_free_on_lps(p):
    """X^{17,5} and X^{29,5} failed at 1.0e-7 and 1.2e-7 when the two sides were subtracted in floats."""
    ctx = SuiteContext(build_lps(p, 5)[0])  # no parameters: dense spectrum, full route
    for m0 in range(13):
        h = StfTestFunction.single(m0) if m0 else StfTestFunction(hhat0=1.0)
        lhs, geometric, disc = stf_verify(ctx, h)
        assert disc < 1e-11, (m0, disc)
        # the reported float sides still agree to their own round-off
        assert math.isclose(lhs, geometric, rel_tol=1e-12, abs_tol=1e-9), m0


@pytest.mark.parametrize("certified", [True, False])
def test_stf_discrepancy_is_the_shared_nontrivial_comparison(certified, x135_ctx, contexts):
    """Each single-frequency discrepancy is |S_m - R_m q^{-m/2}|, from the helper chebyshev reads too."""
    ctx = x135_ctx if certified else contexts["PETERSEN"]
    assert (ctx.row_vertex is not None) == certified
    q = ctx.cert.q
    sums, _ = ctx.nontrivial_chebyshev_sums(12)
    remainders = ctx.remainders(12)
    for m in range(1, 13):
        _, _, disc = stf_verify(ctx, StfTestFunction.single(m))
        assert disc == abs(sums[m] - float(remainders[m] * half_power(q, -m))), m


def test_stf_test_functions_refuse_a_frequency_below_one():
    with pytest.raises(ValueError, match="at least 1"):
        StfTestFunction(support=((0, 1.0),))
    with pytest.raises(ValueError, match="at least 1"):
        StfTestFunction(hhat0=0.5, support=((3, 1.0), (-2, 0.5)))


def test_stf_function_evaluations():
    h = StfTestFunction(hhat0=0.5, support=((2, 1.0), (5, -0.25)))
    assert h.max_frequency() == 5
    for t in (0.1, 0.9, 2.2, 3.0):
        want = 0.5 + 2.0 * math.cos(2 * t) - 0.5 * math.cos(5 * t)
        assert abs(h.eval_x(math.cos(t)) - want) < 1e-12
    assert StfTestFunction.single(0, 2.0).hhat0 == 2.0
    assert StfTestFunction.single(3).support == ((3, 1.0),)


# ---------------------------------------------------------------------------
# positivity sequence


def test_huang_anchor_k4(contexts):
    h1, h2 = huang_range(contexts["K4"], 2)
    assert abs(h1 - (6.0 + 3.0 / math.sqrt(2.0))) < 1e-12
    # m = 2: 2(n-1) + n(q-1)/q + (q + 1/q) - N_2/q with N_2 = 0
    assert h2 == 6.0 + 4.0 * 0.5 + 2.5


def test_huang_nonnegative_even_on_corpus(contexts):
    for name, ctx in contexts.items():
        vals = huang_range(ctx, 30)
        for m in range(2, 31, 2):
            assert vals[m - 1] >= -1e-9, (name, m)


def test_huang_negative_for_non_ramanujan(prism16):
    vals = huang_range(SuiteContext(prism16[0]), 60)
    worst = min(vals[m - 1] for m in range(2, 61, 2))
    assert worst < -1.0


def test_huang_rejects_bad_m(contexts):
    with pytest.raises(ValueError):
        huang_range(contexts["K4"], 0)


# ---------------------------------------------------------------------------
# the integer-pair sums against their SqrtExt references


@pytest.fixture(scope="module")
def reference_contexts(contexts):
    """K4 and PETERSEN (dense spectrum, full route) and four certified X^{p,q}."""
    out = {name: contexts[name] for name in ("K4", "PETERSEN")}
    for p, q in ((13, 5), (17, 5), (17, 13), (29, 5)):
        out[f"X^{{{p},{q}}}"] = SuiteContext(*build_lps(p, q))
    return out


REFERENCE_TEST_FUNCTIONS = (
    StfTestFunction(hhat0=1.0),
    StfTestFunction(hhat0=-2.5, support=((1, 0.1),)),
    StfTestFunction(support=((2, 0.1), (3, -2.5), (7, 1.0))),
    StfTestFunction(hhat0=0.7, support=((1, 0.3), (4, -0.2), (5, 0.1), (12, -2.5))),
    StfTestFunction(hhat0=0.1, support=((6, 1e-3), (9, 3.0), (11, 0.1), (12, 0.1))),
)


@pytest.mark.parametrize("name", ["K4", "PETERSEN", "X^{13,5}", "X^{17,5}", "X^{17,13}", "X^{29,5}"])
def test_integer_pair_sums_equal_the_sqrt_ext_references(reference_contexts, name):
    """Every float the four sums report is the reference's, bit for bit, at odd and even horizons."""
    ctx = reference_contexts[name]
    horizons = (2, 3, 7, 10, 21, 40, 81)
    assert average_nm_sweep(ctx, horizons) == sqrt_ext_sums.average_nm_sweep(ctx, horizons)
    assert huang_range(ctx, 31) == sqrt_ext_sums.huang_range(ctx, 31)
    for h in REFERENCE_TEST_FUNCTIONS:
        assert stf_verify(ctx, h) == sqrt_ext_sums.stf_verify(ctx, h), h
    for m0 in range(13):
        h = StfTestFunction.single(m0)
        assert stf_verify(ctx, h) == sqrt_ext_sums.stf_verify(ctx, h), m0
    if ctx.params is not None:
        horizons = (1, 2, 5, 8, 51, 100, 201)
        assert average_cusp_sweep(ctx, horizons) == sqrt_ext_sums.average_cusp_sweep(ctx, horizons)
