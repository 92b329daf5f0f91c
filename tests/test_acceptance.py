"""Acceptance gate: twelve frozen criteria, one printed verdict line each.

Each test prints "CRITERION nn [label]: PASS/FAIL (detail)" and asserts
both the mathematical claim and its runtime budget.  Tolerances are
pinned constants, written down before the implementations ran.
"""

import math
import time
from fractions import Fraction

import numpy as np
from b_matrices import a_matrix_range, chebyshev_b_range
from lattice_points import lattice_count
from reduced_walks_bf import reduced_cycle_counts, reduced_walk_matrices

from iharalab.chebyshev import central_binomial_weight
from iharalab.graphs import build_graph
from iharalab.limits import (
    StfTestFunction,
    angle_condition,
    average_cusp_reference,
    average_cusp_sweep,
    average_nm_sweep,
    cesaro,
    huang_range,
    stf_verify,
)
from iharalab.lps import build_lps, quaternion_generators
from iharalab.nbt import (
    ExactMatrixSeq,
    f_values,
    m_matrix_chebyshev,
    n_reduced_range,
)
from iharalab.suite import SuiteContext
from iharalab.zeta import (
    cusp_coefficients_range,
    eisenstein_C,
    phi_closed_point,
    phi_series,
    reciprocal_series,
    verify_ihara_bass,
)

CORPUS_NAMES = ("K3", "K4", "K33", "PETERSEN", "CUBE")


def _report(num: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"CRITERION {num:02d} [{label}]: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded budget: {elapsed:.1f}s > {budget}s"


def test_criterion_01_oracle_equality(corpus):
    start = time.perf_counter()
    worst = 0
    anchors = {}
    for name in CORPUS_NAMES:
        g, cert = corpus[name]
        counts_bf = reduced_cycle_counts(g, 10)
        counts_rec = n_reduced_range(g, cert, 10, method="full")
        assert counts_bf == counts_rec, name
        paths_bf = reduced_walk_matrices(g, 10)
        paths_rec = a_matrix_range(g, cert, 10)
        for m in range(11):
            for i in range(g.n):
                for j in range(g.n):
                    worst = max(worst, abs(paths_bf[m][i][j] - paths_rec[m][i][j]))
        anchors[name] = counts_bf
    ok = (
        worst == 0
        and anchors["PETERSEN"][4] == 120
        and anchors["PETERSEN"][5] == 120
        and anchors["K4"][2] == 24
        and anchors["K3"][2] == 6
    )
    _report(
        1,
        "oracle equality",
        ok,
        f"max |difference| = {worst}, anchors N_5(PETERSEN)={anchors['PETERSEN'][4]}, "
        f"N_3(K4)={anchors['K4'][2]}, N_3(K3)={anchors['K3'][2]}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_02_chebyshev_identity(corpus, spectra):
    start = time.perf_counter()
    tol = 1e-6
    worst = 0.0
    for name in CORPUS_NAMES:
        g, cert = corpus[name]
        q = cert.q
        sd = spectra[name]
        bs = chebyshev_b_range(g, cert, 30)
        seq = ExactMatrixSeq(g, cert)
        for m in range(1, 31):
            seq.advance()
            mm = seq.m_current()
            shift = (1 - (m & 1)) * (q - 1)
            diff = 0
            for i in range(g.n):
                for j in range(g.n):
                    expect = bs[m][i][j] + (shift if i == j else 0)
                    diff = max(diff, abs(mm[i][j] - expect))
            worst = max(worst, diff / q ** (m / 2.0))
            # float spectral route, feasible at these sizes
            fm = m_matrix_chebyshev(sd, m)
            exact = np.array([[float(x) for x in row] for row in mm])
            worst = max(worst, float(np.max(np.abs(exact - fm))) / q ** (m / 2.0))
    ok = worst <= tol
    _report(
        2,
        "Chebyshev form of M_m",
        ok,
        f"max scaled deviation = {worst:.3e}, tolerance {tol:.0e}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_03_ihara_bass(contexts):
    start = time.perf_counter()
    worst = 0
    for name in ("K3", "K4", "K33", "PETERSEN"):
        worst = max(worst, verify_ihara_bass(contexts[name], order=10))
    tree = build_graph(3, [(0, 1), (1, 2)])
    tree_series = reciprocal_series(SuiteContext(tree), 10).inverse()
    tree_ok = tree_series.coeffs[0] == 1 and all(c == 0 for c in tree_series.coeffs[1:])
    ok = worst == 0 and tree_ok
    _report(
        3,
        "Ihara-Bass determinant",
        ok,
        f"max series discrepancy = {worst}, tree zeta == 1: {tree_ok}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_04_entry_bound(corpus, spectra, x135):
    start = time.perf_counter()
    tol = 1e-9
    worst = 0.0
    cases = [(name, spectra[name]) for name in CORPUS_NAMES]
    cases.append(("X{13,5}", x135[3]))
    for name, sd in cases:
        principal = sd.principal()
        if not principal:
            continue
        thetas = np.array([cl.theta.real for cl in principal])
        stack = np.stack([cl.projector for cl in principal])
        for m in range(1, 201):
            am = np.tensordot(np.cos(m * thetas), stack, axes=1)
            worst = max(worst, float(np.max(np.abs(am))) - 1.0)
    ok = worst <= tol
    _report(
        4,
        "a_m entry bound",
        ok,
        f"max entry excess over 1 = {worst:.3e}, tolerance {tol:.0e}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_05_cesaro_band(spectra, x135):
    start = time.perf_counter()
    assert central_binomial_weight(2) == Fraction(1, 2)
    assert central_binomial_weight(4) == Fraction(3, 8)
    assert central_binomial_weight(1) == 0 and central_binomial_weight(3) == 0
    horizons = (100, 200, 400)
    worst_load = 0.0
    skipped = []
    cases = [(name, spectra[name]) for name in CORPUS_NAMES]
    cases.append(("X{13,5}", x135[3]))
    for name, sd in cases:
        for k in (1, 2, 3, 4):
            if not angle_condition(sd, k):
                skipped.append(f"{name} k={k}")
                continue
            for variant in ("a", "s"):
                rep = cesaro(sd, k, horizons, variant)
                load = max(rep.scaled_deviations) / (4.0 * rep.reference_constant)
                worst_load = max(worst_load, load)
    ok = worst_load <= 1.0
    _report(
        5,
        "Cesaro factor-4 band",
        ok,
        f"worst band load = {worst_load:.3f} (<= 1), skipped resonant: {skipped}",
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_06_average_nm_band(contexts, x135_ctx):
    start = time.perf_counter()
    cases = [contexts["PETERSEN"], contexts["K33"], x135_ctx]
    worst_load = 0.0
    for ctx in cases:
        for rep in average_nm_sweep(ctx, (20, 40, 80)):
            load = abs(rep.scaled_residual) / (4.0 * rep.reference_constant)
            worst_load = max(worst_load, load)
    ok = worst_load <= 1.0
    _report(
        6,
        "averaged N_m band",
        ok,
        f"worst band load = {worst_load:.3f} (<= 1)",
        time.perf_counter() - start,
        120.0,
    )


def test_criterion_07_lps_construction():
    start = time.perf_counter()
    from iharalab.graphs import certify_regular

    g135, params135 = build_lps(13, 5)
    cert135 = certify_regular(g135)
    gens = quaternion_generators(13)
    checks = [
        g135.n == 120,
        cert135.degree == 14,
        cert135.bipartite,
        len(gens) == 14,
        _connected(g135),
    ]
    g513, params513 = build_lps(5, 13)
    cert513 = certify_regular(g513)
    checks += [g513.n == 2184, cert513.degree == 6, cert513.bipartite, _connected(g513)]
    margins = []
    for g, p in ((g135, 13), (g513, 5)):
        vals = np.linalg.eigvalsh(g.as_numpy())
        assert abs(vals[-1] - (p + 1)) < 1e-8
        assert abs(vals[0] + (p + 1)) < 1e-8
        nontrivial = vals[1:-1]
        top = float(np.max(np.abs(nontrivial)))
        margins.append(top)
        checks.append(top < 2.0 * math.sqrt(p) - 1e-6)
    ok = all(checks)
    _report(
        7,
        "LPS Ramanujan",
        ok,
        f"n=120 and n=2184 built; max nontrivial |eigenvalue| = "
        f"{margins[0]:.4f} (< {2*math.sqrt(13):.4f}) and {margins[1]:.4f} (< {2*math.sqrt(5):.4f})",
        time.perf_counter() - start,
        600.0,
    )


def _connected(g) -> bool:
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == g.n


def test_criterion_08_theta_identity(x513):
    start = time.perf_counter()
    g, params, cert = x513
    vals = f_values(g, cert, 2, v=0)
    lhs = {1: 2 * vals[1], 2: 2 * (vals[2] + vals[0])}
    rhs = {m: lattice_count(13, 5**m) for m in (1, 2)}
    split_ok = True
    from iharalab.nbt import t_tilde_traces

    traces = t_tilde_traces(g, cert, 2)
    cusps = cusp_coefficients_range(g, params, 2)
    for m in (1, 2):
        theta_coeff = Fraction(2 * traces[m], g.n)
        split_ok = split_ok and eisenstein_C(5, 13, m) + cusps[m] == theta_coeff
    anchor = eisenstein_C(5, 13, 2)
    ok = (
        lhs[1] == rhs[1] == 0
        and lhs[2] == rhs[2] == 2
        and split_ok
        and anchor == Fraction(31, 546)
    )
    _report(
        8,
        "dual theta identity",
        ok,
        f"2*sums = {lhs[1]}, {lhs[2]} vs lattice counts {rhs[1]}, {rhs[2]}; "
        f"Eisenstein anchor = {anchor}",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_09_cusp_average_band(x135_ctx):
    start = time.perf_counter()
    ref = average_cusp_reference(x135_ctx.sd)
    worst_load = 0.0
    for row in average_cusp_sweep(x135_ctx, (50, 100, 200)):
        worst_load = max(worst_load, row["scaled_average"] / (4.0 * ref))
    ok = worst_load <= 1.0
    _report(
        9,
        "cusp average band",
        ok,
        f"worst band load = {worst_load:.3f} (<= 1)",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_10_generating_function(x135_ctx):
    start = time.perf_counter()
    tol = 1e-6
    spectral, closed = phi_series(x135_ctx, 8)
    coeff_dev = max(
        abs(float(a) - float(b)) for a, b in zip(spectral.coeffs, closed.coeffs)
    )
    eps_values = (1e-2, 1e-3, 1e-4)
    g_values = [abs(-e * phi_closed_point(x135_ctx, 1.0 - e)) for e in eps_values]
    ratios = [g_values[i] / g_values[i + 1] for i in range(2)]
    decay_ok = all(6.0 <= r <= 14.0 for r in ratios)
    ok = coeff_dev <= tol and decay_ok
    _report(
        10,
        "phi dual route + pole",
        ok,
        f"max coefficient deviation = {coeff_dev:.3e} (tol {tol:.0e}), "
        f"decay ratios = {ratios[0]:.2f}, {ratios[1]:.2f} in [6, 14]",
        time.perf_counter() - start,
        60.0,
    )


def test_criterion_11_trace_formula(contexts):
    start = time.perf_counter()
    tol = 1e-8
    worst = 0.0
    for name in ("PETERSEN", "K33", "K4"):
        for m0 in range(0, 13):
            h = StfTestFunction.single(m0) if m0 else StfTestFunction(hhat0=1.0)
            _, _, disc = stf_verify(contexts[name], h)
            worst = max(worst, disc)
    ok = worst <= tol
    _report(
        11,
        "trace formula",
        ok,
        f"max discrepancy = {worst:.3e}, tolerance {tol:.0e}",
        time.perf_counter() - start,
        30.0,
    )


def test_criterion_12_huang_nonnegativity(contexts, x135_ctx):
    start = time.perf_counter()
    tol = -1e-9
    worst = math.inf
    for ctx in [*(contexts[name] for name in CORPUS_NAMES), x135_ctx]:
        vals = huang_range(ctx, 30)
        for m in range(2, 31, 2):
            worst = min(worst, vals[m - 1])
    ok = worst >= tol
    _report(
        12,
        "Huang h_m >= 0",
        ok,
        f"min even-m h_m = {worst:.6f} >= {tol:.0e}",
        time.perf_counter() - start,
        10.0,
    )
