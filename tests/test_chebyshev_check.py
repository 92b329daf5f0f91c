"""The chebyshev check: the identity in Z[x], exact vs spectral traces, step counts.

The entrywise matrix comparison of the sweeps, M_m against
B_m + e_m (q-1) I, is in test_nbt.py (test_chebyshev_b_identity_small
and test_chebyshev_b_identity_x135).
"""

import pytest
from test_nbt_traces import _count_calls, relabeled, two_switched

from iharalab import nbt, suite
from iharalab.graphs import named_graph
from iharalab.lps import build_lps
from iharalab.nbt import m_and_b_polynomials
from iharalab.suite import SuiteContext, VerificationSuiteConfig, run_check

CONFIG = VerificationSuiteConfig(source_kind="named", source="", checks=("chebyshev",))


@pytest.fixture(scope="module")
def contexts(x135):
    """label -> SuiteContext for the named corpus and three n=120 LPS graphs."""
    out = {name: SuiteContext(named_graph(name)) for name in ("K3", "K4", "K33", "PETERSEN", "CUBE")}
    out["X^{13,5}"] = SuiteContext(x135[0], x135[1])
    for p in (17, 29):
        out[f"X^{{{p},5}}"] = SuiteContext(*build_lps(p, 5))
    return out


def test_polynomials_hand_values():
    ms, bs = m_and_b_polynomials(2, 4)
    # B_2 = x^2 - 2q, B_3 = x^3 - 3q x, B_4 = x^4 - 4q x^2 + 2q^2
    assert bs == [[0, 1], [-4, 0, 1], [0, -6, 0, 1], [8, 0, -8, 0, 1]]
    # M_m = B_m + e_m (q-1): only the even constant terms move
    assert ms == [[0, 1], [-3, 0, 1], [0, -6, 0, 1], [9, 0, -8, 0, 1]]
    with pytest.raises(ValueError):
        m_and_b_polynomials(2, 0)


@pytest.mark.parametrize("q", [0, 1, 2, 5, 13, 17, 29])
def test_identity_holds_in_zx(q):
    assert suite._zx_identity_defect(q, 30) == 0


def test_cross_route_metric_is_at_round_off(contexts):
    for label, ctx in contexts.items():
        metric = suite._trace_route_metric(ctx, 30)
        assert metric < 1e-12, (label, metric)
        res = run_check("chebyshev", ctx, CONFIG)
        assert res.status == "pass", label
        assert res.metric >= metric
        assert ("float_route_metric" in res.detail) == (ctx.g.n <= 12)


def _corrupted(monkeypatch, edit):
    real = nbt.m_and_b_polynomials

    def patched(q, m_max):
        ms, bs = real(q, m_max)
        edit(q, ms, bs)
        return ms, bs

    monkeypatch.setattr(nbt, "m_and_b_polynomials", patched)


def _wrong_shift(q, ms, bs):
    for m in range(2, len(ms) + 1, 2):
        ms[m - 1][0] += 2  # the shift of q+1 in place of q-1


def _one_coefficient(q, ms, bs):
    bs[16][5] += 1  # one coefficient of B_17


@pytest.mark.parametrize("edit", [_wrong_shift, _one_coefficient])
@pytest.mark.parametrize("label", ["K4", "X^{13,5}"])
def test_corrupted_identity_fails_the_check(contexts, monkeypatch, edit, label):
    _corrupted(monkeypatch, edit)
    res = run_check("chebyshev", contexts[label], CONFIG)
    assert res.status == "fail"
    assert res.metric >= 1.0


def test_no_matrix_sweep_above_twelve_vertices(x135, monkeypatch):
    full = _count_calls(monkeypatch, "_mul_adj")
    row = _count_calls(monkeypatch, "_row_mul_adj")
    charpolys = _count_calls(monkeypatch, "integer_charpoly")

    def no_seq(*args):
        raise AssertionError("ExactMatrixSeq built for n > 12")

    monkeypatch.setattr(nbt, "ExactMatrixSeq", no_seq)
    g, params = x135[0], x135[1]
    ctx = SuiteContext(g, params)
    assert ctx.row_vertex is not None  # the Cayley certificate grants the row route
    assert run_check("chebyshev", ctx, CONFIG).status == "pass"
    assert (full[0], row[0], charpolys[0]) == (0, 14, 0)
    copy = SuiteContext(relabeled(g, 7), params)
    assert copy.row_vertex == 0  # the isomorphism search certifies a relabeled copy
    assert run_check("chebyshev", copy, CONFIG).status == "pass"
    assert (full[0], row[0], charpolys[0]) == (0, 28, 0)
    rewired = SuiteContext(two_switched(g), params)
    assert rewired.row_vertex is None  # the same parameters certify no rewired graph
    assert run_check("chebyshev", rewired, CONFIG).status == "pass"
    # the full route reads Tr B_m off one exact chi_A, with no matrix step
    assert (full[0], row[0], charpolys[0]) == (0, 28, 1)
