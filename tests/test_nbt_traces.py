"""Half-length trace sweeps against the full-length A_m reference routes.

The reference functions below are the earlier implementation of the
scalar sweeps: every A_m traced one step at a time, then parity sums.
They are kept here, unchanged, so the shorter B_m routes in nbt have an
independent exact target.
"""

import dataclasses
import math
import random
from itertools import islice
from typing import Sequence

import numpy as np
import pytest
from b_matrices import a_matrix_range
from reduced_walks_bf import reduced_cycle_counts

from iharalab import nbt
from iharalab.errors import DepthExceeded
from iharalab.graphs import Graph, _edges_canonical, build_graph, certify_regular, named_graph, rooted_quotient
from iharalab.nbt import (
    ExactMatrixSeq,
    adjacency_power_traces,
    f_values,
    n_reduced_range,
    t_tilde_traces,
)
from iharalab.suite import SuiteContext

M_LONG = 200

# ---------------------------------------------------------------------------
# reference routes


def _columns(g: Graph):
    """Column access lists for right-multiplication by the adjacency matrix.

    Returns (cols, simple): cols[j] lists the w with adj[w][j] != 0, as
    bare indices when every multiplicity is 1 (simple flag on), else as
    (w, multiplicity) pairs.
    """
    adj = g.as_numpy().astype(int).tolist()
    simple = all(c == 1 for row in adj for c in row if c)
    if simple:
        cols = [tuple(w for w in range(g.n) if adj[w][j]) for j in range(g.n)]
    else:
        cols = [tuple((w, adj[w][j]) for w in range(g.n) if adj[w][j]) for j in range(g.n)]
    return cols, simple


def _mul_adj(rows, cols, simple: bool):
    out = []
    if simple:
        for row in rows:
            out.append([sum(row[w] for w in col) for col in cols])
    else:
        for row in rows:
            out.append([sum(row[w] * c for w, c in col) for col in cols])
    return out


def _reduced_from_closed(vals: Sequence[int], q: int, scale: int = 1) -> list[int]:
    """Turn closed-walk numbers vals[m] into reduced-cycle numbers.

    vals[m] may be Tr(A_m) (scale 1) or f_m on a vertex-transitive graph
    (scale n).  Returns the list for m = 1..len(vals)-1.
    """
    even_sum = 0  # indices 2, 4, ... strictly below m
    odd_sum = 0  # indices 1, 3, ... strictly below m
    out = []
    for m in range(1, len(vals)):
        corr = even_sum if m % 2 == 0 else odd_sum
        out.append(scale * (vals[m] - (q - 1) * corr))
        if m % 2 == 0:
            even_sum += vals[m]
        else:
            odd_sum += vals[m]
    return out


def _theta_from_closed(vals: Sequence[int], scale: int = 1) -> list[int]:
    """Turn closed-walk numbers into Tr(T~_m) for m = 0..len(vals)-1."""
    even_sum = 0  # includes index 0
    odd_sum = 0
    out = []
    for m, v in enumerate(vals):
        corr = even_sum if m % 2 == 0 else odd_sum
        out.append(scale * (v + corr))
        if m % 2 == 0:
            even_sum += v
        else:
            odd_sum += v
    return out


def _closed_trace_values(g, cert, m_max: int) -> list[int]:
    """[Tr(A_0)..Tr(A_{m_max})] holding only two matrices at a time."""
    seq = ExactMatrixSeq(g, cert)
    out = [seq.trace()]
    for _ in range(m_max):
        seq.advance()
        out.append(seq.trace())
    return out


def _power_traces_reference(g: Graph, m_max: int) -> list[int]:
    """Exact [Tr(A^0)..Tr(A^{m_max})] for the plain adjacency powers."""
    cols, simple = _columns(g)
    cur = [[1 if i == j else 0 for j in range(g.n)] for i in range(g.n)]
    out = [g.n]
    for _ in range(m_max):
        cur = _mul_adj(cur, cols, simple)
        out.append(sum(cur[i][i] for i in range(g.n)))
    return out


def reference(g, cert, m_max: int) -> tuple[list[int], list[int]]:
    """(N_1..N_{m_max}, Tr T~_0..Tr T~_{m_max}) by the full-length sweep."""
    vals = _closed_trace_values(g, cert, m_max)
    return _reduced_from_closed(vals, cert.q), _theta_from_closed(vals)


def relabeled(g: Graph, seed: int) -> Graph:
    """g with its vertices permuted: lps.cayley_root certifies it only by its isomorphism search."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    edges = [(perm[i], perm[j], c) for i, j, c in _edges_canonical(g)]
    return build_graph(g.n, edges)


def two_switched(g: Graph, a: int = 0) -> Graph:
    """g with edges ab, cd replaced by ad, cb, where b is a's first neighbour and cd the first edge that allows it.

    Every degree stays, but on X^{p,q} the result is no longer X^{p,q},
    so lps.cayley_root refuses it and its context takes the full route.
    """
    edges = {(i, j) for i in range(g.n) for j in g.neighbors[i] if i < j}
    b = g.neighbors[a][0]
    c, d = next(
        (c, d)
        for c, d in sorted(edges)
        if len({a, b, c, d}) == 4 and d not in g.neighbors[a] and b not in g.neighbors[c]
    )
    edges -= {(min(a, b), max(a, b)), (c, d)}
    edges |= {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
    return build_graph(g.n, sorted(edges))


# a 5-regular multigraph with double edges and one loop at every vertex
MULTI_EDGES = [(0, 1, 2), (1, 2), (2, 3, 2), (3, 0), (0, 0), (1, 1), (2, 2), (3, 3)]


# ---------------------------------------------------------------------------
# exactness against the reference


@pytest.fixture(scope="module")
def x135_reference(x135):
    g, _, cert, _ = x135
    return reference(g, cert, M_LONG)


def test_full_and_row_routes_match_reference_x135(x135, x135_reference):
    g, _, cert, _ = x135
    n_ref, theta_ref = x135_reference
    for method in ("full", "row"):
        assert n_reduced_range(g, cert, M_LONG, method=method) == n_ref, method
        assert t_tilde_traces(g, cert, M_LONG, method=method) == theta_ref, method


def test_relabeled_x135_without_certificate_matches_reference(x135, x135_reference):
    g, params, _, _ = x135
    h = relabeled(g, seed=5)
    cert = certify_regular(h)
    assert SuiteContext(h, params).row_vertex == 0  # with the parameters the search certifies h
    ctx = SuiteContext(h)
    assert h != g and ctx.row_vertex is None
    assert ctx.sweep._scale == 1  # the full matrix route
    n_ref, theta_ref = x135_reference
    assert n_reduced_range(h, cert, M_LONG, sweep=ctx.sweep) == n_ref
    assert t_tilde_traces(h, cert, M_LONG) == theta_ref


def test_adjacency_power_traces_match_reference(x135):
    g, _, _, _ = x135
    assert adjacency_power_traces(g, 40) == _power_traces_reference(g, 40)


@pytest.mark.parametrize("m_max", [0, 1, 2])
def test_short_sweeps_have_the_right_lengths(corpus, m_max):
    for name, (g, cert) in corpus.items():
        n_ref, theta_ref = reference(g, cert, m_max)
        for method in ("full", "row"):
            counts = n_reduced_range(g, cert, m_max, method=method)
            traces = t_tilde_traces(g, cert, m_max, method=method)
            assert len(counts) == m_max and counts == n_ref, (name, method)
            assert len(traces) == m_max + 1 and traces == theta_ref, (name, method)
        powers = adjacency_power_traces(g, m_max)
        assert len(powers) == m_max + 1
        assert powers == _power_traces_reference(g, m_max), name
        assert len(f_values(g, cert, m_max)) == m_max + 1, name


def test_results_are_python_ints(corpus):
    g, cert = corpus["PETERSEN"]
    for values in (
        n_reduced_range(g, cert, 9, method="full"),
        t_tilde_traces(g, cert, 9, method="row"),
        adjacency_power_traces(g, 9),
        f_values(g, cert, 9),
    ):
        assert type(values) is list and all(type(x) is int for x in values)


# ---------------------------------------------------------------------------
# loops and multiple edges


def test_multigraph_full_route_matches_oracle():
    g = build_graph(4, MULTI_EDGES)
    cert = certify_regular(g)
    assert cert.degree == 5
    counts = reduced_cycle_counts(g, 7)
    assert counts[:5] == [8, 16, 56, 272, 968]
    assert n_reduced_range(g, cert, 7, method="full") == counts
    n_ref, theta_ref = reference(g, cert, 12)
    assert n_reduced_range(g, cert, 12) == n_ref
    assert t_tilde_traces(g, cert, 12) == theta_ref


def test_multigraph_single_rows_and_powers():
    g = build_graph(4, MULTI_EDGES)
    cert = certify_regular(g)
    mats = a_matrix_range(g, cert, 10)
    for v in range(g.n):
        assert f_values(g, cert, 10, v=v) == [mats[m][v][v] for m in range(11)], v
    a = g.as_numpy().astype(np.int64)
    pw = np.eye(g.n, dtype=np.int64)
    for k, w in enumerate(adjacency_power_traces(g, 12)):
        assert w == int(np.trace(pw)), k
        pw = pw @ a


def test_one_vertex_with_two_loops():
    g = build_graph(1, [(0, 0, 2)])
    cert = certify_regular(g)
    counts = reduced_cycle_counts(g, 7)
    assert counts[0] == 4
    for method in ("full", "row"):
        assert n_reduced_range(g, cert, 7, method=method) == counts, method
    assert t_tilde_traces(g, cert, 7) == reference(g, cert, 7)[1]


def test_neighbors_repeat_each_vertex_by_its_multiplicity(corpus):
    graphs = [g for g, _ in corpus.values()] + [build_graph(4, MULTI_EDGES)]
    for g in graphs:
        for v in range(g.n):
            counts = [g.neighbors[v].count(w) for w in range(g.n)]
            assert counts == g.as_numpy()[v].tolist()
            assert list(g.neighbors[v]) == sorted(g.neighbors[v])
            assert len(g.neighbors[v]) == g.degree(v)
    # the neighbour lists are the only adjacency representation stored
    assert [f.name for f in dataclasses.fields(Graph)] == ["n", "neighbors"]


# ---------------------------------------------------------------------------
# the resumable sweep

@pytest.fixture(scope="module")
def sweep_graphs(x135):
    return {
        "relabeled X^{13,5}": relabeled(x135[0], seed=5),
        "looped 5-regular": build_graph(4, MULTI_EDGES),
        "one vertex, two loops": build_graph(1, [(0, 0, 2)]),
    }


@pytest.fixture(scope="module")
def one_shot():
    """(graph, q, method, m_max) -> [Tr B_0..Tr B_{m_max}] from one _b_traces call, kept for the module."""
    memo = {}

    def traces(g: Graph, q: int, method: str, m_max: int) -> list[int]:
        key = (id(g), q, method, m_max)
        if key not in memo:
            if method == "row":
                memo[key] = [g.n * b for b in nbt._b_traces(g, q, m_max, rooted_quotient(g, 0, -(-m_max // 2)))]
            else:
                memo[key] = nbt._b_traces(g, q, m_max)
        return memo[key]

    return traces


@pytest.mark.parametrize("order", [(30, 80, 12, 200, 8), (200, 1), (0, 1, 2), (2, 1, 0)])
def test_sweep_prefixes_equal_one_shot_traces(sweep_graphs, one_shot, order):
    for name, g in sweep_graphs.items():
        q = certify_regular(g).q
        for method, quotient in (("full", None), ("row", rooted_quotient(g, 0))):
            sweep = nbt.TraceSweep(g, q, quotient)
            for m_max in order:
                got = sweep.prefix(m_max)
                assert got == one_shot(g, q, method, m_max), (name, method, m_max)
                assert type(got) is list and all(type(x) is int for x in got)
            with pytest.raises(ValueError):
                sweep.prefix(-1)


def test_charpoly_route_equals_the_matrix_stream(sweep_graphs, one_shot, monkeypatch):
    graphs = {name: named_graph(name) for name in ("K4", "PETERSEN", "CUBE", "CYCLE(9)")}
    graphs.update(sweep_graphs)
    charpolys = _count_calls(monkeypatch, "integer_charpoly")
    for name, g in graphs.items():
        q = certify_regular(g).q
        for sweep_q in (q, 0):  # B_m at q = 0 is A^m for m >= 1
            before = charpolys[0]
            got = nbt.TraceSweep(g, sweep_q).prefix(M_LONG)
            assert charpolys[0] == before + 1, name
            assert got == one_shot(g, sweep_q, "full", M_LONG), (name, sweep_q)
            assert all(type(x) is int for x in got)


@pytest.mark.parametrize("order", [(30, 80, 12, 200, 8), (200, 1), (0, 1, 2), (2, 1, 0)])
def test_any_order_of_requests_forms_chi_a_once(corpus, monkeypatch, order):
    g, cert = corpus["PETERSEN"]
    charpolys = _count_calls(monkeypatch, "integer_charpoly")
    steps = _count_calls(monkeypatch, "_mul_adj")
    sweep = nbt.TraceSweep(g, cert.q)
    assert charpolys[0] == 0  # nothing is formed before the first request
    for m_max in order:
        sweep.prefix(m_max)
    assert (charpolys[0], steps[0]) == (1, 0)


def test_charpoly_route_checks_its_result(corpus, monkeypatch):
    # one residue of the first or the last prime, on graphs that take one prime (K4, PETERSEN) and several (CYCLE(60))
    real = nbt._charpoly_mod
    counts = []
    layer = 0

    def corrupted(matrix, primes):
        counts.append(len(primes))
        residues = real(matrix, primes)
        residues[layer, residues.shape[1] // 2] += 1
        residues[layer] %= primes[layer]
        return residues

    monkeypatch.setattr(nbt, "_charpoly_mod", corrupted)
    for layer in (0, -1):
        for g in (corpus["K4"][0], corpus["PETERSEN"][0], named_graph("CYCLE(60)")):
            with pytest.raises(ArithmeticError):
                nbt.TraceSweep(g, certify_regular(g).q).prefix(4)
    assert counts[:2] == counts[3:5] == [1, 1] and counts[2] == counts[5] >= 2


def _spectral_radius_charpoly(g: Graph) -> list[int]:
    """chi_A under the bound |c_k| <= C(n, k) d^k, from every |lambda| <= d for the largest degree d."""
    d = max(map(len, g.neighbors))
    bound = max(math.comb(g.n, k) * d**k for k in range(g.n + 1))
    return nbt.integer_charpoly(g.as_numpy().astype(np.int64), bound)


def test_hadamard_bound_covers_every_coefficient(corpus, sweep_graphs, monkeypatch):
    bounds = []
    real = nbt.integer_charpoly

    def recorded(matrix, bound):
        bounds.append(bound)
        return real(matrix, bound)

    monkeypatch.setattr(nbt, "integer_charpoly", recorded)
    stacks = []  # the number of primes of every stacked residue call
    real_mod = nbt._charpoly_mod

    def stacked(matrix, primes):
        stacks.append(len(primes))
        return real_mod(matrix, primes)

    monkeypatch.setattr(nbt, "_charpoly_mod", stacked)
    graphs = {name: g for name, (g, _) in corpus.items()}
    graphs.update((name, g) for name, g in sweep_graphs.items() if g.n < 100)
    for name, g in graphs.items():
        bounds.clear()
        nbt.TraceSweep(g, certify_regular(g).q).prefix(4)
        [bound] = bounds
        chi = _spectral_radius_charpoly(g)
        assert chi[-1] == 1 and bound >= max(map(abs, chi)), name
    h = sweep_graphs["relabeled X^{13,5}"]
    bounds.clear()
    stacks.clear()
    nbt.TraceSweep(h, certify_regular(h).q).prefix(4)
    # 2 bound has 267 bits, where C(n, k) 14^k needed 468: 11 primes, not 18, in one stack
    assert ((2 * bounds[0]).bit_length(), stacks) == (267, [11])


def test_pair_polynomial_and_power_sums_by_hand():
    # chi = (y - 3)(y + 1): x^2 chi(x + 2/x) = (x^2 - 3x + 2)(x^2 + x + 2)
    assert nbt._pair_polynomial([-3, -2, 1], 2) == [4, -4, 1, -2, 1]
    # the roots of x^2 - 3x + 2 are 1 and 2, so p_m = 1 + 2^m
    assert list(islice(nbt._power_sums([2, -3, 1]), 6)) == [2, 3, 5, 9, 17, 33]


def test_shared_sweep_matches_reference_x135(sweep_graphs, x135_reference):
    h = sweep_graphs["relabeled X^{13,5}"]
    cert = certify_regular(h)
    sweep = nbt.TraceSweep(h, cert.q)
    n_ref, theta_ref = x135_reference
    assert t_tilde_traces(h, cert, M_LONG, sweep=sweep) == theta_ref
    assert n_reduced_range(h, cert, 80, sweep=sweep) == n_ref[:80]
    assert n_reduced_range(h, cert, M_LONG, sweep=sweep) == n_ref
    with pytest.raises(ValueError):
        n_reduced_range(h, cert, -1, sweep=sweep)


def test_a_sweep_serves_only_its_own_graph_and_route(corpus):
    g, cert = corpus["PETERSEN"]
    sweep = nbt.TraceSweep(g, cert.q)
    other, other_cert = corpus["K4"]
    with pytest.raises(ValueError, match="another graph"):
        n_reduced_range(other, other_cert, 4, sweep=sweep)
    with pytest.raises(ValueError, match="not both"):
        t_tilde_traces(g, cert, 4, method="full", sweep=sweep)
    with pytest.raises(ValueError, match="unknown method"):
        n_reduced_range(g, cert, 4, method="diagonal")


# ---------------------------------------------------------------------------
# step counts: the halving is deterministic, unlike a timing


def _count_calls(monkeypatch, name: str) -> list[int]:
    calls = [0]
    kernel = getattr(nbt, name)

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(nbt, name, counted)
    return calls


def test_full_sweep_takes_half_the_matrix_steps(corpus, monkeypatch):
    g, cert = corpus["PETERSEN"]
    calls = _count_calls(monkeypatch, "_mul_adj")
    charpolys = _count_calls(monkeypatch, "integer_charpoly")
    half = math.ceil(M_LONG / 2) - 1  # B_2..B_100; B_0 and B_1 are free
    adjacency_power_traces(g, M_LONG)
    assert calls[0] == half  # the full-length A_m sweep took 200
    # within the ceiling the full route reads every trace off one chi_A
    calls[0] = 0
    n_reduced_range(g, cert, M_LONG, method="full")
    t_tilde_traces(g, cert, M_LONG, method="full")
    assert (calls[0], charpolys[0]) == (0, 2)
    # past it the matrix stream takes over: CYCLE(51) prices chi_A at
    # 3 primes x 51^3 = 397953 and the matrix sweep to m = 200 at 51^2 x 100
    ring = named_graph("CYCLE(51)")
    ring_cert = certify_regular(ring)
    monkeypatch.setattr(nbt, "COST_CEILING", 3 * 10**5)
    charpolys[0] = 0
    for sweep in (n_reduced_range, t_tilde_traces):
        calls[0] = 0
        sweep(ring, ring_cert, M_LONG, method="full")
        assert calls[0] == half
    calls[0] = 0
    n_reduced_range(ring, ring_cert, 7, method="full")
    assert calls[0] == 3
    for order in ((30, 80, 12, 200, 8), (200, 1)):
        calls[0] = 0
        sweep = nbt.TraceSweep(ring, ring_cert.q)
        for m_max in order:
            sweep.prefix(m_max)
        assert calls[0] == half, order  # the largest request's steps, once
    assert charpolys[0] == 0


def test_matrix_sweep_past_the_ceiling_fails_before_its_first_step(corpus, monkeypatch):
    g, cert = corpus["PETERSEN"]
    calls = _count_calls(monkeypatch, "_mul_adj")
    # chi_A prices 1 prime x 10^3; the matrix stream n^2 ceil(m/2), 500 at m = 10
    monkeypatch.setattr(nbt, "COST_CEILING", 500)
    sweep = nbt.TraceSweep(g, cert.q)
    with pytest.raises(DepthExceeded, match="m=200"):
        sweep.prefix(M_LONG)
    with pytest.raises(DepthExceeded):
        adjacency_power_traces(g, 11)
    with pytest.raises(DepthExceeded):
        n_reduced_range(g, cert, M_LONG, method="full")
    assert calls[0] == 0
    assert sweep.prefix(10) == nbt._b_traces(g, cert.q, 10)
    taken = calls[0]
    with pytest.raises(DepthExceeded):
        sweep.prefix(11)
    assert calls[0] == taken == 2 * 4  # B_2..B_5, by the sweep and by _b_traces


def test_row_sweep_takes_half_the_row_steps(corpus, monkeypatch):
    g, cert = corpus["PETERSEN"]
    calls = _count_calls(monkeypatch, "_row_mul_adj")
    half = math.ceil(M_LONG / 2) - 1
    n_reduced_range(g, cert, M_LONG, method="row")
    assert calls[0] == half  # the full-length row sweep took 199
    calls[0] = 0
    f_values(g, cert, M_LONG)
    assert calls[0] == half
