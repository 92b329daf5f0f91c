"""Number theory helpers and the Cayley graph construction."""

import numpy as np
import pytest
from coset_blocks import test_cayley_cosets_factor_every_vertex  # noqa: F401  (collected here)
from hypothesis import given, settings
from hypothesis import strategies as st

from iharalab import lps
from iharalab.errors import DisconnectedGraph, GroupSizeMismatch, InvalidPrime, NoSquareRoot
from iharalab.graphs import certify_regular
from iharalab.lps import (
    build_lps,
    canonical_form,
    cayley_root,
    connection_set,
    group_elements,
    is_prime,
    legendre_symbol,
    lps_params,
    mat_det,
    mat_mul,
    quaternion_generators,
    sqrt_mod,
)

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(-3, 30):
        assert is_prime(n) == (n in primes)


@given(st.sampled_from(ODD_PRIMES), st.integers(min_value=1, max_value=200))
@settings(max_examples=80, deadline=None)
def test_legendre_euler(q, a):
    if a % q == 0:
        assert legendre_symbol(a, q) == 0
        return
    squares = {x * x % q for x in range(1, q)}
    want = 1 if a % q in squares else -1
    assert legendre_symbol(a, q) == want


@given(st.sampled_from(ODD_PRIMES), st.integers(min_value=1, max_value=300))
@settings(max_examples=80, deadline=None)
def test_sqrt_mod_squares(q, x):
    a = x * x % q
    if a == 0:
        return
    r = sqrt_mod(a, q)
    assert r * r % q == a
    assert r <= q - r  # the smaller of the two roots is returned


def test_sqrt_mod_nonresidue():
    # 2 is not a square mod 5
    with pytest.raises(NoSquareRoot):
        sqrt_mod(2, 5)


def test_sqrt_mod_minus_one():
    for q in (5, 13, 17, 29):
        i = sqrt_mod(-1, q)
        assert i * i % q == q - 1


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_quaternion_generator_counts(p):
    gens = quaternion_generators(p)
    assert len(gens) == p + 1
    for gen in gens:
        assert gen.a0 > 0 and gen.a0 % 2 == 1
        assert gen.a1 % 2 == gen.a2 % 2 == gen.a3 % 2 == 0
        assert gen.a0**2 + gen.a1**2 + gen.a2**2 + gen.a3**2 == p


def test_quaternion_generators_closed_under_conjugation():
    gens = quaternion_generators(13)
    keyed = {(g.a0, g.a1, g.a2, g.a3) for g in gens}
    for g in gens:
        assert (g.a0, -g.a1, -g.a2, -g.a3) in keyed


def test_quaternion_rejects_bad_p():
    with pytest.raises(InvalidPrime):
        quaternion_generators(7)  # 3 mod 4
    with pytest.raises(InvalidPrime):
        quaternion_generators(9)  # not prime


def test_canonical_form_idempotent_and_projective():
    q = 13
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = tuple(int(x) for x in rng.integers(0, q, size=4))
        if m[0] * m[3] - m[1] * m[2] == 0:
            continue
        c = canonical_form(m, q)
        assert canonical_form(c, q) == c
        # scaling the input never changes the canonical form
        for s in (2, 5, 11):
            scaled = tuple(x * s % q for x in m)
            assert canonical_form(scaled, q) == c


def test_canonical_form_rejects_zero():
    with pytest.raises(ValueError):
        canonical_form((0, 0, 0, 0), 5)


def test_mat_mul_associative():
    q = 5
    a, b, c = (1, 2, 3, 4), (2, 0, 1, 3), (4, 1, 0, 2)
    assert mat_mul(mat_mul(a, b, q), c, q) == mat_mul(a, mat_mul(b, c, q), q)


def test_mat_det_multiplicative():
    q = 13
    a, b = (1, 2, 3, 4), (2, 0, 1, 3)
    assert mat_det(mat_mul(a, b, q), q) == mat_det(a, q) * mat_det(b, q) % q


def enumerate_group(q: int, kind: str) -> list[tuple[int, int, int, int]]:
    """Canonical forms of PGL2(F_q) or PSL2(F_q), sorted, by canonicalizing all q^4 matrices.

    PSL2 membership is decided by the canonical form's determinant being
    a nonzero square mod q.
    """
    squares = {x * x % q for x in range(1, q)}
    seen = set()
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (a * d - b * c) % q == 0:
                        continue
                    m = canonical_form((a, b, c, d), q)
                    if kind == "PSL2" and mat_det(m, q) not in squares:
                        continue
                    seen.add(m)
    return sorted(seen)


def test_enumerate_group_orders():
    # |PGL2(F_5)| = 120, |PSL2(F_5)| = 60
    assert len(group_elements(5, "PGL2")) == 120
    assert len(group_elements(5, "PSL2")) == 60
    assert len(group_elements(13, "PGL2")) == 2184


@pytest.mark.parametrize("q", [5, 13])
@pytest.mark.parametrize("kind", ["PGL2", "PSL2"])
def test_group_elements_match_enumerate_group(q, kind):
    assert list(map(tuple, group_elements(q, kind).tolist())) == enumerate_group(q, kind)


def test_lps_params_fields():
    params = lps_params(13, 5)
    assert params.legendre_pq == -1
    assert params.group_kind == "PGL2"
    assert params.expected_n == 120
    params2 = lps_params(17, 13)
    assert params2.legendre_pq == 1
    assert params2.group_kind == "PSL2"
    assert params2.expected_n == 1092


def test_lps_params_rejects():
    with pytest.raises(InvalidPrime):
        lps_params(7, 5)  # p = 3 mod 4
    with pytest.raises(InvalidPrime):
        lps_params(13, 13)
    with pytest.raises(InvalidPrime):
        lps_params(13, 15)  # not prime


def test_build_x135(x135):
    g, params, cert, sd = x135
    assert g.n == 120
    assert cert.degree == 14
    assert cert.bipartite
    assert params.group_kind == "PGL2"
    # simple graph: no multi-edges among the generators at this size
    assert all(len(set(nb)) == len(nb) for nb in g.neighbors)
    assert cayley_root(g, params) is not None


def test_x135_spectrum_symmetric(x135):
    # bipartite spectra are symmetric about zero
    _, _, _, sd = x135
    values = sorted(round(c.value, 6) for c in sd.clusters for _ in range(c.mult))
    assert values == sorted(-v for v in values)


def product_loop_neighbours(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Reference: each vertex's neighbours s v, one canonical_form(mat_mul(s, v)) at a time."""
    params = lps_params(p, q)
    vertices = list(map(tuple, group_elements(q, params.group_kind).tolist()))
    index = {v: i for i, v in enumerate(vertices)}
    gens = connection_set(params)
    return tuple(
        tuple(sorted(index[canonical_form(mat_mul(s, v, q), q)] for s in gens)) for v in vertices
    )


@pytest.mark.parametrize("p, q", [(13, 5), (17, 5), (29, 5), (17, 13), (5, 13)])
def test_build_lps_matches_the_product_loop(p, q):
    g, params = build_lps(p, q)
    assert g.neighbors == product_loop_neighbours(p, q)
    assert cayley_root(g, params) is not None
    assert all(isinstance(w, int) for w in g.neighbors[0])


def _with_connection_set(monkeypatch, edit):
    lps._construction.cache_clear()  # an earlier test may have built X^{13,5} with the real set
    real = lps.connection_set
    monkeypatch.setattr(lps, "connection_set", lambda params: edit(real(params)))


def test_build_lps_rejects_a_fixed_point(monkeypatch):
    _with_connection_set(monkeypatch, lambda gens: [(1, 0, 0, 1), *gens[1:]])
    with pytest.raises(GroupSizeMismatch, match="fixed point"):
        build_lps(13, 5)


def test_build_lps_rejects_a_set_not_closed_under_inverses(monkeypatch):
    # replace one generator by its square, whose inverse is not in the set
    _with_connection_set(
        monkeypatch, lambda gens: [canonical_form(mat_mul(gens[0], gens[0], 5), 5), *gens[1:]]
    )
    with pytest.raises(GroupSizeMismatch, match="inverses"):
        build_lps(13, 5)


def test_build_lps_rejects_a_disconnected_graph(monkeypatch):
    # p+1 copies of one generator and its inverse: inverse-closed, but the
    # cyclic subgroup they generate is far smaller than the group
    def copies(gens):
        s = gens[0]
        inv = next(t for t in gens if canonical_form(mat_mul(s, t, 5), 5) == (1, 0, 0, 1))
        return [s, inv] * (len(gens) // 2)

    _with_connection_set(monkeypatch, copies)
    with pytest.raises(DisconnectedGraph):
        build_lps(13, 5)


def test_build_psl_case():
    g, params = build_lps(17, 13)
    cert = certify_regular(g)
    assert params.group_kind == "PSL2"
    assert g.n == 1092
    assert cert.degree == 18
    assert not cert.bipartite


def test_build_lps_rejects_large_q_by_default():
    with pytest.raises(InvalidPrime):
        build_lps(5, 37)


def test_lps_desk_limit_message():
    with pytest.raises(InvalidPrime) as err:
        build_lps(5, 41)
    assert "allow_large" in str(err.value)
