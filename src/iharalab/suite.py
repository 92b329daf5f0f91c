"""Verification suite: named checks with pinned tolerances and a runner.

One ordered table, _CHECKS, lists every check once: its runner, its
default tolerance and the VerificationSuiteConfig fields (budget, order,
k_values, horizons) that run_check passes it; each other depth is fixed
inside its check and reported in its detail.

Each check computes one scalar metric normalized so that pass means
metric <= tolerance.  Band-style checks (cesaro, average-nm, cusp) divide
the observed scaled deviation by four times the reference constant their
proof supplies, so the tolerance is 1.0 and the metric is a dimensionless
load factor.  Exact-identity checks (oracle, ihara-bass) use tolerance 0.
SuiteContext splits off the trivial eigenvalues +-(q+1) for chebyshev,
stf, huang and phi: they read remainders, nontrivial_clusters and
trace_residuals, which each context builds from its one sweep and spectrum.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import Callable, Sequence

import numpy as np

from . import limits, lps, nbt, oracle, zeta
from .errors import AngleConditionViolated, IharaLabError, ParseError
from .graphs import Graph, RootedQuotient, certify_regular, load_graph_doc, named_graph, rooted_quotient
from .spectral import Cluster, eigendecompose, quotient_decompose

DEFAULT_BUDGET = 10**7
DEFAULT_K = (1, 2, 3, 4)
DEFAULT_ORDER = 10

DEFAULT_HORIZONS = {
    "cesaro": (100, 200, 400),
    "average-nm": (20, 40, 80),
    "cusp": (50, 100, 200),
}

# the keys of a verify request (VerificationSuiteConfig.from_dict)
CONFIG_KEYS = ("graph", "file", "lps", "checks", "horizons", "k", "tol", "budget", "order", "emit", "allow_large")

BAND_FACTOR = 4.0
PHI_RATIO_BAND = (6.0, 14.0)


@dataclass
class CheckResult:
    check: str
    status: str  # "pass" | "fail" | "error"
    metric: float | None
    tolerance: float
    seconds: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationSuiteConfig:
    source_kind: str  # "named" | "file" | "lps"
    source: str = ""
    p: int | None = None
    q: int | None = None
    checks: tuple[str, ...] = field(default_factory=lambda: CHECK_ORDER)  # the table is defined below
    horizons: tuple[int, ...] | None = None
    k_values: tuple[int, ...] = DEFAULT_K
    tol_override: float | None = None
    budget: int = DEFAULT_BUDGET
    order: int = DEFAULT_ORDER
    emit: str | None = None
    allow_large: bool = False  # build_lps's allow_large, for an lps source past q = 29

    @classmethod
    def from_json_file(cls, path: str, overrides: dict | None = None) -> "VerificationSuiteConfig":
        """from_dict on the JSON object in path, with the keys of overrides set on top."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ParseError(f"cannot read config {path!r}: {exc.strerror}") from exc
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ParseError(f"config {path!r} is not valid JSON: {exc}") from exc
        if isinstance(raw, dict):
            raw.update(overrides or {})
        return cls.from_dict(raw)

    def tolerance(self, name: str) -> float:
        """The tolerance check name is held to: tol_override, else its default."""
        return DEFAULT_TOLERANCES[name] if self.tol_override is None else self.tol_override

    @classmethod
    def from_dict(cls, raw: dict) -> "VerificationSuiteConfig":
        """Parse one verify request; a malformed value raises ParseError naming its key.

        Exactly one of the source keys "graph", "file" and "lps" (a
        [p, q] list or a "p,q" string) must be present, and a key outside
        CONFIG_KEYS is refused, so a misspelt key cannot fall back to a default.
        """
        if not isinstance(raw, dict):
            raise ParseError("config must be a JSON object")
        unknown = [key for key in raw if key not in CONFIG_KEYS]
        if unknown:
            raise ParseError(f"unknown config keys {unknown}; valid: {', '.join(CONFIG_KEYS)}")
        keys = [key for key in ("graph", "file", "lps") if key in raw]
        if len(keys) != 1:
            raise ParseError(f"config needs exactly one source key of graph, file, lps; got {keys}")
        key = keys[0]
        source, p, q = raw[key], None, None
        if key == "lps":
            pair = source.split(",") if isinstance(source, str) else source
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ParseError(f"config key 'lps' needs a (p, q) pair, got {source!r}")
            p, q = (_parse("lps", x, int) for x in pair)
            source = ""
        elif not isinstance(source, str):
            raise ParseError(f"config key {key!r} needs a string, got {source!r}")
        checks, horizons, tol = raw.get("checks", CHECK_ORDER), raw.get("horizons"), raw.get("tol")
        if not isinstance(checks, (list, tuple)):
            raise ParseError(f"config key 'checks' needs a list of check names, got {checks!r}")
        if not isinstance(raw.get("emit", ""), str):
            raise ParseError(f"config key 'emit' needs a path, got {raw['emit']!r}")
        if not isinstance(raw.get("allow_large", False), bool):
            raise ParseError(f"config key 'allow_large' needs true or false, got {raw['allow_large']!r}")
        order = _parse("order", raw.get("order", DEFAULT_ORDER), int)
        if order < 1:
            raise ParseError(f"config key 'order' needs an integer of at least 1, got {order}")
        return cls(
            source_kind="named" if key == "graph" else key,
            source=source,
            p=p,
            q=q,
            checks=validate_checks(checks),
            horizons=None if horizons is None else _parse_ints("horizons", horizons),
            k_values=_parse_ints("k", raw.get("k", DEFAULT_K)),
            tol_override=None if tol is None else _parse("tol", tol, float),
            budget=_parse("budget", raw.get("budget", DEFAULT_BUDGET), int),
            order=order,
            emit=raw.get("emit"),
            allow_large=raw.get("allow_large", False),
        )


def _parse(key: str, value, kind: type):
    """kind(str(value)); an int key refuses floats and bools, a float key NaN and infinities."""
    wanted = "an integer" if kind is int else "a finite number"
    try:
        out = kind(str(value))
    except ValueError:
        raise ParseError(f"config key {key!r} needs {wanted}, got {value!r}") from None
    if kind is float and not math.isfinite(out):
        raise ParseError(f"config key {key!r} needs {wanted}, got {value!r}")
    return out


def _parse_ints(key: str, values) -> tuple[int, ...]:
    """A nonempty list of ints: an empty one would check nothing (k) or stand for the defaults (horizons)."""
    if not isinstance(values, (list, tuple)):
        raise ParseError(f"config key {key!r} needs a list of integers, got {values!r}")
    if not values:
        raise ParseError(f"config key {key!r} needs at least one integer")
    return tuple(_parse(key, x, int) for x in values)


def source_entry(source: str) -> dict:
    """The config entry of a SOURCE argument: {"file": s} if the path exists, else {"graph": s}."""
    return {"file": source} if os.path.exists(source) else {"graph": source}


def validate_checks(checks) -> tuple[str, ...]:
    out = tuple(checks)
    for name in out:
        if name not in CHECK_ORDER:
            raise ParseError(f"unknown check {name!r}; valid: {', '.join(CHECK_ORDER)}")
    if not out:
        raise ParseError("no checks selected")
    return out


class SuiteContext:
    """Graph plus lazily computed certificates, spectral data and trace sweep.

    row_vertex is lps.cayley_root(g, params): a vertex e that a verified
    isomorphism maps onto the identity of build_lps's X^{p,q} for
    params, or None.  build_lps's own vertex order gives its identity
    vertex; any other order that the search certifies gives vertex 0.
    A rewired file that carries an lps record gets None.  This class is
    the one place that turns that certificate into a route.  On a Cayley
    graph (v joined to s v) A commutes with right translation, so every
    polynomial X in A has Tr X = n X(e, e) and every row of X is a
    permutation of row e (Terras, Fourier Analysis on Finite Groups and
    Applications, 1999); an isomorphism carries both to the file's
    labels.  With row_vertex set, the context builds one rooted
    equitable quotient at e (graphs.rooted_quotient, 12 cells on
    X^{13,5}, 54 on X^{17,13}) at its first request, and every route
    reads that one value: sd is spectral.quotient_decompose on it, the
    sweep runs on row e held one entry per cell and yields n times its
    diagonal entries, and ihara-bass's Tr A^k runs on the same row; the
    oracle works on row e too.  Without it, sd is the dense
    eigendecompose and every exact sweep takes the full route: the
    sweep reads Tr B_m off the exact chi_A, formed once at its first
    request, up to nbt.COST_CEILING (n = 325 at degree 14), and runs
    the n x n matrix recurrence past it; the oracle's rows of A_m and
    ihara-bass's Tr A^k stay on integer recurrences of their own.  Both
    spectra come from spectral's one constructor, whose size guard
    refuses an n x n or a C x C eigh past DENSE_BYTES_CEILING.

    The sweep is the context's one nbt.TraceSweep: every check that
    reads Tr B_m, N_m or Tr T~_m reads its prefixes, so a pass pays for
    chi_A, or the kernel steps of the longest request, once.  The report
    functions of limits and zeta take the context itself and read the
    graph, certificate, spectrum, parameters and sweep from it, so no
    caller picks a route of its own.  All of it lives and dies with the
    context; only lps keeps its last two X^{p,q} constructions, so that
    row_vertex on build_lps's own graph compares tuples it already has.

    The tables the limit checks share live here too, built at their
    first request and kept with the context: nontrivial_chebyshev_sums
    keeps its longest prefix, trace_residuals gives the one residual
    S_m - R_m q^{-m/2} that chebyshev and stf's 13 test functions
    compare, and sd keeps the cos and sin quotient table that range and
    cesaro's (k, variant) pairs read (SpectralData.principal_trig_table).
    """

    def __init__(self, g: Graph, params: lps.LpsParams | None = None, label: str = ""):
        self.g = g
        self.params = params
        self.label = label
        self._cert = None
        self._sd = None
        self._chebyshev_sums: tuple[list[float], list[float]] = ([], [])
        self._residuals: list[float] = []

    @property
    def cert(self):
        if self._cert is None:
            self._cert = certify_regular(self.g)
        return self._cert

    @cached_property
    def row_vertex(self) -> int | None:
        """The certified root of X^{p,q}, whose row stands for every row; None without a certificate."""
        return None if self.params is None else lps.cayley_root(self.g, self.params)

    @cached_property
    def quotient(self) -> RootedQuotient | None:
        """The rooted equitable quotient at row_vertex; None without a certificate."""
        return None if self.row_vertex is None else rooted_quotient(self.g, self.row_vertex)

    @property
    def sd(self):
        if self._sd is None:
            rq = self.quotient
            self._sd = eigendecompose(self.g, self.cert) if rq is None else quotient_decompose(self.g, self.cert, rq)
        return self._sd

    @cached_property
    def sweep(self) -> nbt.TraceSweep:
        return nbt.TraceSweep(self.g, self.cert.q, self.quotient)

    def trivial_values(self) -> tuple[int, ...]:
        """The trivial eigenvalues: q+1 and, on a bipartite graph, -(q+1)."""
        d = self.cert.degree
        return (d, -d) if self.cert.bipartite else (d,)

    def remainders(self, m_max: int) -> list[int]:
        """Exact [R_0..R_{m_max}], R_m = Tr B_m - (q^m + 1)(1 + (-1)^m [bipartite]).

        That is Tr B_m less the trivial eigenvalues' 2 q^{m/2} T_m(+-(q+1) / 2 sqrt q),
        so R_m sums 2 q^{m/2} T_m(lambda / 2 sqrt q) over nontrivial_clusters().
        Tr B_m is read off the context's sweep.
        """
        q = self.cert.q
        signs = [lam // self.cert.degree for lam in self.trivial_values()]
        return [b - (q**m + 1) * sum(s**m for s in signs) for m, b in enumerate(self.sweep.prefix(m_max))]

    def nontrivial_clusters(self) -> list[tuple[Cluster, int]]:
        """(cluster, multiplicity) of sd, with one copy of each trivial value taken out."""
        trivial = self.trivial_values()
        pairs = ((cl, cl.mult - (cl.value in trivial)) for cl in self.sd.clusters)
        return [(cl, mult) for cl, mult in pairs if mult]

    def nontrivial_chebyshev_sums(self, m_max: int) -> tuple[list[float], list[float]]:
        """[S_0..S_{m_max}] and the sums of mult |T_m|, S_m = sum mult 2 T_m(lambda / 2 sqrt q).

        Both sum over nontrivial_clusters(); S_m is the float side of R_m q^{-m/2} (remainders).
        The context keeps the longest prefix built so far and extends it
        by the missing rows only; each row is summed on its own, in cluster
        order, so a row's floats do not depend on the request.
        """
        sums, spreads = self._chebyshev_sums
        if len(sums) <= m_max:
            more_sums, more_spreads = self._chebyshev_rows(len(sums), m_max)
            sums += more_sums
            spreads += more_spreads
        return sums[: m_max + 1], spreads[: m_max + 1]

    def trace_residuals(self, m_max: int) -> list[float]:
        """[d_0..d_{m_max}], d_m = S_m - R_m q^{-m/2}, the residual that chebyshev and stf compare.

        S_m from nontrivial_chebyshev_sums; R_m from remainders, its slot
        R_m / q^ceil(m/2) rounded once (zeta.graded_float).  The context
        keeps the longest prefix and extends it by the missing rows only.
        """
        done, q = self._residuals, self.cert.q
        if len(done) <= m_max:
            sums, _ = self.nontrivial_chebyshev_sums(m_max)
            remainders = self.remainders(m_max)
            for m in range(len(done), m_max + 1):
                done.append(sums[m] - zeta.graded_float(Fraction(remainders[m], q ** ((m + 1) // 2)), m, q))
        return done[: m_max + 1]

    def _chebyshev_rows(self, m_lo: int, m_hi: int) -> tuple[list[float], list[float]]:
        root = 2.0 * math.sqrt(self.cert.q)
        x_mult = [(cl.value / root, mult) for cl, mult in self.nontrivial_clusters()]
        terms = [[mult * nbt.cheb_t_real(m, x) for x, mult in x_mult] for m in range(m_lo, m_hi + 1)]
        return [2.0 * sum(t) for t in terms], [sum(map(abs, t)) for t in terms]


def resolve_source(config: VerificationSuiteConfig) -> SuiteContext:
    if config.source_kind == "lps":
        g, params = lps.build_lps(config.p, config.q, allow_large=config.allow_large)
        return SuiteContext(g, params, label=f"X^{{{config.p},{config.q}}}")
    if config.source_kind == "named":
        return SuiteContext(named_graph(config.source), label=config.source.upper())
    if config.source_kind == "file":
        try:
            g, doc = load_graph_doc(config.source)
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read graph file {config.source!r}: {exc}") from exc
        params = None if doc is None or "lps" not in doc else _lps_record(config.source, doc["lps"], g)
        return SuiteContext(g, params, label=config.source)
    raise ParseError(f"unknown source kind {config.source_kind!r}")


def _lps_record(path: str, record, g: Graph) -> lps.LpsParams:
    """The parameters a graph file's lps record {p, q, kind} names; they must fit the graph."""
    if not isinstance(record, dict) or sorted(record) != ["kind", "p", "q"]:
        raise ParseError(f"{path}: its lps record {record!r} is not an object with keys p, q, kind")
    p, q = record["p"], record["q"]
    if type(p) is not int or type(q) is not int:
        raise ParseError(f"{path}: its lps record needs integer p and q, got {p!r} and {q!r}")
    try:
        params = lps.lps_params(p, q)
    except IharaLabError as exc:
        raise ParseError(f"{path}: its lps record (p={p}, q={q}) is invalid: {exc}") from exc
    if record["kind"] != params.group_kind:
        raise ParseError(
            f"{path}: its lps record names kind {record['kind']!r}, but X^{{{p},{q}}} is {params.group_kind}"
        )
    if g.n != params.expected_n or any(len(nb) != p + 1 for nb in g.neighbors):
        raise ParseError(
            f"{path}: its lps record (p={p}, q={q}) needs "
            f"{params.expected_n} vertices of degree {p + 1}, but the graph has "
            f"{g.n} vertices of degrees {sorted({len(nb) for nb in g.neighbors})}"
        )
    return params


# ---------------------------------------------------------------------------
# individual checks


def _oracle_depth(g: Graph, m_max: int, budget: int) -> int:
    """Largest depth whose brute-force sweep stays within the step budget."""
    degree = max(map(len, g.neighbors))
    m = 0
    while m < m_max and oracle.walk_estimate(g, m + 1, degree=degree) <= budget:
        m += 1
    return m


def oracle_sources(ctx: SuiteContext) -> tuple[Sequence[int], int]:
    """(sources, scale) of the oracle search: scale times the sources' closed walks is N_m.

    On a certified X^{p,q} the search from the root e (row_vertex) stands
    for every vertex, so N_m is n times its closed walks; otherwise the
    search starts at every vertex and the scale is 1.
    """
    v = ctx.row_vertex
    return (range(ctx.g.n), 1) if v is None else ([v], ctx.g.n)


def check_oracle(ctx: SuiteContext, *, budget: int = DEFAULT_BUDGET) -> dict:
    """Recurrence vs. brute-force enumeration: cycle counts and path-count rows.

    The depth is the largest up to 10 whose search from every vertex fits
    the budget, and the search starts at oracle_sources(ctx): the root e
    alone with the context's Cayley certificate, every vertex
    otherwise.  Each source's rows are compared with its own rows of
    A_m (nbt.a_rows) as the search yields them, so no n x n table is
    held.  The closed walks, summed and scaled, are compared with N_m
    from the context's sweep.
    """
    depth = _oracle_depth(ctx.g, 10, budget)
    if depth < 1:
        raise IharaLabError("oracle budget too small for depth 1")
    sources, scale = oracle_sources(ctx)
    walks = oracle.reduced_walks(ctx.g, depth, sources, budget=budget)
    closed = [0] * depth
    worst = 0
    for src, (at_src, rows_bf) in zip(sources, walks):
        closed = [a + b for a, b in zip(closed, at_src)]
        for row_bf, row in zip(rows_bf, nbt.a_rows(ctx.g, ctx.cert, depth, src)):
            if row_bf != row:
                worst = max(worst, *(abs(a - b) for a, b in zip(row_bf, row)))
    counts_bf = [scale * c for c in closed]
    counts_rec = nbt.n_reduced_range(ctx.g, ctx.cert, depth, sweep=ctx.sweep)
    worst = max(worst, *(abs(a - b) for a, b in zip(counts_bf, counts_rec)))
    return {
        "metric": float(worst),
        "detail": {
            "depth": depth,
            "n_m_bruteforce": counts_bf,
            "n_m_recurrence": counts_rec,
        },
    }


def _zx_identity_defect(q: int, m_max: int) -> int:
    """Largest |coefficient| of M_m - B_m - e_m(q-1) in Z[x] over m = 1..m_max; 0 iff the identity holds."""
    worst = 0
    for m, (mp, bp) in enumerate(zip(*nbt.m_and_b_polynomials(q, m_max)), 1):
        diff = [x - y for x, y in zip_longest(mp, bp, fillvalue=0)]
        diff[0] -= (1 - m % 2) * (q - 1)
        worst = max(worst, *map(abs, diff))
    return worst


def _trace_route_metric(ctx: SuiteContext, m_max: int) -> float:
    """max_m |d_m| / max(n, sum mult |T_m(lambda / 2 sqrt q)|), m = 1..m_max, d_m from SuiteContext.trace_residuals.

    The sum stays below n unless a nontrivial cluster lies outside [-2 sqrt q, 2 sqrt q].
    """
    residuals = ctx.trace_residuals(m_max)
    _, spreads = ctx.nontrivial_chebyshev_sums(m_max)
    return max(abs(d) / max(ctx.g.n, s) for d, s in zip(residuals[1:], spreads[1:]))


def check_chebyshev(ctx: SuiteContext) -> dict:
    """M_m = 2 q^{m/2} T_m(A / 2 sqrt q) + e_m (q-1) I for m = 1..30, in three parts.

    1. The identity in Z[x]: both sides are integer polynomials in A, so
       it holds for every graph iff the coefficient lists agree; any
       nonzero difference (at least 1) fails the check.
    2. At every n, the exact Tr B_m of the half-length trace sweep against
       the spectral sum over the eigenvalue clusters (_trace_route_metric).
    3. On graphs with n <= 12, the exact M_m matrices against the float
       spectral M_m entry by entry, scaled by q^{m/2}.
    """
    q, n, m_max = ctx.cert.q, ctx.g.n, 30
    metric = max(float(_zx_identity_defect(q, m_max)), _trace_route_metric(ctx, m_max))
    detail: dict = {"m_max": m_max, "route": "integer recurrence"}
    if n <= 12:
        seq = nbt.ExactMatrixSeq(ctx.g, ctx.cert)
        fworst = 0.0
        for m in range(1, m_max + 1):
            seq.advance()
            mm = seq.m_current()
            fm = nbt.m_matrix_chebyshev(ctx.sd, m)
            fdiff = float(np.max(np.abs(np.array(mm, dtype=float) - fm)))
            fworst = max(fworst, fdiff / q ** (m / 2.0))
        detail["float_route_metric"] = fworst
        metric = max(metric, fworst)
    return {"metric": metric, "detail": detail}


def check_ihara_bass(ctx: SuiteContext, *, order: int = DEFAULT_ORDER) -> dict:
    """Cycle counts N_m vs. the determinant's power sums, exact integers (zeta.verify_ihara_bass)."""
    discrepancy = zeta.verify_ihara_bass(ctx, order)
    return {"metric": float(discrepancy), "detail": {"order": order}}


# vertex columns per block of range_abs_max.  The C @ S_J product of the
# first block holds m_max * n * RANGE_BLOCK floats: 28 MB at n=1092,
# m_max=200.  On a 2-vCPU Xeon VM, blocks of 8 to 32 ran X^{17,13}
# equally fast; 64 and 128 ran slower.
RANGE_BLOCK = 16


def range_abs_max(sd, m_max: int) -> np.ndarray:
    """max_ij |a_m(i, j)| for m = 1..m_max, with a_m = sum_l cos(m theta_l) P_l.

    From the quotient route, whose clusters carry the identity rows
    P_l(e, .) of a Cayley graph once per cell, a_m(v, w) = a_m(e, w v^-1)
    and a_m(e, .) is constant on each cell, so one (m_max x L) (L x cells)
    product gives every entry's value.  From the dense
    route it works on the principal eigenvector blocks V_l without
    forming P_l: for each block J of RANGE_BLOCK vertex columns, S_J[l]
    holds V_l[j0:] V_l[J]^T, the entries of P_l on and below the
    diagonal block (a_m is symmetric), and one GEMM with
    C = cos(m theta_l) gives those entries of every a_m at once.
    """
    principal = sd.principal()
    n, n_l = sd.n, len(principal)
    c = sd.principal_trig_table(m_max)[0]
    if principal[0].identity_row is not None:
        return np.abs(c @ np.stack([cl.identity_row for cl in principal])).max(axis=1)
    # two buffers sized for the first, largest block serve every block; a
    # fresh pair per block left about 1 MiB more peak RSS after a few
    # passes over n=120 graphs
    first = n * min(RANGE_BLOCK, n)
    s_buf = np.empty(n_l * first)
    prod_buf = np.empty(m_max * first)
    worst = np.zeros(m_max)
    for j0 in range(0, n, RANGE_BLOCK):
        j1 = min(j0 + RANGE_BLOCK, n)
        size = (n - j0) * (j1 - j0)
        s_j = s_buf[: n_l * size].reshape(n_l, n - j0, j1 - j0)
        for l, cl in enumerate(principal):
            np.matmul(cl.vectors[j0:], cl.vectors[j0:j1].T, out=s_j[l])
        prod = prod_buf[: m_max * size].reshape(m_max, size)
        np.matmul(c, s_j.reshape(n_l, size), out=prod)
        np.abs(prod, out=prod)
        np.maximum(worst, prod.max(axis=1), out=worst)
    return worst


def check_range(ctx: SuiteContext) -> dict:
    """Entries of a_m, m = 1..200, must stay inside [-1, 1]; metric is the worst excess."""
    sd, m_max = ctx.sd, 200
    if not sd.principal():
        return {"metric": 0.0, "detail": {"m_max": m_max, "note": "empty principal part"}}
    if sd.clusters[0].identity_row is not None and any(
        cl.value not in ctx.trivial_values() for cl in sd.singular()
    ):
        # X^{p,q} is Ramanujan, so any singular cluster besides +-(q+1) puts
        # the quotient spectrum in doubt: take the dense route's rows instead
        sd = eigendecompose(ctx.g, ctx.cert)
    worst = max(0.0, float(np.max(range_abs_max(sd, m_max))) - 1.0)
    return {"metric": worst, "detail": {"m_max": m_max}}


def check_cesaro(
    ctx: SuiteContext,
    *,
    k_values: tuple[int, ...] = DEFAULT_K,
    horizons: tuple[int, ...] = DEFAULT_HORIZONS["cesaro"],
) -> dict:
    """Cesaro averages of a_m^k and s_m^k against their limits (limits.cesaro).

    Load factor = scaled deviation over four times the partial-sum
    reference constant; combinations whose angle condition fails are
    reported as skipped rather than forced.
    """
    if not k_values:
        raise ValueError("the cesaro check needs at least one k")
    worst = 0.0
    rows = []
    skipped = []
    for k in k_values:
        for variant in ("a", "s"):
            try:
                rep = limits.cesaro(ctx.sd, k, horizons, variant)
            except AngleConditionViolated:
                skipped.append(f"{variant} k={k}")
                continue
            ref = rep.reference_constant
            load = max(rep.scaled_deviations) / (BAND_FACTOR * ref) if ref > 0 else 0.0
            worst = max(worst, load)
            rows.append(
                {
                    "variant": variant,
                    "k": k,
                    "scaled_deviations": list(rep.scaled_deviations),
                    "reference_constant": ref,
                    "load": load,
                    "rate_estimate": rep.rate_estimate,
                }
            )
    return {
        "metric": worst,
        "detail": {"horizons": list(horizons), "rows": rows, "skipped": skipped},
    }


def check_average_nm(
    ctx: SuiteContext, *, horizons: tuple[int, ...] = DEFAULT_HORIZONS["average-nm"]
) -> dict:
    """(1/N) sum N_m q^{-m/2} against the corollary's main terms."""
    reports = limits.average_nm_sweep(ctx, horizons)
    ref = reports[0].reference_constant
    worst = max(abs(r.scaled_residual) for r in reports) / (BAND_FACTOR * ref)
    return {
        "metric": worst,
        "detail": {
            "horizons": list(horizons),
            "scaled_residuals": [r.scaled_residual for r in reports],
            "reference_constant": ref,
        },
    }


def check_stf(ctx: SuiteContext) -> dict:
    """Trace formula for the single-frequency test functions m0 = 1..12 and the constant (m0 = 0)."""
    worst = 0.0
    rows = []
    for m0 in range(13):
        lhs, geo, disc = limits.stf_verify(ctx, limits.StfTestFunction.single(m0))
        worst = max(worst, disc)
        rows.append({"m0": m0, "lhs": lhs, "geometric": geo, "discrepancy": disc})
    return {"metric": worst, "detail": {"rows": rows}}


def check_cusp(
    ctx: SuiteContext, *, horizons: tuple[int, ...] = DEFAULT_HORIZONS["cusp"]
) -> dict:
    """Averaged normalized cusp coefficients stay O(1/N)."""
    if ctx.params is None:
        raise IharaLabError("cusp check needs an LPS graph source")
    rows = limits.average_cusp_sweep(ctx, horizons)
    ref = rows[0]["reference_constant"]  # the same at every horizon
    worst = max([0.0] + [r["scaled_average"] / (BAND_FACTOR * ref) for r in rows])
    return {
        "metric": worst,
        "detail": {
            "rows": [{k: r[k] for k in ("N", "average", "scaled_average")} for r in rows],
            "reference_constant": ref,
        },
    }


def check_phi(ctx: SuiteContext) -> dict:
    """Generating function: spectral vs. closed-form coefficients to order 8 + pole test.

    Passes when every coefficient matches within tolerance AND the values
    of (t-1) phi(t) at t = 1 - eps scale linearly in eps (no pole at 1).
    """
    if ctx.params is None:
        raise IharaLabError("phi check needs an LPS graph source")
    order = 8
    spectral, closed = zeta.phi_series(ctx, order)
    pairs = enumerate(zip(spectral.coeffs, closed.coeffs))
    diffs = [abs(zeta.graded_float(a - b, m, ctx.params.p)) for m, (a, b) in pairs]
    metric = max(diffs)
    eps_values = (1e-2, 1e-3, 1e-4)
    g_values = [
        abs(-e * zeta.phi_closed_point(ctx, 1.0 - e))
        for e in eps_values
    ]
    ratios = [g_values[i] / g_values[i + 1] for i in range(len(g_values) - 1)]
    lo, hi = PHI_RATIO_BAND
    decay_ok = all(lo <= r <= hi for r in ratios)
    return {
        "metric": metric,
        "extra_fail": not decay_ok,
        "detail": {
            "order": order,
            "coefficient_diffs": diffs,
            "pole_test_values": g_values,
            "pole_test_ratios": ratios,
            "ratio_band": [lo, hi],
        },
    }


def check_huang(ctx: SuiteContext) -> dict:
    """h_m >= 0 at even m up to 30; metric is the worst violation."""
    m_max = 30
    values = limits.huang_range(ctx, m_max)
    worst = 0.0
    for m in range(2, m_max + 1, 2):
        worst = max(worst, -min(0.0, values[m - 1]))
    return {
        "metric": worst,
        "detail": {"m_max": m_max, "even_values": [values[m - 1] for m in range(2, m_max + 1, 2)]},
    }


# ---------------------------------------------------------------------------
# orchestration

# name: (runner, default tolerance, the VerificationSuiteConfig fields run_check
# passes it as keywords), in run order; the tolerances were pinned before the
# implementations were run (see the repo's test suite)
_CHECKS: dict[str, tuple[Callable[..., dict], float, tuple[str, ...]]] = {
    "oracle": (check_oracle, 0.0, ("budget",)),
    "chebyshev": (check_chebyshev, 1e-6, ()),
    "ihara-bass": (check_ihara_bass, 0.0, ("order",)),
    "range": (check_range, 1e-9, ()),
    "cesaro": (check_cesaro, 1.0, ("k_values", "horizons")),
    "average-nm": (check_average_nm, 1.0, ("horizons",)),
    "stf": (check_stf, 1e-8, ()),
    "cusp": (check_cusp, 1.0, ("horizons",)),
    "phi": (check_phi, 1e-6, ()),
    "huang": (check_huang, 1e-9, ()),
}
CHECK_ORDER = tuple(_CHECKS)
DEFAULT_TOLERANCES = {name: tolerance for name, (_, tolerance, _) in _CHECKS.items()}


def run_check(name: str, ctx: SuiteContext, config: VerificationSuiteConfig) -> CheckResult:
    """One check on ctx; horizons=None leaves the check its default horizons."""
    runner, _, settings = _CHECKS[name]
    kwargs = {key: getattr(config, key) for key in settings if getattr(config, key) is not None}
    start = time.perf_counter()
    try:
        outcome = runner(ctx, **kwargs)
    except Exception as exc:  # surfaced per check; the suite keeps going
        return _error_result(name, config, f"{type(exc).__name__}: {exc}", time.perf_counter() - start)
    elapsed = time.perf_counter() - start
    metric, tolerance = outcome["metric"], config.tolerance(name)
    # written so that a NaN metric or tolerance fails
    failed = not metric <= tolerance or outcome.get("extra_fail", False)
    status = "fail" if failed else "pass"
    return CheckResult(name, status, metric, tolerance, round(elapsed, 3), outcome.get("detail", {}))


def _error_result(name: str, config: VerificationSuiteConfig, error: str, seconds: float = 0.0) -> CheckResult:
    return CheckResult(name, "error", None, config.tolerance(name), round(seconds, 3), {"error": error})


def run_suite(config: VerificationSuiteConfig) -> tuple[int, list[CheckResult]]:
    """Run the selected checks in dependency order.

    Returns (exit_code, results); exit code 0 iff every check passed.
    The summary file (config.emit) is written even when checks error.
    """
    selected = validate_checks(config.checks)
    names = [name for name in CHECK_ORDER if name in selected]
    try:
        ctx = resolve_source(config)
    except IharaLabError as exc:
        results = [_error_result(name, config, f"graph source: {type(exc).__name__}: {exc}") for name in names]
    else:
        results = [run_check(name, ctx, config) for name in names]
    if config.emit:
        write_summary(config.emit, results)
    return (0 if all(r.status == "pass" for r in results) else 1), results


def write_summary(path: str, results: list[CheckResult]) -> None:
    payload = {"results": [asdict(r) for r in results]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
