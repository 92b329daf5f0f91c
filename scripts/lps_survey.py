"""Survey LPS graphs over several (p, q) pairs and report spectral margins.

For each pair: the quotient group, order, degree, bipartiteness, the
seconds taken by build_lps plus certify_regular, and the process's peak
RSS (ru_maxrss) after them.  Then, in a fresh process of its own that
builds the graph again, the seconds of the quotient spectral route
(spectral.quotient_decompose on the rooted quotient at
lps.cayley_root's vertex e, the quotient's colour refinement included),
its cluster count, that process's ru_maxrss, and the worst distance
|n P_l(e, e) - mult_l| over the clusters: the route refuses a graph once
that distance passes spectral.MULT_TOL (1e-3), so the column shows the
margin as the rungs grow.  Then, back in the first process, the
number of cells of the identity vertex's rooted equitable quotient
(graphs.rooted_quotient), the seconds of its refinement and those of
the row sweep to m = 200 on it (nbt.TraceSweep given the quotient),
so the larger rungs show which of the two dominates.  Then the certifier on a copy of the graph with its vertices
permuted by a seeded permutation (--seed): the seconds of
lps.cayley_root, which must find a verified isomorphism onto X^{p,q}
by its individualize-and-refine search, and the search nodes that took
(from a second, identical search), so the ladder shows the search cost
as the rungs grow.  Pairs of order at most --max-n also get the
largest non-trivial adjacency eigenvalue in absolute value from the
dense eigvalsh and its margin below the Ramanujan bound 2 sqrt(p);
above it only the dense eigensolve is skipped.  Run from the repository
root:

    python3 scripts/lps_survey.py
    python3 scripts/lps_survey.py --pairs 13,5 17,13 --max-n 4000
    python3 scripts/lps_survey.py --pairs 5,17 5,29 --max-n 2500 --seed 7
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from iharalab import nbt
from iharalab import lps
from iharalab.graphs import Graph, certify_regular, rooted_quotient
from iharalab.lps import build_lps, cayley_root
from iharalab.spectral import quotient_decompose

DEFAULT_PAIRS = ((13, 5), (17, 5), (29, 5), (5, 13), (17, 13))
ROW_M = 200  # the cusp check's horizon


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def quotient_route(p: int, q: int) -> tuple[float, int, float, float]:
    """Seconds, cluster count and ru_maxrss of the quotient route on X^{p,q}, and its worst |n P_l(e, e) - mult_l|."""
    g, params = build_lps(p, q)
    cert = certify_regular(g)
    v = cayley_root(g, params)
    t0 = time.perf_counter()
    quotient = rooted_quotient(g, v)
    sd = quotient_decompose(g, cert, quotient)
    elapsed, rss = time.perf_counter() - t0, maxrss_mib()
    root = quotient.root  # the cell {e}: identity_row[root] is P_l(e, e)
    slack = max(abs(g.n * cl.identity_row[root] - cl.mult) for cl in sd.clusters)
    return elapsed, len(sd.clusters), rss, float(slack)


def row_route(g, cert, params) -> tuple[int, float, float]:
    """Cells of the identity's rooted quotient, the seconds of its refinement, and of the row sweep to ROW_M."""
    v = cayley_root(g, params)
    t0 = time.perf_counter()
    quotient = rooted_quotient(g, v)
    t1 = time.perf_counter()
    nbt.TraceSweep(g, cert.q, quotient).prefix(ROW_M)
    return len(quotient.sizes), t1 - t0, time.perf_counter() - t1


def relabeled_route(g, params, seed: int) -> tuple[float, int]:
    """Seconds of cayley_root on g with its vertices permuted by a seeded permutation, and the search nodes."""
    perm = np.random.default_rng(seed).permutation(g.n)
    copy = Graph(g.n, tuple(tuple(sorted(int(perm[w]) for w in g.neighbors[v])) for v in np.argsort(perm)))
    t0 = time.perf_counter()
    root = cayley_root(copy, params)
    elapsed = time.perf_counter() - t0
    if root is None:
        raise SystemExit(f"X^{{{params.p},{params.q}}}: the certifier refused a relabeled copy")
    return elapsed, lps._isomorphism(copy, g, 0, cayley_root(g, params))[1]


def survey_pair(p: int, q: int, max_n: int, seed: int) -> None:
    t0 = time.perf_counter()
    g, params = build_lps(p, q)
    cert = certify_regular(g)
    built = time.perf_counter() - t0
    rss = maxrss_mib()
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        quotient_s, clusters, quotient_rss, slack = pool.submit(quotient_route, p, q).result()
    cells, refine_s, row_s = row_route(g, cert, params)
    certify_s, nodes = relabeled_route(g, params, seed)
    head = (
        f"X^{{{p},{q}}}: {params.group_kind}(F_{q})  n={g.n}  degree={cert.degree}  "
        f"bipartite={'yes' if cert.bipartite else 'no'}  "
        f"build+certify={built:.2f}s  maxrss={rss:.0f}MiB  "
        f"quotient={quotient_s:.2f}s ({clusters} clusters, own process maxrss={quotient_rss:.0f}MiB, "
        f"worst |nP(e,e)-mult|={slack:.1e})  "
        f"row sweep to m={ROW_M}={row_s:.3f}s ({cells} cells, refinement {refine_s:.3f}s)  "
        f"relabeled copy certified={certify_s:.3f}s ({nodes} search nodes)"
    )
    if g.n > max_n:
        print(f"{head}  eigvalsh skipped: n exceeds --max-n {max_n}")
        return
    t0 = time.perf_counter()
    evals = np.linalg.eigvalsh(g.as_numpy())
    elapsed = time.perf_counter() - t0
    bound = 2.0 * math.sqrt(p)
    # drop the trivial eigenvalues p+1 and, on bipartite graphs, -(p+1)
    nontrivial = [v for v in evals if abs(abs(v) - (p + 1)) > 1e-8]
    top = max(abs(v) for v in nontrivial)
    status = "ramanujan" if top <= bound + 1e-9 else "NOT ramanujan"
    print(
        f"{head}  max|lambda|={top:.6f}  bound={bound:.6f}  "
        f"margin={bound - top:.6f}  {status}  (eigvalsh {elapsed:.1f}s)"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", nargs="*", default=None,
                    help="p,q pairs, e.g. 13,5 17,13 (default: a small survey set)")
    ap.add_argument("--max-n", type=int, default=2500,
                    help="skip the eigensolve for pairs whose group order exceeds this")
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the permutation that relabels each graph for the certifier column")
    args = ap.parse_args(argv)
    if args.pairs is None:
        pairs = list(DEFAULT_PAIRS)
    else:
        pairs = []
        for item in args.pairs:
            bits = item.split(",")
            if len(bits) != 2:
                print(f"error: bad pair {item!r}, expected p,q", file=sys.stderr)
                return 2
            try:
                pairs.append((int(bits[0]), int(bits[1])))
            except ValueError:
                print(f"error: bad pair {item!r}, expected integers", file=sys.stderr)
                return 2
    for p, q in pairs:
        survey_pair(p, q, args.max_n, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
