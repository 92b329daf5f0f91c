"""Print a survey table for the named corpus plus one LPS graph.

For each graph: order, degree, q, bipartiteness, Ramanujan status, the
first reduced-cycle counts N_m, and (for small graphs) the reciprocal
zeta polynomial.  Run from the repository root:

    python3 scripts/corpus_report.py
    python3 scripts/corpus_report.py --m-max 12 --no-lps
"""

from __future__ import annotations

import argparse
import sys

from iharalab.errors import NotRamanujan
from iharalab.graphs import named_graph
from iharalab.limits import require_ramanujan
from iharalab.lps import build_lps
from iharalab.nbt import n_reduced_range
from iharalab.suite import SuiteContext
from iharalab.zeta import ihara_bass_reciprocal

NAMED = ("K3", "K4", "K33", "PETERSEN", "CUBE")

# the reciprocal polynomial has 2n+1 coefficients; print it only while that stays readable
DET_COEFF_LIMIT = 12


def _ramanujan_label(sd) -> str:
    try:
        require_ramanujan(sd)
    except NotRamanujan:
        return "no"
    return "yes"


def _report_row(label: str, ctx: SuiteContext, m_max: int) -> None:
    g, cert = ctx.g, ctx.cert
    counts = n_reduced_range(g, cert, m_max, sweep=ctx.sweep)
    print(f"{label}")
    print(f"  n={g.n}  degree={cert.degree}  q={cert.q}"
          f"  bipartite={'yes' if cert.bipartite else 'no'}"
          f"  ramanujan={_ramanujan_label(ctx.sd)}")
    print(f"  N_1..N_{m_max}: {counts}")
    if g.n <= DET_COEFF_LIMIT:
        zr = ihara_bass_reciprocal(g)
        print(f"  betti r={zr.betti_r}  det(I - uA + q u^2 I) coeffs: {list(zr.det_coeffs)}")
    else:
        print(f"  reciprocal polynomial skipped (degree {2 * g.n})")
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m-max", type=int, default=8, help="largest cycle length to count")
    ap.add_argument("--no-lps", action="store_true", help="skip the X^{13,5} row")
    args = ap.parse_args(argv)
    if args.m_max < 1:
        print("error: --m-max must be at least 1", file=sys.stderr)
        return 2
    for name in NAMED:
        _report_row(name, SuiteContext(named_graph(name)), args.m_max)
    if not args.no_lps:
        ctx = SuiteContext(*build_lps(13, 5))  # its sweep runs on the identity row
        _report_row(f"X^{{13,5}} ({ctx.params.group_kind}(F_{ctx.params.q}))", ctx, args.m_max)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
