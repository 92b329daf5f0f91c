"""Regenerate the limit-theorem sweep data as CSV files.

Three families are swept and written to an output directory:

  cesaro.csv      scaled Cesaro deviations N * |avg - limit| for the
                  plain and sine-weighted averages, k = 1..4, over the
                  named corpus (resonant (graph, k) pairs are skipped)
  average_nm.csv  scaled residuals of the averaged reduced-cycle counts
                  on the Ramanujan members of the corpus
  cusp.csv        scaled averages of the normalized cusp coefficients
                  of X^{13,5}

Every row carries the proof-side reference constant so band ratios can
be recomputed downstream.  Run from the repository root:

    python3 scripts/limit_sweep.py --out-dir out
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from iharalab.errors import AngleConditionViolated, NotRamanujan
from iharalab.graphs import named_graph
from iharalab.limits import average_cusp_sweep, average_nm_sweep, cesaro, require_ramanujan
from iharalab.lps import build_lps
from iharalab.suite import SuiteContext

NAMED = ("K3", "K4", "K33", "PETERSEN", "CUBE")


def write_cesaro(path: str, horizons: list[int], k_max: int) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["graph", "k", "variant", "N", "deviation", "scaled", "reference"])
        for name in NAMED:
            sd = SuiteContext(named_graph(name)).sd
            for k in range(1, k_max + 1):
                for variant in ("a", "s"):
                    try:
                        rep = cesaro(sd, k, horizons, variant)
                    except AngleConditionViolated:
                        continue
                    for n_val, dev, scaled in zip(
                        rep.N_values, rep.deviations, rep.scaled_deviations
                    ):
                        w.writerow([name, k, variant, n_val, repr(dev), repr(scaled),
                                    repr(rep.reference_constant)])


def write_average_nm(path: str, horizons: list[int]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["graph", "N", "lhs", "main_terms", "residual", "scaled", "reference"])
        for name in NAMED:
            ctx = SuiteContext(named_graph(name))
            try:
                require_ramanujan(ctx.sd)
            except NotRamanujan:
                continue
            if ctx.cert.q < 2:
                continue
            for rep in average_nm_sweep(ctx, horizons):
                w.writerow([name, rep.N, repr(rep.lhs), repr(rep.main_terms),
                            repr(rep.residual), repr(rep.scaled_residual),
                            repr(rep.reference_constant)])


def write_cusp(path: str, horizons: list[int]) -> None:
    ctx = SuiteContext(*build_lps(13, 5))  # certified: row sweep and block spectrum
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "average", "scaled", "reference", "term_bound", "max_term"])
        for row in average_cusp_sweep(ctx, horizons):
            w.writerow([row["N"], repr(row["average"]), repr(row["scaled_average"]),
                        repr(row["reference_constant"]), repr(row["term_bound"]),
                        repr(row["max_term"])])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="out", help="directory for the CSV files")
    ap.add_argument("--horizons", default="25,50,100,200,400",
                    help="comma-separated Cesaro horizons")
    ap.add_argument("--nm-horizons", default="10,20,40,80",
                    help="comma-separated horizons for the N_m and cusp averages")
    ap.add_argument("--k-max", type=int, default=4, help="largest cosine power")
    args = ap.parse_args(argv)
    try:
        horizons = sorted(int(s) for s in args.horizons.split(","))
        nm_horizons = sorted(int(s) for s in args.nm_horizons.split(","))
    except ValueError:
        print("error: horizons must be comma-separated integers", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    write_cesaro(os.path.join(args.out_dir, "cesaro.csv"), horizons, args.k_max)
    print(f"wrote {args.out_dir}/cesaro.csv")
    write_average_nm(os.path.join(args.out_dir, "average_nm.csv"), nm_horizons)
    print(f"wrote {args.out_dir}/average_nm.csv")
    write_cusp(os.path.join(args.out_dir, "cusp.csv"), nm_horizons)
    print(f"wrote {args.out_dir}/cusp.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
