"""Write pins.json: the exact outputs the benchmark's gate compares against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/pin.py

N_m comes from the single-row route and is cross-checked against the
full matrix route (all of it at n=120, the first few terms at n=1092).
Generated graphs are pinned through the seed-0 file; the pinned values
do not depend on the seed, because the seed only relabels.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from iharalab import limits, lps, nbt, zeta  # noqa: E402
from iharalab.graphs import certify_regular, load_graph  # noqa: E402
from worker import PINS, digest_fractions, digest_reciprocal  # noqa: E402
from workloads import write_inputs  # noqa: E402

N_M_MAX = 80  # the longest sweep a check asks for (average-nm)
CUSP_TOP = 200  # the cusp check's largest horizon
FULL_CHECK_MAX = {120: N_M_MAX, 1092: 4}


def pin_lps(p: int, q: int) -> dict:
    g, params = lps.build_lps(p, q)
    cert = certify_regular(g)
    n_m = nbt.n_reduced_range(g, cert, N_M_MAX, method="row")
    k = FULL_CHECK_MAX[g.n]
    if nbt.n_reduced_range(g, cert, k, method="full") != n_m[:k]:
        raise SystemExit(f"X^{{{p},{q}}}: row and full N_m routes disagree")
    out = {"n_m": n_m}
    if params.group_kind == "PGL2":  # bipartite: the normalized terms are rational
        out["cusp_terms_sha256"] = digest_fractions(limits.normalized_cusp_terms(g, params, CUSP_TOP))
    return out


def pin_irregular() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        (record,) = write_inputs("zeta-irregular", 0, Path(tmp))
        g = load_graph(str(Path(tmp) / record["file"]))
    return {"reciprocal_sha256": digest_reciprocal(zeta.ihara_bass_reciprocal(g))}


def main() -> int:
    pins = {
        "X13_5": pin_lps(13, 5),
        "X17_5": pin_lps(17, 5),
        "X17_13": pin_lps(17, 13),
        "irregular64": pin_irregular(),
    }
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
