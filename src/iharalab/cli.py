"""Command-line front end.

Subcommands cover construction (graph, lps), spectra, cycle counts (nbt,
oracle), series (zeta, cuspgen), limit reports (limits, stf, huang), and
the verification suite (verify).  Reports are CSV for tabular sweeps and
JSON for verdicts; floats are emitted with 17 significant digits so that
identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import limits, lps, nbt, oracle, suite, zeta
from .errors import IharaLabError, NotRegular, ParseError
from .graphs import certify_regular, save_graph


def _fmt(x) -> str:
    """Deterministic cell formatting: ints/rationals exact, floats .17g."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit_json(args, payload: dict) -> None:
    """Indented JSON to the --emit path, else to stdout."""
    text = json.dumps(payload, indent=2)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.emit}")
    else:
        print(text)


def _emit_rows(args, header: list[str], rows: list[list]) -> None:
    """A table as CSV (JSON for a .json path) to --emit, else tab-separated to stdout."""
    cells = [[_fmt(c) for c in row] for row in rows]
    if not args.emit:
        for line in [header, *cells]:
            print("\t".join(line))
    elif args.emit.endswith(".json"):
        _emit_json(args, {"columns": header, "rows": cells})
    else:
        with open(args.emit, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *cells])
        print(f"wrote {args.emit}")


def _load_source(source: str) -> suite.SuiteContext:
    """Positional graph source: an existing file path, else a named graph."""
    return suite.resolve_source(suite.VerificationSuiteConfig.from_dict(suite.source_entry(source)))


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_graph(args) -> int:
    ctx = _load_source(args.source)
    g = ctx.g
    print(f"vertices: {g.n}")
    print(f"edges: {g.edge_count}")
    try:
        cert = ctx.cert
        print(f"regular: yes, degree {cert.degree} (q = {cert.q})")
        print(f"bipartite: {'yes' if cert.bipartite else 'no'}")
    except NotRegular as exc:
        print(f"regular: no ({exc})")
    if args.emit:
        save_graph(g, args.emit, fmt=args.fmt)
        print(f"wrote {args.emit}")
    return 0


def cmd_lps(args) -> int:
    g, params = lps.build_lps(args.p, args.q, allow_large=args.allow_large)
    cert = certify_regular(g)
    gens = lps.quaternion_generators(args.p)
    print(f"X^{{{args.p},{args.q}}}: {params.group_kind}(F_{args.q})")
    print(f"vertices: {g.n}")
    print(f"degree: {cert.degree} ({len(gens)} generators)")
    print(f"bipartite: {'yes' if cert.bipartite else 'no'}")
    if args.emit:
        save_graph(g, args.emit, fmt="json", lps={"p": args.p, "q": args.q, "kind": params.group_kind})
        print(f"wrote {args.emit}")
    return 0


def cmd_spectrum(args) -> int:
    ctx = _load_source(args.source)
    sd = ctx.sd
    header = ["value", "multiplicity", "theta_re", "theta_im", "principal"]
    rows = [
        [cl.value, cl.mult, cl.theta.real, cl.theta.imag, cl.principal]
        for cl in sd.clusters
    ]
    _emit_rows(args, header, rows)
    try:
        limits.require_ramanujan(sd)
        print("ramanujan: yes")
    except IharaLabError:
        print("ramanujan: no")
    return 0


def cmd_nbt(args) -> int:
    ctx = _load_source(args.source)
    if args.what == "nm":
        counts = nbt.n_reduced_range(ctx.g, ctx.cert, args.m_max, sweep=ctx.sweep)
        rows = [[m, counts[m - 1]] for m in range(1, args.m_max + 1)]
        _emit_rows(args, ["m", "n_m"], rows)
    elif args.what == "f":
        values = nbt.f_values(ctx.g, ctx.cert, args.m_max, v=args.vertex)
        rows = [[m, values[m]] for m in range(args.m_max + 1)]
        _emit_rows(args, ["m", "f_m"], rows)
    else:  # ttilde
        traces = nbt.t_tilde_traces(ctx.g, ctx.cert, args.m_max, sweep=ctx.sweep)
        rows = [[m, traces[m]] for m in range(args.m_max + 1)]
        _emit_rows(args, ["m", "trace_t_tilde_m"], rows)
    return 0


def cmd_oracle(args) -> int:
    ctx = _load_source(args.source)
    sources, scale = suite.oracle_sources(ctx)
    walks = oracle.reduced_walks(ctx.g, args.m_max, sources, budget=args.budget)
    counts = [scale * sum(col) for col in zip(*(closed for closed, _ in walks))]
    try:
        rec = nbt.n_reduced_range(ctx.g, ctx.cert, args.m_max, sweep=ctx.sweep)
    except NotRegular:
        rec = None
    header = ["m", "bruteforce"] + (["recurrence", "equal"] if rec else [])
    rows = []
    for m in range(1, args.m_max + 1):
        row = [m, counts[m - 1]]
        if rec:
            row += [rec[m - 1], counts[m - 1] == rec[m - 1]]
        rows.append(row)
    _emit_rows(args, header, rows)
    if rec and counts != rec:
        print("MISMATCH between brute force and recurrence")
        return 1
    return 0


def cmd_zeta(args) -> int:
    ctx = _load_source(args.source)
    recip = zeta.reciprocal_series(ctx, args.order)
    zs = recip.inverse()
    logder = (-recip.derivative()) * zs
    out = float if args.mode == "float" else str
    payload = {
        "order": args.order,
        "betti_r": ctx.g.betti_number,
        "reciprocal_coeffs": [out(c) for c in recip.coeffs],
        "zeta_coeffs": [out(c) for c in zs.coeffs],
        "n_m": [out(c) for c in logder.coeffs[: args.order]],
    }
    _emit_json(args, payload)
    return 0


def cmd_cuspgen(args) -> int:
    ctx = suite.SuiteContext(*lps.build_lps(args.p, args.q, allow_large=args.allow_large))
    g, params, cert = ctx.g, ctx.params, ctx.cert
    cusps = zeta.cusp_coefficients_range(g, params, args.order, sweep=ctx.sweep)
    rows = []
    for m, (cusp, term) in enumerate(zip(cusps, zeta.normalize_cusp(cusps, args.p))):
        eis = zeta.eisenstein_C(args.p, args.q, m)
        # a(p^m)/(2 p^{m/2}) is term sqrt(p)^{m mod 2}: rational unless m is odd and term nonzero
        normalized = _fmt(zeta.graded_float(term, m, args.p)) if m % 2 and term else str(term)
        rows.append({
            "m": m,
            "theta_coeff": str(cusp + eis),
            "eisenstein": str(eis),
            "cusp": str(cusp),
            "normalized": normalized,
        })
    payload = {
        "p": args.p,
        "q": args.q,
        "n": g.n,
        "kind": params.group_kind,
        "bipartite": cert.bipartite,
        "rows": rows,
    }
    _emit_json(args, payload)
    return 0


def cmd_limits(args) -> int:
    ctx = _load_source(args.source)
    horizons = args.horizons
    if horizons is None:
        horizons = suite.DEFAULT_HORIZONS[args.what]
    if args.what == "cesaro":
        rep = limits.cesaro(ctx.sd, args.k, horizons, args.variant)
        header = ["N", "deviation", "scaled_deviation", "reference_constant", "rate_estimate"]
        rows = [
            [N, rep.deviations[i], rep.scaled_deviations[i], rep.reference_constant,
             rep.rate_estimate if rep.rate_estimate is not None else "nan"]
            for i, N in enumerate(rep.N_values)
        ]
        _emit_rows(args, header, rows)
    elif args.what == "average-nm":
        reports = limits.average_nm_sweep(ctx, horizons)
        header = ["N", "lhs", "main_terms", "residual", "scaled_residual", "reference_constant"]
        rows = [
            [r.N, r.lhs, r.main_terms, r.residual, r.scaled_residual, r.reference_constant]
            for r in reports
        ]
        _emit_rows(args, header, rows)
    else:  # cusp
        if ctx.params is None:
            raise ParseError("limits --what cusp needs an LPS graph file with its parameters")
        header = ["N", "average", "scaled_average", "reference_constant"]
        rows = limits.average_cusp_sweep(ctx, horizons)
        _emit_rows(args, header, [[r[k] for k in header] for r in rows])
    return 0


def _parse_hhat(pairs: list[str]) -> list[tuple[int, float]]:
    out = []
    for item in pairs:
        try:
            m_str, v_str = item.split(":", 1)
            m = int(m_str)
            v = float(v_str)
        except ValueError as exc:
            raise ParseError(f"--hhat expects m:value, got {item!r}") from exc
        if m < 1:
            raise ParseError("--hhat frequencies must be >= 1 (use --hhat0 for m = 0)")
        out.append((m, v))
    return out


def cmd_stf(args) -> int:
    support = tuple(_parse_hhat(args.hhat or []))
    if not all(math.isfinite(v) for v in (args.hhat0, *(v for _, v in support))):
        raise ParseError("--hhat0 and the --hhat values must be finite")
    ctx = _load_source(args.source)
    h = limits.StfTestFunction(hhat0=args.hhat0, support=support)
    lhs, geo, disc = limits.stf_verify(ctx, h)
    payload = {
        "lhs": lhs,
        "geometric": geo,
        "discrepancy": disc,
        "hhat0": args.hhat0,
        "support": [[m, v] for m, v in support],
    }
    _emit_json(args, payload)
    return 0


def cmd_huang(args) -> int:
    ctx = _load_source(args.source)
    values = limits.huang_range(ctx, args.m_max)
    rows = [[m, values[m - 1]] for m in range(1, args.m_max + 1)]
    _emit_rows(args, ["m", "h_m"], rows)
    worst = min(values[m - 1] for m in range(2, args.m_max + 1, 2)) if args.m_max >= 2 else 0.0
    print(f"min even-m h_m: {_fmt(worst)}")
    return 0


# verify flags named after the config keys they set
_VERIFY_KEYS = ("lps", "checks", "horizons", "k", "tol", "budget", "emit", "allow_large")


def cmd_verify(args) -> int:
    """The flags the user typed set their config keys on top of the --config file's."""
    keys = {k: getattr(args, k) for k in _VERIFY_KEYS if getattr(args, k) is not None}
    if args.graph is not None:
        keys.update(suite.source_entry(args.graph))
    cls = suite.VerificationSuiteConfig
    config = cls.from_json_file(args.config, keys) if args.config else cls.from_dict(keys)
    code, results = suite.run_suite(config)
    for r in results:
        metric = "-" if r.metric is None else _fmt(r.metric)
        print(f"[{r.status.upper():5s}] {r.check:12s} metric={metric} "
              f"tolerance={_fmt(r.tolerance)} ({r.seconds}s)")
        if r.status == "error":
            print(f"        {r.detail.get('error', '')}")
    if config.emit:
        print(f"wrote {config.emit}")
    return code


# ---------------------------------------------------------------------------
# parser


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ihara-lab",
        description="Reduced-cycle counts, Ihara zeta series, and spectral limit checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="inspect or convert a graph")
    p_graph.add_argument("source", help="named graph or file path")
    p_graph.add_argument("--emit", help="write the graph to this path")
    p_graph.add_argument("--fmt", choices=["json", "edgelist"], default=None)
    p_graph.set_defaults(func=cmd_graph)

    p_lps = sub.add_parser("lps", help="build an X^{p,q} Cayley graph")
    p_lps.add_argument("--p", type=int, required=True)
    p_lps.add_argument("--q", type=int, required=True)
    p_lps.add_argument("--allow-large", action="store_true")
    p_lps.add_argument("--emit", help="write graph JSON with embedded parameters")
    p_lps.set_defaults(func=cmd_lps)

    p_spec = sub.add_parser("spectrum", help="eigenvalue clusters and angles")
    p_spec.add_argument("source")
    p_spec.add_argument("--emit")
    p_spec.set_defaults(func=cmd_spectrum)

    p_nbt = sub.add_parser("nbt", help="reduced-cycle counts and related traces")
    p_nbt.add_argument("source")
    p_nbt.add_argument("--m-max", type=int, default=20)
    p_nbt.add_argument("--what", choices=["nm", "f", "ttilde"], default="nm")
    p_nbt.add_argument("--vertex", type=int, default=0)
    p_nbt.add_argument("--emit")
    p_nbt.set_defaults(func=cmd_nbt)

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration cross-check")
    p_oracle.add_argument("source")
    p_oracle.add_argument("--m-max", type=int, default=8)
    p_oracle.add_argument("--budget", type=int, default=suite.DEFAULT_BUDGET)
    p_oracle.add_argument("--emit")
    p_oracle.set_defaults(func=cmd_oracle)

    p_zeta = sub.add_parser("zeta", help="zeta series and its reciprocal")
    p_zeta.add_argument("source")
    p_zeta.add_argument("--order", type=int, default=12)
    p_zeta.add_argument("--mode", choices=["exact", "float"], default="exact")
    p_zeta.add_argument("--emit")
    p_zeta.set_defaults(func=cmd_zeta)

    p_cusp = sub.add_parser("cuspgen", help="theta, Eisenstein, and cusp coefficients")
    p_cusp.add_argument("--p", type=int, required=True)
    p_cusp.add_argument("--q", type=int, required=True)
    p_cusp.add_argument("--order", type=int, default=8)
    p_cusp.add_argument("--allow-large", action="store_true")
    p_cusp.add_argument("--emit")
    p_cusp.set_defaults(func=cmd_cuspgen)

    p_lim = sub.add_parser("limits", help="Cesaro and averaging reports")
    p_lim.add_argument("source")
    p_lim.add_argument("--what", choices=["cesaro", "average-nm", "cusp"], default="cesaro")
    p_lim.add_argument("--k", type=int, default=2)
    p_lim.add_argument("--variant", choices=["a", "s"], default="a")
    p_lim.add_argument("--horizons", type=_int_list, default=None)
    p_lim.add_argument("--emit")
    p_lim.set_defaults(func=cmd_limits)

    p_stf = sub.add_parser("stf", help="trace formula check")
    p_stf.add_argument("source")
    p_stf.add_argument("--hhat", action="append", help="frequency:value, repeatable")
    p_stf.add_argument("--hhat0", type=float, default=0.0)
    p_stf.add_argument("--emit")
    p_stf.set_defaults(func=cmd_stf)

    p_huang = sub.add_parser("huang", help="Li-criterion sequence h_m")
    p_huang.add_argument("source")
    p_huang.add_argument("--m-max", type=int, default=30)
    p_huang.add_argument("--emit")
    p_huang.set_defaults(func=cmd_huang)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--graph", help="named graph or file path")
    p_verify.add_argument("--lps", help="p,q pair")
    p_verify.add_argument("--config", help="JSON config file")
    p_verify.add_argument("--checks", type=lambda text: text.split(","), help="comma-separated names")
    p_verify.add_argument("--horizons", type=_int_list, default=None)
    p_verify.add_argument("--k", type=_int_list, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--budget", type=int)
    p_verify.add_argument("--emit", help="JSON summary path")
    p_verify.add_argument("--allow-large", action="store_true", default=None, help="let --lps build q > 29")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IharaLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
