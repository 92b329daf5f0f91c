"""Command-line interface: exit codes, emitted files, determinism."""

import decimal
import hashlib
import json
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from reduced_walks_bf import reduced_cycle_counts

from iharalab import lps, nbt, oracle, spectral, suite, zeta
from iharalab.cli import main
from iharalab.errors import InvalidPrime
from iharalab.graphs import load_graph
from iharalab.lps import build_lps
from iharalab.suite import CHECK_ORDER

GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# exit codes


def test_graph_named_ok(capsys):
    assert main(["graph", "petersen"]) == 0
    out = capsys.readouterr().out
    assert "vertices: 10" in out
    assert "regular: yes, degree 3" in out
    assert "bipartite: no" in out


def test_graph_unknown_name(capsys):
    assert main(["graph", "nosuchgraph"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 4.7, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        {"n": True, "edges": []},
        {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, True]]},
    ],
    ids=["float n", "boolean n", "boolean edge end"],
)
def test_graph_file_with_a_non_integer_field_is_parse_error(tmp_path, capsys, doc):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["graph", str(path)]) == 2
    assert "integer" in capsys.readouterr().err


def test_verify_unknown_check_is_parse_error(capsys):
    assert main(["verify", "--graph", "k4", "--checks", "bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_needs_a_source(capsys):
    assert main(["verify"]) == 2


def test_stf_bad_hhat(capsys):
    assert main(["stf", "K4", "--hhat", "bad"]) == 2
    assert main(["stf", "K4", "--hhat", "0:1.0"]) == 2


def test_an_average_past_the_float_range_is_a_typed_error(tmp_path, monkeypatch, capsys):
    """At N = 600 on X^{17,13} the average of N_m 17^{-m/2} is about 3e366."""
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--lps", "17,13", "--checks", "average-nm", "--horizons", "600", "--emit", "s.json"]
    assert main(argv) == 1
    (result,) = json.loads((tmp_path / "s.json").read_text())["results"]
    assert result["status"] == "error"
    assert result["detail"]["error"] == "OutOfRange: the value 3.0003e+366 in Q(sqrt(17)) does not fit a float"


def test_a_test_function_past_the_float_range_is_a_typed_error(capsys):
    """h at the trivial eigenvalue 3 of PETERSEN is 2 T_20000(3 / 2 sqrt 2), far past 1e308."""
    assert main(["stf", "PETERSEN", "--hhat", "20000:1.0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: OutOfRange: T_20000(1.06066017177982")
    assert err.rstrip().endswith("does not fit a float")
    assert "Traceback" not in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# graph / spectrum / nbt / oracle surface


def test_graph_roundtrip_via_emit(tmp_path, capsys):
    path = tmp_path / "petersen.edges"
    assert main(["graph", "petersen", "--emit", str(path), "--fmt", "edgelist"]) == 0
    assert "wrote" in capsys.readouterr().out
    g = load_graph(str(path))
    assert g.n == 10
    assert g.edge_count == 15


def test_spectrum_table_and_flag(tmp_path, capsys):
    path = tmp_path / "spec.csv"
    assert main(["spectrum", "K33", "--emit", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ramanujan: yes" in out
    text = path.read_text()
    assert text.splitlines()[0] == "value,multiplicity,theta_re,theta_im,principal"
    assert len(text.splitlines()) == 4  # header + clusters 3, 0, -3


def test_nbt_counts_table(capsys):
    assert main(["nbt", "PETERSEN", "--m-max", "6", "--what", "nm"]) == 0
    out = capsys.readouterr().out
    assert "5\t120" in out
    assert "6\t120" in out


def test_oracle_agreement(capsys):
    assert main(["oracle", "K4", "--m-max", "6"]) == 0
    out = capsys.readouterr().out
    assert "true" in out
    assert "MISMATCH" not in out


# ---------------------------------------------------------------------------
# zeta / cuspgen anchors through the CLI


def test_zeta_k4_anchor(tmp_path, capsys):
    path = tmp_path / "zeta.json"
    assert main(["zeta", "K4", "--order", "8", "--emit", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["betti_r"] == 3
    assert payload["reciprocal_coeffs"] == ["1", "0", "0", "-8", "-6", "0", "16", "24", "-3"]
    assert payload["n_m"][2] == "24"


def test_zeta_float_mode(capsys):
    assert main(["zeta", "K4", "--order", "4", "--mode", "float"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reciprocal_coeffs"][3] == -8.0
    assert payload["n_m"][2] == 24.0


def test_zeta_irregular_cost_guard(tmp_path, capsys):
    # a 1024-cycle with one chord has no leaf, so its 2048 x 2048 Bass matrix is priced whole
    path = tmp_path / "cycle1024_chord.txt"
    edges = [(v, (v + 1) % 1024) for v in range(1024)] + [(0, 512)]
    path.write_text("n 1024\n" + "".join(f"{i} {j}\n" for i, j in edges))
    assert main(["zeta", str(path), "--order", "4"]) == 1
    assert "DepthExceeded" in capsys.readouterr().err


def test_zeta_of_a_long_path_is_one(tmp_path, capsys):
    # a tree prunes to one vertex, so Z(u)^{-1} = 1 costs next to nothing
    path = tmp_path / "path1024.txt"
    path.write_text("n 1024\n" + "".join(f"{v} {v + 1}\n" for v in range(1023)))
    start = time.perf_counter()
    assert main(["zeta", str(path), "--order", "4"]) == 0
    assert time.perf_counter() - start < 1.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti_r"] == 0
    assert payload["reciprocal_coeffs"] == ["1", "0", "0", "0", "0"]
    assert payload["n_m"] == ["0", "0", "0", "0"]


def test_cuspgen_x135_anchors(tmp_path, capsys):
    path = tmp_path / "cusp.json"
    assert main(["cuspgen", "--p", "13", "--q", "5", "--order", "4", "--emit", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["n"] == 120
    assert payload["kind"] == "PGL2"
    assert payload["bipartite"] is True
    rows = {row["m"]: row for row in payload["rows"]}
    assert rows[0]["eisenstein"] == "1/30"
    assert rows[0]["cusp"] == "59/30"
    assert rows[0]["normalized"] == "59/60"
    assert rows[2]["eisenstein"] == "61/10"
    assert rows[2]["cusp"] == "-41/10"
    assert rows[2]["normalized"] == "-41/260"
    assert rows[1]["normalized"] == "0"


def test_cuspgen_one_trace_sweep(tmp_path, monkeypatch):
    calls = []
    real = nbt.t_tilde_traces

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(nbt, "t_tilde_traces", counting)
    monkeypatch.setattr(zeta, "t_tilde_traces", counting)
    path = tmp_path / "cusp.json"
    assert main(["cuspgen", "--p", "13", "--q", "5", "--order", "8", "--emit", str(path)]) == 0
    assert calls == [8]
    # SHA-256 of the file written when the cusp column came from
    # zeta.cusp_coefficients_range, a second sweep
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "6a5c38cd733a04d5a8de1825b829c02b9a5a31541576096364724a63b9fd26e3"
    g, params = build_lps(13, 5)
    cusps = zeta.cusp_coefficients_range(g, params, 8)
    assert [row["cusp"] for row in json.loads(path.read_text())["rows"]] == [str(c) for c in cusps]


@pytest.mark.parametrize("p, q, order", [(29, 5, 33), (17, 13, 27)])
def test_cuspgen_odd_normalized_terms_are_correctly_rounded(p, q, order, tmp_path):
    # a(p^m)/(2 p^{m/2}) at odd m on a non-bipartite graph is irrational:
    # the printed float must be the one nearest the exact value, which a
    # float division by 2.0 * p ** (m / 2.0) misses by an ulp at some m
    path = tmp_path / "cusp.json"
    assert main(["cuspgen", "--p", str(p), "--q", str(q), "--order", str(order), "--emit", str(path)]) == 0
    odd = [row for row in json.loads(path.read_text())["rows"] if row["m"] % 2 and row["cusp"] != "0"]
    assert len(odd) > order // 4
    with decimal.localcontext() as dec:
        dec.prec = 60
        for row in odd:
            cusp = Fraction(row["cusp"])
            exact = Decimal(cusp.numerator) / cusp.denominator / (2 * Decimal(p ** row["m"]).sqrt())
            assert row["normalized"] == format(float(exact), ".17g"), row["m"]


# ---------------------------------------------------------------------------
# determinism of emitted reports


def test_limits_csv_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["limits", "K4", "--what", "average-nm", "--horizons", "10,20,40"]
    assert main(argv + ["--emit", str(a)]) == 0
    assert main(argv + ["--emit", str(b)]) == 0
    data = a.read_bytes()
    assert data == b.read_bytes()
    assert b"\r" not in data
    assert data.decode().splitlines()[0].startswith("N,lhs,main_terms")


def test_cesaro_csv_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["limits", "PETERSEN", "--what", "cesaro", "--k", "2", "--variant", "s"]
    assert main(argv + ["--emit", str(a)]) == 0
    assert main(argv + ["--emit", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_limits_cusp_needs_params(capsys):
    assert main(["limits", "K4", "--what", "cusp"]) == 2


# ---------------------------------------------------------------------------
# verify flow, including the emitted-graph round trip


def test_verify_named_subset(tmp_path, capsys):
    emit = tmp_path / "summary.json"
    code = main(["verify", "--graph", "k4", "--checks", "oracle,huang", "--emit", str(emit)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS ] oracle" in out
    assert "[PASS ] huang" in out
    assert "metric=0 " in out
    payload = json.loads(emit.read_text())
    assert [r["check"] for r in payload["results"]] == ["oracle", "huang"]
    assert all(r["status"] == "pass" for r in payload["results"])


def test_lps_emit_then_verify_cusp_phi(tmp_path, capsys):
    graph_path = tmp_path / "x135.json"
    summary = tmp_path / "summary.json"
    assert main(["lps", "--p", "13", "--q", "5", "--emit", str(graph_path)]) == 0
    out = capsys.readouterr().out
    assert "vertices: 120" in out
    assert "degree: 14 (14 generators)" in out
    code = main(
        ["verify", "--graph", str(graph_path), "--checks", "cusp,phi", "--emit", str(summary)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS ] cusp" in out
    assert "[PASS ] phi" in out
    payload = json.loads(summary.read_text())
    statuses = {r["check"]: r["status"] for r in payload["results"]}
    assert statuses == {"cusp": "pass", "phi": "pass"}


def test_verify_lps_flag_parse_error(capsys):
    assert main(["verify", "--lps", "13-5", "--checks", "huang"]) == 2


# ---------------------------------------------------------------------------
# malformed input: exit 2 with an error line, never a traceback

MALFORMED = [
    ["oracle", "K4", "--m-max", "0"],
    ["huang", "K4", "--m-max", "0"],
    ["limits", "K4", "--k", "0"],
    ["zeta", "K4", "--order", "-1"],
    ["nbt", "K4", "--what", "f", "--m-max", "-1"],
    ["nbt", "PETERSEN", "--m-max", "-1"],
    ["cuspgen", "--p", "13", "--q", "5", "--order", "-1"],
    ["limits", "K4", "--horizons", "5,3"],
    ["limits", "K4", "--what", "average-nm", "--horizons", "1"],
    ["nbt", "K33", "--what", "f", "--vertex", "9"],
    ["nbt", "PETERSEN", "--what", "f", "--vertex", "-1"],
    ["verify", "--lps", "x,5"],
    # an argument starting with "{" is written to a config file first
    ["verify", "--config", '{"lps": "x,5"}'],
    ["verify", "--config", '{"graph": "K4", "budget": "lots"}'],
    ["verify", "--config", '{"graph": "K4", "checks": "oracle"}'],
    ["verify", "--config", '{"graph": "K4", "lps": [13, 5]}'],
    ["verify", "--config", "missing.json"],
    ["verify", "--graph", "PETERSEN", "--tol", "nan"],
    ["verify", "--graph", "K4", "--tol", "inf"],
    ["stf", "K4", "--hhat", "2:nan"],
    ["stf", "K4", "--hhat", "3:-inf"],
    ["stf", "K4", "--hhat0", "nan"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_two(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for idx, arg in enumerate(argv):
        if arg.startswith("{"):
            (tmp_path / "cfg.json").write_text(arg)
            argv = argv[:idx] + ["cfg.json"] + argv[idx + 1 :]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--graph", "PETERSEN", "--checks", "cesaro", "--k", ","],
        ["verify", "--config", '{"graph": "PETERSEN", "checks": ["cesaro"], "k": []}'],
    ],
    ids=["flag", "config"],
)
def test_verify_refuses_an_empty_k(argv, tmp_path, monkeypatch, capsys):
    """With no k the cesaro check would pass at metric 0 having tested nothing."""
    monkeypatch.chdir(tmp_path)
    if argv[1] == "--config":
        (tmp_path / "cfg.json").write_text(argv[2])
        argv = ["verify", "--config", "cfg.json"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'k' needs at least one integer")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--graph", "PETERSEN", "--checks", "cesaro", "--horizons", ","],
        ["verify", "--config", '{"graph": "PETERSEN", "checks": ["cesaro"], "horizons": []}'],
    ],
    ids=["flag", "config"],
)
def test_verify_refuses_an_empty_horizon_list(argv, tmp_path, monkeypatch, capsys):
    """An empty list is not a request for the default horizons."""
    monkeypatch.chdir(tmp_path)
    if argv[1] == "--config":
        (tmp_path / "cfg.json").write_text(argv[2])
        argv = ["verify", "--config", "cfg.json"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: config key 'horizons' needs at least one integer")


@pytest.mark.parametrize("what", ["cesaro", "average-nm"])
def test_limits_refuses_an_empty_horizon_list(what, capsys):
    assert main(["limits", "PETERSEN", "--what", what, "--horizons", ","]) == 2
    assert capsys.readouterr().err.startswith("error: horizons must be a strictly increasing list")


def test_verify_refuses_an_order_below_one(tmp_path, monkeypatch, capsys):
    """At order 0 the ihara-bass check would compare only the constant coefficient, 1 = 1."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"graph": "K4", "checks": ["ihara-bass"], "order": 0}))
    assert main(["verify", "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err.startswith("error: config key 'order' needs an integer of at least 1")


@pytest.mark.parametrize("horizons", ["200,50", "0,5"])
def test_verify_cusp_refuses_the_horizons_the_other_sweeps_refuse(horizons, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--lps", "13,5", "--checks", "cusp", "--horizons", horizons, "--emit", "s.json"]) == 1
    (result,) = json.loads((tmp_path / "s.json").read_text())["results"]
    assert result["status"] == "error"
    assert result["detail"]["error"].startswith("ValueError: horizons must be a strictly increasing list")


@pytest.mark.parametrize(
    "argv, source",
    [
        (["stf", "--hhat", "2:1"], "k2.txt"),
        (["spectrum"], "k2.txt"),
        (["huang"], "k2.txt"),
        (["limits", "--what", "average-nm"], "CYCLE(5)"),
    ],
    ids=["stf --hhat 2:1", "spectrum", "huang", "limits CYCLE(5) --what average-nm"],
)
def test_a_one_regular_graph_is_a_typed_error(argv, source, tmp_path, monkeypatch, capsys):
    """K2 has q = 0: no spectral angle and no q^{-m/2}; CYCLE(5) has q = 1: no average-nm main terms."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k2.txt").write_text("n 2\n0 1\n")
    assert main([argv[0], source, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DegreeTooSmall: ")
    assert "Traceback" not in err


def test_verify_config_refuses_an_unknown_key(tmp_path, monkeypatch, capsys):
    """A misspelt key would otherwise run every check at the default budget."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"graph": "K4", "check": ["oracle"], "budjet": 3}))
    assert main(["verify", "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config keys ['check', 'budjet']; valid: graph, file,")


def test_verify_reports_a_refused_quotient_eigh(tmp_path, monkeypatch, capsys):
    """Below the 16 * 12^2 bytes of X^{13,5}'s 12-cell quotient, the range check reports DepthExceeded."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(spectral, "DENSE_BYTES_CEILING", 16 * 12**2 - 1)
    assert main(["verify", "--lps", "13,5", "--checks", "range", "--emit", "s.json"]) == 1
    (result,) = json.loads((tmp_path / "s.json").read_text())["results"]
    assert result["status"] == "error"
    assert result["detail"]["error"].startswith("DepthExceeded: dense eigh of 12 x 12 at n=120")


def test_verify_reports_the_typed_error_on_a_one_regular_graph(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k2.txt").write_text("n 2\n0 1\n")
    assert main(["verify", "--graph", "k2.txt", "--checks", "chebyshev,stf,huang", "--emit", "s.json"]) == 1
    results = json.loads((tmp_path / "s.json").read_text())["results"]
    assert all(r["detail"]["error"].startswith("DegreeTooSmall: ") for r in results)


def test_verify_missing_source_file_still_writes_the_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"file": "missing.json", "emit": "summary.json"}))
    assert main(["verify", "--config", "cfg.json"]) == 1
    results = json.loads((tmp_path / "summary.json").read_text())["results"]
    assert [r["check"] for r in results] == list(CHECK_ORDER)
    assert {r["status"] for r in results} == {"error"}
    assert "missing.json" in results[0]["detail"]["error"]


def test_verify_allow_large_flag_sets_its_config_key(tmp_path, monkeypatch, capsys):
    seen = []

    def stub(p, q, *, allow_large=False):  # records the request and builds nothing
        seen.append(allow_large)
        raise InvalidPrime("not built")

    monkeypatch.setattr(lps, "build_lps", stub)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"lps": [5, 37], "checks": ["huang"], "allow_large": True}))
    assert main(["verify", "--lps", "5,37", "--checks", "huang"]) == 1
    assert main(["verify", "--lps", "5,37", "--checks", "huang", "--allow-large"]) == 1
    assert main(["verify", "--config", str(cfg)]) == 1  # the absent flag keeps the file's key
    assert seen == [False, True, True]


def test_verify_flags_override_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"graph": "K4", "checks": ["oracle", "huang"], "budget": "lots"}))
    assert main(["verify", "--config", str(cfg), "--checks", "huang", "--budget", "1000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("[PASS ] huang ")


def test_lps_emit_then_verify_graph_recovers_graph_and_params(tmp_path, monkeypatch, capsys):
    path = tmp_path / "x135.json"
    assert main(["lps", "--p", "13", "--q", "5", "--emit", str(path)]) == 0
    contexts = []
    real = suite.resolve_source

    def recording(config):
        contexts.append(real(config))
        return contexts[-1]

    monkeypatch.setattr(suite, "resolve_source", recording)
    assert main(["verify", "--graph", str(path), "--checks", "cusp"]) == 0
    g, params = build_lps(13, 5)
    (ctx,) = contexts
    assert ctx.g.neighbors == g.neighbors
    assert ctx.params == params


# the report subcommands on a byte copy of an lps --emit file, which
# lps.cayley_root certifies: each reads the suite context's routes, so
# none takes a full n x n matrix step, and only oracle walks, from e alone
ROW_ROUTE_COMMANDS = [
    ["zeta", "--order", "12"],
    ["stf", "--hhat", "12:1"],
    ["oracle", "--m-max", "4"],
    ["limits", "--what", "average-nm"],
    ["limits", "--what", "cusp"],
    ["huang"],
]


@pytest.mark.parametrize("command", ROW_ROUTE_COMMANDS, ids=" ".join)
def test_report_commands_take_no_matrix_step_on_a_certified_file(command, tmp_path, monkeypatch, capsys):
    path = tmp_path / "x135.json"
    path.write_bytes((GOLDEN / "lps_13_5_emit.json").read_bytes())
    calls = []
    real_step, real_walks = nbt._mul_adj, oracle.reduced_walks

    def step(*args, **kwargs):
        calls.append("_mul_adj")
        return real_step(*args, **kwargs)

    def walks(g, m_max, sources, **kwargs):
        calls.append(len(sources))
        return real_walks(g, m_max, sources, **kwargs)

    monkeypatch.setattr(nbt, "_mul_adj", step)
    for module in (oracle, zeta):
        monkeypatch.setattr(module, "reduced_walks", walks)
    assert main([command[0], str(path), *command[1:]]) == 0
    assert calls == ([1] if command[0] == "oracle" else [])  # one search, from one source


def test_zeta_on_a_certified_file_matches_the_full_route(tmp_path, capsys):
    doc = json.loads((GOLDEN / "lps_13_5_emit.json").read_text())
    certified, plain = tmp_path / "certified.json", tmp_path / "plain.json"
    certified.write_text(json.dumps(doc))
    del doc["lps"]  # no parameters, so no certificate: full route
    plain.write_text(json.dumps(doc))
    outputs = []
    for path in (certified, plain):
        assert main(["zeta", str(path), "--order", "12"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_nbt_counts_on_a_graph_that_is_not_vertex_transitive(tmp_path, capsys):
    # the Frucht graph, LCF [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]: cubic with no symmetry
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = {tuple(sorted((i, (i + s) % 12))) for i in range(12) for s in (1, lcf[i])}
    path = tmp_path / "frucht.json"
    path.write_text(json.dumps({"n": 12, "edges": sorted(edges)}))
    assert main(["nbt", str(path), "--m-max", "6"]) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
    counts = [int(n_m) for _, n_m in rows]
    assert counts == [0, 0, 18, 8, 30, 66]
    assert counts == reduced_cycle_counts(load_graph(str(path)), 6)
    # the single-row route, which gives wrong counts here, is no longer selectable
    with pytest.raises(SystemExit) as exc:
        main(["nbt", str(path), "--m-max", "6", "--method", "row"])
    assert exc.value.code == 2
