"""Command-line interface: exit codes, emitted files, determinism."""

import hashlib
import json

import pytest

from iharalab import nbt, zeta
from iharalab.cli import main
from iharalab.graphs import load_graph
from iharalab.lps import build_lps


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


def test_verify_unknown_check_is_parse_error(capsys):
    assert main(["verify", "--graph", "k4", "--checks", "bogus"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_needs_a_source(capsys):
    assert main(["verify"]) == 2


def test_stf_bad_hhat(capsys):
    assert main(["stf", "K4", "--hhat", "bad"]) == 2
    assert main(["stf", "K4", "--hhat", "0:1.0"]) == 2


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
    path = tmp_path / "path1024.txt"
    path.write_text("n 1024\n" + "".join(f"{v} {v + 1}\n" for v in range(1023)))
    assert main(["zeta", str(path), "--order", "4"]) == 1
    assert "DepthExceeded" in capsys.readouterr().err


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
