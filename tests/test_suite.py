"""Verification suite: config parsing, orchestration, summary emission."""

import json

import pytest

from iharalab import limits, nbt
from iharalab.errors import ParseError
from iharalab.graphs import named_graph
from iharalab.suite import (
    CHECK_ORDER,
    DEFAULT_TOLERANCES,
    SuiteContext,
    VerificationSuiteConfig,
    _oracle_depth,
    resolve_source,
    run_check,
    run_suite,
    validate_checks,
    write_summary,
)


# ---------------------------------------------------------------------------
# config parsing


def test_config_from_named():
    cfg = VerificationSuiteConfig.from_dict({"graph": "petersen"})
    assert cfg.source_kind == "named"
    assert cfg.source == "petersen"
    assert cfg.checks == CHECK_ORDER
    assert cfg.tol_override is None


def test_config_from_lps_pair():
    cfg = VerificationSuiteConfig.from_dict({"lps": [13, 5]})
    assert (cfg.source_kind, cfg.p, cfg.q) == ("lps", 13, 5)
    cfg2 = VerificationSuiteConfig.from_dict({"lps": "13,5"})
    assert (cfg2.p, cfg2.q) == (13, 5)


def test_config_from_file_key():
    cfg = VerificationSuiteConfig.from_dict({"file": "somewhere.json"})
    assert cfg.source_kind == "file"
    assert cfg.source == "somewhere.json"


def test_config_optional_fields():
    raw = {
        "graph": "k4",
        "checks": ["oracle", "huang"],
        "horizons": [10, 20],
        "k": [1, 2],
        "tol": 0.5,
        "budget": 1000,
        "order": 6,
    }
    cfg = VerificationSuiteConfig.from_dict(raw)
    assert cfg.checks == ("oracle", "huang")
    assert cfg.horizons == (10, 20)
    assert cfg.k_values == (1, 2)
    assert cfg.tol_override == 0.5
    assert cfg.budget == 1000
    assert cfg.order == 6


def test_config_rejects():
    with pytest.raises(ParseError):
        VerificationSuiteConfig.from_dict({})
    with pytest.raises(ParseError):
        VerificationSuiteConfig.from_dict({"lps": [13]})
    with pytest.raises(ParseError):
        VerificationSuiteConfig.from_dict({"graph": "k4", "checks": ["bogus"]})
    with pytest.raises(ParseError):
        VerificationSuiteConfig.from_dict(["not", "a", "dict"])


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": "K33", "checks": ["huang"]}))
    cfg = VerificationSuiteConfig.from_json_file(str(path))
    assert cfg.source == "K33"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        VerificationSuiteConfig.from_json_file(str(bad))


def test_validate_checks():
    assert validate_checks(["oracle", "phi"]) == ("oracle", "phi")
    with pytest.raises(ParseError):
        validate_checks(["oracle", "nope"])
    with pytest.raises(ParseError):
        validate_checks([])


# ---------------------------------------------------------------------------
# source resolution


def test_resolve_named_and_unknown_kind():
    ctx = resolve_source(VerificationSuiteConfig(source_kind="named", source="K4"))
    assert ctx.g.n == 4
    assert ctx.params is None
    with pytest.raises(ParseError):
        resolve_source(VerificationSuiteConfig(source_kind="bogus"))


def test_resolve_file_recovers_lps_params(tmp_path):
    path = tmp_path / "g.json"
    payload = {
        "n": 4,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        "lps": {"p": 13, "q": 5},
    }
    path.write_text(json.dumps(payload))
    ctx = resolve_source(VerificationSuiteConfig(source_kind="file", source=str(path)))
    assert ctx.g.n == 4
    assert ctx.params is not None
    assert (ctx.params.p, ctx.params.q) == (13, 5)


def test_resolve_file_without_params(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    ctx = resolve_source(VerificationSuiteConfig(source_kind="file", source=str(path)))
    assert ctx.params is None


def test_context_lazy_fields():
    ctx = SuiteContext(named_graph("K33"))
    assert ctx._cert is None and ctx._sd is None
    assert ctx.cert.q == 2
    assert ctx.sd.n == 6


# ---------------------------------------------------------------------------
# depth budgeting


def test_oracle_depth_budget():
    petersen = named_graph("PETERSEN")
    assert _oracle_depth(petersen, 10, 10**9) == 10  # capped by m_max
    assert _oracle_depth(petersen, 10, 1000) == 6  # 10*3*2^6 > 1000 at the next step
    assert _oracle_depth(petersen, 10, 1) == 0


# ---------------------------------------------------------------------------
# orchestration


def test_run_suite_named_subset(tmp_path):
    emit = tmp_path / "summary.json"
    cfg = VerificationSuiteConfig(
        source_kind="named",
        source="K4",
        checks=("oracle", "chebyshev", "ihara-bass", "range", "huang"),
        emit=str(emit),
    )
    code, results = run_suite(cfg)
    assert code == 0
    assert [r.check for r in results] == ["oracle", "chebyshev", "ihara-bass", "range", "huang"]
    assert all(r.status == "pass" for r in results)
    assert results[1].detail["float_route_metric"] < 1e-6  # K4 is small enough for it
    payload = json.loads(emit.read_text())
    assert set(payload) == {"results"}
    for row in payload["results"]:
        assert set(row) == {"check", "status", "metric", "tolerance", "seconds", "detail"}


def test_run_suite_orders_checks():
    cfg = VerificationSuiteConfig(
        source_kind="named", source="K4", checks=("huang", "oracle")
    )
    code, results = run_suite(cfg)
    assert [r.check for r in results] == ["oracle", "huang"]
    assert code == 0


def test_cusp_errors_on_plain_graph(tmp_path):
    emit = tmp_path / "summary.json"
    cfg = VerificationSuiteConfig(
        source_kind="named", source="K4", checks=("cusp",), emit=str(emit)
    )
    code, results = run_suite(cfg)
    assert code == 1
    assert results[0].status == "error"
    assert results[0].metric is None
    assert "error" in results[0].detail
    payload = json.loads(emit.read_text())
    assert payload["results"][0]["status"] == "error"
    assert payload["results"][0]["metric"] is None


def test_unknown_named_source_marks_all_error(tmp_path):
    emit = tmp_path / "summary.json"
    cfg = VerificationSuiteConfig(
        source_kind="named",
        source="nosuchgraph",
        checks=("oracle", "huang"),
        emit=str(emit),
    )
    code, results = run_suite(cfg)
    assert code == 1
    assert [r.status for r in results] == ["error", "error"]
    assert all(r.detail["error"].startswith("graph source:") for r in results)
    assert emit.exists()


def test_tol_override_forces_fail():
    cfg = VerificationSuiteConfig(
        source_kind="named", source="K4", checks=("oracle",), tol_override=-1.0
    )
    code, results = run_suite(cfg)
    assert code == 1
    assert results[0].status == "fail"
    assert results[0].metric == 0.0


def test_run_check_oracle_direct():
    ctx = SuiteContext(named_graph("K4"))
    cfg = VerificationSuiteConfig(source_kind="named", source="K4")
    res = run_check("oracle", ctx, cfg)
    assert res.status == "pass"
    assert res.metric == 0.0
    assert res.tolerance == DEFAULT_TOLERANCES["oracle"]
    assert res.seconds >= 0.0
    assert res.detail["n_m_bruteforce"] == res.detail["n_m_recurrence"]


def test_stf_check_sweeps_counts_once(monkeypatch):
    ctx = SuiteContext(named_graph("PETERSEN"))
    cfg = VerificationSuiteConfig(source_kind="named", source="PETERSEN", checks=("stf",))
    want = []
    for m0 in range(13):
        h = limits.StfTestFunction.single(m0) if m0 else limits.StfTestFunction(hhat0=1.0)
        want.append(limits.stf_verify(ctx.g, ctx.cert, ctx.sd, h))
    calls = []
    real = nbt.n_reduced_range

    def counting(g, cert, m_max, *args, **kwargs):
        calls.append(m_max)
        return real(g, cert, m_max, *args, **kwargs)

    monkeypatch.setattr(nbt, "n_reduced_range", counting)
    monkeypatch.setattr(limits, "n_reduced_range", counting)
    res = run_check("stf", ctx, cfg)
    assert calls == [12]
    got = [(r["lhs"], r["geometric"], r["discrepancy"]) for r in res.detail["rows"]]
    assert got == want


def test_cesaro_check_reports_skips():
    ctx = SuiteContext(named_graph("K33"))
    cfg = VerificationSuiteConfig(
        source_kind="named", source="K33", checks=("cesaro",), horizons=(50, 100)
    )
    res = run_check("cesaro", ctx, cfg)
    assert res.status == "pass"
    assert "a k=4" in res.detail["skipped"]
    assert "s k=4" in res.detail["skipped"]


def test_lps_source_cusp_and_phi(tmp_path):
    emit = tmp_path / "summary.json"
    cfg = VerificationSuiteConfig(
        source_kind="lps", p=13, q=5, checks=("cusp", "phi"), emit=str(emit)
    )
    code, results = run_suite(cfg)
    assert code == 0
    by_name = {r.check: r for r in results}
    assert by_name["phi"].metric == 0.0
    assert by_name["cusp"].status == "pass"
    payload = json.loads(emit.read_text())
    assert [row["check"] for row in payload["results"]] == ["cusp", "phi"]


def test_cusp_check_passes_on_non_bipartite_lps():
    # X^{29,5} (n = 60) is non-bipartite: its odd-m cusp terms carry sqrt(29)
    cfg = VerificationSuiteConfig(source_kind="lps", p=29, q=5, checks=("cusp",))
    code, results = run_suite(cfg)
    assert code == 0, results[0].detail
    assert results[0].metric < 1.0


def test_write_summary_roundtrip(tmp_path):
    ctx = SuiteContext(named_graph("K4"))
    cfg = VerificationSuiteConfig(source_kind="named", source="K4")
    res = run_check("huang", ctx, cfg)
    path = tmp_path / "out.json"
    write_summary(str(path), [res])
    text = path.read_text()
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["results"][0]["check"] == "huang"
