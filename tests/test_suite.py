"""Verification suite: config parsing, orchestration, summary emission."""

import builtins
import dataclasses
import gc
import json
import math
import random
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from sqrt_ext import graded_values
from test_nbt_traces import two_switched

from iharalab import graphs, limits, lps, nbt, oracle, suite, zeta
from iharalab.errors import ParseError
from iharalab.cli import main
from iharalab.graphs import build_graph, load_graph, named_graph, save_graph
from iharalab.spectral import SpectralData, eigendecompose
from iharalab.suite import (
    CHECK_ORDER,
    DEFAULT_TOLERANCES,
    SuiteContext,
    VerificationSuiteConfig,
    _oracle_depth,
    check_range,
    range_abs_max,
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


def test_config_refuses_unknown_keys_by_name():
    # dropped, a misspelt key would run all ten checks at the default budget
    with pytest.raises(ParseError, match=r"unknown config keys \['check', 'budjet'\]"):
        VerificationSuiteConfig.from_dict({"graph": "K4", "check": ["oracle"], "budjet": 3})
    raw = {"graph": "K4", "horizons": [10, 20], "k": [1], "tol": 0.5, "budget": 9, "order": 3, "emit": "s.json"}
    assert set(raw) | {"file", "lps", "checks", "allow_large"} == set(suite.CONFIG_KEYS)
    assert VerificationSuiteConfig.from_dict({**raw, "checks": ["huang"], "allow_large": False}).budget == 9


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"lps": "x,5"}, "lps"),
        ({"lps": [13.0, 5]}, "lps"),
        ({"lps": {"p": 13, "q": 5}}, "lps"),
        ({"graph": "K4", "budget": "lots"}, "budget"),
        ({"graph": "K4", "order": 2.5}, "order"),
        ({"graph": "K4", "horizons": [10, "x"]}, "horizons"),
        ({"graph": "K4", "horizons": 10}, "horizons"),
        ({"graph": "K4", "k": [True]}, "k"),
        ({"graph": "K4", "tol": "small"}, "tol"),
        ({"graph": "K4", "checks": "oracle"}, "checks"),
        ({"graph": 4}, "graph"),
        ({"file": "k4.json", "emit": 1}, "emit"),
        ({"checks": ["huang"]}, "source key"),
        ({"graph": "K4", "lps": [13, 5]}, "source key"),
        ({"graph": "K4", "tol": "nan"}, "tol"),
        ({"graph": "K4", "tol": float("inf")}, "tol"),
        ({"lps": [5, 37], "allow_large": "yes"}, "allow_large"),
        ({"lps": [5, 37], "allow_large": 1}, "allow_large"),
        ({"graph": "K4", "k": []}, "'k'"),
        ({"graph": "K4", "order": 0}, "'order'"),
        ({"graph": "K4", "order": -3}, "'order'"),
        ({"graph": "K4", "horizons": []}, "'horizons'"),
    ],
)
def test_config_rejects_each_malformed_value_by_key(raw, key):
    with pytest.raises(ParseError, match=key):
        VerificationSuiteConfig.from_dict(raw)


def test_allow_large_reaches_build_lps_and_its_absence_refuses_q_past_29(monkeypatch):
    assert VerificationSuiteConfig.from_dict({"lps": [5, 37], "allow_large": True}).allow_large
    config = VerificationSuiteConfig.from_dict({"lps": [5, 37], "checks": ["huang"]})
    assert not config.allow_large
    code, (result,) = run_suite(config)  # refused before the group is enumerated
    assert code == 1 and result.status == "error" and "--allow-large" in result.detail["error"]
    seen, build_lps = [], lps.build_lps

    def stub(p, q, *, allow_large=False):  # no q > 29 graph is built here
        seen.append((p, q, allow_large))
        return build_lps(13, 5)

    monkeypatch.setattr(lps, "build_lps", stub)
    resolve_source(dataclasses.replace(config, allow_large=True))
    assert seen == [(5, 37, True)]


def test_config_file_missing_or_not_utf8(tmp_path):
    with pytest.raises(ParseError, match="cannot read config"):
        VerificationSuiteConfig.from_json_file(str(tmp_path / "missing.json"))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    with pytest.raises(ParseError, match="not valid JSON"):
        VerificationSuiteConfig.from_json_file(str(binary))


def test_config_file_keys_under_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"graph": "K33", "checks": ["oracle"], "tol": 0.5}))
    cfg = VerificationSuiteConfig.from_json_file(str(path), {"checks": ["huang"], "budget": 7})
    assert (cfg.source, cfg.checks, cfg.tol_override, cfg.budget) == ("K33", ("huang",), 0.5, 7)


def test_source_entry_prefers_an_existing_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert suite.source_entry("K4") == {"graph": "K4"}
    (tmp_path / "K4").write_text("n 1\n")
    assert suite.source_entry("K4") == {"file": "K4"}


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


def _lps_emit(tmp_path, lps_record: dict):
    """The X^{13,5} file `lps --p 13 --q 5 --emit` writes, with its lps record replaced."""
    path = tmp_path / "x135.json"
    assert main(["lps", "--p", "13", "--q", "5", "--emit", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["lps"] == {"p": 13, "q": 5, "kind": "PGL2"}
    path.write_text(json.dumps({**doc, "lps": lps_record}))
    return path


def test_resolve_file_recovers_lps_params(tmp_path, x135):
    path = _lps_emit(tmp_path, {"p": 13, "q": 5, "kind": "PGL2"})
    ctx = resolve_source(VerificationSuiteConfig(source_kind="file", source=str(path)))
    assert ctx.g.neighbors == x135[0].neighbors
    assert ctx.params == x135[1]


def _takes_quotient_route(ctx) -> bool:
    sd = ctx.sd
    return all(cl.vectors is None and cl.identity_row is not None for cl in sd.clusters)


def _rewritten_x135(tmp_path, x135, edges) -> SuiteContext:
    path = tmp_path / "x135_rewritten.json"
    path.write_text(json.dumps({"n": x135[0].n, "edges": edges, "lps": {"p": 13, "q": 5, "kind": "PGL2"}}))
    ctx = resolve_source(VerificationSuiteConfig(source_kind="file", source=str(path)))
    assert ctx.params == x135[1]  # the lps record alone is accepted
    return ctx


def test_an_lps_emit_file_takes_the_quotient_route(tmp_path):
    path = _lps_emit(tmp_path, {"p": 13, "q": 5, "kind": "PGL2"})
    ctx = resolve_source(VerificationSuiteConfig(source_kind="file", source=str(path)))
    assert _takes_quotient_route(ctx)
    assert _takes_quotient_route(SuiteContext(*lps.build_lps(13, 5)))


def test_a_relabeled_lps_file_takes_the_quotient_route(tmp_path, x135):
    ctx = _relabeled_x135_file(tmp_path, x135)
    assert lps.cayley_root(ctx.g, ctx.params) == 0 == ctx.row_vertex
    assert _takes_quotient_route(ctx)
    # the rooted quotient numbers its cells by their keys, not by labels,
    # so the spectrum is the --lps source's to the last bit
    quotient = SuiteContext(*lps.build_lps(13, 5)).sd
    assert [(cl.value, cl.mult) for cl in ctx.sd.clusters] == [(cl.value, cl.mult) for cl in quotient.clusters]
    assert all(np.array_equal(a.identity_row, b.identity_row) for a, b in zip(ctx.sd.clusters, quotient.clusters))


def test_a_two_switched_lps_file_takes_the_dense_route(tmp_path, x135):
    ctx = _two_switched_x135_file(tmp_path, x135)
    assert {len(nb) for nb in ctx.g.neighbors} == {14}
    assert lps.cayley_root(ctx.g, ctx.params) is None
    assert not _takes_quotient_route(ctx)


def test_resolve_file_rejects_a_mismatched_lps_record(tmp_path):
    # X^{17,5} also has 120 vertices but degree 18; X^{13,17} has degree 14 on 2448
    for record in ({"p": 17, "q": 5, "kind": "PGL2"}, {"p": 13, "q": 17, "kind": "PSL2"}):
        path = _lps_emit(tmp_path, record)
        with pytest.raises(ParseError, match="lps record .* needs"):
            resolve_source(VerificationSuiteConfig(source_kind="file", source=str(path)))
    k4 = tmp_path / "k4.json"
    edges = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    k4.write_text(json.dumps({"n": 4, "edges": edges, "lps": {"p": 13, "q": 5, "kind": "PGL2"}}))
    with pytest.raises(ParseError, match="lps record"):
        resolve_source(VerificationSuiteConfig(source_kind="file", source=str(k4)))


@pytest.mark.parametrize(
    "record",
    [
        {"p": "x", "q": 5},
        {"p": 13, "q": 5, "kind": "PSL2"},
        {"p": 13, "q": 5},
        {"p": 9, "q": 5, "kind": "PGL2"},
    ],
)
def test_resolve_file_rejects_a_malformed_lps_record(tmp_path, record, capsys):
    path = _lps_emit(tmp_path, record)
    with pytest.raises(ParseError, match="lps record"):
        resolve_source(VerificationSuiteConfig(source_kind="file", source=str(path)))
    # every SOURCE subcommand shares the resolver
    assert main(["graph", str(path)]) == 2
    assert "lps record" in capsys.readouterr().err


def test_resolve_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read graph file"):
        resolve_source(VerificationSuiteConfig(source_kind="file", source=str(tmp_path / "gone.json")))


def test_files_of_both_earlier_writers_still_load(tmp_path, x135):
    """save_graph's indented JSON and lps --emit's indented JSON, as written before graph_document."""
    g, params = x135[0], x135[1]
    edges = [[i, j] for i in range(g.n) for j in g.neighbors[i] if i < j]
    old_save = tmp_path / "save.json"
    old_save.write_text(json.dumps({"n": g.n, "edges": [e + [1] for e in edges]}, indent=1) + "\n")
    old_lps = tmp_path / "lps.json"
    record = {"p": 13, "q": 5, "kind": "PGL2"}
    old_lps.write_text(json.dumps({"n": g.n, "edges": edges, "lps": record}, indent=2) + "\n")
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "lps_13_5.json"
    for path, want in ((old_save, None), (old_lps, params), (bench, params)):
        ctx = resolve_source(VerificationSuiteConfig(source_kind="file", source=str(path)))
        assert ctx.g == load_graph(str(path))
        assert (ctx.g.neighbors, ctx.params) == (g.neighbors, want), path.name


def test_resolve_file_without_params(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    ctx = resolve_source(VerificationSuiteConfig(source_kind="file", source=str(path)))
    assert ctx.params is None


def test_resolve_file_reads_once(tmp_path, monkeypatch, x135):
    k4 = named_graph("K4")
    edgelist = tmp_path / "k4.txt"
    save_graph(k4, str(edgelist), fmt="edgelist")
    plain = {"n": 4, "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}
    record = {"p": 13, "q": 5, "kind": "PGL2"}
    cases = [(edgelist, None), (_lps_emit(tmp_path, record), lps.lps_params(13, 5))]
    # a malformed record is refused after the one read
    for name, lps_key in (
        ("missing_q.json", {"p": 13, "kind": "PGL2"}),
        ("list.json", [13, 5]),
        ("text.json", {"p": "x", "q": 5}),
    ):
        path = tmp_path / name
        path.write_text(json.dumps({**plain, "lps": lps_key}))
        cases.append((path, ParseError))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    for path, want in cases:
        opened.clear()
        config = VerificationSuiteConfig(source_kind="file", source=str(path))
        with monkeypatch.context() as mp:
            mp.setattr(builtins, "open", counting_open)
            if want is ParseError:
                with pytest.raises(ParseError, match="lps record"):
                    resolve_source(config)
            else:
                ctx = resolve_source(config)
        assert opened.count(str(path)) == 1, path.name
        if want is ParseError:
            continue
        assert ctx.g == load_graph(str(path)), path.name
        assert ctx.g.neighbors == (x135[0] if want else k4).neighbors, path.name
        assert ctx.params == want, path.name
        assert ctx.label == str(path)


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


def test_a_nan_tolerance_fails_every_check_it_reaches():
    # a config built in Python skips from_dict's finite test
    cfg = VerificationSuiteConfig(
        source_kind="named", source="K4", checks=("oracle", "huang"), tol_override=float("nan")
    )
    code, results = run_suite(cfg)
    assert code == 1
    assert [r.status for r in results] == ["fail", "fail"]


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
    fresh = SuiteContext(ctx.g)
    for m0 in range(13):
        h = limits.StfTestFunction.single(m0) if m0 else limits.StfTestFunction(hhat0=1.0)
        want.append(limits.stf_verify(fresh, h))
    sweeps = []
    real_range = nbt.n_reduced_range

    def counting(g, cert, m_max, *args, **kwargs):
        sweeps.append(kwargs["sweep"])
        return real_range(g, cert, m_max, *args, **kwargs)

    monkeypatch.setattr(nbt, "n_reduced_range", counting)
    monkeypatch.setattr(limits, "n_reduced_range", counting)
    steps = _count_calls_everywhere(monkeypatch, nbt, "_mul_adj")
    charpolys = _count_calls_everywhere(monkeypatch, nbt, "integer_charpoly")
    res = run_check("stf", ctx, cfg)
    # one N_m prefix per frequency, all from the context's sweep, which
    # reads them off one chi_A and takes no matrix step
    assert len(sweeps) == 12 and all(s is ctx.sweep for s in sweeps)
    assert (len(steps), len(charpolys)) == (0, 1)
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


def test_each_context_builds_its_limit_tables_once(monkeypatch):
    """chebyshev and stf's 13 calls read one set of Chebyshev sums; cesaro's 8 pairs read one trig table.

    range runs first and builds the table's 200 rows; cesaro's 400 build it anew once.
    """
    sums, tables = [], []
    real_rows, real_trig = SuiteContext._chebyshev_rows, SpectralData._trig_rows

    def counted_rows(self, m_lo, m_hi):
        sums.append((self, m_lo, m_hi))
        return real_rows(self, m_lo, m_hi)

    def counted_trig(self, m_top):
        tables.append((self, m_top))
        return real_trig(self, m_top)

    monkeypatch.setattr(SuiteContext, "_chebyshev_rows", counted_rows)
    monkeypatch.setattr(SpectralData, "_trig_rows", counted_trig)
    g, params = lps.build_lps(13, 5)
    cfg = VerificationSuiteConfig(source_kind="lps", p=13, q=5, checks=("chebyshev", "range", "cesaro", "stf"))
    for seen in range(2):  # a second fresh context builds its own tables
        ctx = SuiteContext(g, params)
        results = [run_check(name, ctx, cfg) for name in cfg.checks]
        assert [r.status for r in results] == ["pass"] * 4
        assert len(results[2].detail["rows"]) == 8 and len(results[3].detail["rows"]) == 13
        assert [(c is ctx, lo, hi) for c, lo, hi in sums[seen:]] == [(True, 0, 30)]
        assert [(sd is ctx.sd, m_top) for sd, m_top in tables[2 * seen :]] == [(True, 200), (True, 400)]


@pytest.mark.parametrize(
    "check, change",
    [
        ("cesaro", {"k_values": ()}),
        ("ihara-bass", {"order": 0}),
        ("cesaro", {"horizons": ()}),
        ("average-nm", {"horizons": ()}),
    ],
    ids=["no k", "order 0", "cesaro, no horizons", "average-nm, no horizons"],
)
def test_a_config_built_directly_gets_no_vacuous_pass(check, change):
    """from_dict refuses these values; a config built without it errors in the check instead."""
    cfg = VerificationSuiteConfig(source_kind="named", source="PETERSEN", checks=(check,), **change)
    res = run_check(check, SuiteContext(named_graph("PETERSEN")), cfg)
    assert res.status == "error"
    assert res.detail["error"].startswith("ValueError: ")


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


def _count_calls_everywhere(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to module.name, under each iharalab name bound to it."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in [m for k, m in sys.modules.items() if k.startswith("iharalab.")]:
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize("p, q", [(13, 5), (17, 13)])
def test_phi_check_takes_no_full_matrix_step_on_lps_sources(p, q, monkeypatch):
    ctx = SuiteContext(*lps.build_lps(p, q))
    ctx.sd  # the context's certificate and spectrum, shared by every check
    steps = _count_calls_everywhere(monkeypatch, nbt, "_mul_adj")
    certs = _count_calls_everywhere(monkeypatch, graphs, "certify_regular")
    cfg = VerificationSuiteConfig(source_kind="lps", p=p, q=q, checks=("phi",))
    res = run_check("phi", ctx, cfg)
    assert (res.status, res.metric) == ("pass", 0.0)
    assert steps == []
    assert len(certs) <= 1


def _relabeled_x135_file(tmp_path, x135) -> SuiteContext:
    """A fresh context over X^{13,5} read from a file with permuted vertices and its lps record: certified by search."""
    g = x135[0]
    perm = list(range(g.n))
    random.Random(8102).shuffle(perm)
    edges = [sorted((perm[i], perm[j])) for i in range(g.n) for j in g.neighbors[i] if i < j]
    return _rewritten_x135(tmp_path, x135, edges)


def _two_switched_x135_file(tmp_path, x135) -> SuiteContext:
    """A fresh context over a 2-switched X^{13,5} read from a file with X^{13,5}'s lps record: uncertified."""
    return _rewritten_x135(tmp_path, x135, sorted(map(list, graphs._edges_canonical(two_switched(x135[0])))))


def test_phi_check_on_a_rewired_lps_file(tmp_path, x135, monkeypatch):
    ctx = _two_switched_x135_file(tmp_path, x135)
    steps = _count_calls_everywhere(monkeypatch, nbt, "_mul_adj")
    charpolys = _count_calls_everywhere(monkeypatch, nbt, "integer_charpoly")
    cfg = VerificationSuiteConfig(source_kind="file", source="x135_rewritten.json", checks=("phi",))
    res = run_check("phi", ctx, cfg)
    assert (res.status, res.metric) == ("pass", 0.0)
    # Tr B_m to m = 8 from one chi_A, shared by T~_m and N_m
    assert (len(steps), len(charpolys)) == (0, 1)


def _steps_per_check(ctx: SuiteContext, config: VerificationSuiteConfig, steps: list) -> dict:
    """check -> full-matrix kernel steps it took, for the checks that took any; every check must pass."""
    out = {}
    for name in CHECK_ORDER:
        before = len(steps)
        res = run_check(name, ctx, config)
        assert res.status == "pass", (name, res.detail)
        if len(steps) > before:
            out[name] = len(steps) - before
    return out


def test_one_trace_sweep_serves_every_check_of_a_rewired_file(tmp_path, x135, monkeypatch):
    ctx = _two_switched_x135_file(tmp_path, x135)
    steps = _count_calls_everywhere(monkeypatch, nbt, "_mul_adj")
    charpolys = _count_calls_everywhere(monkeypatch, nbt, "integer_charpoly")
    cfg = VerificationSuiteConfig(source_kind="file", source="x135_rewritten.json")
    per_check = {}
    for name in CHECK_ORDER:
        before = len(steps), len(charpolys)
        res = run_check(name, ctx, cfg)
        assert res.status == "pass", (name, res.detail)
        taken = len(steps) - before[0], len(charpolys) - before[1]
        if taken != (0, 0):
            per_check[name] = taken
    # (matrix steps, chi_A) per check.  The oracle (to m = 4) forms chi_A,
    # and every later check reads the same sweep: chebyshev (30),
    # average-nm (80) and cusp (200) extend it by Newton's identities
    # alone.  ihara-bass takes A^2..A^5 for its power traces, the one
    # matrix stream left, and the oracle's rows of A_m take row steps only
    assert per_check == {"oracle": (0, 1), "ihara-bass": (4, 0)}
    ctx.sweep.prefix(400)
    assert (len(steps), len(charpolys)) == (4, 1)  # the sweep needs nothing more


def test_certified_lps_sources_take_no_full_matrix_step(tmp_path, x135, monkeypatch):
    emitted = tmp_path / "x135.json"
    assert main(["lps", "--p", "13", "--q", "5", "--emit", str(emitted)]) == 0
    copy = tmp_path / "copy.json"
    copy.write_bytes(emitted.read_bytes())
    contexts = {
        "--lps 13,5": SuiteContext(*lps.build_lps(13, 5)),
        "byte copy of the emitted file": resolve_source(
            VerificationSuiteConfig(source_kind="file", source=str(copy))
        ),
        "relabeled file": _relabeled_x135_file(tmp_path, x135),
    }
    steps = _count_calls_everywhere(monkeypatch, nbt, "_mul_adj")
    cfg = VerificationSuiteConfig(source_kind="lps", p=13, q=5)
    for label, ctx in contexts.items():
        assert ctx.row_vertex is not None, label
        assert _steps_per_check(ctx, cfg, steps) == {}, label


def test_uncertified_contexts_take_the_full_route(tmp_path, x135):
    g, params = x135[0], x135[1]
    rewired_file = _two_switched_x135_file(tmp_path, x135)
    for ctx in (SuiteContext(g), rewired_file, SuiteContext(named_graph("PETERSEN"))):
        assert ctx.row_vertex is None
        assert ctx.sweep._scale == 1  # Tr B_m of the full matrices
    certified = SuiteContext(g, params)
    assert certified.sweep._scale == g.n  # n times the identity row's diagonal


def _spy_on_sources(monkeypatch, most: int | None = None) -> list:
    """Record the sources of every oracle search; refuse a search from more than most vertices."""
    seen = []
    real = oracle.reduced_walks

    def spy(g, m_max, sources, **kwargs):
        seen.append(list(sources))
        assert most is None or len(seen[-1]) <= most, "the search starts everywhere"
        return real(g, m_max, sources, **kwargs)

    monkeypatch.setattr(oracle, "reduced_walks", spy)
    monkeypatch.setattr(zeta, "reduced_walks", spy)
    return seen


def _oracle_outcome(ctx: SuiteContext) -> tuple:
    res = run_check("oracle", ctx, VerificationSuiteConfig(source_kind="lps", p=13, q=5, checks=("oracle",)))
    return res.status, res.metric, res.detail


def test_the_identity_row_oracle_reports_what_the_full_one_does(tmp_path, x135, monkeypatch):
    g, params = x135[0], x135[1]
    sources = _spy_on_sources(monkeypatch)
    certified = SuiteContext(g, params)
    outcome = _oracle_outcome(certified)
    assert outcome == _oracle_outcome(SuiteContext(g))
    assert outcome == _oracle_outcome(_relabeled_x135_file(tmp_path, x135))
    # the relabeled file's search certifies it, and its oracle starts at vertex 0 alone
    assert sources == [[certified.row_vertex], list(range(g.n)), [0]]
    status, metric, detail = outcome
    assert (status, metric, detail["depth"]) == ("pass", 0.0, 4)
    assert detail["n_m_bruteforce"] == nbt.n_reduced_range(g, x135[2], 4, method="full")


@pytest.mark.parametrize("certified", [True, False])
@pytest.mark.parametrize("corrupt", ["row", "count"])
def test_the_oracle_check_sees_a_wrong_recurrence(x135, monkeypatch, certified, corrupt):
    g, params = x135[0], x135[1]
    ctx = SuiteContext(g, params if certified else None)
    if corrupt == "row":
        real = nbt.a_rows

        def wrong_rows(g, cert, m_max, v):
            rows = real(g, cert, m_max, v)
            rows[m_max][g.neighbors[v][0]] += 1
            return rows

        monkeypatch.setattr(nbt, "a_rows", wrong_rows)
    else:
        real = nbt.n_reduced_range
        monkeypatch.setattr(nbt, "n_reduced_range", lambda *a, **k: [x + 2 for x in real(*a, **k)])
    status, metric, _ = _oracle_outcome(ctx)
    assert status == "fail" and metric >= 1.0


def test_oracle_and_ihara_bass_run_on_the_identity_row_of_x_5_29(monkeypatch):
    ctx = SuiteContext(*lps.build_lps(5, 29))  # n = 12180: one n x n matrix of ints is over 1 GB

    def refuse(*args, **kwargs):
        raise AssertionError("an n x n matrix was built")

    for name in ("_mul_adj", "_identity_rows", "_adjacency_rows"):
        monkeypatch.setattr(nbt, name, refuse)
    sources = _spy_on_sources(monkeypatch, most=1)
    cfg = VerificationSuiteConfig(source_kind="lps", p=5, q=29, checks=("oracle", "ihara-bass"))
    oracle_res, bass = (run_check(name, ctx, cfg) for name in cfg.checks)
    assert (oracle_res.status, oracle_res.metric, oracle_res.detail["depth"]) == ("pass", 0.0, 4)
    assert (bass.status, bass.metric) == ("pass", 0.0)
    assert sources == [[ctx.row_vertex]]


def test_each_context_owns_its_sweep(tmp_path, x135, monkeypatch):
    first = _two_switched_x135_file(tmp_path, x135)
    second = SuiteContext(first.g, first.params, first.label)
    second._cert = first.cert  # as a benchmark pass copies a set-up's certificate
    steps = _count_calls_everywhere(monkeypatch, nbt, "_mul_adj")
    charpolys = _count_calls_everywhere(monkeypatch, nbt, "integer_charpoly")
    cfg = VerificationSuiteConfig(source_kind="file", source="x135_rewritten.json", checks=("huang",))
    for ctx in (first, second):
        before = len(charpolys)
        assert run_check("huang", ctx, cfg).status == "pass"
        assert len(charpolys) - before == 1  # chi_A, formed by each context
    assert steps == []
    assert first.sweep is not second.sweep


def test_a_dropped_context_frees_its_sweep_without_the_cycle_collector(tmp_path, x135):
    ctx = _two_switched_x135_file(tmp_path, x135)
    cfg = VerificationSuiteConfig(source_kind="file", source="x135_rewritten.json", checks=("huang",))
    gc.collect()
    gc.disable()
    try:
        assert run_check("huang", ctx, cfg).status == "pass"
        sweep = weakref.ref(ctx.sweep)
        stream = weakref.ref(ctx.sweep._stream)
        del ctx
        assert sweep() is None and stream() is None  # freed by reference counting alone
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("p, q", [(13, 5), (29, 5)])
def test_cusp_check_forms_the_terms_once(p, q, monkeypatch):
    ctx = SuiteContext(*lps.build_lps(p, q))
    horizons = suite.DEFAULT_HORIZONS["cusp"]
    terms = graded_values(zeta.normalized_cusp_terms(ctx.g, ctx.params, max(horizons)), p)
    ref = limits.average_cusp_reference(ctx.sd)
    want = []
    for N in horizons:
        average = float(sum(terms[1 : N + 1], Fraction(0))) / N
        want.append({"N": N, "average": average, "scaled_average": abs(average) * N})
    calls = _count_calls_everywhere(monkeypatch, zeta, "normalized_cusp_terms")
    cfg = VerificationSuiteConfig(source_kind="lps", p=p, q=q, checks=("cusp",))
    res = run_check("cusp", ctx, cfg)
    assert [args[2] for args in calls] == [max(horizons)]
    assert res.detail == {"rows": want, "reference_constant": ref}
    assert res.metric == max(r["scaled_average"] for r in want) / (suite.BAND_FACTOR * ref)


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


# ---------------------------------------------------------------------------
# range check: blocked GEMM against the dense projector stack


def dense_range_abs_max(sd, m_max: int) -> np.ndarray:
    """max |a_m| per m from one n x n projector per principal cluster."""
    principal = sd.principal()
    thetas = np.array([cl.theta.real for cl in principal])
    stack = np.stack([cl.projector for cl in principal])
    return np.array(
        [
            float(np.max(np.abs(np.tensordot(np.cos(m * thetas), stack, axes=1))))
            for m in range(1, m_max + 1)
        ]
    )


def dense_check_range(sd, m_max: int = 200) -> dict:
    """The range check over the dense projector stack."""
    if not sd.principal():
        return {"metric": 0.0, "detail": {"m_max": m_max, "note": "empty principal part"}}
    worst = 0.0
    for top in dense_range_abs_max(sd, m_max):
        worst = max(worst, max(0.0, top - 1.0))
    return {"metric": worst, "detail": {"m_max": m_max}}


def frucht_graph():
    """The Frucht graph: 3-regular on 12 vertices with no nontrivial automorphism."""
    shifts = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = {tuple(sorted((i, (i + 1) % 12))) for i in range(12)}
    edges |= {tuple(sorted((i, (i + s) % 12))) for i, s in enumerate(shifts)}
    return build_graph(12, sorted(edges))


def cycle_plus_matching(n: int, seed: int):
    """A 3-regular graph: the n-cycle plus a seeded perfect matching of non-neighbours."""
    rng = np.random.default_rng(seed)
    while True:
        perm = rng.permutation(n)
        pairs = [(int(a), int(b)) for a, b in zip(perm[0::2], perm[1::2])]
        if all((a - b) % n not in (0, 1, n - 1) for a, b in pairs):
            return build_graph(n, [(i, (i + 1) % n) for i in range(n)] + pairs)


RANGE_SOURCES = {
    "PETERSEN": lambda: SuiteContext(named_graph("PETERSEN")),
    "K33": lambda: SuiteContext(named_graph("K33")),
    "X13_5": lambda: SuiteContext(*lps.build_lps(13, 5)),
    "X17_5": lambda: SuiteContext(*lps.build_lps(17, 5)),
    "X29_5_nonbipartite": lambda: SuiteContext(*lps.build_lps(29, 5)),
    # not vertex-transitive: rows of a_m differ, so an entry the blocks miss shows
    "FRUCHT": lambda: SuiteContext(frucht_graph()),
    "C50_matching": lambda: SuiteContext(cycle_plus_matching(50, 11)),
}


@pytest.mark.parametrize("name", RANGE_SOURCES)
def test_range_matches_dense_projector_stack(name):
    # the LPS sources take the quotient route; the reference is always dense
    ctx = RANGE_SOURCES[name]()
    dense = eigendecompose(ctx.g, ctx.cert)
    got = range_abs_max(ctx.sd, 200)
    assert np.max(np.abs(got - dense_range_abs_max(dense, 200))) <= 1e-12
    assert check_range(ctx) == dense_check_range(dense)


def _own_cos_table(sd, m_top: int):
    """The cos(m theta_l) table range_abs_max built for itself before it read the spectrum's."""
    return np.cos(np.outer(np.arange(1, m_top + 1), sd.principal_angles()[0])), None


@pytest.mark.parametrize("name", RANGE_SOURCES)
def test_range_reads_the_floats_its_own_table_held(name, monkeypatch):
    # on the quotient route (the LPS sources) and the dense one, also as a prefix of cesaro's longer table
    ctx = RANGE_SOURCES[name]()
    for sd in (ctx.sd, eigendecompose(ctx.g, ctx.cert)):
        with monkeypatch.context() as patch:
            patch.setattr(SpectralData, "principal_trig_table", _own_cos_table)
            want = range_abs_max(sd, 200)
        assert (sd.principal_trig_table(200)[0] == _own_cos_table(sd, 200)[0]).all()
        assert (range_abs_max(sd, 200) == want).all(), name
        assert (sd.principal_trig_table(400)[0][:200] == _own_cos_table(sd, 200)[0]).all()
        assert (range_abs_max(sd, 200) == want).all(), name


def test_range_rechecks_a_nontrivial_singular_cluster_densely(monkeypatch):
    # on X^{p,q} the quotient route's only singular clusters are +-(p+1); any other sends range to eigh
    ctx = SuiteContext(*lps.build_lps(13, 5))
    sd = ctx.sd
    want = check_range(ctx)
    odd = next(i for i, cl in enumerate(sd.clusters) if cl.principal)
    clusters = list(sd.clusters)
    clusters[odd] = dataclasses.replace(clusters[odd], principal=False)
    ctx._sd = dataclasses.replace(sd, clusters=tuple(clusters))
    calls = []

    def dense(g, cert):
        calls.append(g)
        return eigendecompose(g, cert)

    monkeypatch.setattr(suite, "eigendecompose", dense)
    assert check_range(ctx) == want
    assert calls == [ctx.g]


@pytest.mark.parametrize("block", [1, 3, 5, 7, 12, 16, 64])
def test_range_block_remainders(monkeypatch, block):
    # n = 12: a multiple of the block, a remainder, or one short block
    sd = SuiteContext(frucht_graph()).sd
    want = dense_range_abs_max(sd, 40)
    monkeypatch.setattr(suite, "RANGE_BLOCK", block)
    assert np.max(np.abs(range_abs_max(sd, 40) - want)) <= 1e-12


def test_range_empty_principal_part():
    # a doubled edge is 2-regular with spectrum {2, -2} = {q+1, -(q+1)}: nothing principal
    ctx = SuiteContext(build_graph(2, [(0, 1, 2)]))
    assert ctx.sd.principal() == []
    want = {"metric": 0.0, "detail": {"m_max": 200, "note": "empty principal part"}}
    assert check_range(ctx) == dense_check_range(ctx.sd) == want


# ---------------------------------------------------------------------------
# trivial eigenvalues and the remainders R_m


@pytest.fixture(scope="module")
def x1713_ctx():
    """A certified context on X^{17,13} (n = 1092): row route and quotient spectrum."""
    return SuiteContext(*lps.build_lps(17, 13), label="X^{17,13}")


@pytest.fixture
def ramanujan_contexts(contexts, x135_ctx, x1713_ctx):
    """The named corpus, X^{13,5} and X^{17,13}, all Ramanujan graphs."""
    return [*contexts.values(), x135_ctx, x1713_ctx]


def _nontrivial_sum(ctx: SuiteContext, f) -> float:
    """The sum of mult * f(value / 2 sqrt q) over ctx.nontrivial_clusters()."""
    root = 2.0 * math.sqrt(ctx.cert.q)
    return sum(mult * f(cl.value / root) for cl, mult in ctx.nontrivial_clusters())


def test_each_trivial_value_is_a_simple_cluster(ramanujan_contexts):
    for ctx in ramanujan_contexts:
        d = ctx.cert.degree
        assert ctx.trivial_values() == ((d, -d) if ctx.cert.bipartite else (d,))
        mults = {cl.value: cl.mult for cl in ctx.sd.clusters}
        assert all(mults.get(lam) == 1 for lam in ctx.trivial_values()), ctx.label
        kept = ctx.nontrivial_clusters()
        assert sum(mult for _, mult in kept) == ctx.g.n - len(ctx.trivial_values())
        assert all(cl.value not in ctx.trivial_values() for cl, _ in kept)


def test_remainders_are_the_nontrivial_spectral_sums(ramanujan_contexts):
    m_max = 30
    for ctx in ramanujan_contexts:
        q, n = ctx.cert.q, ctx.g.n
        remainders = ctx.remainders(m_max)
        assert len(remainders) == m_max + 1
        assert remainders[0] == 2 * (n - len(ctx.trivial_values()))
        for m, r_m in enumerate(remainders):
            scale = 2.0 * q ** (m / 2.0)
            spectral = _nontrivial_sum(ctx, lambda x: scale * nbt.cheb_t_real(m, x))
            assert abs(r_m - spectral) <= 1e-9 * n * q ** (m / 2.0), (ctx.label, m)


def test_huang_is_the_nontrivial_sum_of_two_minus_two_t_m(ramanujan_contexts):
    for ctx in ramanujan_contexts:
        root = 2.0 * math.sqrt(ctx.cert.q)
        assert all(abs(cl.value) <= root for cl, _ in ctx.nontrivial_clusters()), ctx.label
        for m, h_m in enumerate(limits.huang_range(ctx, 30), 1):
            want = _nontrivial_sum(ctx, lambda x: 2.0 - 2.0 * nbt.cheb_t_real(m, x))
            assert abs(h_m - want) <= 1e-9 * ctx.g.n, (ctx.label, m)


def _stf_loop_difference(ctx: SuiteContext, h: limits.StfTestFunction) -> float:
    """stf_verify's |difference| as its own loop formed it before SuiteContext.trace_residuals."""
    q, m_max = ctx.cert.q, h.max_frequency()
    remainders = ctx.remainders(m_max)
    sums, _ = ctx.nontrivial_chebyshev_sums(m_max)
    difference = 0.0
    for m, v in h.support:
        exact = zeta.graded_float(Fraction(remainders[m], q ** ((m + 1) // 2)), m, q)
        difference += v * (sums[m] - exact)
    return abs(difference)


def _scaled_trace_route_metric(ctx: SuiteContext, m_max: int) -> float:
    """chebyshev's part 2 as it was formed before: |R_m - q^{m/2} S_m| / (q^{m/2} max(n, sum mult |T_m|))."""
    q, n = ctx.cert.q, ctx.g.n
    remainders = ctx.remainders(m_max)
    sums, spreads = ctx.nontrivial_chebyshev_sums(m_max)
    worst = 0.0
    for m in range(1, m_max + 1):
        scale = q ** (m / 2.0)
        worst = max(worst, abs(remainders[m] - scale * sums[m]) / (max(n, spreads[m]) * scale))
    return worst


def test_stf_and_chebyshev_read_the_residuals_they_formed_before(ramanujan_contexts):
    several = limits.StfTestFunction(hhat0=0.5, support=((1, 0.25), (2, -1.5), (7, 3.0), (12, 0.125)))
    for ctx in [*ramanujan_contexts, SuiteContext(*lps.build_lps(29, 5))]:
        for h in [*(limits.StfTestFunction.single(m0) for m0 in range(13)), several]:
            assert limits.stf_verify(ctx, h)[2] == _stf_loop_difference(ctx, h), (ctx.label, h)
        assert abs(suite._trace_route_metric(ctx, 30) - _scaled_trace_route_metric(ctx, 30)) <= 1e-15, ctx.label


def test_certified_and_relabeled_x135_give_the_same_remainders(tmp_path, x135, x135_ctx):
    relabeled = _relabeled_x135_file(tmp_path, x135)
    assert relabeled.row_vertex == 0 and x135_ctx.row_vertex is not None
    assert relabeled.remainders(40) == x135_ctx.remainders(40)
    uncertified = SuiteContext(relabeled.g)  # the full route, from chi_A
    assert uncertified.row_vertex is None
    assert uncertified.remainders(40) == x135_ctx.remainders(40)


def test_cusp_coefficients_certify_only_for_a_fresh_sweep(x135_ctx, monkeypatch):
    certs = _count_calls_everywhere(monkeypatch, graphs, "certify_regular")
    ctx = SuiteContext(x135_ctx.g, x135_ctx.params)
    ctx.sweep  # certifies once, as every context does
    assert len(certs) == 1
    from_sweep = zeta.cusp_coefficients_range(ctx.g, ctx.params, 12, sweep=ctx.sweep)
    assert len(certs) == 1
    assert zeta.cusp_coefficients_range(ctx.g, ctx.params, 12) == from_sweep
    assert len(certs) == 2
