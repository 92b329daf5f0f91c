"""The seeded input generator: deterministic, seed-sensitive, structure-preserving."""

import json
from collections import Counter

from workloads import IRREGULAR_MAX_DEGREE, IRREGULAR_N, irregular_base_edges, permutation, write_inputs


def degrees(n, edges):
    deg = Counter()
    for e in edges:
        deg[e[0]] += e[2] if len(e) > 2 else 1
        deg[e[1]] += e[2] if len(e) > 2 else 1
    return sorted(deg[v] for v in range(n))


def test_same_seed_same_files_other_seed_other_files(tmp_path):
    for workload in ("exact-lps-file", "zeta-irregular"):
        runs = {}
        for name, seed in (("a", 7), ("b", 7), ("c", 8)):
            out = tmp_path / workload / name
            out.mkdir(parents=True)
            runs[name] = write_inputs(workload, seed, out)
        assert runs["a"] == runs["b"]
        assert [r["sha256"] for r in runs["a"]] != [r["sha256"] for r in runs["c"]]


def test_relabeling_keeps_the_graph_and_the_lps_record(tmp_path):
    (rec,) = write_inputs("exact-lps-file", 3, tmp_path)
    doc = json.loads((tmp_path / rec["file"]).read_text())
    assert doc["lps"] == {"p": 13, "q": 5, "kind": "PGL2"}
    assert (rec["n"], rec["edges"]) == (120, 840)
    assert degrees(doc["n"], doc["edges"]) == [14] * 120


def test_irregular_graph_is_connected_irregular_and_bounded():
    edges = irregular_base_edges()
    assert len(edges) == IRREGULAR_N - 1 + IRREGULAR_N // 2
    assert all(u < v for u, v in edges) and len(set(edges)) == len(edges)
    deg = degrees(IRREGULAR_N, edges)
    assert max(deg) == IRREGULAR_MAX_DEGREE and min(deg) < max(deg)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    stack.append(y)
    assert len(seen) == IRREGULAR_N


def test_permutation_is_a_permutation():
    import random

    perm = permutation(random.Random(5), 50)
    assert sorted(perm) == list(range(50))
    assert perm != list(range(50))
