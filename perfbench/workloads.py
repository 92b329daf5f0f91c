"""Workload table and the seeded input generator.

A workload names the graph sources a `verify` run starts from and the
checks it runs on each.  Sources are either an LPS (p, q) pair, which
`suite.resolve_source` builds with `lps.build_lps` and which does not
depend on the seed, or a graph file that `write_inputs` generates from
the seed.  Generated files keep the structure fixed and let the seed
permute vertex labels and edge order, so every seed yields another
input file while the exact outputs the gate pins stay the same.

This module imports nothing from iharalab: the program sees only the
files it writes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

SPECTRAL_CHECKS = ("range", "cesaro", "average-nm", "stf", "cusp", "huang")

# The irregular graph's structure comes from this fixed seed; the run
# seed only relabels it.
IRREGULAR_BASE_SEED = 20200519
IRREGULAR_N = 64
IRREGULAR_MAX_DEGREE = 4


@dataclass(frozen=True)
class Source:
    label: str  # key into pins.json
    lps: tuple[int, int] | None = None
    file: str | None = None  # file name written by write_inputs


@dataclass(frozen=True)
class Workload:
    sources: tuple[Source, ...]
    checks: tuple[str, ...] | None  # None: all of suite.CHECK_ORDER


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "exact-lps": Workload(
        sources=(Source("X13_5", lps=(13, 5)), Source("X17_5", lps=(17, 5))),
        checks=None,
    ),
    "exact-lps-file": Workload(
        sources=(Source("X13_5", file="lps_13_5.json"),),
        checks=None,
    ),
    "spectral-lps1092": Workload(
        sources=(Source("X17_13", lps=(17, 13)),),
        checks=SPECTRAL_CHECKS,
    ),
    "zeta-irregular": Workload(
        sources=(Source("irregular64", file="irregular64.json"),),
        checks=("ihara-bass",),
    ),
}


def permutation(rng: random.Random, n: int) -> list[int]:
    """Fisher-Yates shuffle of range(n) driven only by rng.random().

    random() is the one method whose sequence Python keeps stable across
    versions for a given seed.
    """
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def irregular_base_edges() -> list[tuple[int, int]]:
    """A connected irregular graph: a random tree plus n/2 extra edges.

    No loops or parallel edges, and no vertex above IRREGULAR_MAX_DEGREE.
    """
    rng = random.Random(IRREGULAR_BASE_SEED)
    n = IRREGULAR_N
    degree = [0] * n
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1

    for v in range(1, n):
        open_ = [u for u in range(v) if degree[u] < IRREGULAR_MAX_DEGREE]
        add(v, open_[int(rng.random() * len(open_))])
    extra = 0
    while extra < n // 2:
        u = int(rng.random() * n)
        v = int(rng.random() * n)
        if u == v or (min(u, v), max(u, v)) in edges:
            continue
        if degree[u] >= IRREGULAR_MAX_DEGREE or degree[v] >= IRREGULAR_MAX_DEGREE:
            continue
        add(u, v)
        extra += 1
    return sorted(edges)


def relabeled(n: int, edges: list, seed: int) -> list[list[int]]:
    """Edges with vertices renamed by a seeded permutation, in seeded order."""
    rng = random.Random(seed)
    perm = permutation(rng, n)
    out = []
    for e in edges:
        u, v = perm[e[0]], perm[e[1]]
        out.append([min(u, v), max(u, v), *e[2:]])
    order = permutation(rng, len(out))
    return [out[i] for i in order]


def _write(path: Path, doc: dict) -> dict:
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    path.write_text(text, encoding="utf-8")
    return {
        "file": path.name,
        "n": doc["n"],
        "edges": len(doc["edges"]),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def write_inputs(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's generated graph files; return one record per file."""
    records = []
    for source in WORKLOADS[workload].sources:
        if source.file is None:
            continue
        if source.file == "lps_13_5.json":
            base = json.loads((DATA / source.file).read_text(encoding="utf-8"))
            doc = {"n": base["n"], "edges": relabeled(base["n"], base["edges"], seed), "lps": base["lps"]}
        else:
            doc = {"n": IRREGULAR_N, "edges": relabeled(IRREGULAR_N, irregular_base_edges(), seed)}
        records.append(_write(out_dir / source.file, doc))
    return records
