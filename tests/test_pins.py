"""The benchmark's pinned exact outputs, rebuilt from the library.

perfbench/pins.json holds what the benchmark's correctness gate compares
each run against: N_1..N_80 of three LPS graphs, a digest of the cusp
check's normalized terms on the two bipartite ones, and a digest of the
irregular graph's reciprocal zeta polynomial.  These tests only read the
file.  A change to the library that would make the gate refuse a run
fails here first.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from iharalab import limits, nbt, suite, zeta
from iharalab.graphs import load_graph
from iharalab.lps import build_lps
from iharalab.suite import SuiteContext

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PINS = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
LPS_PINS = {"X13_5": (13, 5), "X17_5": (17, 5), "X17_13": (17, 13)}


def digest_fractions(values) -> str:
    """The gate's digest of a list of Fractions."""
    text = ",".join(f"{v.numerator}/{v.denominator}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _workloads():
    """perfbench/workloads.py, which writes the generated graph files and imports nothing from iharalab."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lps_contexts():
    return {label: SuiteContext(*build_lps(*pq)) for label, pq in LPS_PINS.items()}


@pytest.mark.parametrize("label", list(LPS_PINS))
def test_reduced_cycle_counts_match_the_pins(lps_contexts, label):
    ctx = lps_contexts[label]
    want = PINS[label]["n_m"]
    assert len(want) == 80
    assert nbt.n_reduced_range(ctx.g, ctx.cert, 80, sweep=ctx.sweep) == want


@pytest.mark.parametrize("label", ["X13_5", "X17_5"])
def test_one_cusp_check_forms_the_pinned_terms_once(lps_contexts, label, monkeypatch):
    """The gate digests what limits.normalized_cusp_terms returns, once per cusp check."""
    ctx = lps_contexts[label]
    real, returned = limits.normalized_cusp_terms, []

    def keep(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    for module in [m for k, m in sys.modules.items() if k.startswith("iharalab.")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, keep)
    suite.check_cusp(ctx)
    assert [digest_fractions(terms) for terms in returned] == [PINS[label]["cusp_terms_sha256"]]
    assert len(returned[0]) == 201


def test_irregular_reciprocal_matches_the_pin(tmp_path):
    (record,) = _workloads().write_inputs("zeta-irregular", 0, tmp_path)
    recip = zeta.ihara_bass_reciprocal(load_graph(str(tmp_path / record["file"])))
    text = f"{recip.betti_r}:" + ",".join(map(str, recip.det_coeffs))
    assert hashlib.sha256(text.encode()).hexdigest() == PINS["irregular64"]["reciprocal_sha256"]
