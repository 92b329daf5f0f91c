"""Spans and counters recorded around calls into iharalab, from outside it.

A layer is one iharalab module.  `Tracer.install` wraps the public
functions of each layer module, plus the class methods listed in
METHODS, and rebinds the wrapper at every place a `from .x import y`
left a second name for the same function (for example
`zeta.n_reduced_range` or `suite.eigendecompose`).  `limits.quad`, the
scipy routine as `limits` sees it, is wrapped as a limits span.
`Patcher.restore` puts every original back.

Spans live in memory as [name, start, end, parent, workload, pass] and
are written out when the run ends.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

LAYERS = ("lps", "graphs", "spectral", "nbt", "oracle", "zeta", "series", "limits", "suite")

# Scalar or per-entry helpers, called up to tens of thousands of times
# per run for microseconds each; a wrapper would distort the run, so
# their time stays with the caller.  qext, chebyshev and cli are not
# wrapped for the same reason.
PER_ELEMENT = frozenset(
    {
        "lps.is_prime",
        "lps.legendre_symbol",
        "lps.sqrt_mod",
        "lps.mat_mul",
        "lps.mat_det",
        "lps.canonical_form",
        "lps.embed_generator",
        "nbt.cheb_t_real",
        "nbt.cheb_u_real",
        "spectral.theta_of",
        "limits.cos_partial_sum_bound",
        "limits.shifted_cos_partial_sum_bound",
        "zeta.eisenstein_C",
    }
)

METHODS = {
    "nbt": {
        "ExactMatrixSeq": (
            "__init__",
            "advance",
            "run_to",
            "a_current",
            "m_current",
            "t_tilde_current",
            "trace",
        )
    },
    "series": {"TruncatedSeries": ("exp", "inverse", "__mul__", "derivative")},
}

CHECK_NAMES = (
    "oracle",
    "chebyshev",
    "ihara-bass",
    "range",
    "cesaro",
    "average-nm",
    "stf",
    "cusp",
    "phi",
    "huang",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    pass_id: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover inside it."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        inside = [
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        ]
        out.append((s.end - s.start) - covered_length(inside))
    return out


def max_bits(value) -> int:
    """Largest bit length of any int in an int, a list or nested lists."""
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, (list, tuple)) and value:
        if isinstance(value[0], int):
            return max(max(value), -min(value)).bit_length()
        return max(max_bits(v) for v in value)
    return 0


class Patcher:
    """Rebinds attributes and restores the originals in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def rebind_everywhere(self, modules, original, replacement) -> int:
        """Replace every module-level name bound to original; return the count."""
        count = 0
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, name, replacement)
                    count += 1
        return count

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def package_modules(package: str = "iharalab") -> list:
    """The package and every submodule it has imported."""
    root = importlib.import_module(package)
    return [root] + [m for k, m in sorted(sys.modules.items()) if k.startswith(package + ".")]


class PassStats:
    """Counters of one pass that spans alone do not give."""

    def __init__(self):
        self.sums: Counter = Counter()
        self.peaks: Counter = Counter()
        self.reached: set = set()

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks[key]:
            self.peaks[key] = value


# --- counter hooks: (stats, bound arguments, result) -> None ---------------


def _steps(kind: str, recurrence: str, first: int):
    def hook(stats: PassStats, args, result) -> None:
        g, m_max = args["g"], args["m_max"]
        v = args.get("v", 0)
        stats.sums[kind] += max(m_max - first + 1, 0)
        stats.reached.update((id(g), recurrence, v, m) for m in range(first, m_max + 1))

    return hook


def _advance(stats: PassStats, args, result) -> None:
    seq = args["self"]
    stats.sums["full_steps"] += 1
    stats.reached.add((id(seq.g), "A", 0, seq.m))


def _oracle(stats: PassStats, args, result) -> None:
    depth = args.get("m_max", args.get("m", 0))
    stats.peak("oracle.depth", depth)
    if isinstance(result, int):
        stats.sums["oracle.walks"] += result
    elif result and isinstance(result[0], int):
        stats.sums["oracle.walks"] += sum(result)
    else:
        stats.sums["oracle.walks"] += sum(sum(row) for mat in result for row in mat)


def _eigendecompose(stats: PassStats, args, result) -> None:
    stats.sums["spectral.clusters"] += len(result.clusters)
    stats.sums["spectral.projector_bytes"] += sum(c.projector.nbytes for c in result.clusters)


def _determinant(stats: PassStats, args, result) -> None:
    stats.peak("zeta.det_bits", abs(result).bit_length())


HOOKS: dict[str, Callable] = {
    "nbt.ExactMatrixSeq.advance": _advance,
    "nbt.chebyshev_b_range": _steps("full_steps", "B", 2),
    "nbt.adjacency_power_traces": _steps("full_steps", "P", 1),
    "nbt.f_values": _steps("row_steps", "row", 2),
    "oracle.count_reduced_cycles_bf": _oracle,
    "oracle.count_reduced_cycles_all": _oracle,
    "oracle.count_reduced_paths_bf": _oracle,
    "oracle.count_reduced_paths_all": _oracle,
    "oracle.count_tailed_closed_bf": _oracle,
    "spectral.eigendecompose": _eigendecompose,
    "zeta.bareiss_determinant": _determinant,
}


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_id: int | None = None
        self.records: list[list] = []
        self.stats: dict[int | None, PassStats] = defaultdict(PassStats)
        self._stack: list[int] = []
        self._patcher: Patcher | None = None

    # recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.workload, self.pass_id]
        self._stack.append(len(self.records))
        self.records.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span around the benchmark's own call into a layer."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        hook = HOOKS.get(name)
        if name.startswith("nbt."):
            hook = _with_bits(hook)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.stats[tracer.pass_id], bound.arguments, result)
            return result

        return wrapper

    # installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and listed methods."""
        if self._patcher is not None:
            raise RuntimeError("tracer already installed")
        patcher = Patcher()
        modules = package_modules()
        for layer in LAYERS:
            mod = importlib.import_module(f"iharalab.{layer}")
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in PER_ELEMENT:
                    continue
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    patcher.rebind_everywhere(modules, fn, self.wrap(name, fn))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    patcher.set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
        limits = importlib.import_module("iharalab.limits")
        patcher.set(limits, "quad", self.wrap("limits.quad", limits.quad))
        self._patcher = patcher

    def uninstall(self) -> None:
        if self._patcher is not None:
            self._patcher.restore()
            self._patcher = None

    def spans(self) -> list[Span]:
        return [Span(*rec) for rec in self.records]


def _with_bits(hook: Callable | None) -> Callable:
    def combined(stats: PassStats, args, result) -> None:
        stats.peak("nbt.max_bits", max_bits(result))
        if hook is not None:
            hook(stats, args, result)

    return combined


# --- per-layer metrics -------------------------------------------------------


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Inclusive times of the set-up calls named in the benchmark."""
    out = {"lps.build_s": 0.0, "graphs.load_s": 0.0, "graphs.certify_s": 0.0}
    names = {
        "lps.build_lps": "lps.build_s",
        "graphs.load_graph": "graphs.load_s",
        "graphs.certify_regular": "graphs.certify_s",
    }
    for s in spans:
        if s.name in names:
            out[names[s.name]] += s.end - s.start
    return out


def pass_metrics(
    spans: list[Span], selfs: list[float], stats: PassStats, verify_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced pass of verify_s seconds.

    spans are the pass's spans and selfs their self times.
    """
    layer_self: Counter = Counter()
    count: Counter = Counter()
    inclusive: Counter = Counter()
    for s, st in zip(spans, selfs):
        layer_self[s.layer] += st
        count[s.layer] += 1
        count[s.name] += 1
        inclusive[s.name] += s.end - s.start
    steps = stats.sums["full_steps"] + stats.sums["row_steps"]
    out = {
        "spectral.eigendecompose_s": inclusive["spectral.eigendecompose"],
        "spectral.clusters": stats.sums["spectral.clusters"],
        "spectral.projector_mb": stats.sums["spectral.projector_bytes"] / 2**20,
        "graphs.self_s": layer_self["graphs"],
        "nbt.self_s": layer_self["nbt"],
        "nbt.calls": count["nbt"],
        "nbt.full_steps": stats.sums["full_steps"],
        "nbt.row_steps": stats.sums["row_steps"],
        "nbt.useful_step_ratio": len(stats.reached) / steps if steps else 0.0,
        "nbt.max_bits": stats.peaks["nbt.max_bits"],
        "oracle.self_s": layer_self["oracle"],
        "oracle.depth": stats.peaks["oracle.depth"],
        "oracle.walks": stats.sums["oracle.walks"],
        "zeta.self_s": layer_self["zeta"],
        "zeta.det_s": inclusive["zeta.bareiss_determinant"],
        "zeta.det_points": count["zeta.bareiss_determinant"],
        "zeta.det_bits": stats.peaks["zeta.det_bits"],
        "series.self_s": layer_self["series"],
        "series.calls": count["series"],
        "limits.self_s": layer_self["limits"],
        "limits.quad_s": inclusive["limits.quad"],
        "limits.quad_calls": count["limits.quad"],
        "suite.self_s": layer_self["suite"],
    }
    for check in CHECK_NAMES:
        out[f"suite.check.{check}_s"] = inclusive[f"suite.check.{check}"]
    out["trace.coverage"] = sum(layer_self.values()) / verify_s
    return out


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
