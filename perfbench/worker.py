"""One workload in one fresh process: set up, verify in a closed loop, gate.

run.py starts this file once per set-up sample (`--mode setup`) and once
for the measured run (`--mode run`).  Set-up time runs from the first
statement below, before iharalab is imported, until every graph is
built or loaded and certified.  The run then repeats the workload's
checks on all its graphs, one after the next; each repetition is a
pass.  After two passes it starts another only while the median pass
so far would still end within --seconds.  Each pass gets fresh suite
contexts, so it pays the lazy eigendecompose as a new `ihara-lab
verify` process does.  During untraced passes a SpeedSampler times a
fixed reference computation four times a second, and each check's
time is also expressed in units of that reference.

After each pass, outside the timed region, the exact outputs are
compared with pins.json.  With --trace 1, passes alternate untraced and
traced, starting untraced, and the traced ones record spans.

The last line of standard output is one JSON object for run.py.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import (  # noqa: E402
    Patcher,
    Tracer,
    median_metrics,
    package_modules,
    pass_metrics,
    self_times,
    setup_metrics,
)
from workloads import WORKLOADS  # noqa: E402

PINS = HERE / "pins.json"


# --- exact outputs ------------------------------------------------------------


def digest_fractions(values) -> str:
    text = ",".join(f"{v.numerator}/{v.denominator}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def digest_reciprocal(recip) -> str:
    text = f"{recip.betti_r}:" + ",".join(map(str, recip.det_coeffs))
    return hashlib.sha256(text.encode()).hexdigest()


class Captures:
    """Keeps the return values of the calls whose exact outputs are pinned.

    The wrappers only append a reference; digests are taken after the
    pass, outside the timed region.
    """

    TARGETS = (
        ("nbt", "n_reduced_range"),
        ("limits", "normalized_cusp_terms"),
        ("zeta", "ihara_bass_reciprocal"),
    )

    def __init__(self):
        self.items: list[tuple[str, object]] = []
        self._patcher = Patcher()

    def install(self) -> None:
        modules = package_modules()
        for module, name in self.TARGETS:
            original = getattr(importlib.import_module(f"iharalab.{module}"), name)
            self._patcher.rebind_everywhere(modules, original, self._keep(name, original))

    def _keep(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.items.append((name, result))
            return result

        return wrapper

    def uninstall(self) -> None:
        self._patcher.restore()


def gate(label: str, result, captured, pins: dict) -> list[str]:
    """Differences between one check run's exact outputs and the pins."""
    pin = pins.get(label, {})
    problems = []
    n_m = pin.get("n_m")
    if result.check == "oracle" and n_m:
        bf = result.detail.get("n_m_bruteforce")
        rec = result.detail.get("n_m_recurrence")
        if not bf or bf != rec or bf != n_m[: len(bf)]:
            problems.append(f"{label} oracle: N_m {bf} / {rec} differ from the pins")
    if result.check == "ihara-bass" and result.metric != 0.0:
        problems.append(f"{label} ihara-bass: discrepancy {result.metric}, expected exactly 0")
    for kind, value in captured:
        if kind == "n_reduced_range" and n_m and value[: len(n_m)] != n_m[: len(value)]:
            problems.append(f"{label} {result.check}: N_m differ from the pins")
    wanted = {
        "cusp": ("normalized_cusp_terms", "cusp_terms_sha256", digest_fractions),
        "ihara-bass": ("ihara_bass_reciprocal", "reciprocal_sha256", digest_reciprocal),
    }.get(result.check)
    if wanted and wanted[1] in pin:
        name, key, digest = wanted
        got = [digest(value) for kind, value in captured if kind == name]
        if got != [pin[key]]:
            problems.append(f"{label} {result.check}: {name} digests {got} != pinned {pin[key]}")
    return problems


# --- set-up and passes ----------------------------------------------------------


def set_up(workload: str, inputs: Path):
    """Build or load and certify every graph, as `verify` would."""
    from iharalab import suite
    from iharalab.errors import NotRegular

    spec = WORKLOADS[workload]
    checks = spec.checks or suite.CHECK_ORDER
    contexts = []
    for source in spec.sources:
        if source.lps:
            p, q = source.lps
            config = suite.VerificationSuiteConfig(source_kind="lps", p=p, q=q, checks=checks)
        else:
            config = suite.VerificationSuiteConfig(
                source_kind="file", source=str(inputs / source.file), checks=checks
            )
        ctx = suite.resolve_source(config)
        try:
            ctx.cert
        except NotRegular:
            pass  # irregular graphs go to the oracle / determinant routes
        contexts.append((source.label, ctx, config))
    return contexts


def fresh_context(ctx):
    """A context with the set-up's certificate but no spectral data yet."""
    from iharalab import suite

    out = suite.SuiteContext(ctx.g, ctx.params, ctx.label)
    out._cert = ctx._cert  # certification belongs to set-up, not to the pass
    return out


class SpeedSampler:
    """Times a fixed pure-Python integer computation 4 times a second.

    On a machine shared with other tenants, the speed at which this
    process runs Python code swings by up to 2x within a minute.  The
    samples track that speed while a check runs; they share no code
    with iharalab.  The handler runs between bytecodes of the main
    thread, and its own time is kept in busy_s so that callers can take
    it out of their timings.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._previous = None
        # kept allocated, so the working set is closer to the program's
        # than a tiny loop's
        self._rows = [[(i * 131 + j) ** 3 for j in range(120)] for i in range(120)]
        self._big = [[(3 ** (700 + i) + 7 * j) | 1 for j in range(24)] for i in range(24)]

    def _work(self) -> None:
        """About 5 ms of Python integer work of the kinds iharalab does.

        A sweep of small-int list arithmetic over a 120 x 120 matrix
        (the exact recurrences), a fraction-free elimination step on a
        24 x 24 matrix of ~1100-bit integers (Bareiss) and a Fraction
        sum (interpolation, series).
        """
        prev = self._rows[-1]
        for row in self._rows[::4]:
            [a * 3 - b for a, b in zip(row, prev)]
            prev = row
        top = self._big[0]
        for r in self._big[1:]:
            [(r[j] * top[0] - r[0] * top[j]) // 3 for j in range(1, 24)]
        acc = Fraction(0)
        for i in range(1, 100):
            acc += Fraction(i * 7919, i + 13)

    def sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        self._work()
        self.samples.append(time.perf_counter() - t)
        self.busy_s += time.perf_counter() - t

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(contexts, captures: Captures, tracer: Tracer | None):
    """Run every check once.

    Returns the outcomes, the pass's wall seconds (sum over checks) and,
    for untraced passes, its cost in reference units: each check's time
    divided by the mean speed sample over it (the last sample before it
    and those taken while it ran), summed.  Stretches where the host
    runs everything slower raise both and cancel.
    """
    from iharalab import suite

    outcomes = []
    seconds = units = 0.0
    with contextlib.ExitStack() as stack:
        sampler = None if tracer else stack.enter_context(SpeedSampler())
        for label, base, config in contexts:
            ctx = fresh_context(base)
            for name in config.checks:
                captures.items.clear()
                if sampler:
                    first, busy = len(sampler.samples) - 1, sampler.busy_s
                t = time.perf_counter()
                if tracer is None:
                    result = suite.run_check(name, ctx, config)
                else:
                    with tracer.region(f"suite.check.{name}"):
                        result = suite.run_check(name, ctx, config)
                dt = time.perf_counter() - t
                if sampler:
                    dt -= sampler.busy_s - busy
                    units += dt / statistics.fmean(sampler.samples[first:])
                seconds += dt
                outcomes.append((label, result, list(captures.items)))
    return outcomes, seconds, units if sampler else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--root", required=True, help="checkout root holding src/iharalab")
    ap.add_argument("--inputs", required=True, help="directory of generated input files")
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(args.root) / "src"))
    import iharalab  # noqa: F401  (import time is part of set-up)

    captures = Captures()
    captures.install()
    tracer = Tracer(args.workload) if args.trace else None
    if tracer:
        tracer.install()
    contexts = set_up(args.workload, Path(args.inputs))
    setup_s = time.perf_counter() - T0
    if tracer:
        tracer.uninstall()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pins = json.loads(PINS.read_text(encoding="utf-8"))
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
            tracer.install()
        t = time.perf_counter()
        outcomes, verify_s, verify_ref = run_pass(contexts, captures, tracer if traced else None)
        wall_s = time.perf_counter() - t
        if traced:
            tracer.uninstall()
        found = [gate(label, r, cap, pins) for label, r, cap in outcomes]
        passes.append(
            {
                "traced": traced,
                "verify_s": verify_s,
                "verify_ref": verify_ref,
                "wall_s": wall_s,
                "checks": [[label, r.check, r.status, r.seconds] for label, r, _ in outcomes],
                "problems": [p for run in found for p in run],
                "failed_runs": sum(1 for run in found if run),
            }
        )
        # at least two passes, so the first pass's warm-up is not the
        # whole sample and a traced run has one pass of each kind
        expected_end = time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes)
        if expected_end > args.seconds and len(passes) >= 2:
            break
    captures.uninstall()

    import numpy
    import scipy

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        spans = tracer.spans()
        traced = [p for p in passes if p["traced"]]
        plain = [p["verify_s"] for p in passes if not p["traced"]]
        selfs = self_times(spans)
        rows = []
        for i, p in enumerate(passes):
            if p["traced"]:
                mine = [k for k, s in enumerate(spans) if s.pass_id == i]
                rows.append(
                    pass_metrics(
                        [spans[k] for k in mine], [selfs[k] for k in mine], tracer.stats[i], p["verify_s"]
                    )
                )
        layers = median_metrics(rows)
        layers.update(setup_metrics([s for s in spans if s.pass_id is None]))
        untraced = statistics.median(plain)
        layers["trace.overhead_frac"] = (
            statistics.median(p["verify_s"] for p in traced) - untraced
        ) / untraced
        out["layers"] = layers
        if args.spans_out:
            Path(args.spans_out).write_text(json.dumps([list(s) for s in spans]) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
