"""Benchmark for iharalab's `verify` suite.

Run from the repository root:

    python3 perfbench/run.py --workload exact-lps --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 0      # every workload in turn

Each workload runs in fresh child processes (worker.py): SETUP_PROBES
set-up-only processes, then one process that sets up, verifies in a
closed loop for --seconds and gates the exact outputs against
pins.json.  With --trace 0 the metrics are verify_ref, setup_s,
peak_rss_mb and check_pass_ratio; with --trace 1 they are the
per-layer metrics of spans.py.  Human-readable lines come first; the
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_PROBES = 4  # plus the measured run's own set-up: five samples
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def environment(root: Path, seed: int, threads: int) -> dict:
    """What a run needs to be compared with another run."""
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "iharalab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "seed": seed,
    }


def call_worker(cmd: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s budget") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited with {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def describe(values: list[float], unit: str) -> str:
    lo, hi = min(values), max(values)
    return f"median {statistics.median(values):.4f} {unit} over {len(values)} (min {lo:.4f}, max {hi:.4f})"


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "_work" / f"{name}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    inputs = write_inputs(name, seed, work)
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    record = {"workload": name, "env": environment(root, seed, threads), "inputs": inputs}
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", name,
        "--root", str(root),
        "--inputs", str(work),
    ]  # fmt: skip
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(call_worker(cmd + ["--mode", "setup"], env, deadline)["setup_s"])
    out = call_worker(
        cmd
        + ["--mode", "run", "--seconds", str(seconds), "--trace", str(trace)]
        + ["--spans-out", str(work / "spans.json")],
        env,
        deadline,
    )
    setups.append(out["setup_s"])
    record["env"].update(out["versions"])
    passes = out["passes"]
    runs = [c for p in passes for c in p["checks"]]
    passed = sum(1 for c in runs if c[2] == "pass")
    per_pass = passes[0]["checks"]
    fails = [f"{label}:{check}={status}" for label, check, status, _ in per_pass if status != "pass"]
    problems = [q for p in passes for q in p["problems"]]
    failed = sum(p["failed_runs"] for p in passes)

    print(f"== {name} (seed {seed}, trace {trace})")
    print(f"   env: {json.dumps(record['env'])}")
    for rec in inputs:
        print(f"   input {rec['file']}: n={rec['n']} edges={rec['edges']} sha256={rec['sha256'][:16]}")
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(out["layers"].items())}
        for k, m in metrics.items():
            print(f"   {k} = {m['value']:.6g} {m['unit']}")
    else:
        verify = [p["verify_s"] for p in passes]
        verify_ref = [p["verify_ref"] for p in passes]
        metrics = {
            "verify_ref": {"value": statistics.median(verify_ref), "unit": "ref"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MiB"},
            "check_pass_ratio": {"value": passed / len(runs), "unit": "ratio"},
        }
        print(f"   verify_ref: {describe(verify_ref, 'ref')} passes")
        print(f"   verify_s: {describe(verify, 's')} passes (wall time, not a JSON metric)")
        print(f"   setup_s: {describe(setups, 's')} set-ups")
        print(f"   peak_rss_mb: {out['peak_rss_mb']:.1f} MiB (1 process)")
        print(
            f"   check_fail_ratio: {len(fails)}/{len(per_pass)} per pass "
            f"({len(runs) - passed}/{len(runs)} check runs) {' '.join(fails)}"
        )
        print(f"   check_pass_ratio: {passed}/{len(runs)} = {passed / len(runs):.4f}")
    gate = "passes" if failed == 0 else f"FAILS on {failed} check runs"
    print(f"   correctness gate: {gate} ({len(runs)} check runs)")
    for q in problems[:10]:
        print(f"     {q}")
    record.update(passes=passes, setups=setups, metrics=metrics)
    (work / f"run-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith(("_ratio", "_frac", ".coverage")):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark iharalab's verify suite.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "iharalab" / "__init__.py").is_file():
        print("run from the repository root: src/iharalab not found", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, root) for n in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
