"""Benchmark of the metricforms check pipeline.

    python3 bench/run.py --workload {catalog,nondiagonal,geodesic} \
        --seed N --seconds T --trace {0,1}

Runs passes of the workload, each in a fresh single-threaded child
process (``child.py``), one at a time, until the next pass would end after
T seconds; at least one pass always runs.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics from traced
passes (alternating with untraced ones, to measure the tracing overhead).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Span files go to
``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}

UNITS = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "ok_frac": "ratio"}


class BenchError(Exception):
    pass


def run_child(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(cmd[1:])} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes until the next one would overrun ``seconds``.  Traced
    runs alternate traced and untraced passes, at least two traced."""
    rng = random.Random(seed)
    untraced, traced = [], []
    if trace:
        OUT.mkdir(exist_ok=True)
        for stale in OUT.glob(f"{workload}-pass*.spans.jsonl"):
            stale.unlink()
    started = time.perf_counter()
    while True:
        k = len(untraced) + len(traced)
        pass_seed = rng.randrange(1, 2**31)
        if trace and k % 2 == 0:
            spans = OUT / f"{workload}-pass{k}.spans.jsonl"
            traced.append(run_child(workload, pass_seed, "--trace",
                                    str(spans)))
        else:
            untraced.append(run_child(workload, pass_seed))
        elapsed = time.perf_counter() - started
        enough = not trace or (len(traced) >= 2 and untraced)
        if enough and elapsed * (k + 2) / (k + 1) > seconds:
            return untraced, traced


def end_to_end(workload: str, seed: int, untraced: list) -> dict:
    setups = [p["setup_s"] for p in untraced]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "--setup-only")["setup_s"])
    return {"pass_s": statistics.median(p["pass_s"] for p in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                             for p in untraced)}


def per_layer(untraced: list, traced: list) -> tuple[dict, list[str]]:
    """Median over traced passes, the tracing overhead, and the counts
    that differ between traced passes (they must repeat exactly)."""
    first = traced[0]["layers"]
    counts = [n for n, v in first.items() if isinstance(v, int)]
    out = {n: v if n in counts
           else statistics.median(p["layers"][n] for p in traced)
           for n, v in first.items()}
    out["trace.overhead_s"] = (
        out["trace.pass_s"]
        - statistics.median(p["pass_s"] for p in untraced))
    unsteady = [n for n in counts
                if len({p["layers"][n] for p in traced}) != 1]
    return out, unsteady


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "metricforms" / "__init__.py").is_file():
        print(f"no metricforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        untraced, traced = run_passes(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
        if args.trace:
            metrics, unsteady = per_layer(untraced, traced)
        else:
            metrics, unsteady = end_to_end(args.workload, args.seed,
                                           untraced), []
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for p in passes:
        for f in p["failures"]:
            print(f"FAIL {f['op']}: {'; '.join(f['reasons'])}")
    for name in unsteady:
        print(f"FAIL count {name} differs between traced passes: "
              f"{[p['layers'][name] for p in traced]}")
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted
    print(f"{args.workload}: {len(untraced)} untraced, {len(traced)} traced "
          f"passes; fail_frac = {failed}/{attempted} operations attempted")
    for p in traced[:1]:
        for d in p["dag_per_op"]:
            print(f"  dag {Path(d['op']).stem}: {d['nodes_by_identity']} by "
                  f"identity, {d['nodes_by_structure']} by structure, "
                  f"{d['tree_nodes']} tree nodes")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {unit(name)}")
    print(json.dumps({
        "correct": failed == 0 and not unsteady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit(n)}
                    for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
