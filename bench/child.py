"""One pass of a workload in a fresh interpreter.

    python3 bench/child.py --workload W --seed S [--trace FILE] [--setup-only]

Imports metricforms from the checkout's ``src/``, resolves every target
(timed as the set-up), then runs each operation as an in-process call to
``metricforms.cli.main`` with stdout captured, checks every output, and
prints one JSON line with the timings, peak memory and failures.  With
``--trace`` the layers are wrapped by ``tracing.Tracer`` and the spans are
written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads
    ops = workloads.operations(args.workload, args.seed)

    started = time.perf_counter()
    import metricforms
    import metricforms.cli as cli
    specs = {op.target: cli.get_manifold(op.target) for op in ops}
    setup_s = time.perf_counter() - started
    if Path(metricforms.__file__).resolve().parent != SRC / "metricforms":
        raise SystemExit(f"imported metricforms from {metricforms.__file__}, "
                         f"not from {SRC}")
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    outputs = []
    pass_started = time.perf_counter()
    for k, op in enumerate(ops):
        buf = io.StringIO()
        code, crash = None, None
        with contextlib.redirect_stdout(buf):
            try:
                if tracer:
                    tracer.begin_op(k)
                    code = tracer.span("cli.main", cli.main, list(op.argv))
                else:
                    code = cli.main(list(op.argv))
            except Exception:   # a crash is one failed operation
                crash = traceback.format_exc()
        if tracer:
            tracer.end_op()
        outputs.append((code, crash, buf.getvalue()))
    pass_s = time.perf_counter() - pass_started
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = []
    for op, (code, crash, text) in zip(ops, outputs):
        reasons = ([crash.strip().splitlines()[-1]] if crash
                   else workloads.check(op, code, text, specs))
        if reasons:
            failures.append({"op": op.target, "reasons": reasons})

    result.update(attempted=len(ops), failures=failures, peak_rss_mb=peak)
    if tracer:
        tracer.uninstall()
        pass_s -= tracer.count_seconds
        tracer.write_spans(args.trace)
        result["layers"] = tracer.layer_metrics(pass_s)
        result["dag_per_op"] = [dict(d, op=op.target) for op, d
                                in zip(ops, tracer.dag_per_op)]
    result["pass_s"] = pass_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
