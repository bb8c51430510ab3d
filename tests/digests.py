"""The digest corpus: a fixed set of CLI calls and, for each, its exit code
and the SHA-256 of its stdout and of its stderr, kept in
``tests/data/digests.json``.

``test_digests.py`` replays every call in-process through ``cli.main``
and compares, so the byte-for-byte contract of the reports is a Tier-1
check.  Run this file to rewrite the corpus from the working tree::

    PYTHONPATH=src python tests/digests.py

An intended change of output then shows as a diff of the JSON file, one
line per changed call.  To see what changed, replay the corpus against
the source of two checkouts and print every call whose exit code, stdout
or stderr differs, with a unified diff of its two outputs::

    python tests/digests.py --diff OLD_CHECKOUT [NEW_CHECKOUT]

Each checkout's ``src`` is replayed in its own process; the calls, the
edge files and the data files are this checkout's, and ``NEW_CHECKOUT``
defaults to it.

The calls: ``analyze --json`` (auto and ldl), ``factor --json``,
``classify --json`` and ``factor --point`` with each strategy on the 11
metrics (the catalog and ``tests/data/*.metric``); the bench operations at
seeds 1-3; and ``check``, ``analyze --json``, ``classify --json``,
``factor --json``, ``factor --point`` with each strategy and ``geodesic
--steps 5 --json`` on the fault and edge files of ``test_cli.py``.  No
call prints an elapsed time: ``check`` prints none, and the human
``analyze`` report, which does, is not in the corpus.

Digests are exact on the platform that wrote them (Python minor version,
numpy version and machine, recorded in the file).  Elsewhere libm and
numpy's summation order may move the last bits of a residual, so a replay
compares the exit code and a coarse digest, of both streams with every
float below 1e-9 in magnitude read as 0 and every other one rounded to 6
significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
CORPUS = TESTS / "data" / "digests.json"

# directories an argument vector names through a placeholder, so that the
# corpus does not depend on where the checkout or the edge files live
DATA, BENCH, EDGE = "{data}", "{bench}", "{edge}"

DATA_METRICS = ("painleve-gullstrand", "kerr-boyer-lindquist", "dense-4d")
STRATEGIES = ("auto", "ldl", "numeric")


def _edge_files() -> dict[str, tuple[str, str, str]]:
    """Each fault and edge file of ``test_cli.py`` (``NON_FINITE_FILE``
    is the first of ``METRIC_FAULTS``): name -> (text, a point in its
    domain, a geodesic velocity)."""
    from test_cli import (
        BIG_SPHERE_FILE, GOOD_FILE, HUGE_FILE, METRIC_FAULTS, NESTED_G11,
        NULL_FILE, OVERFLOWING_G11, REPEATED_CONST_FILE, SMALL_FILE,
        nested_calls_text, overflow_text)
    from metricforms.expr import MAX_NESTING

    files = {f"fault-{name}": (text, point, "1,0")
             for name, (text, point, _, _) in METRIC_FAULTS.items()}
    # the last power takes unbounded time and memory when computed
    files.update({f"overflow-{k}": (overflow_text(g11), "1,0", "1,0")
                  for k, g11 in enumerate(OVERFLOWING_G11[:-1])})
    plain = overflow_text("1 + x^2")
    files.update({
        "plain": (plain, "1,0", "1,0"),
        "infinite-end": (plain.replace("domain x 0.5 2",
                                       "domain x 0.5 inf"), "1,0", "1,0"),
        "infinite-width": (plain.replace("domain x 0.5 2",
                                         "domain x -1e308 1e308"),
                           "1,0", "1,0"),
        "infinite-const": (plain.replace("domain y",
                                         "const M=1e999\ndomain y"),
                           "1,0", "1,0"),
        "infinite-literal": (plain.replace("g 1 1 = 1 + x^2",
                                           "g 1 1 = 1e999*x"), "1,0", "1,0"),
        "long-literal": (overflow_text("1 + " + "7" * 5001 + " * x^2"),
                         "1,0", "1,0"),
        "nan-product": (overflow_text("1 + 1e200*1e200*x*0"), "1,0", "1,0"),
        "sin-inf": (GOOD_FILE.replace("1 + k * u^2",
                                      "2 + sin(u * 1e200 * 1e200)"),
                    "0,0", "1,0"),
        "big-norm": (GOOD_FILE.replace("1 + k * u^2", "1e300"), "0,0",
                     "1e10,0"),
        "narrow": (GOOD_FILE.replace("domain u -1 1", "domain u 0 0.001"),
                   "0.0005,0", "1,0"),
        "bad-signature": (GOOD_FILE.replace("signature 2 0",
                                            "signature 9 9"), "0,0", "1,0"),
        "null": (NULL_FILE, "0,0", "1,0"),
        "huge": (HUGE_FILE, "1,1,1,1", "1,0,0,0"),
        "small": (SMALL_FILE, "0,0,0,0", "1,0,0,0"),
        "good": (GOOD_FILE, "0,0", "1,0"),
        "repeated-const": (REPEATED_CONST_FILE, "0,0", "1,0"),
        "big-sphere": (BIG_SPHERE_FILE, "1.5,0.4", "0,1"),
        "nested-calls": (nested_calls_text("x", MAX_NESTING), "0.75,0",
                         "1,0"),
        "nested-fault": (nested_calls_text("sqrt((x - 0.75)^2)",
                                           MAX_NESTING - 2),
                         "0.75,0.7", "1,0"),
    })
    files.update({f"nested-{kind}": (overflow_text(make(MAX_NESTING)),
                                     "1,0", "1,0")
                  for kind, make in NESTED_G11.items()})
    return files


def _bench_calls() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    metrics = str(workloads.METRICS_DIR)
    return [[a.replace(metrics, BENCH) for a in op.argv]
            for workload in workloads.WORKLOADS for seed in (1, 2, 3)
            for op in workloads.operations(workload, seed)]


def calls() -> list[list[str]]:
    """Every argument vector of the corpus, in order, with placeholders."""
    from metricforms.manifolds import CATALOG_NAMES, get_manifold

    out = []
    for target in (*CATALOG_NAMES,
                   *(f"{DATA}/{name}.metric" for name in DATA_METRICS)):
        chart = get_manifold(_resolve(target, {})).chart
        mid = ",".join(map(repr, chart.midpoint().values()))
        out += [["analyze", target, "--json"],
                ["analyze", target, "--strategy", "ldl", "--json"],
                ["factor", target, "--json"],
                ["classify", target, "--json"],
                *[["factor", target, "--point", mid, "--strategy", s,
                   "--json"] for s in STRATEGIES]]
    out += _bench_calls()
    for name, (_, point, velocity) in _edge_files().items():
        target = f"{EDGE}/{name}.metric"
        out += [["check", target], ["analyze", target, "--json"],
                ["classify", target, "--json"], ["factor", target, "--json"],
                *[["factor", target, "--point", point, "--strategy", s,
                   "--json"] for s in STRATEGIES],
                ["geodesic", target, "--start", point, "--velocity",
                 velocity, "--steps", "5", "--json"]]
    return out


def _places(edge: dict) -> dict:
    return {DATA: str(TESTS / "data"),
            BENCH: str(ROOT / "bench" / "metrics"), **edge}


def _resolve(arg: str, edge: dict) -> str:
    for name, path in _places(edge).items():
        arg = arg.replace(name, path)
    return arg


def _placed(text: str, edge: dict) -> str:
    """``text`` with each directory spelled as its placeholder: an error
    about a file names its path."""
    for name, path in _places(edge).items():
        text = text.replace(path, name)
    return text


def write_edge_files(directory: Path) -> dict:
    """Write the edge files into ``directory``; the mapping that resolves
    their placeholder."""
    for name, (text, _, _) in _edge_files().items():
        (directory / f"{name}.metric").write_text(text, encoding="utf-8")
    return {EDGE: str(directory)}


def replay(argv: list[str], edge: dict) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one call of ``cli.main``."""
    from metricforms.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([_resolve(a, edge) for a in argv])
    return code, _placed(out.getvalue(), edge), _placed(err.getvalue(), edge)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_FLOAT = re.compile(r"-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)")


def _coarse(text: str) -> str:
    def read(m):
        x = float(m.group())
        return "0" if abs(x) < 1e-9 else f"{x:.6g}"
    return _FLOAT.sub(read, text)


def digest(code: int, out: str, err: str) -> dict:
    return {"exit": code, "stdout": _sha(out), "stderr": _sha(err),
            "coarse": _sha(_coarse(out) + "\0" + _coarse(err))}


def host() -> str:
    """What the exact digests depend on beyond the source."""
    return (f"python {sys.version_info.major}.{sys.version_info.minor}, "
            f"numpy {np.__version__}, {platform.machine()}")


def replay_all() -> list[tuple[list[str], tuple[int, str, str]]]:
    """Every call of the corpus with its exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        edge = write_edge_files(Path(tmp))
        return [(argv, replay(argv, edge)) for argv in calls()]


def write_corpus() -> None:
    entries = [{"argv": argv, **digest(*result)}
               for argv, result in replay_all()]
    lines = ",\n".join("    " + json.dumps(e) for e in entries)
    CORPUS.write_text(f'{{"host": {json.dumps(host())},\n "calls": [\n'
                      f"{lines}\n]}}\n", encoding="utf-8")
    print(f"{len(entries)} calls written to {CORPUS}")


def _dump(checkout: Path, path: Path) -> None:
    """Write the replayed corpus as JSON to ``path``, after checking that
    the package replayed is the one under ``checkout``."""
    import metricforms

    src = (checkout / "src").resolve()
    if src not in Path(metricforms.__file__).resolve().parents:
        sys.exit(f"replayed {metricforms.__file__}, not the package in {src}")
    path.write_text(json.dumps(replay_all()), encoding="utf-8")


def _outputs(checkout: Path) -> list:
    """The corpus replayed against the source of ``checkout``, in a fresh
    process: per call, its argument vector and [exit, stdout, stderr]."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "outputs.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            (str(checkout / "src"), str(TESTS))))
        subprocess.run([sys.executable, __file__, "--dump", str(checkout),
                        str(path)], env=env, check=True)
        return json.loads(path.read_text(encoding="utf-8"))


def diff(old: Path, new: Path) -> None:
    """Print every call whose exit code, stdout or stderr differs between
    the two checkouts, with a unified diff of each stream that differs."""
    changed = 0
    before_all, after_all = _outputs(old), _outputs(new)
    for (argv, before), (_, after) in zip(before_all, after_all):
        if before == after:
            continue
        changed += 1
        print(f"== {' '.join(argv)}")
        if before[0] != after[0]:
            print(f"exit {before[0]} -> {after[0]}")
        for name, a, b in zip(("stdout", "stderr"), before[1:], after[1:]):
            sys.stdout.writelines(difflib.unified_diff(
                a.splitlines(True), b.splitlines(True),
                f"{old} {name}", f"{new} {name}", n=1))
    print(f"{changed} of {len(after_all)} calls differ")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--diff", nargs="+", type=Path, metavar="CHECKOUT",
                        help="OLD [NEW]: print the calls whose outputs differ "
                        "between two checkouts (NEW: this one)")
    parser.add_argument("--dump", nargs=2, type=Path,
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.dump:
        _dump(*args.dump)
    elif args.diff:
        if len(args.diff) > 2:
            parser.error("--diff takes one or two checkouts")
        diff(args.diff[0], args.diff[1] if len(args.diff) > 1 else ROOT)
    else:
        write_corpus()


if __name__ == "__main__":
    sys.path.insert(0, str(TESTS))
    main()
