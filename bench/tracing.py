"""Layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces the public functions of each layer, where the
caller looks them up, with wrappers that record a span: name, start, end,
parent span and operation id.  Nothing under ``src/`` knows about it.
Spans stay in memory until the pass ends.  A layer's self time is its
span's duration minus the time its child spans cover.

The expression DAG is counted after each operation, outside every span,
over all roots handed to ``GeometrySession.vals``, ``scalar_vals`` and
``Tensor.evaluate``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import metricforms.analysis as analysis
import metricforms.cli as cli
import metricforms.geometry as geometry
import metricforms.tensor as tensor
from metricforms.expr import Const, Fun, Pow, Sym

# geometry functions that build symbolic tensors; geometry.build_s is the
# sum of their self times
BUILDERS = ("christoffel_classical", "christoffel_factored",
            "exterior_derivative", "sym_covariant_derivative",
            "sym_derivative_via_factors", "sym_trace", "precurrents",
            "currents", "riemann_classical", "riemann_decomposed",
            "ricci_from_mixed", "scalar_curvature", "einstein_tensor",
            "ricci_einstein_factored", "covariant_divergence_sym2",
            "metric_compatibility")
NUMERIC = ("killing_check", "classify_flatness", "integrate_geodesic")

# (namespace the caller looks the name up in, attribute, span name); the
# right-hand-side factories get no span, only a count of their closures' calls
WRAPPED = (
    [(analysis, f, f"factorization.{f}")
     for f in ("make_formset", "verify_factorization",
               "orthogonality_residual")]
    + [(analysis, f, f"tensor.{f}")
       for f in ("invert_metric", "antisym_cycle_residual")]
    + [(geometry, f, f"geometry.{f}") for f in BUILDERS + NUMERIC]
    + [(geometry, f, None) for f in ("classical_rhs", "factored_rhs")]
    + [(cli, "get_manifold", "manifolds.get_manifold"),
       (cli, "run_analysis", "analysis.run_analysis"),
       (cli, "render_json", "report.render_json"),
       # the geodesic command renders its document directly
       (cli, "dumps_canonical", "report.render_json"),
       (analysis.GeometrySession, "vals", "analysis.vals"),
       (analysis.GeometrySession, "scalar_vals", "analysis.scalar_vals"),
       (tensor.Tensor, "evaluate", "tensor.evaluate")])

# per-layer metrics that are self seconds of one span name
SELF_TIMES = (["manifolds.get_manifold", "factorization.make_formset",
               "factorization.verify_factorization",
               "factorization.orthogonality_residual",
               "tensor.invert_metric", "tensor.antisym_cycle_residual",
               "tensor.evaluate"]
              + [f"geometry.{f}" for f in BUILDERS + NUMERIC]
              + ["analysis.vals", "analysis.scalar_vals",
                 "report.render_json"])

COUNTS = ("tensor.evaluate_calls", "tensor.evaluate_components",
          "geometry.rhs_calls")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self._open: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.route_steps = 0
        self.dag_per_op: list[dict] = []
        self.count_seconds = 0.0        # DAG counting, outside every span
        self._roots: dict[int, object] = {}
        self._originals: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    def _inside(self, name: str) -> bool:
        return bool(self._open) and self.spans[self._open[-1]][0] == name

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in WRAPPED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(attr, name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrapper(self, attr: str, name: str, original):
        tracer = self
        if attr == "vals":
            def wrapped(session, t):
                tracer._add_root(t.comps)
                return tracer.span(name, original, session, t)
        elif attr == "scalar_vals":
            def wrapped(session, e):
                tracer._add_root(e)
                return tracer.span(name, original, session, e)
        elif attr == "evaluate":
            def wrapped(t, *args, **kwargs):
                if tracer._inside("analysis.vals"):
                    return original(t, *args, **kwargs)
                tracer._add_root(t.comps)
                tracer.counts["tensor.evaluate_calls"] += 1
                tracer.counts["tensor.evaluate_components"] += t.comps.size
                return tracer.span(name, original, t, *args, **kwargs)
        elif attr in ("classical_rhs", "factored_rhs"):
            def wrapped(*args, **kwargs):
                rhs = original(*args, **kwargs)

                def counted(x, u):
                    tracer.counts["geometry.rhs_calls"] += 1
                    return rhs(x, u)

                counted.__dict__.update(rhs.__dict__)
                return counted
        elif attr == "integrate_geodesic":
            def wrapped(*args, **kwargs):
                out = tracer.span(name, original, *args, **kwargs)
                tracer.route_steps += (len(out.classical.s)
                                       + len(out.factored.s) - 2)
                return out
        else:
            def wrapped(*args, **kwargs):
                return tracer.span(name, original, *args, **kwargs)
        return wrapped

    # -- operations ----------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._roots = {}

    def end_op(self) -> None:
        """Count the operation's DAG; the time this takes is kept apart."""
        started = time.perf_counter()
        self.dag_per_op.append(dag_counts(self._roots.values()))
        self._roots = {}
        self.count_seconds += time.perf_counter() - started

    def _add_root(self, comps) -> None:
        self._roots.setdefault(id(comps), comps)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def layer_metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer values of one pass: self seconds, counts, ratios."""
        own = self.self_times()
        out = {f"{n}_s": own.get(n, 0.0) for n in SELF_TIMES}
        out["geometry.build_s"] = sum(own.get(f"geometry.{f}", 0.0)
                                      for f in BUILDERS)
        out["analysis.run_analysis_self_s"] = own.get(
            "analysis.run_analysis", 0.0)
        out["cli.main_self_s"] = own.get("cli.main", 0.0)
        inclusive = sum(end - start for name, start, end, _, _ in self.spans
                        if name == "geometry.integrate_geodesic")
        out["geometry.rk4_steps_per_s"] = (self.route_steps / inclusive
                                           if inclusive else 0.0)
        out.update({k: self.counts[k] for k in COUNTS})
        for key in ("nodes_by_identity", "nodes_by_structure", "tree_nodes"):
            out[f"dag.{key}"] = sum(d[key] for d in self.dag_per_op)
        ident = out["dag.nodes_by_identity"]
        out["dag.structure_ratio"] = (
            out["dag.nodes_by_structure"] / ident if ident else 0.0)
        out["trace.pass_s"] = pass_s
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _payload(node):
    if isinstance(node, Const):
        return node.value
    if isinstance(node, (Sym, Fun)):
        return node.name
    if isinstance(node, Pow):
        return node.exponent
    return None


def dag_counts(roots) -> dict[str, int]:
    """Distinct nodes by identity and by structure, and the tree size,
    over every component of ``roots`` (Expr arrays or single Exprs).

    Structure classes are assigned bottom-up from (type, payload, child
    classes), so equal subtrees built separately share one class; the
    comparison follows ``Expr.__eq__``.
    """
    klass: dict[int, int] = {}      # id(node) -> structure class
    size: dict[int, int] = {}       # id(node) -> tree size
    classes: dict[tuple, int] = {}
    tops: dict[int, object] = {}
    for root in roots:
        for node in getattr(root, "flat", (root,)):
            tops[id(node)] = node
    for top in tops.values():
        stack = [(top, False)]
        while stack:
            node, ready = stack.pop()
            key = id(node)
            if key in klass:
                continue
            kids = node.children()
            if not ready:
                stack.append((node, True))
                stack.extend((c, False) for c in kids if id(c) not in klass)
                continue
            shape = (type(node), _payload(node),
                     tuple(klass[id(c)] for c in kids))
            klass[key] = classes.setdefault(shape, len(classes))
            size[key] = 1 + sum(size[id(c)] for c in kids)
    return {"nodes_by_identity": len(klass),
            "nodes_by_structure": len(classes),
            "tree_nodes": sum(size[k] for k in tops)}
