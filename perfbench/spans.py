"""Span recorder for the traced benchmark run.

The benchmark does not rely on instrumentation inside coxkit.  Instead,
`Tracer` wraps the public functions and methods of each coxkit module
from the outside while an op of a traced batch runs, and restores the
originals afterwards, so the checks between ops are not traced.  A function imported by value into another module
(for example `coxkit.cli.enumerate_ball`) is replaced everywhere it is
bound, so every call path goes through the wrapper.

Each wrapped call is a span: name, start, end, parent span and the op
that caused it.  Spans of the hot leaf calls (`multiply`, `bruhat_leq`,
the ShortLex kernels, `add_edge`) are folded into per-name totals only;
there are millions of them, and storing each one would dominate memory.
Self time is a span's duration minus the time covered by its child
spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time

from coxkit import (ball, cli, curvature, flows, orders, polynomials, posets,
                    projections, reflections, serialize, wordcore)
from coxkit.errors import OutOfBallError
from coxkit.wordcore import ClosureBudgetError

_HOT = {"ball.multiply", "ball.bruhat_leq", "wordcore.shortlex",
        "wordcore.shortlex_of_reduced", "flows.add_edge"}


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _count_dict_bytes(counters, out):
    text = out if isinstance(out, str) else json.dumps(out, sort_keys=True)
    _add(counters, "serialize.bytes", len(text.encode()))


# (span name, owner, attribute, hook(counters, result, args),
# on_error(counters, exception)).  An owner that is a class gets the
# wrapper as a class attribute; a module function is rebound in every
# coxkit module that holds it.  A target the code no longer has is
# skipped: its metrics read 0, and REQUIRED_SPANS in run.py decides
# whether that fails the run.
def _targets():
    def on_error_oob(c, exc):
        if isinstance(exc, OutOfBallError):
            _add(c, "ball.multiply.out_of_ball", 1)

    def on_error_budget(c, exc):
        if isinstance(exc, ClosureBudgetError):
            _add(c, "wordcore.budget_errors", 1)

    def from_relation_hook(c, out, args):
        _add(c, "posets.nodes", out.n)
        _add(c, "posets.covers", len(out.covers))
        pairs = args[1] if len(args) > 1 else ()
        _add(c, "posets.input_pairs", len(pairs) if hasattr(pairs, "__len__") else 0)

    kernel = wordcore.WordKernel
    targets = [
        ("ball.enumerate_ball", ball, "enumerate_ball",
         lambda c, out, a: _add(c, "ball.elements", len(out)), None),
        ("ball.multiply", ball.GroupBall, "multiply", None, on_error_oob),
        ("ball.bruhat_leq", ball.GroupBall, "bruhat_leq", None, None),
        ("wordcore.shortlex", kernel, "shortlex", None, on_error_budget),
        ("wordcore.shortlex_of_reduced", kernel, "shortlex_of_reduced", None,
         on_error_budget),
        ("reflections.reflections_in_ball", reflections, "reflections_in_ball",
         lambda c, out, a: _add(c, "reflections.count", len(out.reflections)), None),
        ("reflections.dihedral_subgroup", reflections, "dihedral_subgroup",
         lambda c, out, a: _add(c, "reflections.dihedral_subgroup.escaped",
                                int(out.escaped)), None),
        ("reflections.t_order_poset", reflections, "t_order_poset", None, None),
        ("orders.omega_graph", orders, "omega_graph",
         lambda c, out, a: (_add(c, "orders.arcs", len(out.arcs)),
                            _add(c, "orders.boundary_skips", out.boundary_skips)),
         None),
        ("orders.intermediate_poset", orders, "intermediate_poset", None, None),
        ("orders.k_absolute_length_all", orders, "k_absolute_length_all", None, None),
        ("orders.k_absolute_poset", orders, "k_absolute_poset",
         lambda c, out, a: _add(c, "orders.flagged_pairs",
                                out.metadata.get("flagged_pairs", 0)), None),
        ("orders.refinement_chain_check", orders, "refinement_chain_check",
         None, None),
        ("posets.from_relation", posets.Poset, "from_relation",
         from_relation_hook, None),
        ("posets.max_h_family_value", posets, "max_h_family_value", None, None),
        ("posets.shellability", posets, "shellability", None, None),
        ("posets.poset_isomorphic", posets, "poset_isomorphic", None, None),
        ("flows.add_edge", flows.MinCostFlow, "add_edge", None, None),
        ("flows.run", flows.MinCostFlow, "run", None, None),
        ("curvature.curvature_spectrum", curvature, "curvature_spectrum",
         lambda c, out, a: (_add(c, "curvature.edges", len(out.records)),
                            _add(c, "curvature.skipped", len(out.errors))), None),
        ("curvature.ollivier_ricci_edge", curvature, "ollivier_ricci_edge",
         None, None),
        ("curvature.wasserstein_1", curvature, "wasserstein_1", None, None),
        ("projections.projection_map", projections, "projection_map", None, None),
        ("projections.projection_monoid", projections, "projection_monoid",
         lambda c, out, a: _add(c, "projections.monoid_size", out.size), None),
        ("projections.phi_k_image_poset", projections, "phi_k_image_poset",
         None, None),
        ("projections.is_order_preserving", projections, "is_order_preserving",
         None, None),
        ("polynomials.gen_poly", polynomials, "gen_poly", None, None),
        ("cli.main", cli, "main", None, None),
    ]
    for name in ("ball_to_json_dict", "poset_to_json_dict", "poset_to_dot",
                 "omega_to_json_dict", "omega_to_dot", "lk_table_to_csv",
                 "curvature_to_csv", "curvature_to_json_dict", "sperner_to_csv"):
        targets.append((f"serialize.{name}", serialize, name,
                        lambda c, out, a: _count_dict_bytes(c, out), None))
    return targets


class Tracer:
    """Records spans and counters while installed (`with tracer:`)."""

    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, op id)
        self.totals = {}       # name -> [calls, duration, self time]
        self.counters = {}
        self.op_id = -1
        self._stack = []       # [child time, id children see as parent]
        self._next_id = 0
        self._undo = []

    # -- spans ------------------------------------------------------------

    def begin_op(self, op_id):
        self.op_id = op_id

    def _wrap(self, name, fn, hook, on_error):
        stack, totals, counters, spans = self._stack, self.totals, self.counters, self.spans
        recorded = name not in _HOT
        totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if recorded:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(counters, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                tot = totals[name]
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[0]
                if recorded:
                    spans.append((span_id, name, start, end, parent, self.op_id))
            if hook is not None:
                hook(counters, out, args)
            return out

        return functools.wraps(fn)(wrapper)

    def _count_ideals(self, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            for ideal in fn(*args, **kwargs):
                _add(counters, "posets.order_ideals.count", 1)
                yield ideal

        return functools.wraps(fn)(wrapper)

    # -- installation -------------------------------------------------------

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "coxkit" or n.startswith("coxkit."))]
        patches = [(owner, attr, self._wrap(name, getattr(owner, attr), hook, err))
                   for name, owner, attr, hook, err in _targets()
                   if attr in owner.__dict__]
        patches.append((posets, "order_ideals",
                        self._count_ideals(posets.order_ideals)))
        for owner, attr, wrapper in patches:
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    wrapper = staticmethod(wrapper)  # wraps the bound method
                self._set(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    # -- results --------------------------------------------------------------

    def calls(self, name):
        return self.totals.get(name, [0])[0]

    def layer_metrics(self, names):
        """Per-layer metrics named in BENCHMARK.json, from spans and counters."""
        out = {}
        for metric in names:
            if metric.endswith(".calls"):
                out[metric] = self.calls(metric[:-len(".calls")])
            elif metric == "serialize.self_s":
                out[metric] = sum(t[2] for n, t in self.totals.items()
                                  if n.startswith("serialize."))
            elif metric.endswith(".self_s"):
                out[metric] = self.totals.get(metric[:-len(".self_s")], [0, 0.0, 0.0])[2]
            elif metric == "ball.multiply.in_ball_ratio":
                calls = self.calls("ball.multiply")
                missed = self.counters.get("ball.multiply.out_of_ball", 0)
                out[metric] = (calls - missed) / calls if calls else 1.0
            elif metric.startswith("trace."):
                continue
            else:
                out[metric] = self.counters.get(metric, 0)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")

