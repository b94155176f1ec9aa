"""The three benchmark workloads, built from a seed, and their output checks.

A workload is a list of ops run one after another (closed loop, one
process, no threads).  Each op calls coxkit's public API; `check` turns
its result into a small dict of output facts and raises `WrongOutput`
when an independent check fails.  Facts of ops marked `recorded` are
compared with `expected.json`; they do not depend on the seed.

Ops reach coxkit only through module attributes (`coxkit.ball.x`,
`cli.main`), looked up at call time, so the traced run's wrappers see
every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re

import coxkit
from coxkit import cli, orders, reflections, serialize
from coxkit.wordcore import ClosureBudgetError

# |W| and the length of the longest element, for every complete finite
# ball the benchmark builds.  Kept here so that the check does not rest
# on coxkit.matrices.
GROUP_TABLE = {
    "A3": (24, 6), "B3": (48, 9), "A4": (120, 10), "H3": (120, 15),
    "B4": (384, 16), "A5": (720, 15), "D5": (1920, 20), "B5": (3840, 25),
}

ALL_CHECKS = ("graded,projections,refinement,sperner,phi,monoid,"
              "logconcave,shellability,curvature")

# Explicit matrices, so that enumerate_ball takes the rewriting engine.
TRUNCATED_BALLS = (
    ("B4", "1 4 2 2; 4 1 3 2; 2 3 1 3; 2 2 3 1", 16),
    ("H3", "1 5 2; 5 1 3; 2 3 1", 15),
    ("affC2", "1 4 2; 4 1 4; 2 4 1", 12),
    ("affA3", "1 3 2 3; 3 1 3 2; 2 3 1 3; 3 2 3 1", 8),
    ("affG2", "1 6 2; 6 1 3; 2 3 1", 12),
    ("I2inf", "1 inf; inf 1", 30),
    ("hyp3", "1 3 inf; 3 1 3; inf 3 1", 10),
)
# Random-word ShortLex cases: (type, matrix, top length, word length, words).
WORD_CASES = (
    ("A3", "1 3 2; 3 1 3; 2 3 1", 6, 14, 60),
    ("B3", "1 4 2; 4 1 3; 2 3 1", 9, 12, 60),
    ("H3", "1 5 2; 5 1 3; 2 3 1", 15, 10, 60),
)


class WrongOutput(Exception):
    """An op returned a result that fails the benchmark's check."""


class OpFailed(Exception):
    """An op did not complete (a raised cap, a nonzero CLI exit)."""


# Exceptions that count an op as failed rather than abort the run.
FAILURES = (coxkit.CoxkitError, ClosureBudgetError, OpFailed)


class Op:
    def __init__(self, label, call, check, needs=(), gives=None, recorded=True):
        self.label = label
        self.call = call        # state -> result
        self.check = check      # (result, state) -> facts
        self.needs = needs      # state keys the call reads
        self.gives = gives      # state key the result is stored under
        self.recorded = recorded


class Workload:
    def __init__(self, ops, warmup):
        self.ops = ops
        self.warmup = warmup


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _require(cond, label, what):
    if not cond:
        raise WrongOutput(f"{label}: {what}")


# -- check-suite ----------------------------------------------------------------


def _drop_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _drop_elapsed(v) for k, v in obj.items() if k != "elapsed_s"}
    if isinstance(obj, list):
        return [_drop_elapsed(v) for v in obj]
    return obj


def _cli_op(label, type_name, argv):
    def call(state):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise OpFailed(f"coxkit {' '.join(argv)} exited {code}")
        return out.getvalue()

    def check(text, state):
        report = _drop_elapsed(json.loads(text))
        _require(report.get("status") == "ok", label, f"status {report.get('status')!r}")
        size, top = GROUP_TABLE[type_name]
        _require(report["elements"] == size, label, f"|W| {report['elements']} != {size}")
        _require(report["radius"] == top, label, f"top length {report['radius']} != {top}")
        return {"report": digest(report)}

    return Op(label, call, check)


def check_suite(seed):
    rng = random.Random(seed)
    types = ["A3", "B3", "A4", "H3"]
    rng.shuffle(types)
    ops = [_cli_op(t, t, ["check", "--type", t, "--checks", ALL_CHECKS]) for t in types]
    # The only caller of order_ideals: graded check quantified over all ideals.
    ops.append(_cli_op("A4:graded-all-ideals", "A4",
                       ["check", "--type", "A4", "--checks", "graded", "--ideal", "all"]))
    warmup = [_cli_op("warmup:A3", "A3", ["check", "--type", "A3", "--checks", ALL_CHECKS])]
    return Workload(ops, warmup)


# -- shared ball/order ops -----------------------------------------------------


def _word_label(ball):
    return lambda w: "".join(str(c + 1) for c in ball.word(w)) or "e"


def _canonical_dot(text):
    """The DOT export with node ids replaced by their labels, sorted."""
    labels = dict(re.findall(r'^  (n\d+) \[label="([^"]*)"\];$', text, re.M))
    edges = sorted((labels[a], labels[b])
                   for a, b in re.findall(r"^  (n\d+) -> (n\d+);$", text, re.M))
    ranks = sorted(sorted(labels[n] for n in re.findall(r"n\d+", group))
                   for group in re.findall(r"\{ rank=same; ([^}]*)\}", text))
    return {"nodes": sorted(labels.values()), "edges": edges, "ranks": ranks}


def _canonical_json(text, label):
    data = json.loads(text)
    names = [label(x) for x in data["nodes"]]
    out = {"nodes": sorted(names),
           "covers": sorted((names[i], names[j]) for i, j in data["covers"]),
           "metadata": data.get("metadata")}
    if "rank" in data:
        out["rank"] = sorted(zip(names, data["rank"]))
    return out


def _ball_facts(label, ball, finite_name):
    sizes = ball.rank_sizes()
    if finite_name is not None:
        size, top = GROUP_TABLE[finite_name]
        _require(ball.is_complete_group, label, "finite ball is not complete")
        _require(len(ball) == size, label, f"|W| {len(ball)} != {size}")
        _require(len(sizes) - 1 == top, label, f"top length {len(sizes) - 1} != {top}")
    return {"rank_sizes": sizes, "complete": ball.is_complete_group}


def _order_ops(key, make_matrix, radius, finite_name, ks, kabs, export):
    """Ball, reflections, reflection order, intermediate orders for each k
    and the k-absolute orders for each k in `kabs`; with `export`, each
    poset is followed by its DOT and JSON export."""
    b, tab = f"{key}:ball", f"{key}:reflections"

    def export_op(poset_key):
        def call(state):
            poset = state[poset_key]
            label = _word_label(state[b])
            dot = serialize.poset_to_dot(poset, label_fn=label)
            text = json.dumps(serialize.poset_to_json_dict(poset), sort_keys=True)
            return dot, text

        def check(result, state):
            dot, text = result
            label = _word_label(state[b])
            return {"dot": digest(_canonical_dot(dot)),
                    "json": digest(_canonical_json(text, label))}

        return Op(f"{poset_key}:export", call, check, needs=(poset_key, b))

    def poset_facts(poset):
        return {"nodes": poset.n, "covers": len(poset.covers),
                "boundary_skips": poset.metadata.get("boundary_skips"),
                "flagged_pairs": poset.metadata.get("flagged_pairs")}

    ops = [
        Op(b, lambda s: coxkit.enumerate_ball(make_matrix(), radius),
           lambda r, s: _ball_facts(b, r, finite_name), gives=b),
        Op(tab, lambda s: reflections.reflections_in_ball(s[b]),
           lambda r, s: {"count": len(r.reflections)}, needs=(b,), gives=tab),
        Op(f"{key}:torder", lambda s: reflections.t_order_poset(s[tab]),
           lambda r, s: poset_facts(r), needs=(tab,), gives=f"{key}:torder"),
    ]
    if export:
        ops.append(export_op(f"{key}:torder"))
    for k in ks:
        name = f"{key}:inter{k}"
        ops.append(Op(name, lambda s, k=k: orders.intermediate_poset(
            s[b], reflections.t_k_set(s[tab], k)),
            lambda r, s: poset_facts(r), needs=(b, tab), gives=name))
        if export:
            ops.append(export_op(name))
    for k in kabs:
        name = f"{key}:kabs{k}"
        ops.append(Op(name, lambda s, k=k: orders.k_absolute_poset(
            orders.k_absolute_length_all(s[tab], k)),
            lambda r, s: poset_facts(r), needs=(tab,), gives=name))
        if export:
            ops.append(export_op(name))
    return ops


# -- orders-complete ----------------------------------------------------------------


def orders_complete(seed):
    rng = random.Random(seed)
    groups = [("A5", (0, 1, 2), (1,)), ("D5", (0, 1), ()), ("B5", (0,), ())]
    rng.shuffle(groups)
    ops = []
    for name, ks, kabs in groups:
        ops += _order_ops(name, lambda name=name: coxkit.named_matrix(name),
                          GROUP_TABLE[name][1], name, ks, kabs, export=True)
    warmup = _order_ops("warmup:A3", lambda: coxkit.named_matrix("A3"), 6, "A3",
                        (0, 1), (1,), export=True)
    return Workload(ops, warmup)


# -- truncated-rewrite ---------------------------------------------------------


def relabel(spec, perm):
    """The matrix text with generator i renamed perm[i]."""
    rows = [r.split() for r in spec.split(";")]
    out = [[None] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[perm[i]][perm[j]] = entry
    return "; ".join(" ".join(r) for r in out)


def _shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _word_op(name, spec, top, words):
    """normal_form on each word; checked by walking the Cayley table of
    the complete ball, which reaches the element without rewriting."""
    matrix = coxkit.parse_coxeter_matrix(spec)
    oracle = coxkit.enumerate_ball(matrix, top)
    _require(len(oracle) == GROUP_TABLE[name][0], name, "oracle ball has wrong size")

    def call(state):
        return [coxkit.normal_form(matrix, w) for w in words]

    def check(forms, state):
        for word, nf in zip(words, forms):
            x = oracle.identity
            for letter in word:
                x = oracle.right[x][letter]
            _require(bytes(nf) == oracle.word(x), f"words:{name}",
                     f"normal_form{word} = {nf}, expected {tuple(oracle.word(x))}")
        return {"forms": digest(forms)}

    return Op(f"words:{name}", call, check, recorded=False)


def truncated_rewrite(seed):
    rng = random.Random(seed)
    ops = []
    for key, spec, radius in TRUNCATED_BALLS:
        text = relabel(spec, _shuffled(rng, spec.count(";") + 1))
        finite = key if key in GROUP_TABLE else None
        ops += _order_ops(key, lambda text=text: coxkit.parse_coxeter_matrix(text),
                          radius, finite, (0, 1), (1,), export=False)
    for name, spec, top, length, count in WORD_CASES:
        rank = spec.count(";") + 1
        text = relabel(spec, _shuffled(rng, rank))
        words = [tuple(rng.randrange(rank) for _ in range(length)) for _ in range(count)]
        ops.append(_word_op(name, text, top, words))
    warm = relabel("1 3 3; 3 1 3; 3 3 1", _shuffled(rng, 3))
    warmup = _order_ops("warmup:affA2", lambda: coxkit.parse_coxeter_matrix(warm),
                        6, None, (0, 1), (1,), export=False)
    return Workload(ops, warmup)


WORKLOADS = {
    "check-suite": check_suite,
    "orders-complete": orders_complete,
    "truncated-rewrite": truncated_rewrite,
}
