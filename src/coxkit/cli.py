"""Command-line front end.

Commands: ball, order, check, poly, curvature, export.  Exit status:
0 on success (conjecture outcomes never change it), 2 on usage errors,
3 when a resource cap, a timeout or a check the ball cannot take (phi
and monoid on a truncated ball) produced only a partial report, 1 when a
theorem-backed check fails.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache
from itertools import combinations

from . import curvature as curvature_mod
from . import orders, polynomials, posets, projections, reflections, serialize
from .ball import BOUNDARY, enumerate_ball
from .errors import CoxkitError, DomainError, OutOfBallError, ResourceError
from .matrices import group_order, longest_length, parse_coxeter_matrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3

THEOREM_CHECKS = ("graded", "projections", "refinement", "sperner", "phi", "monoid")
CONJECTURE_CHECKS = ("logconcave", "shellability", "curvature")
ALL_CHECKS = THEOREM_CHECKS + CONJECTURE_CHECKS


class UsageError(Exception):
    pass


def _load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve_matrix(args):
    if getattr(args, "matrix", None):
        return parse_coxeter_matrix(args.matrix)
    if getattr(args, "type", None):
        return parse_coxeter_matrix(args.type)
    raise UsageError("one of --type or --matrix is required")


def _resolve_radius(args, matrix):
    raw = getattr(args, "radius", None)
    if raw is None or raw == "auto":
        length = longest_length(matrix)
        if length is None:
            raise UsageError(
                "--radius is required for this system (no finite longest element)")
        return length
    try:
        value = int(raw)
    except ValueError as exc:
        raise UsageError(f"bad radius {raw!r}") from exc
    if value < 0:
        raise UsageError("radius must be >= 0")
    return value


def _build_ball(args):
    matrix = _resolve_matrix(args)
    radius = _resolve_radius(args, matrix)
    cap = getattr(args, "cap_elements", None) or 2_000_000
    ball = enumerate_ball(matrix, radius, cap=int(cap))
    if getattr(args, "radius", None) in (None, "auto") and not (
            ball.is_complete_group and len(ball) == group_order(matrix)
            and len(ball.rank_sizes()) == radius + 1):
        raise CoxkitError("auto radius did not close the group; file a bug")
    return ball


def _parse_k(raw):
    """The k values named by --k: a single value, 'a..b' or a comma list
    of integers >= 0; None when --k is absent."""
    if raw is None:
        return None
    raw = str(raw)
    try:
        if ".." in raw:
            lo, hi = raw.split("..", 1)
            ks = list(range(int(lo), int(hi) + 1))
        else:
            ks = [int(x) for x in raw.split(",")]
    except ValueError:
        raise UsageError(f"--k takes integers, got {raw!r}") from None
    if not ks:
        raise UsageError(f"--k range {raw!r} is empty")
    if min(ks) < 0:
        raise UsageError(f"--k must be >= 0, got {raw!r}")
    return ks


def _single_k(args):
    """The one k of a command that builds a single slice (0 by default)."""
    ks = _parse_k(args.k) or [0]
    if len(ks) != 1:
        raise UsageError(f"{args.command} takes a single --k, got {args.k!r}")
    return ks[0]


def _max_k(ball, table):
    """Smallest k whose slice already holds every reflection."""
    top = max((ball.length(t) for t in table.reflections), default=1)
    return (top - 1) // 2


def _format(args, accepted):
    """The requested output format (the first accepted one by default);
    a format the command does not produce is a usage error."""
    fmt = args.format or accepted[0]
    if fmt not in accepted:
        raise UsageError(f"unknown format {fmt!r} for {args.command} "
                         f"(accepted: {', '.join(accepted)})")
    return fmt


def _emit(args, text):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- subcommands ----------------------------------------------------------


def cmd_ball(args) -> int:
    _format(args, ("json",))
    ball = _build_ball(args)
    _emit_json(args, serialize.ball_to_json_dict(ball))
    print(f"ball: {len(ball)} elements, radius {ball.radius}, "
          f"complete={ball.is_complete_group}", file=sys.stderr)
    return EXIT_OK


def _order_poset(args, ball, k):
    kind = args.kind
    if kind == "bruhat":
        return orders.bruhat_poset(ball)
    table = reflections.reflections_in_ball(ball)
    if kind == "torder":
        return reflections.t_order_poset(table)
    if kind in ("weak", "intermediate"):
        kk = 0 if kind == "weak" else k
        return orders.intermediate_poset(ball, reflections.t_k_set(table, kk))
    if kind == "absolute":
        alt = orders.k_absolute_length_all(table, k)
        poset = orders.k_absolute_poset(alt)
        # lattice-type structure is reported, not asserted
        poset.metadata["meet_semilattice"] = posets.is_meet_semilattice(poset)
        return poset
    raise UsageError(f"unknown order kind {kind!r}")


def _emit_covers_csv(args, poset):
    rows = "\n".join(f"{i},{j}" for i, j in poset.covers)
    _emit(args, "lower,upper\n" + rows + ("\n" if rows else ""))


def cmd_order(args) -> int:
    fmt = _format(args, ("json", "dot", "csv"))
    k = _single_k(args)
    ball = _build_ball(args)
    poset = _order_poset(args, ball, k)
    if fmt == "json":
        _emit_json(args, serialize.poset_to_json_dict(poset))
    elif fmt == "dot":
        label = lambda w: "".join(str(c + 1) for c in ball.word(w)) or "e"
        _emit(args, serialize.poset_to_dot(poset, label_fn=label))
    elif fmt == "csv":
        _emit_covers_csv(args, poset)
    return EXIT_OK


def cmd_poly(args) -> int:
    _format(args, ("json",))
    ks = _parse_k(args.k)
    ball = _build_ball(args)
    table = reflections.reflections_in_ball(ball)
    ks = ks or range(_max_k(ball, table) + 1)
    rows = []
    for k in ks:
        poly = polynomials.gen_poly(orders.k_absolute_length_all(table, k))
        rows.append({
            "k": k,
            "coeffs": list(poly.coeffs),
            "log_concave": polynomials.is_log_concave(poly),
            "unimodal": polynomials.is_unimodal(poly),
            "truncated": poly.truncated,
        })
    _emit_json(args, {"schema": 1, "type": args.type or args.matrix,
                      "polynomials": rows})
    return EXIT_OK


def cmd_curvature(args) -> int:
    fmt = _format(args, ("json", "csv"))
    k = _single_k(args)
    ball = _build_ball(args)
    table = reflections.reflections_in_ball(ball)
    graph = orders.omega_graph(ball, reflections.t_k_set(table, k))
    report = curvature_mod.curvature_spectrum(graph)
    if fmt == "csv":
        _emit(args, serialize.curvature_to_csv(report))
    else:
        _emit_json(args, serialize.curvature_to_json_dict(report))
    return EXIT_OK


def cmd_export(args) -> int:
    fmt = _format(args, ("dot", "json", "csv"))
    with open(args.input, encoding="utf-8") as fh:
        data = json.load(fh)
    if "covers" not in data:
        raise UsageError("input is not a poset JSON file")
    poset = serialize.poset_from_json_dict(data)
    if fmt == "dot":
        _emit(args, serialize.poset_to_dot(poset))
    elif fmt == "json":
        _emit_json(args, serialize.poset_to_json_dict(poset))
    elif fmt == "csv":
        _emit_covers_csv(args, poset)
    return EXIT_OK


# -- the check suite ---------------------------------------------------------


class _Run:
    """What the checks of one `cmd_check` run share: the k values of
    --k (every slice's by default) and, each built on first use, the arc
    graph and the intermediate poset of each T_k slice, the Bruhat
    poset, the k-absolute length table of each k and the projection
    maps."""

    def __init__(self, ball, table, ks=None):
        self.ball, self.table = ball, table
        self.ks = ks or range(_max_k(ball, table) + 1)
        self._built = {}

    def _once(self, key, build):
        value = self._built.get(key)
        if value is None:
            value = self._built[key] = build()
        return value

    def graph(self, k):
        X = reflections.t_k_set(self.table, k)
        return self._once(("graph", X), lambda: orders.omega_graph(self.ball, X))

    def intermediate(self, k):
        X = reflections.t_k_set(self.table, k)
        return self._once(
            X, lambda: orders.intermediate_poset(self.ball, X, self.graph(k)))

    def bruhat(self):
        return self._once("bruhat", lambda: orders.bruhat_poset(self.ball))

    def absolute_length(self, k):
        # keyed by k, not by the slice: the table's k goes into the
        # k-absolute poset's metadata
        return self._once(("lk", k), lambda: orders.k_absolute_length_all(
            self.table, k, self.graph(k)))

    def projection(self, J, kind):
        return self._once((frozenset(J), kind),
                          lambda: projections.projection_map(self.ball, J, kind))


def _ideal_posets(run, mode):
    """(X, intermediate poset of X) for the reflection sets X used by the
    ideal-quantified checks.  Under --ideal all each poset is built here
    and dropped after use."""
    ball, table = run.ball, run.table
    if mode == "all":
        tpos = reflections.t_order_poset(table)
        for ideal in posets.order_ideals(tpos):
            X = frozenset(tpos.nodes[i] for i in ideal)
            yield X, orders.intermediate_poset(ball, X)
    else:
        for k in range(_max_k(ball, table) + 1):
            yield reflections.t_k_set(table, k), run.intermediate(k)


def _check_graded(run, args):
    ball, left = run.ball, run.ball.left
    failures = []
    count = cut = 0
    for X, poset in _ideal_posets(run, args.ideal):
        count += 1
        J = frozenset(s for s in ball.matrix.generators
                      if ball.right[ball.identity][s] in X)
        qj = run.projection(J, "Q")
        rank_fn = lambda w: ball.length(w) - ball.length(qj(w))
        rep = posets.check_graded(poset, rank_fn)
        if not rep.ok:
            failures.append({"X_size": len(X), "bad_covers": rep.bad_covers[:5]})
        for i, j in poset.covers:
            if ball.length(poset.nodes[j]) - ball.length(poset.nodes[i]) != 1:
                failures.append({"X_size": len(X), "length_gap_cover": [i, j]})
                break
        comps = poset.components()
        minreps = sum(1 for w in range(len(ball))
                      if not (ball.left_descents(w) & J))
        if len(comps) != minreps:
            failures.append({"X_size": len(X), "components": len(comps),
                             "expected": minreps})
        else:
            whole = comps
            if not ball.is_complete_group:
                # a coset the radius cuts off is no copy of W_J; only
                # whole ones are compared
                whole = [c for c in comps if not any(
                    left[w][s] == BOUNDARY for w in c for s in J)]
                cut += len(comps) - len(whole)
            if len(whole) > 1 and not _components_isomorphic(ball, poset, whole):
                failures.append({"X_size": len(X),
                                 "non_isomorphic_component": True})
    report = {"ok": not failures, "ideals_checked": count, "failures": failures}
    if not ball.is_complete_group:
        report["cut_components"] = cut
    return report


def _components_isomorphic(ball, poset, comps):
    """Whether each of the given components of an intermediate poset
    (nodes: the ball ids) is isomorphic to the first, the identity's.

    Component c is first tried with x -> x m, m its element of least
    length.  When X lies in W_J the components are the cosets W_J m, and
    l(u m) = l(u) + l(m) takes each arc a -> t a to a m -> t a m; but
    the verdict is the check's, and where the map is no isomorphism, or
    leaves the ball, the search decides.
    """
    where = [-1] * poset.n
    for c, comp in enumerate(comps):
        for x in comp:
            where[x] = c
    covers = [[] for _ in comps]
    for i, j in poset.covers:
        if where[i] >= 0:
            covers[where[i]].append((i, j))

    def part(c):
        pos = {x: k for k, x in enumerate(comps[c])}
        return posets.Poset(comps[c], [(pos[i], pos[j]) for i, j in covers[c]])

    base = part(0)
    for c in range(1, len(comps)):
        m = min(comps[c], key=ball.length)
        try:
            iso = posets.is_isomorphism(
                base, part(c), {x: ball.multiply(x, m) for x in comps[0]})
        except OutOfBallError:
            iso = False
        if not iso and not posets.poset_isomorphic(
                poset.subposet(comps[0]), poset.subposet(comps[c]))[0]:
            return False
    return True


def _check_projections(run, args):
    failures = []
    gens = list(run.ball.matrix.generators)
    count = 0
    for X, poset in _ideal_posets(run, args.ideal):
        for r in range(len(gens) + 1):
            for J in combinations(gens, r):
                count += 1
                pmap = run.projection(J, "P")
                rep = projections.is_order_preserving(pmap, poset)
                if not rep.ok:
                    failures.append({"X_size": len(X), "J": list(J),
                                     "violations": rep.violations[:5]})
    return {"ok": not failures, "maps_checked": count, "failures": failures}


def _check_refinement(run, args):
    k_max = max(run.ks)
    rep = orders.refinement_chain_check(
        run.table, k_max,
        intermediate=[run.intermediate(k) for k in range(k_max + 1)],
        bruhat=run.bruhat())
    return {"ok": rep.ok,
            "containments": [[str(a), str(b), ok] for a, b, ok in rep.containments],
            "equals_bruhat_at": rep.equals_bruhat_at}


def _check_sperner(run, args):
    rows = []
    weaker = None  # the first slice the flows found strongly Sperner
    for k in run.ks:
        poset = run.intermediate(k)
        rep = posets.strong_sperner_check(poset, weaker=weaker)
        if rep.ok and weaker is None:
            weaker = poset
        rows.append({"k": k, "ok": rep.ok,
                     "rows": [[r.h, r.flow_value, r.top_rank_sum, r.ok]
                              for r in rep.rows]})
    return {"ok": all(row["ok"] for row in rows), "per_k": rows}


def _check_phi(run, args):
    ball = run.ball
    name = ball.matrix.name or ""
    gens = list(ball.matrix.generators)
    maps = [run.projection([s for s in gens if s != i], "P") for i in gens]
    rows = []
    ok = True
    for k in run.ks:
        image = projections.phi_k_image_poset(ball, run.intermediate(k), maps)
        graded = posets.is_graded(image)
        row = {"k": k, "image_size": image.n, "graded": graded}
        if name.startswith("A"):
            # the candidate is phi itself, from the Bruhat order onto
            # its image; the search decides only where it fails
            bruhat = run.bruhat()
            phi = {w: tuple(m(w) for m in maps) for w in bruhat.nodes}
            iso = (posets.is_isomorphism(bruhat, image, phi)
                   or posets.poset_isomorphic(image, bruhat)[0])
            row["isomorphic_to_bruhat"] = iso
            row["ok"] = iso
        elif name == "B3" and k == 0:
            row["ok"] = not graded  # the expected negative
        else:
            row["ok"] = True  # informational
        ok = ok and row["ok"]
        rows.append(row)
    return {"ok": ok, "per_k": rows}


def _check_monoid(run, args):
    ball = run.ball
    gens = [run.projection([s], "P") for s in ball.matrix.generators]
    # the closure does not depend on k; order preservation is decided on
    # the generators: they are members, and composites of order-preserving
    # maps preserve order
    rep = projections.projection_monoid(ball, gens)
    rows = []
    ok = True
    for k in run.ks:
        pk = run.intermediate(k)
        preserving = all(projections.is_order_preserving(g, pk).ok for g in gens)
        good = (rep.size == len(ball) and rep.idempotent and rep.braid_ok
                and preserving)
        ok = ok and good
        rows.append({"k": k, "size": rep.size, "idempotent": rep.idempotent,
                     "braid_ok": rep.braid_ok,
                     "order_preserving": preserving, "ok": good})
    return {"ok": ok, "per_k": rows}


def _check_logconcave(run, args):
    rows = []
    for k in run.ks:
        poly = polynomials.gen_poly(run.absolute_length(k))
        rows.append({"k": k, "coeffs": list(poly.coeffs),
                     "log_concave": polynomials.is_log_concave(poly),
                     "unimodal": polynomials.is_unimodal(poly)})
    return {"ok": True, "conjecture": True, "per_k": rows}


def _check_shellability(run, args):
    ball = run.ball
    coxeter_elements = ball.coxeter_elements()  # n! products: once per run
    rows = []
    for k in run.ks:
        inter = run.intermediate(k)
        absol = orders.k_absolute_poset(run.absolute_length(k))
        for flavor, poset in (("intermediate", inter), ("absolute", absol)):
            for c in coxeter_elements:
                try:
                    open_interval = posets.order_complex(poset, ball.identity, c)
                except DomainError:
                    continue  # c is not above e in this order
                verdict = posets.shellability(open_interval)
                rows.append({"k": k, "order": flavor,
                             "coxeter_element": list(ball.word(c)),
                             "status": verdict.status})
    return {"ok": True, "conjecture": True, "intervals": rows}


def _check_curvature(run, args):
    rows = []
    for k in run.ks:
        rep = curvature_mod.curvature_spectrum(run.graph(k))
        lo, hi = rep.kappa_min(), rep.kappa_max()  # None if every edge is skipped
        rows.append({
            "k": k, "edges": rep.edge_count(), "skipped": len(rep.errors),
            "kappa_min": None if lo is None else str(lo),
            "kappa_max": None if hi is None else str(hi),
        })
    return {"ok": True, "conjecture": True, "per_k": rows}


_CHECK_FNS = {
    "graded": _check_graded,
    "projections": _check_projections,
    "refinement": _check_refinement,
    "sperner": _check_sperner,
    "phi": _check_phi,
    "monoid": _check_monoid,
    "logconcave": _check_logconcave,
    "shellability": _check_shellability,
    "curvature": _check_curvature,
}


def cmd_check(args) -> int:
    _format(args, ("json",))
    names = [c.strip() for c in (args.checks or "").split(",") if c.strip()]
    if not names:
        raise UsageError("at least one check must be enabled via --checks")
    for name in names:
        if name not in _CHECK_FNS:
            raise UsageError(f"unknown check {name!r} "
                             f"(available: {', '.join(ALL_CHECKS)})")
    ks = _parse_k(args.k)
    ball = _build_ball(args)
    run = _Run(ball, reflections.reflections_in_ball(ball), ks)
    deadline = None
    if args.timeout_secs:
        deadline = time.monotonic() + float(args.timeout_secs)
    report = {"schema": 1, "type": args.type or args.matrix,
              "radius": ball.radius, "elements": len(ball), "checks": {}}
    partial = False
    theorem_failed = False
    for name in names:
        if deadline is not None and time.monotonic() > deadline:
            report["checks"][name] = {"ok": None, "skipped": "timeout"}
            partial = True
            continue
        try:
            result = _CHECK_FNS[name](run, args)
        except (ResourceError, DomainError) as exc:
            # a cap hit, or a check this ball cannot take (phi and monoid
            # need the complete group): the other checks still report
            report["checks"][name] = {"ok": None, "skipped": str(exc)}
            partial = True
            continue
        report["checks"][name] = result
        if name in THEOREM_CHECKS and not result["ok"]:
            theorem_failed = True
    report["status"] = ("partial" if partial
                        else "failed" if theorem_failed else "ok")
    _emit_json(args, report)
    if partial:
        return EXIT_PARTIAL
    return EXIT_CHECK_FAILED if theorem_failed else EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _add_output(sub):
    sub.add_argument("--out", help="output file (default stdout)")
    sub.add_argument("--format", help="json (every command), dot (order, export), "
                                      "csv (order, export, curvature)")
    sub.add_argument("--config", help="key=value file supplying flag defaults")


_K_LIST = "slice parameter: single value, 'a..b', or comma list (default: every slice)"
_K_SINGLE = "slice parameter: a single value (default 0)"


def _add_ball(sub, k=None):
    """The options of the commands that build a ball; `k`, the help of
    --k, adds --k."""
    _add_output(sub)
    sub.add_argument("--type", help="named Coxeter type, e.g. A3, B4, I2(7)")
    sub.add_argument("--matrix", help="explicit matrix, e.g. '1 3; 3 1'")
    sub.add_argument("--radius", help="ball radius, or 'auto' for full finite groups")
    if k:
        sub.add_argument("--k", help=k)
    sub.add_argument("--cap-elements", dest="cap_elements",
                     help="ball element cap (default 2000000)")
    sub.add_argument("--timeout-secs", dest="timeout_secs",
                     help="soft wall-clock budget for check suites")


def build_parser(defaults=None) -> argparse.ArgumentParser:
    """The argument parser; `defaults` (from a --config file) replace the
    built-in defaults of the subcommands that have those options, so
    explicit flags still win.  A key that names no option is an error."""
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="Length-bounded Coxeter group balls, reflection orders, "
                    "and theorem/conjecture check suites.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ball", help="enumerate a ball and emit JSON")
    _add_ball(p)
    p.set_defaults(fn=cmd_ball)

    p = subs.add_parser("order", help="build an order on a ball")
    _add_ball(p, _K_SINGLE)
    p.add_argument("--kind", default="intermediate",
                   help="weak | intermediate | absolute | bruhat | torder")
    p.set_defaults(fn=cmd_order)

    p = subs.add_parser("check", help="run a verification suite")
    _add_ball(p, _K_LIST)
    p.add_argument("--checks", help="comma list: " + ",".join(ALL_CHECKS))
    p.add_argument("--ideal", default="tk", choices=("tk", "all"),
                   help="quantify ideal checks over T_k slices or all ideals")
    p.set_defaults(fn=cmd_check)

    p = subs.add_parser("poly", help="distance generating polynomials")
    _add_ball(p, _K_LIST)
    p.set_defaults(fn=cmd_poly)

    p = subs.add_parser("curvature", help="edge curvature spectrum")
    _add_ball(p, _K_SINGLE)
    p.set_defaults(fn=cmd_curvature)

    p = subs.add_parser("export", help="convert a saved poset JSON file")
    _add_output(p)
    p.add_argument("--in", dest="input", required=True, help="input JSON file")
    p.set_defaults(fn=cmd_export)
    if defaults:
        dests = {sub: {a.dest for a in sub._actions} - {"help", "config"}
                 for sub in subs.choices.values()}
        unknown = set(defaults).difference(*dests.values())
        if unknown:
            raise UsageError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        for sub, names in dests.items():
            sub.set_defaults(**{k: v for k, v in defaults.items() if k in names})
    return parser


@cache
def _default_parser() -> argparse.ArgumentParser:
    """The parser with the built-in defaults, built once per process: a
    parse does not change it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _default_parser().parse_args(argv)
        if getattr(args, "config", None):
            args = build_parser(_load_config(args.config)).parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except (CoxkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
