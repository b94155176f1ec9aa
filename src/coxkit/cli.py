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

from . import curvature as curvature_mod
from . import orders, polynomials, posets, reflections, serialize
from .ball import enumerate_ball
from .checks import ALL_CHECKS, THEOREM_CHECKS, run_checks
from .errors import CoxkitError, ResourceError
from .matrices import group_order, longest_length, parse_coxeter_matrix

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3

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
    """The k values named by --k (a single value, 'a..b' or a comma list
    of integers >= 0) as a set: increasing, each once.  None when --k is
    absent."""
    if raw is None:
        return None
    raw = str(raw)
    try:
        lo, dots, hi = raw.partition("..")
        ks = range(int(lo), int(hi) + 1) if dots else [int(x) for x in raw.split(",")]
    except ValueError:
        raise UsageError(f"--k takes integers, got {raw!r}") from None
    if not ks:
        raise UsageError(f"--k range {raw!r} is empty")
    if min(ks) < 0:
        raise UsageError(f"--k must be >= 0, got {raw!r}")
    return sorted(set(ks))


def _single_k(args):
    """The one k of a command that builds a single slice (0 by default)."""
    ks = _parse_k(args.k) or [0]
    if len(ks) != 1:
        raise UsageError(f"{args.command} takes a single --k, got {args.k!r}")
    return ks[0]


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
    ks = ks or range(reflections.max_k(table) + 1)
    rows = []
    for k in ks:
        poly = polynomials.gen_poly(orders.k_absolute_length_all(table, k))
        rows.append({"k": k, "coeffs": list(poly.coeffs),
                     "log_concave": polynomials.is_log_concave(poly),
                     "unimodal": polynomials.is_unimodal(poly),
                     "truncated": poly.truncated})
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
    if not isinstance(data, dict) or "covers" not in data:
        raise UsageError("input is not a poset JSON file")
    poset = serialize.poset_from_json_dict(data)
    if fmt == "dot":
        _emit(args, serialize.poset_to_dot(poset))
    elif fmt == "json":
        _emit_json(args, serialize.poset_to_json_dict(poset))
    elif fmt == "csv":
        _emit_covers_csv(args, poset)
    return EXIT_OK


def cmd_check(args) -> int:
    _format(args, ("json",))
    names = [c.strip() for c in (args.checks or "").split(",") if c.strip()]
    if not names:
        raise UsageError("at least one check must be enabled via --checks")
    for name in names:
        if name not in ALL_CHECKS:
            raise UsageError(f"unknown check {name!r} "
                             f"(available: {', '.join(ALL_CHECKS)})")
    ks = _parse_k(args.k)
    ball = _build_ball(args)
    deadline = time.monotonic() + float(args.timeout_secs) if args.timeout_secs else None
    results = run_checks(ball, names, ks, args.ideal, deadline)
    partial = any(r["ok"] is None for r in results.values())
    failed = any(r["ok"] is False for n, r in results.items() if n in THEOREM_CHECKS)
    _emit_json(args, {
        "schema": 1, "type": args.type or args.matrix, "radius": ball.radius,
        "elements": len(ball), "checks": results,
        "status": "partial" if partial else "failed" if failed else "ok"})
    return EXIT_PARTIAL if partial else EXIT_CHECK_FAILED if failed else EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _add_output(sub):
    sub.add_argument("--out", help="output file (default stdout)")
    sub.add_argument("--format", help="json (every command), dot (order, export), "
                                      "csv (order, export, curvature)")
    sub.add_argument("--config", help="key=value file supplying flag defaults")


_K_LIST = "slices: one k, 'a..b' or a comma list, in increasing order (default: all)"
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
