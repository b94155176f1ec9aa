"""coxkit benchmark: one workload, one process, closed loop.

Run from the root of a coxkit checkout (the package is imported from
./src):

    python3 perfbench/run.py --workload check-suite --seed 1 --seconds 30 --trace 0

Set-up (imports, inputs from the seed, a warm-up op set, all checked)
is timed apart from the measured phase.  The measured phase repeats the
workload's batch of ops until the next batch would pass `--seconds`
(at least one batch).  Every op's output is checked; a wrong output
exits 1 without a result.  Times are reported at a reference CPU speed
(see speed.py); the wall-clock times are printed beside them.
`--trace 1` runs untraced batches for half the time and traced batches
for the other half, and reports per-layer metrics instead of the
end-to-end ones.

The last line of stdout is the result as JSON; a copy with provenance
and per-batch samples is written to .bench_out/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5

# Spans that must record calls on the given workload in a traced run; a
# refactor that routes around a wrapper fails the run instead of reading
# as zero work.  Only public entry points are listed: internals that an
# optimization may legitimately stop calling (bruhat_leq, add_edge,
# shortlex_of_reduced) are measured but not required.
REQUIRED_SPANS = {
    "check-suite": (
        "cli.main", "ball.enumerate_ball", "reflections.reflections_in_ball",
        "orders.intermediate_poset", "orders.refinement_chain_check",
        "posets.max_h_family_value", "posets.shellability", "flows.run",
        "curvature.ollivier_ricci_edge", "projections.projection_map",
        "projections.projection_monoid", "polynomials.gen_poly"),
    "orders-complete": (
        "ball.enumerate_ball", "ball.multiply", "reflections.reflections_in_ball",
        "reflections.t_order_poset", "orders.omega_graph",
        "orders.intermediate_poset", "orders.k_absolute_length_all",
        "orders.k_absolute_poset", "posets.from_relation",
        "serialize.poset_to_dot", "serialize.poset_to_json_dict"),
    "truncated-rewrite": (
        "ball.enumerate_ball", "ball.multiply", "wordcore.shortlex",
        "reflections.reflections_in_ball", "reflections.dihedral_subgroup",
        "reflections.t_order_poset", "orders.omega_graph",
        "orders.k_absolute_poset", "posets.from_relation"),
}


def _load_coxkit(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "coxkit", "__init__.py")):
        raise SystemExit("perfbench: no ./src/coxkit here; run from the root of a "
                         "coxkit checkout")
    sys.path.insert(0, src)
    import coxkit
    if not os.path.abspath(coxkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported coxkit from {coxkit.__file__}, "
                         f"not from {src}")
    return coxkit


def _provenance(root, seed, coxkit):
    commit = "unknown"  # a benchmark checkout need not be a git repository
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "commit": commit,
            "wordcore_implementation": coxkit.WORDCORE_IMPLEMENTATION,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu}


def run_batch(ops, expected, tracer=None, probe=None):
    """Run the ops in order; returns (wall seconds, per-op seconds,
    per-op seconds at reference speed, facts, failed).  Only the op calls
    are timed; the checks and the speed marks run between them.  Without
    a `speed.Probe` both time dicts agree.  A result is dropped after the
    last op that needs it, so one group's posets are not held while the
    next group runs."""
    from workloads import FAILURES, WrongOutput

    state = {}
    wall = 0.0
    times = {}
    ref_times = {}
    facts = {}
    failed = 0
    last_use = {key: i for i, op in enumerate(ops) for key in op.needs}
    before = speed.mark() if probe is not None else None
    for op_id, op in enumerate(ops):
        for key in [k for k in state if last_use.get(k, -1) < op_id]:
            del state[key]
        if any(k not in state for k in op.needs):
            failed += 1  # an op it depends on failed
            continue
        if tracer is not None:
            tracer.begin_op(op_id)
        if probe is not None:
            gc.collect()  # each timed op starts on a collected heap
        error = None
        index = len(probe.samples) if probe is not None else 0
        start = time.perf_counter()
        try:
            if tracer is not None:
                with tracer:
                    result = op.call(state)
            else:
                result = op.call(state)
        except FAILURES as exc:
            error = exc
        end = time.perf_counter()
        elapsed = end - start
        if probe is not None:
            ticks = probe.since(index, start, end)
            elapsed -= sum(ticks)
            after = speed.mark()
            ref_times[op.label] = speed.scaled(elapsed, [before, after, *ticks])
            before = after
        else:
            ref_times[op.label] = elapsed
        wall += elapsed
        times[op.label] = elapsed
        if error is not None:
            failed += 1
            print(f"op {op.label} failed: {type(error).__name__}: {error}",
                  file=sys.stderr)
            continue
        fact = op.check(result, state)
        if op.recorded and expected is not None:
            want = expected.get(op.label)
            if fact != want:
                raise WrongOutput(f"{op.label}: got {fact}, expected {want}")
        facts[op.label] = fact
        if op.gives is not None:
            state[op.gives] = result
        result = None
    return wall, times, ref_times, facts, failed


def _timed_phase(ops, expected, seconds, tracer_factory=None):
    """Batches until the next one would pass `seconds`.  Returns
    (walls, per-op times, per-op times at reference speed, facts of each
    batch, failed, tracers)."""
    walls, times, ref_times, all_facts, tracers = [], [], [], [], []
    failed = 0
    start = time.perf_counter()
    with speed.Probe() as probe:
        while True:
            tracer = tracer_factory() if tracer_factory else None
            batch_start = time.perf_counter()
            wall, op_times, op_ref_times, facts, bad = run_batch(
                ops, expected, tracer, probe)
            now = time.perf_counter()
            walls.append(wall)
            times.append(op_times)
            ref_times.append(op_ref_times)
            all_facts.append(facts)
            failed += bad
            if tracer is not None:
                tracers.append(tracer)
            if now - start + (now - batch_start) > seconds:
                return walls, times, ref_times, all_facts, failed, tracers


def _median_times(times):
    labels = dict.fromkeys(k for t in times for k in t)
    return {k: statistics.median(t[k] for t in times if k in t) for k in labels}


def _batch_seconds(times):
    """Batch time as the sum of each op's median over the run's batches:
    a slow spell on a shared machine then moves one op's sample, not the
    whole batch's."""
    return sum(_median_times(times).values())


# Run in a fresh interpreter, so that each set-up repeat pays the import.
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import coxkit.cli; "
                 "print(time.perf_counter() - t)")


def _import_seconds(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=root,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def main(argv=None):
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="print the output facts of one batch for expected.json")
    args = parser.parse_args(argv)

    root = os.getcwd()
    coxkit = _load_coxkit(root)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    sys.path.insert(0, HERE)
    import spans
    import workloads

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh).get(args.workload, {})
    if args.record:
        expected = None

    setups, ref_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.mark()
        import_s = _import_seconds(root)
        t0 = time.perf_counter()
        work = workloads.WORKLOADS[args.workload](args.seed)
        run_batch(work.warmup, expected)
        setup = import_s + time.perf_counter() - t0
        setups.append(setup)
        ref_setups.append(speed.scaled(setup, [before, speed.mark()]))

    if args.record:
        _, _, _, facts, failed = run_batch(work.ops + work.warmup, None)
        recorded = {op.label for op in work.ops + work.warmup if op.recorded}
        print(json.dumps({k: v for k, v in facts.items() if k in recorded},
                         indent=1, sort_keys=True))
        return 1 if failed else 0

    seconds = args.seconds / 2 if args.trace else args.seconds
    walls, times, ref_times, facts, failed, _ = _timed_phase(work.ops, expected, seconds)
    if args.trace:
        t_walls, _, t_ref_times, t_facts, t_failed, tracers = _timed_phase(
            work.ops, expected, seconds, spans.Tracer)
        facts += t_facts
        failed += t_failed
    # the ops are deterministic: every batch, traced or not, must agree
    for other in facts[1:]:
        if other != facts[0]:
            raise workloads.WrongOutput("outputs differ between batches")
    attempted = len(work.ops) * len(facts)

    if args.trace:
        for tracer in tracers:
            for name in REQUIRED_SPANS[args.workload]:
                if tracer.calls(name) == 0:
                    raise SystemExit(f"perfbench: span {name} recorded no calls "
                                     f"on {args.workload}")
        metric_specs = spec["per_layer"]
        per_batch = [t.layer_metrics([m["name"] for m in metric_specs]) for t in tracers]
        values = {k: statistics.median(b[k] for b in per_batch) for k in per_batch[0]}
        values["trace.overhead_ratio"] = (_batch_seconds(t_ref_times)
                                          / _batch_seconds(ref_times))
        tracers[0].write_spans(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        samples = {"untraced_batch_s": walls, "traced_batch_s": t_walls,
                   "op_ref_s": _median_times(t_ref_times)}
    else:
        metric_specs = spec["end_to_end"]
        values = {
            "wall_s": _batch_seconds(ref_times),
            "setup_s": statistics.median(ref_setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        clock = {"wall_s": _batch_seconds(times), "setup_s": statistics.median(setups)}
        samples = {"batch_s": walls, "setup_s": setups, "ref_setup_s": ref_setups,
                   "clock_wall_s": clock["wall_s"], "clock_setup_s": clock["setup_s"],
                   "op_ref_s": _median_times(ref_times), "op_batches_s": times,
                   "op_ref_batches_s": ref_times}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    for name, m in metrics.items():
        print(f"{args.workload:18s} {name:44s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in clock.items():
            print(f"{args.workload:18s} {name + ' (wall clock)':44s} {value:.6g} s")
    print(f"{args.workload:18s} {'ops_failed_ratio':44s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} ops)")
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(out_dir, f"BENCH_{args.workload}{suffix}-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"provenance": _provenance(root, args.seed, coxkit),
                   "workload": args.workload, "seconds": args.seconds,
                   "batches": len(facts), "ops_failed_ratio": failed / attempted,
                   "samples": samples, **result}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:  # a wrong output or a crash: no result line
        if type(exc).__name__ != "WrongOutput":
            raise
        print(f"perfbench: wrong output: {exc}", file=sys.stderr)
        sys.exit(1)
