#!/usr/bin/env python3
"""End-to-end benchmark of BdsService: four workloads, one command.

Builds perfbench/ (which compiles the BDS libraries from src/) and runs a
workload through the public BdsService API in repeated child processes, each
one set-up-then-run repetition of bds_perfbench. Everything is measured from
outside the program: wall and CPU time around the public calls, and the
timings and counters the program already returns (RunReport::cycles,
RunReport::telemetry, the steady-state report, and the controller's
simulator/state/admission/watchdog accessors).

  python3 perfbench/run.py --workload soak_day --seed 1 --seconds 28 --trace 0
  python3 perfbench/run.py --all                  # every workload, both tables
  python3 perfbench/run.py --self-check           # smoke size of every workload

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 alternates
untraced and traced repetitions and reports the per-layer ledger from the
traced ones, plus the tracing overhead. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A failed
output check prints correct=false and exits 1.
"""

import argparse
import json
import os
import platform
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (why, default seed, held-out seed, kind).
# "kind" is drain (RunSteadyState or Run until every job lands) or deadline
# (Run stops at a fixed simulated time with work outstanding).
WORKLOADS = {
    "soak_day": (
        "one simulated day of Poisson arrivals on a 4x2 mesh: small-instance "
        "routing and per-cycle fixed cost under load, simulator nearly idle",
        1, 101, "drain"),
    "pilot_fanout": (
        "the Fig 9a run, one 3 GB multicast to 9 DCs x 32 servers: a "
        "paper-figure point dominated by the simulator, routing light",
        1, 101, "drain"),
    "backlog_1m": (
        "1e6 pending deliveries on the fleet rotation, 4 shards, 40 cycles: "
        "candidate build and selection at fleet backlog through the simulator",
        1, 101, "deadline"),
    "overload_chaos": (
        "the soak mesh at 10x rate and size with chaos faults, 8 independent "
        "450-s episodes: admission rejections, link faults, fallback cycles",
        1, 101, "drain"),
}

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("run_wall_s", "s", "lower"),
    ("sim_s_per_cpu_s", "sim-s/cpu-s", "higher"),
    ("decide_ms_p50", "ms", "lower"),
    ("decide_ms_tail", "ms", "lower"),
    ("completion_p50_min", "sim-min", "lower"),
    ("completion_tail_min", "sim-min", "lower"),
    ("goodput_gbps", "sim-Gbit/s", "higher"),
    ("served_share", "ratio", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]

PER_LAYER = [
    ("lp.solve_ms", "ms", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.phases_per_solve", "count", "lower"),
    ("lp.pushes_per_solve", "count", "lower"),
    ("lp.commodities_per_solve", "count", "lower"),
    ("lp.warm_solves", "count", "higher"),
    ("lp.phases_skipped", "count", "higher"),
    ("scheduler.schedule_ms", "ms", "lower"),
    ("scheduler.candidate_pops", "count", "lower"),
    ("scheduler.blocks_selected", "count", "higher"),
    ("scheduler.selected_per_pop", "ratio", "higher"),
    ("scheduler.cand_reuse_ratio", "ratio", "higher"),
    ("scheduler.early_exits", "count", "higher"),
    ("scheduler.route_other_ms", "ms", "lower"),
    ("topology.path_cache_hit_ratio", "ratio", "higher"),
    ("topology.path_cache_invalidations", "count", "lower"),
    ("control.cycle_ms", "ms", "lower"),
    ("control.cycles", "count", "lower"),
    ("control.non_decide_ms", "ms", "lower"),
    ("control.fallback_cycles", "count", "lower"),
    ("control.transfers_cancelled", "count", "lower"),
    ("simulator.events", "count", "lower"),
    ("simulator.reallocations", "count", "lower"),
    ("simulator.component_solves", "count", "lower"),
    ("simulator.component_flows_mean", "count", "lower"),
    ("simulator.component_flows_max", "count", "lower"),
    ("simulator.flow_visits", "count", "lower"),
    ("admission.offered", "count", "higher"),
    ("admission.rejected", "count", "lower"),
    ("admission.deferred", "count", "lower"),
    ("control.overrun_cycles", "count", "lower"),
    ("control.degraded_cycles", "count", "lower"),
    ("fault.link_events", "count", "lower"),
    ("fault.flows_killed", "count", "lower"),
    ("fault.pushes_dropped", "count", "lower"),
    ("fault.reports_lost", "count", "lower"),
    ("residual_ms", "ms", "lower"),
    ("telemetry.overhead_ratio", "ratio", "lower"),
]

# Every child process gets at most this long; the whole command stays
# under it too (the last repetition is not started past REP_START_LIMIT).
CHILD_TIMEOUT_S = 150.0
REP_START_LIMIT_S = 120.0


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Build and run.

def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures (once) and builds bds_perfbench; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "bds_perfbench")
    if not os.path.exists(binary):
        raise BenchError("build produced no " + binary)
    return binary


def run_rep(binary, workload, seed, smoke, traced):
    """One set-up-then-run repetition, in its own process so that the peak
    memory it reports is the repetition's alone."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s seed %d ran over %d s" % (workload, seed, CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("%s seed %d exited with %d" % (workload, seed, proc.returncode))
    return json.loads(proc.stdout)


def run_reps(binary, workload, seed, seconds, smoke, trace):
    """Repeats for about `seconds` (at least a few repetitions).

    With trace, untraced and traced repetitions alternate in the order
    u t t u u t t u ... so neither side always runs first.
    """
    min_reps = 4 if trace else 3
    reps = []
    start = time.monotonic()
    while True:
        traced = trace and (len(reps) % 4 in (1, 2))
        reps.append(run_rep(binary, workload, seed, smoke, traced))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(reps)
        # Stop at the repetition boundary nearest to `seconds`, so a run
        # measures `seconds` give or take half a repetition.
        if len(reps) >= min_reps and elapsed + per_rep / 2 >= seconds:
            break
        if len(reps) >= min_reps and elapsed + per_rep > REP_START_LIMIT_S:
            break
    return reps


# --------------------------------------------------------------------------
# Statistics.

def quantile(samples, q):
    """Linear interpolation on the sorted sample (EmpiricalDistribution's rule)."""
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    i = int(pos)
    if i + 1 >= len(xs):
        return xs[-1]
    frac = pos - i
    return xs[i] * (1.0 - frac) + xs[i + 1] * frac


TAIL_LADDER = [0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999]


def tail(samples):
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (label, value). Fewer than 20 samples have no such percentile;
    the maximum is reported instead and labelled so.
    """
    n = len(samples)
    best = None
    for q in TAIL_LADDER:
        if n * (1.0 - q) >= 10.0:
            best = q
    if best is None:
        return "max", max(samples)
    return "p%g" % (best * 100.0), quantile(samples, best)


# --------------------------------------------------------------------------
# Output checks.

def check_reps(workload, reps):
    """Returns a list of failed checks (empty when every check passes)."""
    kind = WORKLOADS[workload][3]
    failures = []
    first = reps[0]
    for rep in reps:
        # Same seed, same run: traced and untraced repetitions alike.
        for key in ("fingerprint", "stop_reasons", "credited", "cycles", "sim_seconds",
                    "decide_count", "completion_min", "jobs_generated", "jobs_completed"):
            if rep[key] != first[key]:
                failures.append("%s differs between repetitions of one seed" % key)
        # Accounting closes: completed + rejected + live at end = generated.
        if (rep["jobs_completed"] + rep["jobs_rejected"] + rep["jobs_unfinished"]
                != rep["jobs_generated"]):
            failures.append("accounting: %d completed + %d rejected + %d live != %d generated" % (
                rep["jobs_completed"], rep["jobs_rejected"], rep["jobs_unfinished"],
                rep["jobs_generated"]))
        want = "drained" if kind == "drain" else "deadline"
        for reason in rep["stop_reasons"]:
            if reason != want:
                failures.append("stop reason %s, want %s" % (reason, want))
        if kind == "drain" and rep["live_pending_end"] != 0:
            failures.append("%d deliveries still pending after the drain" % rep["live_pending_end"])
        if rep["initial_pending"] > 0 and (
                rep["credited"] + rep["live_pending_end"] != rep["initial_pending"]):
            failures.append("credited + pending != submitted deliveries")
        if rep["cycles_kept"] != rep["cycles"]:
            failures.append("CycleStats were trimmed; Decide samples incomplete")
        if not rep["decide_ms"]:
            failures.append("no cycle scheduled work")
        if rep["credited"] <= 0 or sum(rep["sim_seconds"]) <= 0:
            failures.append("nothing was delivered")
        if len(rep["completion_min"]) == 0:
            failures.append("no completion samples")
        if rep["peak_rss_kib"] <= 0:
            failures.append("no peak resident memory reading")
    return sorted(set(failures))


# --------------------------------------------------------------------------
# Metrics.

def end_to_end(workload, reps):
    """End-to-end metrics over untraced repetitions, plus labels for printing."""
    kind = WORKLOADS[workload][3]
    sim = reps[0]  # Simulated quantities are identical across repetitions.
    labels = {}
    m = {}
    m["setup_s"] = median([median(r["setup_s"]) for r in reps])
    # Run times are per run call (an episode), so a multi-episode workload
    # contributes a sample per episode to the medians.
    m["run_wall_s"] = median([t for r in reps for t in r["run_wall_s"]])
    m["sim_s_per_cpu_s"] = median([s / c for r in reps
                                   for s, c in zip(r["sim_seconds"], r["run_cpu_s"])])
    # The median pools every repetition's (and episode's) Decide samples:
    # one median over all of a run's cycles is steadier than a median of
    # per-repetition medians. The tail is taken per repetition and the
    # median over repetitions reported, so one repetition that the host
    # interrupted more often does not move it.
    m["decide_ms_p50"] = quantile([x for r in reps for x in r["decide_ms"]], 0.5)
    tails = [tail(r["decide_ms"]) for r in reps]
    m["decide_ms_tail"] = median([t[1] for t in tails])
    labels["decide_ms_tail"] = "%s of %d" % (tails[0][0], len(sim["decide_ms"]))
    # Per admitted job (steady), per destination server (the pilot), or per
    # job projected from its own delivery rate (the deadline run, where no
    # job finishes in time).
    m["completion_p50_min"] = quantile(sim["completion_min"], 0.5)
    label, value = tail(sim["completion_min"])
    m["completion_tail_min"] = value
    labels["completion_tail_min"] = "%s of %d" % (label, len(sim["completion_min"]))
    if kind == "deadline":
        labels["completion_p50_min"] = "projected, %d unstarted" % sim["jobs_unstarted"]
        labels["completion_tail_min"] += ", projected"
    # A one-shot drain is over when its last delivery lands; the other runs
    # span their whole simulated time (arrival window and drain, or deadline).
    one_shot_drain = kind == "drain" and not sim["steady"]
    span = sim["completion_time"] if one_shot_drain else sum(sim["sim_seconds"])
    m["goodput_gbps"] = sim["credited"] * sim["block_bytes"] * 8e-9 / span
    failed = sim["jobs_rejected"] + (sim["jobs_unfinished"] if kind == "drain" else 0)
    # failed_share is printed; the result line carries served_share, its
    # complement, because a gated metric must never read 0.
    m["failed_share"] = failed / sim["jobs_generated"]
    m["served_share"] = 1.0 - m["failed_share"]
    m["peak_rss_mb"] = median([r["peak_rss_kib"] / 1024.0 for r in reps])
    return m, labels


def hist(rep, name, field="sum"):
    h = rep["histograms"].get(name)
    return h[field] if h else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def ledger_one(rep):
    """Per-layer ledger of one traced repetition."""
    c = rep["counters"]
    count = lambda name: c.get(name, 0)
    lp_ms = hist(rep, "fptas.solve") + hist(rep, "fptas.sharded")
    solves = count("fptas.solves") + count("fptas.sharded.solves")
    schedule_ms = hist(rep, "scheduler.schedule")
    route_ms = hist(rep, "scheduler.route")
    cycle_ms = hist(rep, "controller.cycle")
    reused = count("scheduler.cand_units_reused")
    repriced = count("scheduler.cand_units_repriced")
    hits = count("path_cache.hits")
    misses = count("path_cache.misses")
    pops = count("scheduler.candidate_pops")
    wall_ms = sum(rep["run_wall_s"]) * 1e3
    return {
        "lp.solve_ms": lp_ms,
        "lp.solves": solves,
        "lp.phases_per_solve": ratio(count("fptas.phases"), count("fptas.solves")),
        "lp.pushes_per_solve": ratio(count("fptas.pushes") + count("fptas.sharded.pushes"), solves),
        "lp.commodities_per_solve": ratio(count("scheduler.route_subtasks"), solves),
        "lp.warm_solves": count("fptas.warm.solves"),
        "lp.phases_skipped": count("fptas.warm.phases_skipped"),
        "scheduler.schedule_ms": schedule_ms,
        "scheduler.candidate_pops": pops,
        "scheduler.blocks_selected": count("scheduler.blocks_selected"),
        "scheduler.selected_per_pop": ratio(count("scheduler.blocks_selected"), pops),
        "scheduler.cand_reuse_ratio": ratio(reused, reused + repriced),
        "scheduler.early_exits": count("scheduler.early_exits"),
        "scheduler.route_other_ms": route_ms - lp_ms,
        "topology.path_cache_hit_ratio": ratio(hits, hits + misses),
        "topology.path_cache_invalidations": count("path_cache.invalidations"),
        "control.cycle_ms": cycle_ms,
        "control.cycles": rep["cycles"],
        "control.non_decide_ms": cycle_ms - schedule_ms - route_ms,
        "control.fallback_cycles": rep["fallback_cycles"],
        "control.transfers_cancelled": count("controller.transfers_cancelled"),
        "simulator.events": rep["sim_events"],
        "simulator.reallocations": rep["sim_reallocations"],
        "simulator.component_solves": count("sim.component_solves"),
        "simulator.component_flows_mean": ratio(hist(rep, "sim.component_flows"),
                                                hist(rep, "sim.component_flows", "count")),
        "simulator.component_flows_max": hist(rep, "sim.component_flows", "max"),
        "simulator.flow_visits": hist(rep, "sim.component_flows"),
        "admission.offered": rep["admission_offered"],
        "admission.rejected": rep["admission_rejected"],
        "admission.deferred": rep["admission_deferred"],
        "control.overrun_cycles": rep["overrun_cycles"],
        "control.degraded_cycles": rep["degraded_cycles"],
        "fault.link_events": rep["fault.link_events"],
        "fault.flows_killed": rep["fault.flows_killed"],
        "fault.pushes_dropped": rep["fault.pushes_dropped"],
        "fault.reports_lost": rep["fault.reports_lost"],
        # control.cycle_ms covers everything inside cycles.
        "residual_ms": wall_ms - cycle_ms,
    }


# Layers whose self times partition run_wall_s in the traced run:
# lp + route_other = route; schedule + route + non_decide = cycle;
# cycle + residual = wall.
SHARE_LAYERS = ["lp.solve_ms", "scheduler.route_other_ms", "scheduler.schedule_ms",
                "control.non_decide_ms", "residual_ms"]


def ledger(reps):
    """Per-layer metrics: medians over traced repetitions, plus shares."""
    traced = [r for r in reps if r["traced"]]
    untraced = [r for r in reps if not r["traced"]]
    rows = [ledger_one(r) for r in traced]
    m = {name: median([row[name] for row in rows]) for name, _, _ in PER_LAYER
         if name != "telemetry.overhead_ratio"}
    m["telemetry.overhead_ratio"] = (median([sum(r["run_wall_s"]) for r in traced]) /
                                     median([sum(r["run_wall_s"]) for r in untraced]))
    wall_ms = median([sum(r["run_wall_s"]) for r in traced]) * 1e3
    shares = {name: m[name] / wall_ms for name in SHARE_LAYERS}
    return m, shares


# --------------------------------------------------------------------------
# Printing.

def fmt(value):
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()
                                  and abs(value) < 1e15):
        return "%d" % value
    if abs(value) >= 100:
        return "%.1f" % value
    if abs(value) >= 1:
        return "%.3f" % value
    return "%.4g" % value


def print_table(title, names, units, rows):
    """rows: list of (workload, {name: value}, {name: label})."""
    print("\n" + title)
    width = max(len(n) for n in names) + 2
    header = "%-*s %-12s" % (width, "metric", "unit")
    for workload, _, _ in rows:
        header += " %22s" % workload
    print(header)
    print("-" * len(header))
    for name, unit in zip(names, units):
        line = "%-*s %-12s" % (width, name, unit)
        for _, values, labels in rows:
            cell = fmt(values[name]) if name in values else "n/a"
            if name in labels:
                cell += " (%s)" % labels[name]
            line += " %22s" % cell
        print(line)


def print_end_to_end(rows):
    names = [n for n, _, _ in END_TO_END] + ["failed_share"]
    units = [u for _, u, _ in END_TO_END] + ["ratio"]
    print_table("End-to-end metrics (tracing off; host times are medians over repetitions)",
                names, units, rows)


def print_ledger(rows):
    names = [n for n, _, _ in PER_LAYER] + ["share." + n for n in SHARE_LAYERS]
    units = [u for _, u, _ in PER_LAYER] + ["of wall"] * len(SHARE_LAYERS)
    print_table("Per-layer ledger (traced repetitions; shares are of their total run wall time)",
                names, units, rows)
    for workload, values, _ in rows:
        if values["share.residual_ms"] > 0.10:
            print("FLAG: %s residual is %.1f%% of the run wall time (above 10%%)" % (
                workload, 100.0 * values["share.residual_ms"]))


# --------------------------------------------------------------------------
# Commands.

def measure(binary, workload, seed, seconds, smoke, trace):
    """Runs one workload; returns (reps, failures, e2e, ledger-or-None)."""
    reps = run_reps(binary, workload, seed, seconds, smoke, trace)
    failures = check_reps(workload, reps)
    untraced = [r for r in reps if not r["traced"]]
    e2e = layer = None
    if not failures:
        e2e = end_to_end(workload, untraced)
        if trace:
            layer = ledger(reps)
    return reps, failures, e2e, layer


def result_line(correct, attempted, failed, metrics, specs):
    out = {"correct": correct, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": metrics[name], "unit": unit}
                       for name, unit, _ in specs if name in metrics}}
    return json.dumps(out)


def cmd_single(args, binary):
    seed = args.seed if args.seed is not None else WORKLOADS[args.workload][1]
    reps, failures, e2e, layer = measure(binary, args.workload, seed, args.seconds,
                                         args.smoke, args.trace == 1)
    for f in failures:
        print("CHECK FAILED: %s: %s" % (args.workload, f))
    if failures:
        print(json.dumps({"correct": False, "attempted": len(reps), "failed": len(reps),
                          "metrics": {}}))
        return 1
    e2e_values, e2e_labels = e2e
    if args.trace == 1:
        values, shares = layer
        row = dict(values)
        row.update({"share." + k: v for k, v in shares.items()})
        print_ledger([(args.workload, row, {})])
        print(result_line(True, len(reps), 0, values, PER_LAYER))
    else:
        print_end_to_end([(args.workload, e2e_values, e2e_labels)])
        print(result_line(True, len(reps), 0, e2e_values, END_TO_END))
    return 0


def host():
    """What the record's host times were measured on."""
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "logical_cpus": os.cpu_count(), "python": platform.python_version()}


def cmd_all(args, binary):
    """Every workload: end-to-end table, ledger table, optional record file."""
    e2e_rows, ledger_rows, record = [], [], {}
    ok = True
    attempted = 0
    for workload, (why, default_seed, held_out, kind) in WORKLOADS.items():
        seed = args.seed if args.seed is not None else default_seed
        print("running %s (seed %d)..." % (workload, seed), file=sys.stderr)
        reps, failures, e2e, layer = measure(binary, workload, seed, args.seconds,
                                             args.smoke, trace=True)
        attempted += len(reps)
        for f in failures:
            print("CHECK FAILED: %s: %s" % (workload, f))
        if failures:
            ok = False
            continue
        values, labels = e2e
        e2e_rows.append((workload, values, labels))
        layer_values, shares = layer
        row = dict(layer_values)
        row.update({"share." + k: v for k, v in shares.items()})
        ledger_rows.append((workload, row, {}))
        record[workload] = {
            "why": why,
            "kind": kind,
            "default_seed": default_seed,
            "held_out_seed": held_out,
            "measured_seed": seed,
            "end_to_end": values,
            "end_to_end_labels": labels,
            "layer_share_of_run_wall_s": shares,
            "residual_over_10pct": shares["residual_ms"] > 0.10,
            "telemetry_overhead_ratio": layer_values["telemetry.overhead_ratio"],
            "properties": {
                "warm_start_engagement": ratio(layer_values["lp.warm_solves"],
                                               layer_values["lp.solves"]),
                "lp_solves": layer_values["lp.solves"],
                "candidate_unit_reuse": layer_values["scheduler.cand_reuse_ratio"],
            },
            "ledger": layer_values,
            "repetitions": len(reps),
        }
    if e2e_rows:
        print_end_to_end(e2e_rows)
        print_ledger(ledger_rows)
    if args.record and ok:
        with open(args.record, "w") as f:
            json.dump({"host": host(), "smoke": args.smoke, "seconds": args.seconds,
                       "workloads": record}, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote %s" % args.record, file=sys.stderr)
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": 0 if ok else attempted,
                      "metrics": {}}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's default seed)")
    p.add_argument("--seconds", type=float, default=28.0,
                   help="measure for about this long (whole repetitions, at least three)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer ledger from traced repetitions")
    p.add_argument("--smoke", action="store_true", help="smoke size of the workload")
    p.add_argument("--all", action="store_true",
                   help="run every workload, traced and untraced, and print both tables")
    p.add_argument("--self-check", action="store_true",
                   help="--all at smoke size with short runs: every check in seconds")
    p.add_argument("--record", help="with --all: write the per-workload record here")
    args = p.parse_args()
    if args.self_check:
        args.all, args.smoke, args.seconds = True, True, 0.0
    if not args.all and args.workload is None:
        p.error("--workload is required (or --all / --self-check)")
    try:
        binary = build()
        return cmd_all(args, binary) if args.all else cmd_single(args, binary)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
