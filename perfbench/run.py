#!/usr/bin/env python3
"""End-to-end scenario benchmark with a per-layer host-time split.

    python3 perfbench/run.py --workload multi-1024 --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, in turn

Builds perfbench_e2e (perfbench/CMakeLists.txt: the library from src/ plus
e2e.cpp) under $CARGO_TARGET_DIR (default .bench_build), then runs one
workload as a closed loop: one process per scenario run, one run at a time,
both methods (baseline, then Opass) per run, threads=1 as in opass_cli. The
runs cycle through INPUTS scenario seeds derived from --seed.

--trace 0 times untraced runs for --seconds and reports the end-to-end
metrics (medians over the runs). --trace 1 cycles untraced run, traced run
and half-size traced run for --seconds and reports the per-layer metrics.
Both modes check the outputs (see Tally.record); a failed check counts in
fail_frac, prints "correct": false and exits 1. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Hard cap on one invocation; every child gets what is left of it.
DEADLINE_S = 170.0

# Inputs per invocation. The host time of one input depends on its layout
# (the churn workload's timeline grows with the simulated makespan), so each
# invocation cycles through INPUTS layouts derived from --seed and reports
# the median over them.
INPUTS = 3


def input_seed(seed, k):
    """Scenario seed of input k of an invocation; distinct for every (seed, k)."""
    return seed * INPUTS + k

# name -> the scenario configuration the program receives (plus the seed).
# scenario/nodes/tasks/... map one to one onto perfbench_e2e flags.
WORKLOADS = {
    "multi-1024": {
        "args": {"scenario": "multi", "nodes": 1024, "tasks": 40960},
        "layout_reps": 1,
        "why": "planner layer: Algorithm 1 on the dense m x n co-location table; "
        "sinks off, so the observe layer is bypassed",
    },
    "iterative-4096": {
        "args": {"scenario": "iterative", "nodes": 4096, "tasks": 163840, "epochs": 4},
        "layout_reps": 2,
        "why": "simulator layer: contended remote baseline reads keep flow re-leveling busy; "
        "planning is a cheap Dinic solve and sinks are off",
    },
    "churn-observed-1024": {
        # compute stays at the CLI default 0: with 1.0 s mean Pareto compute
        # one straggler task sets the makespan, and the timeline sink's size
        # with it (seed 11: 1629 sim s and 9.2 s of host time; seed 12:
        # 168 sim s and 2.1 s).
        "args": {
            "scenario": "dynamic", "nodes": 1024, "tasks": 40960, "compute": 0.0,
            "fault-plan": os.path.join("perfbench", "faults", "crash.json"),
        },
        "sinks": True,
        "layout_reps": 5,
        "why": "observe layer: every sink on; r=3 crash plan whose re-replication writes "
        "compete with reads; dynamic dispatch. r=1 crash plans abort the executor, so are "
        "not a workload yet",
    },
}

SINKS = ["metrics", "trace", "timeline", "spans", "critical_path", "report"]

# End-to-end metrics: (name, unit, better). Bounds live in BENCHMARK.json.
END_TO_END = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("opass_local_frac", "ratio", "higher"),
    ("opass_serve_peak_over_mean", "ratio", "lower"),
]

# Per-layer metrics of the traced run: (name, unit, better, the end-to-end
# metric it should move). Ratios name their base in the last field too.
PER_LAYER = [
    ("workload.build_s", "s", "lower", "setup_s, run_s; most on multi-1024"),
    ("dfs.chunks", "count", "lower", "setup_s (layout size)"),
    ("dfs.replicas", "count", "lower", "setup_s (layout size)"),
    ("opass.plan_s", "s", "lower", "run_s, peak_rss_mb on multi-1024; none on iterative-4096"),
    ("opass.plan_calls", "count", "lower", "run_s (re-plans on churn-observed-1024)"),
    ("opass.tasks_planned", "count", "lower", "run_s; base of opass.plan_us_per_task"),
    ("opass.plan_us_per_task", "us", "lower", "run_s; base opass.tasks_planned"),
    ("opass.reassignments", "count", "lower", "run_s on multi-1024"),
    ("opass.randomly_filled", "count", "lower", "opass_local_frac"),
    ("opass.planned_local_frac", "ratio", "higher",
     "opass_local_frac, sim.io_speedup everywhere; base opass.tasks_planned"),
    ("runtime.execute_s", "s", "lower", "run_s on iterative-4096, little on multi-1024"),
    ("runtime.execute_calls", "count", "lower", "run_s"),
    ("sim.reads", "count", "lower", "run_s; base of sim.host_us_per_read"),
    ("sim.remote_reads", "count", "lower", "sim.io_speedup; base sim.reads"),
    ("sim.opass_reads", "count", "lower", "base of opass_local_frac"),
    ("sim.host_us_per_read", "us", "lower", "run_s on iterative-4096; base sim.reads"),
    ("sim.rate_recomputes", "count", "lower", "run_s on iterative-4096"),
    ("sim.relevel_touched_flows", "count", "lower", "run_s on iterative-4096"),
    ("sim.disk_peak_load_max", "count", "lower", "opass_serve_peak_over_mean, sim.io_speedup"),
    ("sim.read_failures", "count", "lower", "sim.io_speedup on churn-observed-1024"),
    ("runtime.barrier_stall_s", "sim_s", "lower", "sim.makespan_speedup"),
    ("sim.baseline_makespan_s", "sim_s", "lower", "base of sim.makespan_speedup"),
    ("sim.makespan_speedup", "ratio", "higher",
     "the paper's headline, baseline over Opass makespan; too seed-dependent to bound"),
    ("sim.io_speedup", "ratio", "higher",
     "baseline over Opass mean I/O time per read (Figs. 7, 9); base sim.reads"),
    ("sim.fault_copies", "count", "lower", "sim.io_speedup on churn-observed-1024"),
    ("sim.lost_chunks", "count", "lower", "fail_frac on churn-observed-1024"),
] + [
    (f"obs.{sink}_{kind}", unit, "lower",
     "run_s, peak_rss_mb on churn-observed-1024; zero elsewhere")
    for sink in SINKS for kind, unit in (("s", "s"), ("bytes", "bytes"))
] + [
    ("obs.total_s", "s", "lower", "run_s, peak_rss_mb on churn-observed-1024; zero elsewhere"),
    ("exp.self_s", "s", "lower", "run_s on all three; traced wall minus the layer spans"),
    ("traced_wall_s", "s", "lower", "base of exp.self_s and trace_overhead_s"),
    ("trace_overhead_s", "s", "lower", "none: traced wall minus untraced run_s"),
    ("workload.build_slope", "log2", "lower", "setup_s as the cluster grows"),
    ("opass.plan_slope", "log2", "lower", "run_s as the cluster grows (2 = dense m x n)"),
    ("runtime.execute_slope", "log2", "lower", "run_s as the cluster grows"),
    ("obs.total_slope", "log2", "lower", "run_s as the cluster grows; 0 when sinks are off"),
]

# Spans the traced run reports, and the layer metric each one feeds.
SPANS = ["workload.build", "opass.plan", "runtime.execute"] + [f"obs.{s}" for s in SINKS]
SLOPES = {"workload.build_slope": ["workload.build"], "opass.plan_slope": ["opass.plan"],
          "runtime.execute_slope": ["runtime.execute"],
          "obs.total_slope": [f"obs.{s}" for s in SINKS]}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    """Configure once, then (re)build perfbench_e2e; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"library sources not found under {ROOT}/src")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_e2e", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    return os.path.join(out, "perfbench_e2e")


# ----------------------------------------------------------------- children

def child_argv(binary, command, workload, seed, half=False, sinks_dir=None):
    """The generated configuration of one scenario run, as perfbench_e2e flags;
    `seed` is the scenario seed."""
    w = WORKLOADS[workload]
    args = dict(w["args"], seed=seed)
    if half:
        args["nodes"] //= 2
        args["tasks"] //= 2
    if command == "run":
        args["layout-reps"] = w["layout_reps"]
    if w.get("sinks"):
        args["sinks-dir"] = sinks_dir
    return [binary, command] + [f"--{k}={v}" for k, v in args.items()]


def run_child(argv, timeout):
    """Run one scenario-run process; returns its JSON result, or None if it
    failed, timed out or printed no result."""
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(argv)}")
        return None
    if proc.returncode != 0:
        log(f"exit code {proc.returncode}: {' '.join(argv)}")
        return None
    try:
        return json.loads(proc.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"no result from: {' '.join(argv)}")
        return None


# ------------------------------------------------------------------ checks

class Tally:
    """Scenario runs attempted and failed (each child runs 2: one per method)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, result, expected_tasks, reference=None, sink_reference=None, what="run"):
        """Count one child's two scenario runs. A method fails if it threw,
        executed the wrong number of tasks, or (given a reference) differs
        from it; a failed child-level check (sinks, audits, traced spans)
        fails both."""
        self.attempted += 2
        if result is None:
            self.failed += 2
            self.problems.append(f"{what}: no result")
            return
        child_ok = result.get("sinks_ok", True) and not result.get("failed_checks")
        if not child_ok:
            self.problems.append(f"{what}: sinks_ok={result.get('sinks_ok')} "
                                 f"checks={result.get('failed_checks')}")
        if "spans" in result and result["wall_s"] < sum(result["spans"].values()) - 1e-6:
            # exp.self_s < 0: the layer spans do not fit inside the traced wall.
            child_ok = False
            self.problems.append(f"{what}: layer spans exceed the traced wall time")
        if sink_reference is not None and result.get("sinks") != sink_reference:
            child_ok = False
            self.problems.append(f"{what}: sink files differ from the reference run")
        for name, m in result["methods"].items():
            ok = child_ok and m["ok"] and m["tasks_executed"] == expected_tasks
            if m["error"]:
                self.problems.append(f"{what}/{name}: threw: {m['error']}")
            elif m["tasks_executed"] != expected_tasks:
                self.problems.append(f"{what}/{name}: executed {m['tasks_executed']} "
                                     f"of {expected_tasks}")
            if ok and reference is not None and m != reference[name]:
                ok = False
                self.problems.append(f"{what}/{name}: outputs differ from the reference run")
            if not ok:
                self.failed += 1

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def expected_tasks(workload, half=False):
    """tasks_executed per method: tasks, or completed reads (chunks x epochs)
    for the iterative scenario."""
    args = WORKLOADS[workload]["args"]
    tasks = args["tasks"] // 2 if half else args["tasks"]
    return tasks * args.get("epochs", 1) if args["scenario"] == "iterative" else tasks


# ------------------------------------------------------------------ metrics

def by_input(runs):
    """Group (input index, result) pairs by input, dropping failed runs."""
    groups = {}
    for k, r in runs:
        if r is not None:
            groups.setdefault(k, []).append(r)
    return groups


def end_to_end(runs):
    """End-to-end metrics from the untraced runs of one invocation. Host
    metrics are medians over all runs (the loop cycles the inputs, so each
    input runs equally often, give or take one); the deterministic ones are
    medians over the inputs."""
    groups = by_input(runs)
    if not groups or not all(m["ok"] for rs in groups.values() for m in rs[0]["methods"].values()):
        return {}
    ok = [r for rs in groups.values() for r in rs]
    over_inputs = lambda f: median(f(rs[0]["methods"]) for rs in groups.values())
    return {
        "run_s": median(r["run_s"] for r in ok),
        "setup_s": median(x for r in ok for x in r["setup_s"]),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in ok),
        # Simulated makespans swing with the seed (straggler tails), so they
        # are printed and reported per layer, not bounded end to end.
        "sim.baseline_makespan_s": over_inputs(lambda m: m["baseline"]["makespan"]),
        "sim.makespan_speedup": over_inputs(
            lambda m: m["baseline"]["makespan"] / m["opass"]["makespan"]),
        "sim.io_speedup": over_inputs(lambda m: m["baseline"]["io_mean"] / m["opass"]["io_mean"]),
        "opass_local_frac": over_inputs(lambda m: m["opass"]["local_fraction"]),
        "opass_serve_peak_over_mean": over_inputs(lambda m: m["opass"]["peak_over_mean"]),
    }


def span_total(result, names):
    return sum(result["spans"].get(n, 0.0) for n in names)


def slope(full, half):
    return math.log2(full / half) if full > 0 and half > 0 else 0.0


def per_layer(traced, halves, e2e, sinks_on):
    """Per-layer metrics: medians over the full-size traced runs, slopes
    against the half-size ones."""
    traced = [t for t in traced if t is not None]
    halves = [h for h in halves if h is not None]
    if not traced or not halves:
        return {}
    med = lambda f, rs=traced: median(f(r) for r in rs)
    m = {}
    for span in SPANS:
        m[span + "_s"] = med(lambda r: r["spans"].get(span, 0.0))
    m["obs.total_s"] = med(lambda r: span_total(r, [f"obs.{s}" for s in SINKS]))
    m["traced_wall_s"] = med(lambda r: r["wall_s"])
    m["exp.self_s"] = med(lambda r: r["wall_s"] - sum(r["spans"].values()))
    m["trace_overhead_s"] = m["traced_wall_s"] - e2e["run_s"]
    for name, _, _, _ in PER_LAYER:
        if name in traced[0]["counters"]:
            m[name] = med(lambda r: r["counters"][name])
    for sink in SINKS:
        m[f"obs.{sink}_bytes"] = med(lambda r: r.get("sinks", {}).get(sink, {}).get("bytes", 0))
    for name in ("sim.fault_copies", "sim.lost_chunks"):
        m.setdefault(name, 0)
    plan_s = m["opass.plan_s"]
    m["opass.plan_us_per_task"] = plan_s * 1e6 / m["opass.tasks_planned"]
    m["sim.host_us_per_read"] = m["runtime.execute_s"] * 1e6 / m["sim.reads"]
    for name, spans in SLOPES.items():
        m[name] = slope(med(lambda r: span_total(r, spans)),
                        med(lambda r: span_total(r, spans), halves))
    if not sinks_on:
        m["obs.total_slope"] = 0.0  # off sinks are hooks only: nothing to scale
    m.update({k: v for k, v in e2e.items() if k.startswith("sim.")})
    return {name: m[name] for name, _, _, _ in PER_LAYER}


# ---------------------------------------------------------------- workload

def run_workload(binary, workload, seed, seconds, trace):
    """One invocation's closed loop. Run i uses input i % INPUTS. Returns
    (metrics by name, Tally)."""
    sinks_dir = os.path.join(build_dir(), f"sinks-{os.getpid()}")
    os.makedirs(sinks_dir, exist_ok=True)
    start = time.perf_counter()
    left = lambda: DEADLINE_S - (time.perf_counter() - start)
    tally = Tally()
    runs, traced, halves = [], [], []
    refs = {}  # input -> its first untraced result, the reference for repeats
    want = expected_tasks(workload)
    argv = lambda cmd, k, half=False: child_argv(binary, cmd, workload, input_seed(seed, k),
                                                 half, sinks_dir)
    # Every input runs at least once; untraced-only loops also repeat one, so
    # the determinism check always has a pair.
    min_runs = INPUTS if trace else INPUTS + 1
    try:
        # Closed loop: the next run starts when the previous one has ended.
        last = 0.0
        while time.perf_counter() - start < seconds or len(runs) < min_runs:
            if left() < 2 * last + 10:
                break
            t0 = time.perf_counter()
            k = len(runs) % INPUTS
            result = run_child(argv("run", k), left())
            ref = refs.get(k)
            tally.record(result, want, ref and ref["methods"], ref and ref.get("sinks"),
                         what=f"run {len(runs)}")
            runs.append((k, result))
            if result is None:
                break
            refs.setdefault(k, result)
            log(f"{workload} run {len(runs) - 1} (input {k}): run_s={result['run_s']:.4f} "
                f"setup_s={','.join(f'{x:.4f}' for x in result['setup_s'])} "
                f"peak_rss_mb={result['peak_rss_mb']:.1f}")
            if trace:
                t = run_child(argv("trace", k), left())
                tally.record(t, want, refs[k]["methods"], refs[k].get("sinks"),
                             what=f"trace {len(traced)}")
                traced.append(t)
                h = run_child(argv("trace", k, half=True), left())
                tally.record(h, expected_tasks(workload, half=True), what=f"half {len(halves)}")
                halves.append(h)
            last = time.perf_counter() - t0
        if not trace and 0 in refs:
            # One traced run proves the traced pipeline is the same program:
            # bit-identical outputs and sink files, plus the plan audits.
            t = run_child(argv("trace", 0), left())
            tally.record(t, want, refs[0]["methods"], refs[0].get("sinks"), what="trace")
    finally:
        shutil.rmtree(sinks_dir, ignore_errors=True)
    e2e = end_to_end(runs)
    metrics = dict(e2e)
    if trace and e2e:
        metrics.update(per_layer(traced, halves, e2e, WORKLOADS[workload].get("sinks", False)))
    return metrics, tally


def units():
    u = {name: unit for name, unit, _ in END_TO_END}
    u.update({name: unit for name, unit, _, _ in PER_LAYER})
    return u


def report(workload, metrics, tally, trace):
    """Human-readable lines; returns the metrics the JSON line carries."""
    u = units()
    print(f"== {workload}: {WORKLOADS[workload]['why']}")
    print(f"   fail_frac {tally.fail_frac:.4f} ratio ({tally.failed}/{tally.attempted} "
          "scenario runs)")
    for name, value in metrics.items():
        print(f"   {name} {value:.6g} {u[name]}")
    for p in tally.problems:
        print(f"   FAILED: {p}")
    wanted = [n for n, _, _, _ in PER_LAYER] if trace else [n for n, _, _ in END_TO_END]
    return {n: {"value": metrics[n], "unit": u[n]} for n in wanted if n in metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind normally: the running child is killed and waited
    # for, and the sink directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"error: build failed: {e}")
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, tally = run_workload(binary, name, args.seed, args.seconds, args.trace)
        shown = report(name, metrics, tally, args.trace)
        wanted = len(PER_LAYER) if args.trace else len(END_TO_END)
        out["correct"] &= tally.failed == 0 and len(shown) == wanted
        out["attempted"] += tally.attempted
        out["failed"] += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        out["metrics"].update({prefix + k: v for k, v in shown.items()})
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
