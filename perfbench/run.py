"""Engine-by-engine benchmark: time to a proven optimum.

Each workload is a fixed list of instances solved one after another to a
proven optimum, in this one process with no threads: a closed loop with
one client. Every returned witness is checked by `witness.py`, which
shares no code with the solver, and its chi against a hand-written value.
See README.md in this directory for why each workload exists and which
layer metric should move which end-to-end metric.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload dimacs-comb --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload gnp-comb --trace 1
    python3 perfbench/run.py --self-test

--trace 0 repeats whole passes over the workload for --seconds and reports
the end-to-end metrics, with solve and set-up times scaled to a fixed
machine speed by the yardstick of yardstick.py. --trace 1 makes one
untraced and one traced pass and reports the per-layer metrics; the traced
pass must reproduce every instance's node count and chi. The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import layers
import witness
import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# equitable chromatic numbers, agreed on by all three engines
DIMACS_CHI = {
    "myciel4": 5,
    "myciel5": 6,
    "queen6_6": 7,
    "queen7_7": 7,
    "2-Insertions_3": 4,
    "1-FullIns_3": 5,
}
DIMACS_ALL = tuple(DIMACS_CHI)
# myciel5 takes about 25 s under comb and 45 s under flow
DIMACS_NO_MYCIEL5 = tuple(name for name in DIMACS_CHI if name != "myciel5")

GNP_N = 50
GNP_P = (0.3, 0.5, 0.7, 0.9)
GNP_COUNT = 5
GNP_DEFAULT_SEED = 1
# chi for instance index 0..4 at each p, base seed GNP_DEFAULT_SEED
GNP_CHI = {
    0.3: (6, 6, 6, 7, 6),
    0.5: (10, 10, 10, 9, 10),
    0.7: (14, 15, 14, 14, 14),
    0.9: (23, 26, 26, 22, 23),
}

# workload -> (solver variant, instances); see README.md for the reasons
WORKLOADS = {
    "dimacs-std": ("std", DIMACS_ALL),
    "dimacs-comb": ("comb", DIMACS_NO_MYCIEL5),
    "dimacs-flow": ("flow", DIMACS_NO_MYCIEL5),
    "gnp-comb": ("comb", "gnp"),
}

TIME_LIMIT = 60.0  # per solve; a timeout counts as a failed solve
SETUP_REPEATS = 11
# the yardstick runs for YARDSTICK_SLICE_S CPU seconds each time the
# process has used YARDSTICK_EVERY_S more, a fifth of the CPU time in all
YARDSTICK_EVERY_S = 0.025
YARDSTICK_SLICE_S = 0.005
# a solve with fewer chunks in it is scaled by the slowdown of the whole run
MIN_SOLVE_CHUNKS = 20


@dataclass
class Instance:
    label: str
    kind: str  # "dimacs" or "gnp"
    arg: object  # DIMACS text, or [n, p, seed] for gen_gnp
    n: int
    edges: list
    chi: int | None  # expected chi, None where no value is recorded


@dataclass
class Solve:
    instance: int
    seconds: float  # wall time, less the yardstick's
    cpu_s: float  # CPU time, less the yardstick's
    slowdown: float | None  # by the yardstick chunks run during the solve
    chi: int
    nodes: int
    error: str | None


class BenchError(Exception):
    """The benchmark cannot produce a result (missing package, bad spec)."""


def import_eqcolor():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import eqcolor
    except ImportError as exc:
        raise BenchError(f"cannot import eqcolor from {SRC}: {exc}") from None
    if os.path.dirname(os.path.abspath(eqcolor.__file__)) != os.path.join(SRC, "eqcolor"):
        raise BenchError(f"imported eqcolor from {eqcolor.__file__}, not from {SRC}")
    return eqcolor


def declared_metrics(trace: bool) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def make_instances(eqcolor, workload: str, gnp_seed: int) -> list[Instance]:
    from eqcolor.cli import instance_seed
    from eqcolor.instances import by_name

    names = WORKLOADS[workload][1]
    out = []
    if names != "gnp":
        for name in names:
            text = eqcolor.write_dimacs(by_name(name), name=name)
            n, edges = witness.dimacs_edges(text)
            out.append(Instance(name, "dimacs", text, n, edges, DIMACS_CHI[name]))
        return out
    for p in GNP_P:
        for index in range(GNP_COUNT):
            arg = [GNP_N, p, instance_seed(gnp_seed, GNP_N, p, index)]
            g = eqcolor.gen_gnp(*arg)
            chi = GNP_CHI[p][index] if gnp_seed == GNP_DEFAULT_SEED else None
            out.append(Instance(f"gnp{GNP_N}_p{p}_{index}", "gnp", arg, g.n, sorted(g.edges), chi))
    return out


def build_graphs(instances: list[Instance]) -> list:
    """The solver's input: looked up through eqcolor.graph at call time so
    a traced build is timed."""
    from eqcolor import graph

    return [
        graph.parse_dimacs(inst.arg) if inst.kind == "dimacs" else graph.gen_gnp(*inst.arg)
        for inst in instances
    ]


def measure_setup(instances: list[Instance]) -> list[float]:
    """Import plus graph building, each in a fresh interpreter, scaled by
    the slowdown the yardstick saw in that interpreter."""
    payload = json.dumps({"src": SRC, "inputs": [[i.kind, i.arg] for i in instances]})
    probe = os.path.join(HERE, "setup_probe.py")
    expected = [[i.n, len(i.edges)] for i in instances]
    samples = []
    for _ in range(SETUP_REPEATS):
        try:
            proc = subprocess.run(
                [sys.executable, probe],
                input=payload,
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=120,
                check=True,
            )
            out = json.loads(proc.stdout)
        except (subprocess.SubprocessError, ValueError) as exc:
            raise BenchError(f"set-up probe failed: {exc}") from None
        if out["sizes"] != expected:
            raise BenchError("set-up probe built graphs of other sizes than the inputs")
        samples.append(out["setup_s"] / out["slowdown"])
    return samples


def check(inst: Instance, sol) -> str | None:
    if not sol.optimal:
        return "timed out before proving optimality"
    err = witness.witness_error(inst.n, inst.edges, sol.coloring, sol.chi_eq)
    if err is None and inst.chi is not None and sol.chi_eq != inst.chi:
        err = f"chi {sol.chi_eq}, expected {inst.chi}"
    return err


def run_pass(variant: str, instances, graphs, order, stick=None) -> list[Solve]:
    """Solve every instance once, in `order`. The solver is looked up at
    call time so a traced pass goes through the wrappers. With a
    yardstick sampling, the time its chunks took during a solve is taken
    off the solve's time, and their speed gives the solve's slowdown (see
    yardstick.py)."""
    from eqcolor import solver

    cfg = solver.SolverConfig(variant=variant, time_limit=TIME_LIMIT)
    out = []
    for idx in order:
        gc.collect()
        before = (stick.chunks, stick.seconds, stick.wall_s) if stick else (0, 0.0, 0.0)
        c0 = time.thread_time()
        t0 = time.perf_counter()
        sol, stats = solver.solve(graphs[idx], cfg)
        dt = time.perf_counter() - t0
        cpu = time.thread_time() - c0
        slowdown = None
        if stick is not None:
            chunks, chunks_s, chunks_wall = (stick.chunks - before[0], stick.seconds - before[1],
                                             stick.wall_s - before[2])
            dt -= chunks_wall
            cpu -= chunks_s
            if chunks >= MIN_SOLVE_CHUNKS:
                slowdown = chunks_s / chunks / yardstick.NOMINAL_CHUNK_S
        out.append(Solve(idx, dt, cpu, slowdown, sol.chi_eq, stats.nodes, check(instances[idx], sol)))
    return out


def search_mismatches(first: list[Solve], other: list[Solve], labels) -> list[str]:
    """Instances whose node count or chi differs between two passes; the
    search is deterministic, so any difference is an error."""
    ref = {s.instance: (s.nodes, s.chi) for s in first}
    return [
        f"{labels[s.instance]}: nodes/chi {ref[s.instance]} then {(s.nodes, s.chi)}"
        for s in other
        if (s.nodes, s.chi) != ref[s.instance]
    ]


def compare_baseline(workload: str, instances, solves: list[Solve], gnp_seed: int) -> None:
    """Print whether the search reproduced the seed baseline's node counts;
    a difference is reported, not failed, since a change may alter the
    search on purpose."""
    if WORKLOADS[workload][1] == "gnp" and gnp_seed != GNP_DEFAULT_SEED:
        return
    try:
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)["workloads"][workload]["instances"]
    except (OSError, ValueError, KeyError):
        print("note: no recorded baseline node counts for this workload", file=sys.stderr)
        return
    differ = [
        f"{instances[s.instance].label} {recorded[instances[s.instance].label]['nodes']} -> {s.nodes}"
        for s in solves
        if recorded.get(instances[s.instance].label, {}).get("nodes") != s.nodes
    ]
    if differ:
        print(f"node counts differ from the seed baseline: {', '.join(differ)}")
    else:
        print(f"node counts match the seed baseline on all {len(solves)} instances")


def median_by_instance(passes: list[list[Solve]], time_of=lambda s: s.seconds) -> dict:
    """{instance: median over the passes of time_of(solve)}"""
    times = {}
    for solves in passes:
        for s in solves:
            times.setdefault(s.instance, []).append(time_of(s))
    return {i: statistics.median(ts) for i, ts in times.items()}


def print_instances(instances, passes: list[list[Solve]], columns: dict) -> None:
    """Per instance: chi, nodes and each column of {name: {instance:
    seconds}}, then the sum of each column."""
    print(f"  {'instance':<18} {'chi':>4} {'nodes':>9}" + "".join(f" {c:>9}" for c in columns))
    for s in sorted(passes[0], key=lambda s: s.instance):
        status = "" if s.error is None else f"  FAILED: {s.error}"
        print(
            f"  {instances[s.instance].label:<18} {s.chi:>4} {s.nodes:>9}"
            + "".join(f" {col[s.instance]:>9.4f}" for col in columns.values())
            + status
        )
    print("  sums: " + ", ".join(f"{c} {sum(col.values()):.4f}" for c, col in columns.items()))


def end_to_end(workload: str, seed: int, seconds: float, gnp_seed: int, eqcolor) -> tuple:
    variant = WORKLOADS[workload][0]
    instances = make_instances(eqcolor, workload, gnp_seed)
    setup = measure_setup(instances)
    graphs = build_graphs(instances)
    stick = yardstick.Yardstick()
    rng = random.Random(seed)
    order = list(range(len(instances)))
    passes = []
    start = time.perf_counter()
    with stick.sampling(YARDSTICK_EVERY_S, YARDSTICK_SLICE_S):
        while True:
            rng.shuffle(order)
            t0 = time.perf_counter()
            passes.append(run_pass(variant, instances, graphs, order, stick))
            pass_s = time.perf_counter() - t0
            if time.perf_counter() - start + pass_s > seconds:
                break
    labels = [i.label for i in instances]
    errors = [f"{labels[s.instance]}: {s.error}" for p in passes for s in p if s.error]
    mismatches = [m for p in passes[1:] for m in search_mismatches(passes[0], p, labels)]
    slowdown = stick.slowdown()
    columns = {
        "wall_s": median_by_instance(passes),
        "cpu_s": median_by_instance(passes, lambda s: s.cpu_s),
        "scaled_s": median_by_instance(passes, lambda s: s.cpu_s / (s.slowdown or slowdown)),
    }
    scaled = list(columns["scaled_s"].values())
    attempted = sum(len(p) for p in passes)
    metrics = {
        "solve_s": sum(scaled),
        "solve_p50_s": statistics.median(scaled),
        "solved_frac": (attempted - len(errors)) / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"workload {workload}: variant {variant}, seed {seed}, {len(instances)} instances"
        f" x {len(passes)} passes ({attempted} solves)"
    )
    print_instances(instances, passes, columns)
    compare_baseline(workload, instances, passes[0], gnp_seed)
    print(
        f"  yardstick: {stick.chunks} chunks, slowdown {slowdown:.4f} over the run;"
        " scaled_s is cpu_s over the slowdown during each solve"
    )
    print(
        f"  solve_p50_s is the median over {len(scaled)} instances of per-instance medians"
        f" ({attempted} solves); setup_s is the median of {len(setup)} fresh interpreters, scaled"
    )
    return metrics, attempted, len(errors), errors + mismatches


def per_layer(workload: str, seed: int, gnp_seed: int, eqcolor, tracer) -> tuple:
    variant = WORKLOADS[workload][0]
    instances = make_instances(eqcolor, workload, gnp_seed)
    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    graphs = build_graphs(instances)
    untraced = run_pass(variant, instances, graphs, order)
    tracer.install()
    try:
        graphs = build_graphs(instances)
        traced = run_pass(variant, instances, graphs, order)
    finally:
        tracer.uninstall()
    labels = [i.label for i in instances]
    errors = [f"{labels[s.instance]}: {s.error}" for s in untraced + traced if s.error]
    mismatches = [f"tracing changed the search: {m}" for m in search_mismatches(untraced, traced, labels)]
    run = {
        "nodes": sum(s.nodes for s in untraced),
        "untraced_s": sum(s.seconds for s in untraced),
        "traced_s": sum(s.seconds for s in traced),
    }
    metrics, dropped = layers.layer_metrics(tracer, run)
    if dropped:
        print(f"note: not traced, reported as 0: {', '.join(dropped)}", file=sys.stderr)
    print(f"workload {workload}: variant {variant}, seed {seed}, traced pass of {len(instances)} instances")
    print_instances(instances, [untraced], {"wall_s": median_by_instance([untraced])})
    compare_baseline(workload, instances, untraced, gnp_seed)
    print(f"  traced nodes and chi match the untraced pass: {'no' if mismatches else 'yes'}")
    shares = layers.layer_shares(tracer)
    print("  share of traced self time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    attempted = len(untraced) + len(traced)
    return metrics, attempted, len(errors), errors + mismatches


def self_test() -> list[str]:
    """Checks of the benchmark itself: the witness checker rejects bad
    colorings, and a missing trace target is noted instead of crashing."""
    problems = [f"witness check accepted or rejected wrongly: {c}" for c in witness.self_test()]
    probe = layers.Tracer(layers.TARGETS + (("flownet.absent", "eqcolor.flownet", "_absent"),))
    if "flownet.absent" not in probe.missing:
        problems.append("a missing trace target was not noted")
    return problems


def run_workload(args, eqcolor) -> int:
    tracer = layers.Tracer()  # resolves every wrapped name once, at start-up
    for key, reason in tracer.missing.items():
        print(f"note: cannot trace {key} ({reason}); its metrics are dropped", file=sys.stderr)
    problems = self_test()
    if problems:
        raise BenchError("benchmark self-test failed: " + "; ".join(problems))
    units = declared_metrics(bool(args.trace))
    if args.trace:
        values, attempted, failed, errors = per_layer(args.workload, args.seed, args.gnp_seed, eqcolor, tracer)
    else:
        values, attempted, failed, errors = end_to_end(
            args.workload, args.seed, args.seconds, args.gnp_seed, eqcolor
        )
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} differ from BENCHMARK.json's {sorted(units)}")
    for err in errors:
        print(f"ERROR: {err}", file=sys.stderr)
    if not args.trace:
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="orders the instances in each pass")
    parser.add_argument("--seconds", type=float, default=30.0, help="untraced measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--gnp-seed",
        type=int,
        default=GNP_DEFAULT_SEED,
        help="base seed of the G(n,p) instances; other values re-check a claim on unseen graphs",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.self_test:
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
            for flag in ("seed", "seconds", "trace", "gnp_seed"):
                cmd += [f"--{flag.replace('_', '-')}", str(getattr(args, flag))]
            status |= subprocess.run(cmd, check=False).returncode
        return status
    try:
        eqcolor = import_eqcolor()
        if args.self_test:
            problems = self_test()
            print("\n".join(problems) or "self-test passed")
            return 1 if problems else 0
        return run_workload(args, eqcolor)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
