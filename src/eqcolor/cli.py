"""Command-line front end: solve single DIMACS instances, run seeded
random-instance campaigns to CSV, and cross-check the solver variants
against the brute-force oracle on small inputs."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .graph import Graph, check_gnp_args, gen_gnp, parse_dimacs
from .oracle import MAX_N, brute_chi_eq
from .solver import VARIANTS, SolverConfig, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2
EXIT_INTERRUPTED = 130  # the shell's code for a run ended by SIGINT


def instance_seed(base: int, n: int, p: float, index: int) -> int:
    """Stable 63-bit mix of the campaign key; deliberately independent of
    Python's salted hash() so campaigns replay bit-identically."""
    h = 0xCBF29CE484222325
    for part in (base, n, round(p * 10_000), index):
        h ^= part & 0xFFFFFFFFFFFFFFFF
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h >> 1


def _read_dimacs(path: str) -> tuple[str, Graph]:
    """(file name, graph) of a DIMACS file. An unreadable file raises
    OSError, whose message names the path; a malformed one ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        return os.path.basename(path), parse_dimacs(fh.read())


def cmd_solve(args) -> int:
    try:
        cfg = SolverConfig(variant=args.algo, time_limit=args.time_limit)
        name, g = _read_dimacs(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sol, stats = solve(g, cfg)
    if sol.optimal:
        status, code = "optimal", EXIT_OK
    elif stats.interrupted:
        status, code = "INTERRUPTED", EXIT_INTERRUPTED
    else:
        status, code = "TIMEOUT", EXIT_TIMEOUT
    # the counters both reports give, in the order they give them
    report = {
        "status": status,
        "lower_bound": stats.k_lower,
        "nodes": stats.nodes,
        **_prunes(stats),
        "rule_firings": dict(sorted(stats.rule_firings.items())),
        "flow_solves": stats.flow_solves,
    }
    if args.json:
        print(json.dumps({
            "chi_eq": sol.chi_eq,
            "optimal": sol.optimal,
            **report,
            "time_s": round(stats.elapsed, 6),
            "coloring": sol.coloring,
        }))
        return code
    lines = {
        "instance": name,
        "n": g.n,
        "density": f"{g.density():.4f}",
        "chi_eq" if sol.optimal else "best_found": sol.chi_eq,
        **report,
        "time_s": f"{stats.elapsed:.3f}",
    }
    firings = ",".join(f"{k}={v}" for k, v in report["rule_firings"].items())
    lines["rule_firings"] = firings or 0
    for key, value in lines.items():
        print(f"{key + ':':<17}{value}")
    return code


_PRUNES = ("prunes_deficit", "prunes_flow", "prunes_hall")


def _prunes(stats) -> dict:
    """The solve's prune counters, under their report and CSV names."""
    return {name: getattr(stats, name) for name in _PRUNES}


DATA_HEADER = [
    "n",
    "p",
    "index",
    "seed",
    "variant",
    "chi_eq",
    "nodes",
    "time_s",
    "timed_out",
    *_PRUNES,
]
AGG_HEADER = ["n", "p", "variant", "avg_time", "timeouts", "avg_nodes"]


def run_bench(
    out_path: str, n_list: list[int], p_list: list[float], count: int, seed: int,
    variants: tuple[str, ...] = VARIANTS, time_limit: float = 3600.0,
) -> tuple[str, str]:
    """Run the campaign of `count` seeded G(n, p) per (n, p), each solved
    under every variant; write the per-run CSV to `out_path` and the
    aggregate CSV next to it (suffix `.agg.csv`). Returns both paths. The
    arguments are checked (ValueError: at least one n, p and variant, none
    twice, p as the CSV writes it) before either file is opened, and
    both files are opened before the first solve, so a bad path fails at
    once. Rows go out in campaign order as each solve returns; the
    aggregate covers the rows written, also when Ctrl-C ends the campaign.

    Timeout accounting: a timed-out run contributes the full time limit to
    the average time and is excluded from the node average.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    # p compares as the CSV records it
    p_keys = [f"{p:g}" for p in p_list]
    for name, keys in (("n", n_list), ("p", p_keys), ("variant", variants)):
        if not keys or len(set(keys)) < len(keys):
            raise ValueError(f"need one or more {name}, none repeated: {list(keys)}")
    for n in n_list:
        for p in p_list:
            check_gnp_args(n, p)
    configs = [SolverConfig(v, time_limit) for v in variants]
    agg_path = out_path.removesuffix(".csv") + ".agg.csv"
    rows = []
    with open(out_path, "w", encoding="utf-8", newline="") as fh, open(
        agg_path, "w", encoding="utf-8", newline=""
    ) as agg_fh:
        writer = csv.DictWriter(fh, fieldnames=DATA_HEADER, lineterminator="\n")
        writer.writeheader()
        try:
            for row in _campaign_rows(n_list, p_list, count, seed, configs):
                writer.writerow(row)
                fh.flush()
                rows.append(row)
        finally:
            writer = csv.writer(agg_fh, lineterminator="\n")
            writer.writerow(AGG_HEADER)
            writer.writerows(aggregate_rows(rows, time_limit))
    return out_path, agg_path


def _campaign_rows(n_list, p_list, count: int, base_seed: int, configs):
    """One row per (instance, config) solve, in campaign order."""
    for n in n_list:
        for p in p_list:
            for index, seed, g in _gnp_instances(n, p, count, base_seed):
                for cfg, sol, stats in _solves(g, configs):
                    yield {
                        "n": n,
                        "p": f"{p:g}",
                        "index": index,
                        "seed": seed,
                        "variant": cfg.variant,
                        "chi_eq": sol.chi_eq,
                        "nodes": stats.nodes,
                        "time_s": f"{stats.elapsed:.6f}",
                        "timed_out": int(stats.timed_out),
                        **_prunes(stats),
                    }


def _gnp_instances(n: int, p: float, count: int, base_seed: int):
    """(index, seed, graph) for the `count` seeded G(n, p) of a campaign."""
    for index in range(count):
        seed = instance_seed(base_seed, n, p, index)
        yield index, seed, gen_gnp(n, p, seed)


def _solves(g: Graph, configs):
    """(cfg, solution, stats) of g under each config, as each solve returns;
    Ctrl-C during a solve raises KeyboardInterrupt, ending the campaign."""
    for cfg in configs:
        sol, stats = solve(g, cfg)
        if stats.interrupted:
            raise KeyboardInterrupt
        yield cfg, sol, stats


def aggregate_rows(rows, time_limit: float):
    """Collapse per-run rows into per-(n, p, variant) cells, ordered by n,
    then by the numeric value of p, then by variant."""
    cells = {}
    for row in rows:
        key = (int(row["n"]), float(row["p"]), row["variant"])
        cells.setdefault(key, []).append(row)
    out = []
    for (n, _, variant), group in sorted(cells.items()):
        p = group[0]["p"]
        time_total = 0.0
        timeouts = 0
        node_sum = 0
        solved = 0
        for row in group:
            if int(row["timed_out"]):
                timeouts += 1
                time_total += time_limit
            else:
                time_total += float(row["time_s"])
                node_sum += int(row["nodes"])
                solved += 1
        avg_time = time_total / len(group)
        avg_nodes = f"{node_sum / solved:.1f}" if solved else ""
        out.append([n, p, variant, f"{avg_time:.6f}", timeouts, avg_nodes])
    return out


def cmd_bench(args) -> int:
    try:
        data_path, agg_path = run_bench(
            args.out, args.n, args.p, args.count, args.seed, tuple(args.algos), args.time_limit
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"wrote {data_path} and {agg_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        configs = [SolverConfig(v, args.time_limit) for v in VARIANTS]
        instances = [_read_dimacs(path) for path in args.paths]
        if args.gnp:
            n, p, count = int(args.gnp[0]), float(args.gnp[1]), int(args.gnp[2])
            if count < 1:
                raise ValueError("count must be >= 1")
            for index, _, g in _gnp_instances(n, p, count, args.seed):
                instances.append((f"gnp(n={n},p={p:g},#{index})", g))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not instances:
        print("error: nothing to verify (give paths or --gnp)", file=sys.stderr)
        return EXIT_ERROR
    mismatches = timeouts = 0
    for name, g in instances:
        results = {
            cfg.variant: sol.chi_eq if sol.optimal else None
            for cfg, sol, _ in _solves(g, configs)
        }
        if g.n <= MAX_N:
            results["oracle"] = brute_chi_eq(g)
        else:
            print(f"note: {name}: n={g.n} beyond oracle cap, comparing variants only")
        values = {v for v in results.values() if v is not None}
        timed_out = ",".join(k for k, v in sorted(results.items()) if v is None)
        if len(values) > 1:
            mismatches += 1
            detail = " ".join(f"{k}={v}" for k, v in sorted(results.items()))
            print(f"MISMATCH {name}  {detail}")
        elif timed_out:
            timeouts += 1
            proven = f" chi_eq={values.pop()}" if values else ""
            print(f"TIMEOUT  {name}  timed_out={timed_out}{proven}")
        else:
            print(f"OK       {name}  chi_eq={values.pop()}")
    if mismatches:
        print(f"{mismatches} mismatching instance(s)", file=sys.stderr)
        return EXIT_ERROR
    if timeouts:
        print(f"{timeouts} instance(s) timed out", file=sys.stderr)
        return EXIT_TIMEOUT
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqcolor",
        description="Exact equitable graph coloring with flow-based pruning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one DIMACS .col instance")
    p_solve.add_argument("path")
    p_solve.add_argument("--algo", choices=VARIANTS, default="comb")
    p_solve.add_argument("--time-limit", type=float, default=3600.0)
    p_solve.add_argument(
        "--json", action="store_true", help="print one JSON object instead of text"
    )
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a seeded G(n,p) campaign to CSV")
    p_bench.add_argument("--n", type=int, nargs="+", required=True)
    p_bench.add_argument("--p", type=float, nargs="+", required=True)
    p_bench.add_argument("--count", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--algos", nargs="+", choices=VARIANTS, default=list(VARIANTS)
    )
    p_bench.add_argument("--time-limit", type=float, default=3600.0)
    p_bench.add_argument("--out", required=True)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser(
        "verify", help="cross-check all variants (and the oracle when n is small)"
    )
    p_verify.add_argument("paths", nargs="*")
    p_verify.add_argument(
        "--gnp", nargs=3, metavar=("N", "P", "COUNT"), help="add random instances"
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--time-limit", type=float, default=3600.0)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
