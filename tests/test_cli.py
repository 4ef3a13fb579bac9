import csv
import json

import pytest

from eqcolor import cli, solver
from eqcolor.cli import aggregate_rows, instance_seed, main, run_bench
from eqcolor.graph import write_dimacs
from eqcolor.instances import by_name
from eqcolor import Solution, gen_gnp
from helpers import complete, proper_and_equitable, raising_on_call, star


@pytest.fixture()
def myciel4_file(tmp_path):
    path = tmp_path / "myciel4.col"
    path.write_text(write_dimacs(by_name("myciel4"), name="myciel4"))
    return str(path)


def test_solve_optimal_exit_zero(myciel4_file, capsys):
    rc = main(["solve", myciel4_file, "--algo", "std"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chi_eq:          5" in out
    assert "status:          optimal" in out
    assert "nodes:" in out and "time_s:" in out


def test_solve_each_algo(myciel4_file, capsys):
    for algo in ("std", "flow", "comb"):
        assert main(["solve", myciel4_file, "--algo", algo]) == 0
        assert "chi_eq:          5" in capsys.readouterr().out


def test_solve_missing_file(capsys):
    """`solve` and `verify` read a file through one reader and report an
    unreadable one with the same single error line."""
    for command in ("solve", "verify"):
        rc = main([command, "does-not-exist.col"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: [Errno 2] No such file or directory: 'does-not-exist.col'\n"
        )


def test_solve_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 9\n")
    rc = main(["solve", str(bad)])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


def test_solve_empty_graph(tmp_path, capsys):
    empty = tmp_path / "empty.col"
    empty.write_text("p edge 0 0\n")
    rc = main(["solve", str(empty)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "chi_eq:          0" in out
    assert "status:          optimal" in out


def test_solve_prints_prune_counters(myciel4_file, capsys):
    assert main(["solve", myciel4_file, "--algo", "comb"]) == 0
    out = capsys.readouterr().out
    hall = int(out.split("prunes_hall:")[1].split()[0])
    firings = out.split("rule_firings:")[1].split()[0]
    assert int(out.split("lower_bound:")[1].split()[0]) == 2  # triangle-free
    assert hall > 0
    assert sum(int(kv.split("=")[1]) for kv in firings.split(",")) >= 1


def test_solve_json(myciel4_file, capsys):
    assert main(["solve", myciel4_file, "--algo", "comb", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert set(result) == {
        "chi_eq", "optimal", "status", "lower_bound", "nodes", "prunes_deficit",
        "prunes_flow", "prunes_hall", "rule_firings", "flow_solves", "time_s",
        "coloring",
    }
    assert (result["chi_eq"], result["optimal"], result["status"]) == (5, True, "optimal")
    assert result["lower_bound"] == 2 and result["nodes"] >= 1
    assert result["prunes_hall"] > 0 and sum(result["rule_firings"].values()) >= 1
    assert proper_and_equitable(by_name("myciel4"), result["coloring"], 5)


def test_solve_interrupted_exit_130(tmp_path, monkeypatch, capsys):
    """Ctrl-C during the search prints the best coloring found so far as
    INTERRUPTED and exits 130, in text and in JSON."""
    path = tmp_path / "queen6_6.col"
    path.write_text(write_dimacs(by_name("queen6_6"), name="queen6_6"))
    prune = solver.comb_prune
    monkeypatch.setattr(solver, "comb_prune", raising_on_call(prune, 20))
    assert main(["solve", str(path)]) == 130
    out = capsys.readouterr().out
    assert "status:          INTERRUPTED" in out and "best_found:" in out
    monkeypatch.setattr(solver, "comb_prune", raising_on_call(prune, 20))
    assert main(["solve", str(path), "--json"]) == 130
    result = json.loads(capsys.readouterr().out)
    assert (result["status"], result["optimal"]) == ("INTERRUPTED", False)
    assert proper_and_equitable(by_name("queen6_6"), result["coloring"], result["chi_eq"])


def test_solve_interrupted_before_the_search_exit_130(tmp_path, monkeypatch, capsys):
    """Ctrl-C during the initial bounds prints one class per vertex as
    INTERRUPTED and exits 130."""
    g = by_name("queen6_6")
    path = tmp_path / "queen6_6.col"
    path.write_text(write_dimacs(g, name="queen6_6"))
    greedy = solver._capped_greedy
    monkeypatch.setattr(solver, "_capped_greedy", raising_on_call(greedy, 1))
    assert main(["solve", str(path), "--json"]) == 130
    result = json.loads(capsys.readouterr().out)
    assert (result["status"], result["optimal"]) == ("INTERRUPTED", False)
    assert result["chi_eq"] == g.n
    assert proper_and_equitable(g, result["coloring"], g.n)
    monkeypatch.setattr(solver, "_capped_greedy", raising_on_call(greedy, 1))
    assert main(["solve", str(path)]) == 130
    assert "status:          INTERRUPTED" in capsys.readouterr().out


def test_bench_and_verify_stop_on_interrupt(tmp_path, monkeypatch, capsys):
    """Ctrl-C ends a campaign or a cross-check: no interrupted solve is
    written as a row or reported as a timeout."""
    prune = solver.comb_prune
    out = tmp_path / "bench.csv"
    monkeypatch.setattr(solver, "comb_prune", raising_on_call(prune, 1))
    assert main(
        [
            "bench", "--n", "20", "--p", "0.5", "--count", "2",
            "--algos", "comb", "--out", str(out),
        ]
    ) == 130
    with open(out) as fh:
        assert list(csv.DictReader(fh)) == []
    monkeypatch.setattr(solver, "comb_prune", raising_on_call(prune, 1))
    assert main(["verify", "--gnp", "20", "0.5", "1"]) == 130
    assert "TIMEOUT" not in capsys.readouterr().out


def test_bench_keeps_finished_rows_on_interrupt(tmp_path, monkeypatch, capsys):
    """Ctrl-C during a later solve keeps the rows of the solves that
    finished before it, in campaign order, and their aggregate."""
    prune = solver.comb_prune
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return prune(*args)

    bench = ["bench", "--n", "20", "--p", "0.5", "--algos", "std", "comb"]
    finished = tmp_path / "finished.csv"
    monkeypatch.setattr(solver, "comb_prune", counted)
    assert main(bench + ["--count", "2", "--out", str(finished)]) == 0
    # the first call of the third instance's comb solve
    monkeypatch.setattr(solver, "comb_prune", raising_on_call(prune, calls + 1))
    out = tmp_path / "bench.csv"
    assert main(bench + ["--count", "4", "--out", str(out)]) == 130
    assert capsys.readouterr().err == "interrupted\n"

    def read(path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    rows = read(out)
    # the third instance's std row, then nothing of the interrupted solve
    assert [(r["index"], r["variant"]) for r in rows] == [
        ("0", "std"), ("0", "comb"), ("1", "std"), ("1", "comb"), ("2", "std"),
    ]
    drop_time = [{k: v for k, v in r.items() if k != "time_s"} for r in rows]
    assert drop_time[:4] == [
        {k: v for k, v in r.items() if k != "time_s"} for r in read(finished)
    ]
    with open(tmp_path / "bench.agg.csv") as fh:
        agg = list(csv.reader(fh))
    recomputed = [[str(x) for x in row] for row in cli.aggregate_rows(rows, 3600.0)]
    assert agg[1:] == recomputed
    assert [(row[2], row[4]) for row in agg[1:]] == [("comb", "0"), ("std", "0")]


def test_solve_timeout_exit_two(tmp_path, capsys):
    hard = tmp_path / "hard.col"
    hard.write_text(write_dimacs(gen_gnp(60, 0.5, 3)))
    rc = main(["solve", str(hard), "--algo", "std", "--time-limit", "0.05"])
    out = capsys.readouterr().out
    if rc == 2:
        assert "TIMEOUT" in out
    else:
        assert rc == 0


def test_bench_rows_and_agreement(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(
        [
            "bench", "--n", "10", "--p", "0.5", "--count", "5",
            "--seed", "42", "--out", str(out),
        ]
    )
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15  # 5 instances x 3 variants
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row["index"], set()).add(row["chi_eq"])
    assert all(len(v) == 1 for v in by_instance.values())


def test_bench_aggregate_matches_recomputation(tmp_path):
    out = tmp_path / "bench.csv"
    data_path, agg_path = run_bench(str(out), [8, 9], [0.3, 0.7], count=3, seed=9)
    with open(data_path) as fh:
        rows = list(csv.DictReader(fh))
    with open(agg_path) as fh:
        agg = list(csv.reader(fh))
    assert agg[0] == ["n", "p", "variant", "avg_time", "timeouts", "avg_nodes"]
    recomputed = [[str(x) for x in row] for row in aggregate_rows(rows, 3600.0)]
    assert recomputed == agg[1:]


def test_aggregate_counts_a_timeout_at_the_limit():
    """A timed-out run adds the time limit, not its own time, to
    `avg_time` and leaves `avg_nodes`; a cell whose runs all timed out
    gets an empty `avg_nodes`."""

    def row(n, variant, time_s, nodes, timed_out):
        return {"n": str(n), "p": "0.5", "variant": variant, "time_s": time_s,
                "nodes": str(nodes), "timed_out": str(timed_out)}

    rows = [
        row(10, "std", "1.0", 100, 0),
        row(10, "std", "0.5", 999, 1),
        row(10, "std", "2.0", 300, 0),
        row(12, "comb", "0.2", 7, 1),
        row(12, "comb", "0.3", 9, 1),
    ]
    assert aggregate_rows(rows, 6.0) == [
        [10, "0.5", "std", f"{(1.0 + 6.0 + 2.0) / 3:.6f}", 1, "200.0"],
        [12, "0.5", "comb", "6.000000", 2, ""],
    ]


def test_bench_aggregate_orders_p_by_value(tmp_path):
    """p = 0.00005 is written as 5e-05, which sorts after 0.5 as a string;
    the aggregate still puts its cells first."""
    out = tmp_path / "bench.csv"
    argv = ["bench", "--n", "6", "--p", "0.5", "0.00005", "--count", "1"]
    assert main(argv + ["--algos", "std", "--out", str(out)]) == 0
    with open(tmp_path / "bench.agg.csv") as fh:
        agg = list(csv.reader(fh))
    assert [row[1] for row in agg[1:]] == ["5e-05", "0.5"]


def test_bench_replay_identical_modulo_time(tmp_path):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"bench_{tag}.csv"
        run_bench(str(out), [9], [0.4, 0.6], count=4, seed=77)
        paths.append(out)
    stripped = []
    for p in paths:
        with open(p) as fh:
            rows = list(csv.DictReader(fh))
        stripped.append([{k: v for k, v in row.items() if k != "time_s"} for row in rows])
    assert stripped[0] == stripped[1]


def test_bench_unwritable_out_fails_before_any_solve(monkeypatch, tmp_path, capsys):
    """An --out that cannot be opened ends the campaign before its first
    solve, not after all of them."""
    real_solve = cli.solve
    calls = 0

    def solve(g, cfg):
        nonlocal calls
        calls += 1
        return real_solve(g, cfg)

    monkeypatch.setattr(cli, "solve", solve)
    out = tmp_path / "missing" / "x.csv"
    argv = ["bench", "--n", "20", "--p", "0.5", "--count", "3", "--out", str(out)]
    assert main(argv) == 1
    assert calls == 0
    assert capsys.readouterr().err.startswith("error: ")


def test_instance_seed_stable_and_spread():
    assert instance_seed(1, 40, 0.5, 0) == instance_seed(1, 40, 0.5, 0)
    seen = {
        instance_seed(base, n, p, i)
        for base in (0, 1)
        for n in (30, 40)
        for p in (0.1, 0.5)
        for i in range(5)
    }
    assert len(seen) == 40


def test_run_bench_rejects_a_bad_campaign_before_any_file(tmp_path):
    """A bad count, variant or p raises ValueError before either CSV
    file is created."""
    out = str(tmp_path / "bench.csv")
    for change in ({"count": 0}, {"variants": ("std", "turbo")}, {"p_list": [0.5, 1.5]}):
        campaign = {"n_list": [5], "p_list": [0.5], "count": 1, "seed": 1, **change}
        with pytest.raises(ValueError):
            run_bench(out, **campaign)
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "change",
    [
        {"n_list": []},
        {"p_list": []},
        {"variants": ()},
        {"variants": ("std", "comb", "std")},
        {"n_list": [5, 5]},
        {"p_list": [0.5, 0.5]},
        {"p_list": [0.5, 0.50000001]},
    ],
)
def test_run_bench_rejects_an_empty_or_repeated_campaign(tmp_path, change):
    """A campaign with no n, no p or no variant would write bare headers,
    and a repeated variant, n or p would write each of its rows twice and
    average them in one cell. p repeats when the CSV would record it the
    same (`f"{p:g}"`)."""
    out = str(tmp_path / "bench.csv")
    campaign = {"n_list": [5], "p_list": [0.5], "count": 1, "seed": 1, **change}
    with pytest.raises(ValueError):
        run_bench(out, **campaign)
    assert list(tmp_path.iterdir()) == []


def test_verify_ok_paths_and_gnp(tmp_path, capsys):
    star12 = tmp_path / "star12.col"
    star12.write_text(write_dimacs(star(12)))
    k6 = tmp_path / "k6.col"
    k6.write_text(write_dimacs(complete(6)))
    rc = main(["verify", str(star12), str(k6), "--gnp", "8", "0.5", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK       star12.col  chi_eq=7" in out
    assert "chi_eq=6" in out
    assert out.count("OK") == 5


def test_verify_skips_oracle_beyond_cap(tmp_path, capsys):
    big = tmp_path / "big.col"
    big.write_text(write_dimacs(star(14)))
    rc = main(["verify", str(big)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "beyond oracle cap" in out


def _time_out(monkeypatch, variants):
    """Make `verify`'s solves of the given variants report a timeout."""
    real_solve = cli.solve

    def solve(g, cfg):
        sol, stats = real_solve(g, cfg)
        if cfg.variant in variants:
            sol = Solution(sol.chi_eq, sol.coloring, optimal=False)
        return sol, stats

    monkeypatch.setattr(cli, "solve", solve)


def test_verify_reports_one_engine_timeout(monkeypatch, capsys):
    """A timeout is not a disagreement: the line names the engine that
    timed out, keeps the proven value and exits 2, as `solve` does."""
    _time_out(monkeypatch, {"flow"})
    rc = main(["verify", "--gnp", "8", "0.5", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    lines = captured.out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert line.startswith("TIMEOUT  gnp(n=8,p=0.5,#")
        assert "timed_out=flow chi_eq=" in line
    assert "2 instance(s) timed out" in captured.err


def test_verify_reports_all_engines_timing_out(monkeypatch, capsys):
    _time_out(monkeypatch, {"std", "flow", "comb"})
    rc = main(["verify", "--gnp", "13", "0.5", "1"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "MISMATCH" not in out
    assert out.endswith("TIMEOUT  gnp(n=13,p=0.5,#0)  timed_out=comb,flow,std\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["solve", "{col}", "--time-limit", "0"], "time_limit"),
        (["bench", "--n", "5", "--p", "0.5", "--time-limit", "0", "--out", "{csv}"], "time_limit"),
        (["bench", "--n", "5", "--p", "1", "--count", "0", "--out", "{csv}"], "count"),
        (["verify", "--gnp", "5", "0.5", "2", "--time-limit", "0"], "time_limit"),
        (["verify", "--gnp", "x", "0.5", "2"], "invalid literal"),
        (["solve", "{col}", "--time-limit", "nan"], "time_limit"),
        (["bench", "--n", "0", "--p", "0.5", "--count", "1", "--out", "{csv}"], "n must"),
        (["bench", "--n", "5", "--p", "1.5", "--count", "1", "--out", "{csv}"], "p must"),
        (["verify", "--gnp", "9", "0.5", "0"], "count"),
        (["verify", "{col}", "--gnp", "9", "0.5", "-2"], "count"),
        (["bench", "--n", "5", "--p", "0.5", "--algos", "std", "std", "--out", "{csv}"], "repeat"),
        (["bench", "--n", "5", "5", "--p", "0.5", "--out", "{csv}"], "repeat"),
        (["bench", "--n", "5", "--p", "0.5", "0.50", "--out", "{csv}"], "repeat"),
    ],
)
def test_out_of_range_arguments_exit_with_error(
    myciel4_file, tmp_path, capsys, argv, message
):
    """Bad arguments end with one error line before any solve starts,
    not with a traceback."""
    csv_path = tmp_path / "bench.csv"
    argv = [a.format(col=myciel4_file, csv=csv_path) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert not csv_path.exists()


def test_verify_requires_input(capsys):
    rc = main(["verify"])
    assert rc == 1
    assert "nothing to verify" in capsys.readouterr().err


def test_text_json_and_bench_report_the_same_counters(myciel4_file, tmp_path, capsys):
    """Under each algorithm, the text and --json reports of a solve give
    the same value for every field they share, time aside: the text
    lists rule firings as name=count pairs, or 0 when there are none.
    A bench row's nodes and prune counters are those of solve() on the
    row's seeded graph under the row's variant."""
    for algo in ("std", "flow", "comb"):
        assert main(["solve", myciel4_file, "--algo", algo]) == 0
        lines = capsys.readouterr().out.splitlines()
        text = {key: value.strip() for key, value in (line.split(":", 1) for line in lines)}
        assert main(["solve", myciel4_file, "--algo", algo, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        firings = text["rule_firings"]
        text["rule_firings"] = {} if firings == "0" else {
            name: int(count) for name, count in (kv.split("=") for kv in firings.split(","))
        }
        shared = (set(text) & set(report)) - {"time_s"}
        assert shared == {
            "chi_eq", "status", "lower_bound", "nodes", "prunes_deficit",
            "prunes_flow", "prunes_hall", "rule_firings", "flow_solves",
        }
        for key in shared:
            want = report[key] if key in ("status", "rule_firings") else str(report[key])
            assert text[key] == want, (algo, key)

    out = tmp_path / "bench.csv"
    argv = ["bench", "--n", "12", "--p", "0.5", "--count", "1", "--algos", "flow", "comb"]
    assert main(argv + ["--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [row["variant"] for row in rows] == ["flow", "comb"]
    counters = ("nodes", "prunes_deficit", "prunes_flow", "prunes_hall")
    for row in rows:
        assert row["seed"] == str(instance_seed(0, 12, 0.5, 0))
        g = gen_gnp(12, 0.5, int(row["seed"]))
        _, stats = solver.solve(g, solver.SolverConfig(row["variant"]))
        assert [int(row[key]) for key in counters] == [getattr(stats, key) for key in counters]
    # the seeded graph prunes under both engines, each in its own column
    assert rows[0]["prunes_flow"] != "0" and rows[1]["prunes_hall"] != "0"
