import copy
import importlib.util
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import eqcolor
from eqcolor import SearchStats, Solution, SolverConfig, gen_gnp, solve
from eqcolor import cli
from eqcolor.solver import VARIANTS

PUBLIC = {
    "DimacsError",
    "Graph",
    "SearchStats",
    "Solution",
    "SolverConfig",
    "gen_gnp",
    "parse_dimacs",
    "solve",
    "write_dimacs",
}


def test_public_names_pinned_and_resolve():
    assert set(eqcolor.__all__) == PUBLIC
    assert len(eqcolor.__all__) == len(PUBLIC)
    for name in PUBLIC:
        assert getattr(eqcolor, name) is not None


def test_solver_config_has_three_fields():
    assert list(vars(eqcolor.SolverConfig())) == [
        "variant",
        "time_limit",
        "cd_stride",
    ]


# (class, positional arguments, the same by keyword, another value)
RESULT_TYPES = [
    (
        SolverConfig,
        ("comb", 60.0, 2),
        {"variant": "comb", "time_limit": 60.0, "cd_stride": 2},
        SolverConfig("flow", 60.0, 2),
    ),
    (
        SearchStats,
        (7, 1, 2, 3, {"negative": 4}, 5, 3, 0.5, True, False),
        {
            "nodes": 7,
            "prunes_deficit": 1,
            "prunes_flow": 2,
            "prunes_hall": 3,
            "rule_firings": {"negative": 4},
            "flow_solves": 5,
            "k_lower": 3,
            "elapsed": 0.5,
            "timed_out": True,
            "interrupted": False,
        },
        SearchStats(nodes=8),
    ),
    (
        Solution,
        (3, [0, 1, 2], True),
        {"chi_eq": 3, "coloring": [0, 1, 2], "optimal": True},
        Solution(3, [0, 1, 2], False),
    ),
]


@pytest.mark.parametrize(
    "cls, args, kwargs, other", RESULT_TYPES, ids=[t[0].__name__ for t in RESULT_TYPES]
)
def test_result_types_are_plain_value_classes(cls, args, kwargs, other):
    """Each public result type builds positionally and by keyword into the
    same fields, in declaration order, and keeps a dataclass's repr,
    equality and pickle/copy round trips."""
    obj = cls(*args)
    assert obj == cls(**kwargs)
    assert vars(obj) == kwargs and list(vars(obj)) == list(kwargs)
    fields = ", ".join(f"{k}={v!r}" for k, v in kwargs.items())
    assert repr(obj) == f"{cls.__name__}({fields})"
    assert obj != other and other != obj
    assert obj != tuple(args) and obj.__eq__(tuple(args)) is NotImplemented
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is cls and twin == obj and twin is not obj
    with pytest.raises(TypeError):
        hash(obj)


def test_result_type_defaults():
    assert vars(SolverConfig()) == {"variant": "std", "time_limit": 3600.0, "cd_stride": 1}
    stats = SearchStats()
    counters = [v for k, v in vars(stats).items() if k != "rule_firings"]
    assert counters == [0] * 6 + [0.0, False, False]
    # each instance gets its own counter dict
    assert stats.rule_firings == {} and stats.rule_firings is not SearchStats().rule_firings


def test_run_bench_defaults(monkeypatch, tmp_path):
    """Unless told otherwise, a campaign solves each instance under all
    three variants, in `VARIANTS` order, with a 3,600 s limit."""
    configs = []

    def spy(g, cfg):
        configs.append(cfg)
        return solve(g, cfg)

    monkeypatch.setattr(cli, "solve", spy)
    cli.run_bench(str(tmp_path / "bench.csv"), [6], [0.5], count=1, seed=0)
    assert configs == [SolverConfig(v, 3600.0) for v in VARIANTS]


def test_import_loads_no_dataclasses_or_inspect():
    """`import eqcolor` and `import eqcolor.cli` stay cold: neither loads
    `dataclasses` nor `inspect`, whose import chain would be most of the
    package's import time. A fresh interpreter, since pytest itself has
    both loaded."""
    src = str(Path(eqcolor.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import eqcolor, eqcolor.cli; "
        "assert eqcolor.__file__.startswith(sys.argv[1]), eqcolor.__file__; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_search_state_and_hall_snapshot_slots_pinned():
    """A Hall context is only the child's snapshot: no rule leaves state
    on it for another. A partial coloring is only the search state, and
    it keeps no color list: `coloring()` replays the trail's moves."""
    from eqcolor.coloring import PartialColoring
    from eqcolor.hallrules import HallContext

    assert HallContext.__slots__ == (
        "k0",
        "floor_size",
        "ceil_size",
        "class_sizes",
        "uncolored",
        "free",
        "residual",
        "cliques",
    )
    assert PartialColoring.__slots__ == (
        "n",
        "class_size",
        "uncolored_mask",
        "free_mask",
        "adj_mask",
        "sat",
        "k_used",
        "M",
        "M_count",
        "_trail",
    )


def test_oracle_holds_no_literal_network():
    import eqcolor.oracle

    moved = [
        "_max_flow",
        "FlowNetwork",
        "build_network",
        "feasible_flow",
        "extract_coloring",
        "HoffmanViolation",
        "_network_tables",
        "hoffman_slack",
        "enumerate_hoffman",
    ]
    assert [name for name in moved if hasattr(eqcolor.oracle, name)] == []


def test_oracle_has_no_limits_object():
    """The oracle's size cap is the module constant `MAX_N`."""
    import eqcolor.oracle

    assert [n for n in ("OracleLimits", "DEFAULT_LIMITS") if hasattr(eqcolor.oracle, n)] == []


def test_benchmark_trace_finds_the_names_it_reads():
    """The benchmark's layer trace (`perfbench/layers.py`) wraps package
    names looked up by string and reads `residual` and `covered()` of every
    decomposition it times, so deleting one of them breaks the trace, not
    the search. Its two flow targets name helpers that are already gone."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    tracer.install()
    try:
        g = gen_gnp(20, 0.5, 1)
        for variant in VARIANTS:
            solve(g, SolverConfig(variant=variant))
    finally:
        tracer.uninstall()
    assert tracer.missing.keys() <= {"flownet.greedy", "flownet.exact"}
    for key in ("decomposition.root", "decomposition.find", "decomposition.restrict"):
        assert tracer.counts[key, "covered"] > 0, key
