import importlib.util
from pathlib import Path

import eqcolor
from eqcolor import SolverConfig, gen_gnp, solve
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
    from dataclasses import fields

    assert [f.name for f in fields(eqcolor.SolverConfig)] == [
        "variant",
        "time_limit",
        "cd_stride",
    ]


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
        "barred",
        "residual",
        "cliques",
    )
    assert PartialColoring.__slots__ == (
        "n",
        "class_size",
        "uncolored_mask",
        "barred_mask",
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
