import eqcolor

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
