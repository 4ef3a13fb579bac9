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
