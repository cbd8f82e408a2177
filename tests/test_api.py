"""The public API: the exact set of exported names, each resolvable and documented."""

import inspect

import pytest

import netgames

# Adding or removing a public name is deliberate: update this list with the README.
PUBLIC_NAMES = [
    "ActionProfile",
    "AdjacencyMatrix",
    "Certificate",
    "CoincidenceCheck",
    "DesignProblem",
    "DesignRun",
    "DesignSolution",
    "DeterminantReport",
    "DimensionMismatch",
    "EquilibriumResult",
    "ErConfig",
    "GameFileError",
    "GammaFamily",
    "InfeasibleDesign",
    "InsufficientData",
    "IrReport",
    "LipschitzCheck",
    "MaxItersExceeded",
    "NetgamesError",
    "NetworkGame",
    "NoConvergence",
    "NoSolutionFound",
    "NotAnEquilibrium",
    "PlayerRationality",
    "PublicGoodsGame",
    "ScanCounts",
    "SingularSystem",
    "SingularityStats",
    "StepSelectionFailed",
    "SweepConfig",
    "SweepReport",
    "SweepRow",
    "WeightLaw",
    "aggregate",
    "all_certificates",
    "build_gamma_matrix",
    "cert_block_p",
    "cert_continuity",
    "cert_gamma_p_matrix",
    "cert_gershgorin",
    "cert_strong_monotone",
    "check_coincidence",
    "coincidence_feasibility_scan",
    "cost_lq",
    "design_solve",
    "four_player_symmetric_example",
    "grad_F",
    "grad_W",
    "ir_check",
    "lipschitz_check",
    "load_game",
    "load_pattern",
    "load_problem",
    "necessary_condition_det",
    "parse_game",
    "parse_pattern",
    "parse_problem",
    "potential_check",
    "sample_er",
    "save_game",
    "save_problem",
    "singularity_stats",
    "social_cost",
    "solve_ne_interior",
    "solve_ne_pg",
    "solve_social_interior",
    "solve_social_pg",
    "solve_vi",
    "sweep",
    "symmetric_design",
]


def test_all_is_pinned():
    assert sorted(netgames.__all__) == PUBLIC_NAMES
    assert len(set(netgames.__all__)) == len(netgames.__all__)


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_resolves_and_is_documented(name):
    obj = getattr(netgames, name)
    assert inspect.isclass(obj) or inspect.isfunction(obj), f"{name} is neither"
    doc = obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__
    assert doc and doc.strip(), f"{name} has no docstring"
    # a dataclass without a docstring gets its signature as __doc__
    assert not doc.startswith(f"{name}("), f"{name} has only the generated docstring"
