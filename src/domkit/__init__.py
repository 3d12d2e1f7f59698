"""domkit: exact domination-family graph parameters, 3SAT gadget reductions,
and machine verification of the reduction facts.
"""

from .cnf import (
    Assignment,
    CnfInstance,
    evaluate,
    parse_dimacs,
    random_instance,
    solve_sat,
    to_dimacs,
)
from .domination import (
    DomResult,
    domination_number,
    enumerate_minimum_sets,
    is_dominating_set,
    is_total_dominating_set,
    total_domination_number,
)
from .graph import Graph
from .perturbation import (
    PerturbResult,
    bondage_number,
    reinforcement_number,
    total_bondage_number,
    total_reinforcement_number,
)
from .reductions import (
    GadgetWitness,
    ReductionKind,
    ReductionOutput,
    assignment_to_witness,
    build,
    build_bondage,
    build_reinforcement,
    build_total_bondage,
    build_total_reinforcement,
    roles_to_text,
    witness_to_assignment,
)
from .verify import (
    ClaimCheck,
    VerificationReport,
    fuzz,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ClaimCheck",
    "CnfInstance",
    "DomResult",
    "GadgetWitness",
    "Graph",
    "PerturbResult",
    "ReductionKind",
    "ReductionOutput",
    "VerificationReport",
    "assignment_to_witness",
    "bondage_number",
    "build",
    "build_bondage",
    "build_reinforcement",
    "build_total_bondage",
    "build_total_reinforcement",
    "domination_number",
    "enumerate_minimum_sets",
    "evaluate",
    "fuzz",
    "is_dominating_set",
    "is_total_dominating_set",
    "parse_dimacs",
    "random_instance",
    "reinforcement_number",
    "roles_to_text",
    "solve_sat",
    "to_dimacs",
    "total_bondage_number",
    "total_domination_number",
    "total_reinforcement_number",
    "verify",
    "witness_to_assignment",
]
