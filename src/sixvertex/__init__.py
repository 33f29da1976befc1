"""Exact computational toolkit for the six-vertex model as a Holant problem:
partition functions on 4-regular multigraphs, the tractable/#P-hard
classifier, polynomial solvers for every tractable class, and mechanical
verification of the gadget and interpolation constructions.
"""

from .scalar import (
    Scalar,
    approx_complex,
    format_scalar,
    parse_scalar,
    ratio_power_of_i,
)
from .signature import (
    Signature,
    SixVertexParams,
    compose,
    from_six_vertex,
    holographic_transform,
    matrix_view,
    permute_variables,
    six_vertex_params,
)
from .grid import Port, SignatureGrid, build_torus, validate
from .evaluate import (
    EvalResult,
    brute_force_eval,
    count_eulerian_orientations,
    eval_bipartite_equality,
)
from .contract import ContractionPlan, contract_eval, plan_contraction
from .classify import Classification, classify, in_A, in_P, one_zero_each_pair
from .solvers import SolveResult, solve, solve_A, solve_M, solve_P
from .gadgets import (
    chain_D,
    closed_form_D,
    hardness_determinant,
    mnm_product,
    one_zero_chain,
    two_zero_product,
)
from .interpolate import (
    ExponentLattice,
    InterpolationInstance,
    compute_lattice,
    interpolation_solve,
)
from .cspreduce import CspInstance, csp_brute_force, csp_reduction

__version__ = "0.1.0"
