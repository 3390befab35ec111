"""Discrete optimal transport, multimarginal and martingale transport.

Linear-programming primals and duals with certificates: Kantorovich and
Kantorovich-Rubinstein duality, c-convexification, convex-order testing,
fan-martingale decompositions, martingale transport duals, simplex-inequality
function classes, extension operators and uniform convexity certification.
"""

from .errors import *  # noqa: F401,F403
from .measures import (  # noqa: F401
    Coupling,
    CostSpec,
    DiscreteMeasure,
    MultiCost,
    MultiCoupling,
    barycenter,
    dirac,
    evaluate_cost,
    integrate,
    marginals,
    new_measure,
)
from .lp import (  # noqa: F401
    LinearProgram,
    LpSolution,
    check_feasibility,
    solve,
)
from .ot import (  # noqa: F401
    KrPotential,
    MultiPotentials,
    Potentials,
    TightSet,
    c_transform,
    kantorovich_dual,
    kantorovich_primal,
    kr_dual,
    kr_tight_check,
    multi_c_convexify,
    multimarginal_dual,
    multimarginal_primal,
    normalize_potentials,
    tight_support_report,
)
from .convex_order import (  # noqa: F401
    ConvexWitness,
    Fan,
    FanRepresentation,
    OrderCertificate,
    choquet_represent,
    convex_order_check,
    disintegrate,
    fan_decompose,
    is_extreme_pair,
    representation_cost,
    strassen_coupling,
)
from .mot import (  # noqa: F401
    GammaDual,
    GammaResult,
    SimplexWitness,
    SymmetricDual,
    bclass_generate,
    extend,
    gamma_certify,
    mot_dual,
    mot_dual_symmetric,
    mot_primal,
    mti_check,
    mti_second_order_check,
    mti_violation,
    simplex_inequality_check,
    simplex_violation,
    uniform_convexity_certify,
    uniform_smoothness_certify,
)
from .functions import (  # noqa: F401
    Box,
    FunctionEvaluator,
    Grid,
    ModulusSpec,
)

__version__ = "0.1.0"
