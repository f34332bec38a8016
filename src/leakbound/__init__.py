"""Exact leakage measures, minimal couplings, and bounds for discrete
Bayesian networks.

All probabilities are rationals; every coupling identity and bound is
checked with exact arithmetic, and logarithms appear only at the
reporting boundary.
"""

from .bayesnet import (
    BayesNet,
    NodeSpec,
    composite_channel,
    composite_joints,
    joint_distribution,
    topological_sort,
    validate,
)
from .bounds import (
    BoundReport,
    coupling_bound,
    doeblin_bound,
    exact_tau_max,
    query_report,
    recursive_bound,
    subadditivity_baseline,
)
from .couplings import (
    Coupling,
    Mixture,
    MixtureWeights,
    N4Ingredients,
    build_n4_coupling,
    independent_coupling,
    maximal_coupling_pair,
    n4_condition,
    n4_ingredients,
    three_way_coupling,
    union_mass,
    verify_intersection_property,
)
from .errors import (
    CapacityError,
    ConstructionError,
    InfeasibleError,
    LeakboundError,
    NetworkFormatError,
    PreconditionError,
)
from .lp import LpResult, min_union_coupling, min_union_coupling_diag
from .measures import (
    DiscreteChannel,
    JointPmf,
    MeasureSet,
    Pmf,
    doeblin,
    make_erasure,
    make_q_ary_symmetric,
    maximal_leakage,
    measure_set,
    tau_max,
    tau_max2,
    tau_pair,
    tau_subset,
    tau_trip,
    total_variation,
)
from .simultaneous import (
    Feasibility,
    SimulCoupling,
    build_simultaneous_coupling,
    coupling_feasibility,
    coupling_penalty,
    f_quantity,
    minimal_y_coupling,
    y_union_mass,
)

__version__ = "0.1.0"
