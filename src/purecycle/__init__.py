"""Exact Hurwitz numbers for genus-0 pure-cycle covers, their braid orbits,
and the characteristic-p reduction counts attached to them."""

from .arith import is_prime
from .errors import BoundExceededError, InvalidTypeError
from .perm import (
    CycleType,
    Perm,
    all_of_type,
    centralizer_elements,
    centralizer_order,
    compose,
    compose_all,
    conjugate,
    cycle_lengths,
    cycles,
    format_cycles,
    from_cycles,
    identity,
    inverse,
    parse_cycles,
)
from .group import (
    GroupReport,
    StabilizerChain,
    cycle_type_census,
    group_analyze,
    is_transitive,
    load_generators,
)
from .hurwitz import (
    HurwitzFactorization,
    RamificationType,
    canonical_form,
    enumerate_factorizations,
    factorization_from_json,
    factorization_to_json,
    galois_factor,
    hurwitz_formula_badtype,
    hurwitz_formula_pure4,
    hurwitz_number_brute,
    monodromy_classify,
)
from .braid import (
    AdmissibleCoverType,
    BraidOrbit,
    NodeClass,
    admissible_enumerate_char0,
    braid_orbits,
    braid_q3,
    degenerate,
)
from .charp import (
    AutOrders,
    ReductionCount,
    TailInvariants,
    admissible_reduction_census,
    bad_count_2cycle,
    good_degeneration,
    n_prime_tau_star,
    p_hurwitz_3pt_badtype,
    p_hurwitz_pure4,
    signature_check,
    single_cycle_node_bad_general,
    tail_aut_orders,
    tail_invariants,
    three_point_good_reduction,
    wewers_lift_count,
)
from .fppoly import (
    FpPoly,
    KummerData,
    RamificationProfile,
    cartier_coefficient,
    fp_roots,
    irreducible_factor_degrees,
    lucas_binomial,
    ramification_profile,
    supersingular_lambdas,
    tail_polynomial_cofactor,
    tail_polynomial_double,
    tail_polynomial_single,
)

__version__ = "0.1.0"
