"""qgames: classical, correlated, and entangled-referee analysis of 2x2 games."""

from .distributions import (
    Dist,
    MixedProfile,
    embed_pure,
    expectation,
    g_mix,
    product,
    pushforward,
    realizable,
)
from .equilibria import (
    EquilibriumReport,
    MixedEquilibrium,
    mixed_nash_2x2,
    security_level,
    security_scan,
    verify_classical_eq,
    verify_quantum_eq,
)
from .ewl import (
    EwlConfig,
    HaarMixture,
    QuantumMixture,
    check_complete,
    check_proper,
    classical_unitary,
    entangler,
    g_mq,
    g_q,
    outcome_dist_mq,
    point_mixture,
    protocol_state,
)
from .games import (
    Game,
    best_replies,
    chicken,
    dominance,
    is_nash,
    load_game,
    prisoners_dilemma,
    pure_nash_all,
    simplified_poker,
)
from .mediated import (
    ResponseRule,
    aumann_check,
    ce_optimize,
    embed_f,
    g_com,
    is_correlated_eq,
    referee_dist,
)
from .quantum import (
    FLIP2,
    IDENTITY2,
    Superposition,
    Unitary2,
    apply2,
    haar_su2,
    measure,
    normalize,
    su2_from_angles,
    tensor,
)

__version__ = "0.1.0"
