"""qgames: classical, correlated, and entangled-referee analysis of 2x2 games.

The names below are imported from their modules on first use (PEP 562), so
that ``import qgames`` loads numpy only when a numeric name is asked for.
"""

import importlib

_EXPORTS = {
    "distributions": "Dist MixedEquilibrium MixedProfile embed_pure expectation g_mix"
    " mixed_nash_2x2 product pushforward realizable",
    "equilibria": "EquilibriumReport security_level security_scan verify_classical_eq"
    " verify_quantum_eq",
    "ewl": "EwlConfig HaarMixture QuantumMixture check_complete check_proper entangler g_mq g_q"
    " outcome_dist_mq protocol_state",
    "games": "Game chicken dominance is_nash load_game prisoners_dilemma pure_nash_all"
    " simplified_poker",
    "mediated": "ResponseRule aumann_check ce_optimize embed_f g_com is_correlated_eq referee_dist",
    "quantum": "FLIP2 IDENTITY2 Superposition Unitary2 measure su2_from_angles",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_MODULE_OF])
