"""Sensor-scheduling synthesis for discrete-event systems.

Given a finite-state plant and a set of state pairs the receiver must always
be able to tell apart, the toolkit builds the space of feasible transmission
choices, prunes it down to the property-preserving core, extracts a concrete
per-history transmit/suppress policy, and independently verifies the result
by brute force.

The package imports a submodule on first access to one of its names, so a
command-line call compiles only the modules its command runs.
"""

from importlib import import_module

_EXPORTS = {
    "automata": "EPSILON Plant Word explore load_plant parse_des render_word shortlex_levels word",
    "errors": "AlphabetTooLarge DestxError Infeasible InstanceTooLarge StateBudgetExceeded",
    "estimation": "CheckReport Estimator check_estimate_agreement check_property_satisfaction "
    "check_tracker_containment verify",
    "labeled": "LabeledState LabeledSystem ObserverState build_labeled_system parse_labeled unobservable_reach",
    "observer": "DynamicObserver build_observer closure_family observer_step",
    "oracle": "closure_family_bruteforce",
    "properties": "DistinguishabilitySpec distinguishability load_pairs",
    "realization": "DeterministicSchedule Policy format_policy load_policy parse_policy realize_policy",
    "synthesis": "consistency_fixpoint count_nontransmitted extract_min_transmit "
    "prune_violating synthesize",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_OWNER])


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_OWNER.get(name, name)}")
    globals()[name] = value = getattr(module, name) if name in _OWNER else module
    return value


def __dir__():
    return sorted({*__all__, *globals()} - {"import_module", "_EXPORTS", "_OWNER", "__getattr__", "__dir__"})
