"""Sensor-scheduling synthesis for discrete-event systems.

Given a finite-state plant and a set of state pairs the receiver must always
be able to tell apart, the toolkit builds the space of feasible transmission
choices, prunes it down to the property-preserving core, extracts a concrete
per-history transmit/suppress policy, and independently verifies the result
by brute force.
"""

from .automata import EPSILON, Plant, Word, explore, load_plant, parse_des, render_word, shortlex_levels, word
from .errors import (
    AlphabetTooLarge,
    DestxError,
    Infeasible,
    InstanceTooLarge,
    MissingSuccessor,
    ParseError,
    PolicyIncomplete,
    StateBudgetExceeded,
    UndefinedEvent,
    UnknownInitial,
    UnknownState,
    WordNotInPlant,
)
from .estimation import (
    CheckReport,
    Estimator,
    TraceSession,
    check_estimate_agreement,
    check_property_satisfaction,
    check_tracker_containment,
)
from .labeled import (
    LabeledState,
    LabeledSystem,
    build_labeled_system,
    parse_labeled,
    unobservable_reach,
)
from .observer import (
    DynamicObserver,
    ObserverState,
    build_observer,
    closure_family,
    closure_family_bruteforce,
    observer_step,
    reach_closed,
)
from .properties import (
    DistinguishabilitySpec,
    distinguishability,
    load_pairs,
)
from .realization import (
    Policy,
    format_policy,
    load_policy,
    parse_policy,
    rank,
    realize_policy,
)
from .synthesis import (
    DeterministicSchedule,
    consistency_fixpoint,
    count_nontransmitted,
    extract_min_transmit,
    prune_violating,
)

__all__ = [name for name in dir() if not name.startswith("_")]
