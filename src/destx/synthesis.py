"""Feasible-estimate pruning and greedy schedule extraction.

Stage one cuts every observer state whose estimate violates the property,
then repeatedly removes states that lost a transition the full observer
had: a receiver sitting in such a state could be forced into a violating
estimate by the next transmission.  What survives, trimmed once to what the
surviving initials reach, is the largest observer fragment within which
every transmission choice keeps the property.  `synthesize` builds the
observer on a system that carries the property, so the violating estimates
are never formed and the first cut is the identity; whether the full
observer had a transition is read off the estimate itself.

Stage two scores the sub-automaton each surviving initial reaches, picks
one root, and walks from it committing to a single successor per (state,
event), preferring successors that let the policy suppress more, measured
by how many members carry a suppressed move staying in the set.

Every walk here, like the observer's own construction, is
`automata.explore`: the pruned fragments restrict the full observer's step
to the kept states, a sub-automaton is the fragment one root reaches, and
the schedule is the walk whose step commits to one successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .automata import explore
from .errors import Infeasible, UnknownInitial
from .labeled import N, LabeledSystem
from .observer import DynamicObserver, ObserverState, targets
from .properties import DistinguishabilitySpec


def _restrict_reachable(obs: DynamicObserver, keep) -> DynamicObserver:
    """The part of `obs` inside the set `keep` that its kept initials reach."""
    initials = [z for z in obs.initials if z in keep]
    states, trans = explore(
        initials, obs.sys.plant.alphabet,
        lambda z, e: tuple(t for t in obs.successors(z, e) if t in keep),
    )
    return DynamicObserver(obs.sys, states, initials, trans)


def prune_violating(obs: DynamicObserver, prop: DistinguishabilitySpec) -> DynamicObserver:
    """Drop estimate states that violate the property, re-trim to reachable."""
    return _restrict_reachable(obs, {z for z in obs.states if prop.holds(z.underlying())})


def consistency_fixpoint(full: DynamicObserver, g0: DynamicObserver) -> DynamicObserver:
    """Remove inconsistent states until none is left, then trim once.

    A kept state is inconsistent when the full observer can continue on some
    event but none of those successors is kept: the plant can force the
    receiver out of the kept fragment.  Removals repeat until stable over
    the states of `g0`, and the result is what the kept initials of `g0`
    reach inside what is left.  That equals trimming to the reachable part
    after every removal: whether a state is removed depends only on which
    of its successors are kept, and a kept successor of a reachable kept
    state is itself reachable, so the states a trim would drop never decide
    the removal of a state that stays reachable.  The result may have no
    initial state; that is the synthesis-level "no feasible policy" signal,
    reported by `extract_min_transmit` as Infeasible.

    `full` is not read, so `g0` may come from a system built with the
    property: the full observer has a successor on (z, e) exactly when some
    member of z labels e `Y`.  Its successors are the admissible estimates
    over the set T of plant states z's members transmit e into, so none
    when T is empty.  Otherwise the versions of T's states that label every
    event `Y` suppress nothing, so each is the one-node range of itself and
    their union is reach closed: it is an estimate over T.
    """
    plant = g0.sys.plant
    keep = set(g0.states)
    while True:
        bad = {
            z for z in keep
            if any(keep.isdisjoint(g0.successors(z, e)) for e in plant.alphabet if targets(plant, z, e))
        }
        if not bad:
            return _restrict_reachable(g0, keep)
        keep -= bad


def count_nontransmitted(sys: LabeledSystem, z: ObserverState, mode: str = "default") -> int:
    """How many members of `z` own a transition that stays inside `z`.

    Default mode requires the event to be suppressed at the member, which is
    what makes the count a proxy for "events the receiver will not see".
    The unlabeled mode ignores the label and is kept for comparison.
    """
    return sum(
        any(any(w in z for w in sys.successors(v, e)) for e, lab in v.bits if lab == N or mode != "default")
        for v in z
    )


@dataclass
class DeterministicSchedule:
    """One committed successor per (estimate, event), rooted at one initial."""

    initial: ObserverState
    states: tuple[ObserverState, ...]
    trans: dict[tuple[ObserverState, str], ObserverState]


def extract_min_transmit(
    gstar: DynamicObserver,
    pin_initial: ObserverState | None = None,
    nz_mode: str = "default",
) -> DeterministicSchedule:
    """Greedy suppression-maximizing walk of one sub-automaton.

    Each surviving initial roots the sub-automaton of the states it reaches
    in `gstar`.  The root whose sub-automaton has the highest summed member
    count is chosen (or the pinned one); from it, each (state, event)
    commits to the successor with the highest count.  All ties break toward
    the canonically smallest candidate, so the result is a pure function of
    its inputs.  Each estimate's count is taken once per call, however
    many sub-automata hold it.
    """
    if not gstar.initials:
        raise Infeasible("no estimate survives pruning; the property cannot be enforced")
    sys = gstar.sys
    alphabet = sys.plant.alphabet
    roots = gstar.initials
    if pin_initial is not None:
        if pin_initial not in roots:
            raise UnknownInitial(f"{pin_initial.render()} is not a surviving initial estimate")
        roots = (pin_initial,)
    count = cache(lambda z: count_nontransmitted(sys, z, nz_mode))

    def score(root: ObserverState) -> int:
        states, _ = explore((root,), alphabet, gstar.successors)
        return sum(count(z) for z in states)

    best = max(roots, key=score)  # ties go to the earliest root

    def pick(z: ObserverState, e: str) -> tuple[ObserverState, ...]:
        cands = gstar.successors(z, e)
        return (min(cands, key=lambda t: (-count(t), t.sort_key())),) if cands else ()

    states, trans = explore((best,), alphabet, pick)
    return DeterministicSchedule(
        best,
        tuple(sorted(states, key=ObserverState.sort_key)),
        {key: t for key, (t,) in trans.items()},
    )
