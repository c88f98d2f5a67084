"""Seeded random instances for the cross-check loops.

Plants are rejection-sampled to stay small enough for the brute-force
oracles: few defined events per state, a bounded labeled-state count, and
a bounded number of words up to the depths the checkers explore.
"""

import random

from destx import LabeledState, Plant, Policy, build_labeled_system, shortlex_levels
from destx.labeled import N, Y

EVENTS = ("a", "b", "c")


def transitions(plant: Plant) -> list[tuple[str, str, str]]:
    """The plant's moves (q, e, q2), sorted."""
    return [(q, e, plant.step(q, e)) for q in sorted(plant.states) for e in sorted(plant.defined_events(q))]


def lang_size_capped(plant: Plant, depth: int, cap: int) -> int | None:
    """Number of words of length <= depth, or None once it exceeds cap.

    Counts words per end state, so it never enumerates them."""
    def moves(q):
        return ((e, plant.step(q, e)) for e in sorted(plant.defined_events(q)))

    total = 0
    for _n, level in shortlex_levels(plant.initial, depth, moves):
        total += sum(count for _w, count in level.values())
        if total > cap:
            return None
    return total


def make_labeled(base: str, decisions: dict[str, str]) -> LabeledState:
    """The version of `base` taking decision Y or N on each event given."""
    return LabeledState((base, tuple(sorted(decisions.items()))))


def uniform_policy(plant: Plant, decision: str) -> Policy:
    """Transmit-everything (Y) or suppress-everything (N) policy."""
    version = {
        q: make_labeled(q, {e: decision for e in plant.defined_events(q)})
        for q in plant.states
    }
    trans = {
        (version[q], e): version[p] for (q, e, p) in transitions(plant)
    }
    return Policy(plant, version[plant.initial], trans)


def suppressing_tree(height: int, loop: bool) -> tuple[Plant, Policy]:
    """A binary tree of the given height, the root t moving to t0 on a and
    to t1 on b, node w to w0 and w1 likewise, and a policy that suppresses
    every tree move.  With `loop` the root also loops on c, suppressed on
    its first visit and transmitted after, so the receiver starts out
    holding two versions of the root and one of every other node."""
    nodes = [""]
    for n in range(height):
        nodes += [w + c for w in nodes if len(w) == n for c in "01"]
    trans = {("t" + w, e): "t" + w + c for w in nodes if len(w) < height for e, c in (("a", "0"), ("b", "1"))}
    if loop:
        trans[("t", "c")] = "t"
    plant = Plant(["t" + w for w in nodes], ["a", "b", "c"], trans, "t")
    version = {q: make_labeled(q, {e: N for e in plant.defined_events(q)}) for q in plant.states}
    moves = {(version[q], e): version[q2] for q, e, q2 in transitions(plant)}
    if loop:
        again = make_labeled("t", {"a": N, "b": N, "c": Y})
        moves |= {(again, e): moves[(version["t"], e)] for e in "ab"}
        moves[(version["t"], "c")] = moves[(again, "c")] = again
    return plant, Policy(plant, version["t"], moves)


def random_plant(
    rng: random.Random,
    max_states: int = 5,
    max_events: int = 3,
    max_per_state: int = 2,
    max_labeled: int = 14,
    check_depth: int = 5,
    word_cap: int = 3000,
) -> Plant:
    """One random partial DFA meeting the size constraints."""
    while True:
        n = rng.randint(2, max_states)
        k = rng.randint(1, max_events)
        states = [f"q{i}" for i in range(n)]
        events = list(EVENTS[:k])
        trans = {}
        n_edges = rng.randint(1, min(n * max_per_state, n + 2))
        for _ in range(n_edges):
            q = rng.choice(states)
            e = rng.choice(events)
            trans[(q, e)] = rng.choice(states)
        per_state = {}
        for (q, _e) in trans:
            per_state[q] = per_state.get(q, 0) + 1
        if any(c > max_per_state for c in per_state.values()):
            continue
        labeled = sum(2 ** per_state.get(q, 0) for q in states)
        if labeled > max_labeled:
            continue
        plant = Plant(states, events, trans, "q0")
        if lang_size_capped(plant, check_depth + labeled, word_cap) is None:
            continue
        return plant


def random_live_plant(rng: random.Random) -> Plant:
    """One random DFA of two to five states in which every state defines
    one or two of two or three events, so every word extends and the plant
    has words of every length."""
    states = [f"q{i}" for i in range(rng.randint(2, 5))]
    events = EVENTS[:rng.randint(2, 3)]
    trans = {(q, e): rng.choice(states) for q in states for e in sorted(rng.sample(events, rng.randint(1, 2)))}
    return Plant(states, events, trans, "q0")


def random_policy(rng: random.Random, plant: Plant) -> Policy:
    """Memoryless policy: one random label vector per plant state."""
    versions = {}
    for q in sorted(plant.states):
        decisions = {e: rng.choice((Y, N)) for e in sorted(plant.defined_events(q))}
        versions[q] = make_labeled(q, decisions)
    trans = {
        (versions[q], e): versions[q2] for q, e, q2 in transitions(plant)
    }
    return Policy(plant, versions[plant.initial], trans)


def random_policy_with_memory(rng: random.Random, plant: Plant) -> Policy:
    """Policy over every labeled version of every plant state, each move
    going to a random version of the plant successor, so one plant state
    is met under several label vectors."""
    sys = build_labeled_system(plant)
    versions = {q: [x for x in sys.states if x.base == q] for q in plant.states}
    trans = {
        (x, e): rng.choice(versions[q2])
        for q, e, q2 in transitions(plant)
        for x in versions[q]
    }
    return Policy(plant, rng.choice(versions[plant.initial]), trans)


def flip_to_suppress(rng: random.Random, plant: Plant, policy: Policy):
    """Copy of a memoryless policy with one Y label turned to N, or None if
    the policy already suppresses everything."""
    versions = {x.base: x for x in policy.states}
    flippable = [
        (q, e) for q, x in versions.items() for e in x.events() if x.label(e) == Y
    ]
    if not flippable:
        return None
    q0, e0 = rng.choice(flippable)
    new_versions = {}
    for q, x in versions.items():
        decisions = {e: x.label(e) for e in x.events()}
        if q == q0:
            decisions[e0] = N
        new_versions[q] = make_labeled(q, decisions)
    trans = {
        (new_versions[q], e): new_versions[q2]
        for q, e, q2 in transitions(plant)
    }
    return Policy(plant, new_versions[plant.initial], trans)
