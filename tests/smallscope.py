"""The exhaustive small-scope corpus: every plant on the states q0-q2 and
the events a and b, initial state q0, in which q0 reaches every state, each
with each of its three pairs, 4,896 cases in a fixed order.

`corpus()` yields the cases, `synthesize` runs one through
`destx.synthesize`, the route of `destx synthesize`, and `sound` decides
PROBLEM1 for its policy exactly.
"""

import itertools

import destx
from destx import DistinguishabilitySpec, Plant
from destx.automata import DEFAULT_BUDGET
from destx.estimation import _walk

STATES = ("q0", "q1", "q2")
EVENTS = ("a", "b")
SLOTS = [(q, e) for q in STATES for e in EVENTS]


def corpus():
    """The (plant, pair) cases: each of the six (state, event) slots
    undefined or one of the states, in `itertools.product` order, the
    plants in which q0 reaches every state kept, and each plant's pairs in
    `itertools.combinations` order."""
    for targets in itertools.product((None, *STATES), repeat=len(SLOTS)):
        trans = {slot: t for slot, t in zip(SLOTS, targets) if t is not None}
        plant = Plant(STATES, EVENTS, trans, "q0")
        if plant.reach(["q0"]) == set(STATES):
            for pair in itertools.combinations(STATES, 2):
                yield plant, pair


def synthesize(plant, pair):
    """The case's property and the policy that `destx synthesize` writes
    for it at the default budget.  Raises Infeasible or InstanceTooLarge
    where the command exits 4 or 3."""
    prop = DistinguishabilitySpec.of([pair])
    return prop, destx.synthesize(plant, prop)[3]


def sound(policy, prop):
    """Whether the receiver's estimate keeps `prop` after every plant word,
    of any length: the (policy state, brute-force set) keys of
    `estimation._walk`, walked to their fixpoint, each tested on the bases
    of its set."""
    root, successors = _walk(policy, DEFAULT_BUDGET, None)
    seen, work = {root}, [root]
    for key in work:
        if not prop.holds(frozenset(x.base for x in key[1])):
            return False
        for _e, nxt in successors(key):
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return True
