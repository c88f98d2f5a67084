"""Receiver-side estimation under a concrete policy, plus bounded checks.

Two independent routes to the receiver's estimate:

* the tracker: a subset construction over the policy's states, built as it
  is stepped by transmitted events, with suppressed-step closure folded in.
  The product of the policy with the labeled plant is diagonal, every
  reachable product state pairing a policy state with itself, so this
  equals the tracker of that product (see `Estimator`);
* brute force: read the estimate straight off the definition, as the end
  states of the plant words, of any length, that the policy projects onto
  the same transmitted word.  The words are not listed one by one: a table
  over distinct (plant state, policy state, projection) triples finds, per
  projection asked for, every triple that such a word reaches, by closing
  the triples one transmitted event past the projection's prefix under the
  steps that keep the projection.

The checks below run over all words up to a depth.  PROP1 checks that each
tracker state is one of the dynamic observer's estimates for its observed
word, without building the observer; THM1 compares the tracker with brute
force, and PROBLEM1 the brute-force estimate with the property.  All three
walk the levels of `shortlex_levels` in `_first_failure`, over the distinct
keys that decide a word's verdict and continuations: (tracker state,
targets) for PROP1, (plant state, policy state, projection) for THM1 and
PROBLEM1.  They are bounded substitutes for the universal statements, not
proofs.  One budget caps the entries of each walk, summed over its levels,
the set unions of PROP1's test of one entry, and the triples of the
brute-force table.  An entry stands for at least one word, so no depth
whose words fit the budget is refused.  The tracker needs no cap of its
own: PROP1 steps it at most once per event of an entry, THM1 once per new
projection and a replay once per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .automata import DEFAULT_BUDGET, Plant, Word, explore, render_word, shortlex_levels
from .errors import InstanceTooLarge, PolicyIncomplete, StateBudgetExceeded, UndefinedEvent
from .labeled import N, Y, LabeledState, LabeledSystem, build_labeled_system
from .observer import ObserverState, reach_closed, realizable, targets
from .properties import DistinguishabilitySpec
from .realization import Policy


class Estimator:
    """Deterministic tracker: a subset construction over policy states,
    built on demand.

    A tracker state is the set of policy states the plant may be in, given
    the transmitted events so far, closed under the policy's suppressed
    moves.  Stepping on a transmitted event e moves every member that
    transmits e along the policy and closes again.  Every policy move x -e->
    x2 follows the plant (x2.base is the plant successor of x.base) and x2
    labels exactly its defined events, so x2 is one of the labeled successors
    of x; tracking the policy alone is therefore the same as tracking the
    product of the policy with the labeled plant, whose reachable states all
    pair a policy state with itself.  The labeled-plant estimate is the set
    itself.  `sys` supplies the alphabet.

    `step` builds a successor the first time it is asked for and memoizes
    it, so a caller builds only the tracker states it visits; `states` holds
    the tracker states built so far, the initial one first.
    """

    def __init__(self, sys: LabeledSystem, policy: Policy):
        self.sys = sys
        self.policy = policy
        self.initial = self._close((policy.initial,))
        self.states: dict[ObserverState, None] = {self.initial: None}
        self._trans: dict[tuple[ObserverState, str], ObserverState | None] = {}

    def _move(self, x: LabeledState, e: str, lab: str) -> tuple[LabeledState, ...]:
        """The policy's move from `x` on `e`, if `x` labels `e` with `lab`."""
        x2 = self.policy.trans.get((x, e)) if x._map.get(e) == lab else None
        return () if x2 is None else (x2,)

    def _close(self, seed) -> ObserverState:
        return ObserverState(explore(seed, self.sys.plant.alphabet, lambda x, e: self._move(x, e, N))[0])

    def step(self, h: ObserverState, e: str) -> ObserverState | None:
        """The tracker state after `h` on the transmitted event `e`, or None
        when no member of `h` transmits `e`."""
        if (h, e) not in self._trans:
            moved = {x2 for x in h for x2 in self._move(x, e, Y)}
            h2 = self._close(moved) if moved else None
            if h2 is not None:
                self.states.setdefault(h2)
            self._trans[(h, e)] = h2
        return self._trans[(h, e)]


_TRIPLES = "(plant state, policy state, projection) entries over the plant words"


def _triples(policy: Policy):
    """The triple of the empty word, and the (event, triple) successors of a
    (plant state, policy state, projection) triple in event order; the
    projection grows by each event the policy state transmits."""
    plant = policy.plant

    def successors(t):
        q, x, proj = t
        for e in sorted(plant.defined_events(q)):
            yield e, (plant.step(q, e), policy.step(x, e), proj + (e,) if x.label(e) == Y else proj)

    return (plant.initial, policy.initial, ()), successors


class _EstimateTable:
    """The brute-force estimate, exact per projection, built on demand.

    A triple's successors depend on the triple alone, and each step keeps
    the projection or extends it by the one event transmitted.  So the
    triples that plant words with projection p reach, however long the
    words, are those reached from the triples parked on p by the steps that
    keep the projection.  The start triple is parked on the empty
    projection, and every other parked triple is one transmitted event past
    a triple of p[:-1].  `estimate(p)` therefore admits p[:-1] first, then
    closes p's parked triples, parking each transmitted successor under its
    own projection; the plant states of p's triples are the estimate by
    definition.  Every triple the table holds, parked ones included, counts
    against `budget`, past which InstanceTooLarge names `check`."""

    def __init__(self, policy: Policy, budget: int, check: str):
        start, self.successors = _triples(policy)
        self.budget, self.check = budget, check
        self.parked: dict[Word, dict[tuple[str, LabeledState, Word], None]] = {(): {start: None}}
        self.size = 1
        self.estimates: dict[Word, frozenset[str]] = {}

    def estimate(self, proj: Word) -> frozenset[str]:
        """Endpoints of the plant words, of any length, with projection `proj`."""
        if proj not in self.estimates:
            if proj:
                self.estimate(proj[:-1])
            triples = self.parked.pop(proj, {})
            work = list(triples)
            while work:
                for _e, t in self.successors(work.pop()):
                    into = triples if t[2] == proj else self.parked.setdefault(t[2], {})
                    if t in into:
                        continue
                    into[t] = None
                    if into is triples:
                        work.append(t)
                    self.size += 1
                    if self.size > self.budget:
                        raise InstanceTooLarge(
                            f"{self.check}: the brute-force estimate table passed the budget of "
                            f"{self.budget} (plant state, policy state, projection) triples "
                            f"at projection length {len(proj)}"
                        )
            self.estimates[proj] = frozenset(q for q, _x, _p in triples)
        return self.estimates[proj]


@dataclass
class CheckReport:
    """A check's verdict.  `words` counts the words checked: all of them up
    to the depth when the check holds, and on a failure the words of the
    keys checked before the failing one plus the failing word itself."""

    name: str
    ok: bool
    words: int
    depth: int
    word: Word | None = None
    expected: str = ""
    got: str = ""

    def line(self) -> str:
        if self.ok:
            return f"{self.name} ok words={self.words} depth={self.depth}"
        return (
            f"FAIL {self.name} word={render_word(self.word)} "
            f"expected={self.expected} got={self.got}"
        )


def _first_failure(check: str, entries: str, root, successors, depth: int, budget: int, fails) -> CheckReport:
    """Walk `shortlex_levels` from `root` to `depth` and report on the
    first key that `fails`, which returns (expected, got) for a failing key
    and None otherwise.  Keys come in the order of their first words, so
    the failing word is the shortlex-first one; `words` counts the words of
    the keys checked before it plus that word.  Once the entries of all
    levels so far pass `budget` the walk stops with InstanceTooLarge, whose
    message names the check and what its entries are."""
    total = checked = 0
    for n, level in shortlex_levels(root, depth, successors):
        total += len(level)
        if total > budget:
            raise InstanceTooLarge(f"{check}: more than {budget} {entries} up to length {n}, over the budget")
        for key, (w, count) in level.items():
            failure = fails(key)
            if failure is not None:
                return CheckReport(check, False, checked + 1, depth, w, *failure)
            checked += count
    return CheckReport(check, True, checked, depth)


def _render_states(states) -> str:
    return "{" + ",".join(sorted(states)) + "}"


def check_tracker_containment(
    plant: Plant, policy: Policy, depth: int, budget: int = DEFAULT_BUDGET
) -> CheckReport:
    """Every tracker state is one of the dynamic observer's estimates for
    the same observation (Proposition 1): the initial one is an admissible
    estimate over {initial}, and after a step h -e-> h2, h2 is one over
    T = `targets(plant, h, e)`, the states `observer_step(h, e)` builds its
    estimates over.  No estimate family is built: h2 passes when it is reach
    closed and `realizable` finds it to be the union of one run-tree range
    per state of T, rooted at a version of that state inside h2 and
    restricted to h2.  The walk has one entry per distinct (h2, T), checked
    once; `budget` caps the entries of all its levels together and the set
    unions of each entry's test."""
    sys = build_labeled_system(plant)
    est = Estimator(sys, policy)
    events = sorted(plant.alphabet)

    def successors(key):
        h = key[0]
        for e in events:
            h2 = est.step(h, e)
            if h2 is not None:
                yield e, (h2, targets(plant, h, e))

    @cache
    def fails(key):
        h, bases = key
        members = h.members
        roots = [[v for v in members if v.base == q] for q in sorted(bases)]
        full = (1 << len(members)) - 1
        try:
            ok = all(roots) and reach_closed(sys, h) and realizable(sys, members, full, roots, budget=budget)
        except StateBudgetExceeded as exc:
            raise InstanceTooLarge(f"PROP1: {exc} on one (tracker state, targets) entry") from exc
        if ok:
            return None
        return "estimate over " + _render_states(bases), _render_states(x.render() for x in h)

    return _first_failure(
        "PROP1", "(tracker state, targets) entries over the observed words",
        (est.initial, frozenset((plant.initial,))), successors, depth, budget, fails,
    )


def check_estimate_agreement(
    plant: Plant, policy: Policy, depth: int, budget: int = DEFAULT_BUDGET
) -> CheckReport:
    """Tracker estimates equal brute-force estimates for every plant word up
    to the depth.  The brute-force side is exact: it takes the end states of
    every plant word with the same projection, however long.  Both sides
    depend on a word only through its projection, so each distinct (plant
    state, policy state, projection) triple of a level is compared once, and
    the tracker is stepped once per new projection.  The entries of the
    walk, summed over its levels, and the triples of the estimate table are
    both capped by `budget`."""
    est = Estimator(build_labeled_system(plant), policy)
    table = _EstimateTable(policy, budget, "THM1")
    # tracker state and estimate per projection; a key's projection is that
    # of a key one level up, which came first, or one event longer
    trackers: dict[Word, tuple[ObserverState | None, frozenset[str]]] = {
        (): (est.initial, est.initial.underlying())
    }

    def fails(key):
        proj = key[2]
        if proj not in trackers:
            h = trackers[proj[:-1]][0]
            h = est.step(h, proj[-1]) if h is not None else None
            trackers[proj] = (h, h.underlying() if h is not None else frozenset())
        tracker = trackers[proj][1]
        brute = table.estimate(proj)
        return None if tracker == brute else (_render_states(brute), _render_states(tracker))

    return _first_failure("THM1", _TRIPLES, *_triples(policy), depth, budget, fails)


def check_property_satisfaction(
    plant: Plant, policy: Policy, prop: DistinguishabilitySpec, depth: int, budget: int = DEFAULT_BUDGET
) -> CheckReport:
    """The receiver's estimate satisfies the property after every plant word
    up to the depth, with the same exact brute-force estimate, budget and
    capped walk over distinct triples as THM1.  It reads only its own
    estimate table, so it builds no tracker."""
    table = _EstimateTable(policy, budget, "PROBLEM1")

    def fails(key):
        estimate = table.estimate(key[2])
        if prop.holds(estimate):
            return None
        return "estimate satisfying the property", _render_states(estimate) + " (" + prop.describe(estimate) + ")"

    return _first_failure("PROBLEM1", _TRIPLES, *_triples(policy), depth, budget, fails)


class TraceSession:
    """Online replay: feed events one at a time, watch what the receiver sees."""

    def __init__(self, plant: Plant, policy: Policy):
        self.plant = plant
        self.policy = policy
        self.sys = build_labeled_system(plant)
        self.est = Estimator(self.sys, policy)
        self.state = plant.initial
        self.x = policy.initial
        self.h = self.est.initial
        self.observed: Word = ()

    @property
    def estimate(self) -> frozenset[str]:
        return self.h.underlying()

    def step(self, e: str) -> tuple[bool, frozenset[str]]:
        q2 = self.plant.step(self.state, e)
        if q2 is None:
            raise UndefinedEvent(f"event {e!r} is not defined at plant state {self.state!r}")
        transmitted = self.x.label(e) == Y
        x2 = self.policy.step(self.x, e)
        if transmitted:
            h2 = self.est.step(self.h, e)
            if h2 is None:
                raise PolicyIncomplete(
                    f"tracker cannot follow transmitted event {e!r}; policy and plant disagree"
                )
            self.h = h2
            self.observed += (e,)
        self.state, self.x = q2, x2
        return transmitted, self.estimate
