"""Receiver-side estimation under a concrete policy, plus bounded checks.

Two independent routes to the receiver's estimate:

* the tracker: a subset construction over the policy's states, built as it
  is stepped by transmitted events, with suppressed-step closure folded in.
  The product of the policy with the labeled plant is diagonal, every
  reachable product state pairing a policy state with itself, so this
  equals the tracker of that product (see `Estimator`);
* brute force: read the estimate straight off the definition, as the end
  states of the plant words, of any length, that the policy projects onto
  the same transmitted word.  The words are not listed one by one: the
  policy states that such words reach are those one transmitted event past
  the set of the projection's prefix, closed under the steps that keep the
  projection, memoized per (set, event) and read off the policy alone.

The checks below run over all words up to a depth.  PROP1 checks that each
tracker state is one of the dynamic observer's estimates for its observed
word, without building the observer; THM1 compares the tracker with brute
force, and PROBLEM1 the brute-force estimate with the property.  Each walks
the levels of `shortlex_levels` in `_first_failure`, over the distinct keys
that decide a word's verdict and continuations: (tracker state, targets)
for PROP1, (policy state, brute-force set, tracker state) for THM1 and
(policy state, brute-force set) for PROBLEM1, which share one walk and one
memo when run together (`check_estimates`).  Every part of a key ranges
over a finite set, so a level's size is bounded by the policy, not by its
words.  The checks are bounded substitutes for the universal statements,
not proofs.  One budget caps the entries of each walk, summed over its
levels, the set unions of PROP1's test of one entry, and the policy states
put into the memo's sets.  An entry stands for at least one word, so no
depth whose words fit the budget is refused.  The tracker needs no cap of
its own: a walk steps it at most once per event of an entry, and a replay
once per event.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cache

from .automata import DEFAULT_BUDGET, Plant, explore, render_word, shortlex_levels
from .errors import InstanceTooLarge
from .labeled import N, Y, LabeledState, LabeledSystem, ObserverState, build_labeled_system, targets
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
        x2 = self.policy.trans.get((x, e)) if (e, lab) in x.bits else None
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


def _brute_force(policy: Policy, budget: int):
    """The brute-force side, read off the policy alone: the set for a
    projection p holds the policy states that the plant words, of any
    length, with projection p reach, and its bases are the estimate by
    definition.  A step that suppresses its event keeps the projection, so
    `after(S, e)`, the set for p + (e,) when S is the one for p, closes the
    e-successors of the members of S that transmit e under such steps.
    Returns the set for the empty projection and `after`, memoized per
    (set, event).  Every policy state put into a set counts against
    `budget`, past which it raises InstanceTooLarge."""
    memo: dict[tuple[frozenset[LabeledState], str], frozenset[LabeledState]] = {}
    used = 0

    def close(seed):
        nonlocal used
        found = dict.fromkeys(seed)
        work = list(found)
        for x in work:
            for e, lab in x.bits:
                x2 = policy.step(x, e)
                if lab == N and x2 not in found:
                    found[x2] = None
                    work.append(x2)
        used += len(found)
        if used > budget:
            raise InstanceTooLarge(f"the brute-force sets passed the budget of {budget} policy states")
        return frozenset(found)

    def after(S, e):
        if (S, e) not in memo:
            memo[(S, e)] = close([policy.step(x, e) for x in sorted(S) if (e, Y) in x.bits])
        return memo[(S, e)]

    return close([policy.initial]), after


def _walk(policy: Policy, budget: int, est: Estimator | None):
    """The key of the empty word, and the (event, key) successors of a key
    in event order, for THM1 and PROBLEM1: (policy state, brute-force set,
    tracker state) with the tracker `est`, (policy state, brute-force set)
    without.  The policy state decides how a key continues and the sets its
    verdicts.  An event the policy state suppresses keeps both sets; one it
    transmits moves each on, a tracker state of None staying None."""
    start, after = _brute_force(policy, budget)

    def successors(key):
        x, S, *h = key
        for e, lab in x.bits:
            x2 = policy.step(x, e)
            if lab == N:
                yield e, (x2, S, *h)
            else:
                yield e, (x2, after(S, e), *(None if t is None else est.step(t, e) for t in h))

    return (policy.initial, start, *([est.initial] if est else [])), successors


class CheckReport(namedtuple("CheckReport", "name ok words depth word expected got", defaults=(None, "", ""))):
    """A check's verdict.  `words` counts the words checked: all of them up
    to the depth when the check holds, and on a failure the words of the
    merged keys checked before the failing one plus the failing word."""

    __slots__ = ()

    def line(self) -> str:
        if self.ok:
            return f"{self.name} ok words={self.words} depth={self.depth}"
        return (
            f"FAIL {self.name} word={render_word(self.word)} "
            f"expected={self.expected} got={self.got}"
        )


def _first_failure(checks, entries: str, walk, depth: int, budget: int) -> list[CheckReport]:
    """Walk `shortlex_levels` to `depth` from the root and successors that
    `walk()` returns, once for all the (name, fails) pairs of `checks`, and
    report on each check's first key that its `fails` returns (expected,
    got) for; it returns None for a passing key.  Keys come in the order of
    their first words, so each failing word is the shortlex-first one;
    `words` counts the words of the keys checked before it plus that word.
    The walk stops once every check has failed.  Once the entries of all
    levels so far pass `budget` it stops with InstanceTooLarge, whose
    message names what the entries are; that and any other InstanceTooLarge
    raised on the way get the name of the first check still live."""
    live, reports = dict(checks), {}
    total = checked = 0
    try:
        root, successors = walk()
        for n, level in shortlex_levels(root, depth, successors):
            total += len(level)
            if total > budget:
                raise InstanceTooLarge(f"more than {budget} {entries} up to length {n}, over the budget")
            for key, (w, count) in level.items():
                for name, fails in list(live.items()):
                    failure = fails(key)
                    if failure is not None:
                        reports[name] = CheckReport(name, False, checked + 1, depth, w, *failure)
                        del live[name]
                if not live:
                    return [reports[name] for name, _fails in checks]
                checked += count
    except InstanceTooLarge as exc:
        raise InstanceTooLarge(f"{next(iter(live))}: {exc}") from exc
    reports |= {name: CheckReport(name, True, checked, depth) for name in live}
    return [reports[name] for name, _fails in checks]


def _render_states(states) -> str:
    return "{" + ",".join(sorted(states)) + "}"


def check_tracker_containment(
    plant: Plant, policy: Policy, depth: int, budget: int = DEFAULT_BUDGET
) -> CheckReport:
    """Every tracker state is one of the dynamic observer's estimates for
    the same observation (Proposition 1): the initial one is an admissible
    estimate over {initial}, and after a step h -e-> h2, h2 is one over
    T = `targets(plant, h, e)`, the states `observer_step(h, e)` builds its
    estimates over.  No estimate family is built: h2 passes when `admissible`
    finds it reach closed and the union of one run-tree range per state of
    T, rooted at a version of that state inside h2 and restricted to h2.
    The walk has one entry per distinct (h2, T), checked once; `budget` caps
    the entries of all its levels together and the set unions of each
    entry's test."""
    from .ranges import admissible

    est = Estimator(build_labeled_system(plant), policy)
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
        if admissible(plant, h.members, bases, budget):
            return None
        return "estimate over " + _render_states(bases), _render_states(x.render() for x in h)

    return _first_failure(
        [("PROP1", fails)], "(tracker state, targets) entries over the observed words",
        lambda: ((est.initial, frozenset((plant.initial,))), successors), depth, budget,
    )[0]


def check_estimates(
    plant: Plant, policy: Policy, prop: frozenset | None, depth: int, budget: int = DEFAULT_BUDGET,
    names: tuple[str, ...] = ("THM1", "PROBLEM1"),
) -> list[CheckReport]:
    """The checks `names`, THM1, PROBLEM1 or both in that order, in one walk
    over the keys of `_walk` and over one brute-force memo.  A right
    tracker's state is the brute-force set, so THM1's keys are as many as
    PROBLEM1's and each check reports as it would alone.  The entries of
    the walk, summed over its levels, and the policy states of the memo's
    sets are both capped by `budget`.  Only THM1 builds a tracker."""
    est = Estimator(build_labeled_system(plant), policy) if "THM1" in names else None
    bases = cache(lambda S: frozenset(x.base for x in S))

    def thm1(key):
        h, brute = key[2], bases(key[1])
        tracker = h.underlying() if h is not None else frozenset()
        return None if tracker == brute else (_render_states(brute), _render_states(tracker))

    def problem1(key):
        estimate = bases(key[1])
        if prop.holds(estimate):
            return None
        return "estimate satisfying the property", _render_states(estimate) + " (" + prop.describe(estimate) + ")"

    checks = {"THM1": thm1, "PROBLEM1": problem1}
    return _first_failure(
        [(name, checks[name]) for name in names], "(policy state, estimate) entries over the plant words",
        lambda: _walk(policy, budget, est), depth, budget,
    )


def check_estimate_agreement(plant: Plant, policy: Policy, depth: int) -> CheckReport:
    """Tracker estimates equal brute-force estimates for every plant word up
    to the depth.  The brute-force side is exact: it takes the end states of
    every plant word with the same projection, however long.  Both sides
    depend on a word only through its projection, so the words of one
    (policy state, brute-force set, tracker state) key are compared once
    (see `check_estimates`), at the default budget."""
    return check_estimates(plant, policy, None, depth, DEFAULT_BUDGET, ("THM1",))[0]


def check_property_satisfaction(plant: Plant, policy: Policy, prop: frozenset, depth: int) -> CheckReport:
    """The receiver's estimate satisfies the property after every plant word
    up to the depth, with the same exact brute-force estimate and budget as
    THM1, over a walk of (policy state, brute-force set) keys capped by the
    default budget.  It reads only its own memo, so it builds no tracker."""
    return check_estimates(plant, policy, prop, depth, DEFAULT_BUDGET, ("PROBLEM1",))[0]


def verify(
    plant: Plant, policy: Policy, prop: frozenset, depth: int, budget: int = DEFAULT_BUDGET
) -> Iterator[CheckReport]:
    """The checks of `destx verify`: PROP1's report, then THM1's and
    PROBLEM1's from their one walk, each yielded as its walk ends, so a
    caller that stops at a failure runs no later walk."""
    yield check_tracker_containment(plant, policy, depth, budget)
    yield from check_estimates(plant, policy, prop, depth, budget)
