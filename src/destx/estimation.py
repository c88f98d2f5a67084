"""Receiver-side estimation under a concrete policy, plus bounded checks.

Two independent routes to the receiver's estimate:

* the tracker: a deterministic observer of the policy-plant product, stepped
  by transmitted events only, with suppressed-step closure folded in;
* brute force: enumerate every plant word up to a depth, bucket by what the
  policy transmits, and read the estimate straight off the definition.

The checks below compare the two routes against each other and against the
schedule-level observer, over all words up to a depth.  They are bounded
substitutes for the universal statements, not proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .automata import Plant, Word, render_word
from .errors import PolicyIncomplete, UndefinedEvent, WordNotInPlant
from .labeled import N, Y, LabeledState, LabeledSystem, build_labeled_system
from .observer import ObserverState, build_observer
from .properties import ISProperty
from .realization import Policy


@dataclass(frozen=True)
class ProductState:
    """A sensor-automaton position paired with the matching labeled plant state."""

    sensor: LabeledState
    aug: LabeledState

    def render(self) -> str:
        return f"{self.sensor.render()}|{self.aug.render()}"

    def sort_key(self):
        return (self.sensor.sort_key(), self.aug.sort_key())


@dataclass(frozen=True)
class ProductObserverState:
    members: tuple[ProductState, ...]

    @staticmethod
    def of(states) -> "ProductObserverState":
        return ProductObserverState(tuple(sorted(set(states), key=ProductState.sort_key)))

    @cached_property
    def member_set(self) -> frozenset[ProductState]:
        return frozenset(self.members)

    def __len__(self):
        return len(self.members)


def build_product(sys: LabeledSystem, policy: Policy):
    """Reachable product of the sensor automaton with the labeled system.

    The policy's transition map picks the sensor successor; the labeled
    system may offer several versions of the plant successor, but only the
    one whose labels equal the successor's own labeling survives, so each
    (state, event) has at most one target.
    """
    v0 = ProductState(policy.initial, policy.initial)
    trans: dict[tuple[ProductState, str], ProductState] = {}
    states = {v0}
    work = [v0]
    while work:
        v = work.pop()
        for e in v.aug.events():
            x2 = policy.trans.get((v.sensor, e))
            if x2 is None:
                continue
            cands = [w for w in sys.successors(v.aug, e) if w == x2]
            if not cands:
                continue
            v2 = ProductState(x2, cands[0])
            trans[(v, e)] = v2
            if v2 not in states:
                states.add(v2)
                work.append(v2)
    return states, trans, v0


class Estimator:
    """Deterministic tracker over sets of product states.

    States are closed under suppressed moves; stepping consumes one
    transmitted event.
    """

    def __init__(self, sys: LabeledSystem, policy: Policy):
        self.sys = sys
        self.policy = policy
        _, self._ptrans, v0 = build_product(sys, policy)
        self.initial = self._close(frozenset((v0,)))
        self.states: set[ProductObserverState] = {self.initial}
        self.trans: dict[tuple[ProductObserverState, str], ProductObserverState] = {}
        work = [self.initial]
        while work:
            h = work.pop()
            for e in sorted(sys.plant.alphabet):
                h2 = self._step_raw(h, e)
                if h2 is None:
                    continue
                self.trans[(h, e)] = h2
                if h2 not in self.states:
                    self.states.add(h2)
                    work.append(h2)

    def _close(self, seed: frozenset[ProductState]) -> ProductObserverState:
        seen = set(seed)
        work = list(seed)
        while work:
            v = work.pop()
            for e in v.sensor.events():
                if v.sensor.label(e) != N:
                    continue
                v2 = self._ptrans.get((v, e))
                if v2 is not None and v2 not in seen:
                    seen.add(v2)
                    work.append(v2)
        return ProductObserverState.of(seen)

    def _step_raw(self, h: ProductObserverState, e: str) -> ProductObserverState | None:
        moved = set()
        for v in h.members:
            if v.sensor._map.get(e) == Y:
                v2 = self._ptrans.get((v, e))
                if v2 is not None:
                    moved.add(v2)
        if not moved:
            return None
        return self._close(frozenset(moved))

    def step(self, h: ProductObserverState, e: str) -> ProductObserverState | None:
        return self.trans.get((h, e))

    def after(self, observed: Word) -> ProductObserverState | None:
        h = self.initial
        for e in observed:
            h = self.trans.get((h, e))
            if h is None:
                return None
        return h


def i2(h: ProductObserverState) -> ObserverState:
    """Forget the sensor component, keeping the labeled-state estimate."""
    return ObserverState.of(v.aug for v in h.members)


def estimate_states(h: ProductObserverState) -> frozenset[str]:
    return i2(h).underlying()


def _projection_buckets(policy: Policy, depth: int) -> dict[Word, frozenset[str]]:
    """Endpoint states of every plant word up to `depth`, keyed by what the
    policy transmits for it.  Cached per policy and depth."""
    cache = policy._bucket_cache
    hit = cache.get(depth)
    if hit is not None:
        return hit
    plant = policy.plant
    buckets: dict[Word, set[str]] = {(): {plant.initial}}
    stack = [(plant.initial, policy.initial, (), 0)]
    while stack:
        q, x, proj, n = stack.pop()
        if n == depth:
            continue
        for e in sorted(plant.defined_events(q)):
            q2 = plant.step(q, e)
            x2 = policy.trans.get((x, e))
            if x2 is None:
                raise PolicyIncomplete(
                    f"policy has no transition for ({x.render()}, {e}); cannot enumerate estimates"
                )
            proj2 = proj + (e,) if x.label(e) == Y else proj
            buckets.setdefault(proj2, set()).add(q2)
            stack.append((q2, x2, proj2, n + 1))
    out = {w: frozenset(qs) for w, qs in buckets.items()}
    cache[depth] = out
    return out


def estimate_bruteforce(plant: Plant, policy: Policy, s: Word, depth: int) -> frozenset[str]:
    """Estimate straight from the definition: endpoints of every word the
    receiver cannot tell apart from `s` within the depth bound."""
    if plant.run_word(plant.initial, s) is None:
        raise WordNotInPlant(f"not a plant word: {render_word(s)}")
    proj = policy.projection(s)
    return _projection_buckets(policy, depth).get(proj, frozenset())


@dataclass
class CheckReport:
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


def _render_states(states) -> str:
    return "{" + ",".join(sorted(states)) + "}"


def check_tracker_containment(
    plant: Plant, policy: Policy, depth: int, state_budget: int = 100_000
) -> CheckReport:
    """Every tracker estimate stays inside what the schedule-level observer
    allows for the same observation: the labeled states of the tracker state
    must be covered by the union of observer estimates reachable on that
    observed word.

    Both the check and the successors of an observed word depend only on
    its pair (tracker state, set of observer estimates), so the walk goes
    level by level with one entry per distinct pair, carrying the pair's
    shortlex-first word and its number of words.  Entries are inserted in
    the order of their first words, so a failure names the shortlex-first
    failing word; its `words` then counts the words of the pairs checked
    before plus that word."""
    sys = build_labeled_system(plant)
    obs = build_observer(sys, state_budget)
    est = Estimator(sys, policy)
    checked = 0
    level: dict[tuple[ProductObserverState, frozenset[ObserverState]], tuple[Word, int]] = {
        (est.initial, frozenset(obs.initials)): ((), 1)
    }
    for n in range(depth + 1):
        nxt = {}
        for (h, zs), (w, count) in level.items():
            allowed = set()
            for z in zs:
                allowed.update(z.members)
            mine = set(i2(h).members)
            if not mine <= allowed:
                return CheckReport(
                    "PROP1", False, checked + 1, depth, w,
                    expected="subset of " + _render_states(x.render() for x in allowed),
                    got=_render_states(x.render() for x in mine),
                )
            checked += count
            if n == depth:
                continue
            for e in sorted(plant.alphabet):
                h2 = est.step(h, e)
                if h2 is None:
                    continue
                zs2 = frozenset(z2 for z in zs for z2 in obs.successors(z, e))
                first, total = nxt.get((h2, zs2), (w + (e,), 0))
                nxt[(h2, zs2)] = (first, total + count)
        level = nxt
    return CheckReport("PROP1", True, checked, depth)


def check_estimate_agreement(plant: Plant, policy: Policy, depth: int) -> CheckReport:
    """Tracker estimates equal brute-force estimates for every plant word up
    to the depth.  The brute-force side searches deeper by the number of
    labeled states so suppressed continuations are not cut off."""
    sys = build_labeled_system(plant)
    est = Estimator(sys, policy)
    slack = len(sys.states)
    checked = 0
    for s in plant.words_upto(depth):
        checked += 1
        h = est.after(policy.projection(s))
        tracker = estimate_states(h) if h is not None else frozenset()
        brute = estimate_bruteforce(plant, policy, s, len(s) + slack)
        if tracker != brute:
            return CheckReport(
                "THM1", False, checked, depth, s,
                expected=_render_states(brute),
                got=_render_states(tracker),
            )
    return CheckReport("THM1", True, checked, depth)


def check_property_satisfaction(
    plant: Plant, policy: Policy, prop: ISProperty, depth: int
) -> CheckReport:
    """The receiver's estimate satisfies the property after every plant word
    up to the depth."""
    sys = build_labeled_system(plant)
    slack = len(sys.states)
    buckets = _projection_buckets(policy, depth + slack)
    checked = 0
    for s in plant.words_upto(depth):
        checked += 1
        estimate = buckets[policy.projection(s)]
        if not prop.holds(estimate):
            return CheckReport(
                "PROBLEM1", False, checked, depth, s,
                expected="estimate satisfying the property",
                got=_render_states(estimate) + " (" + prop.describe(estimate) + ")",
            )
    return CheckReport("PROBLEM1", True, checked, depth)


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
        return estimate_states(self.h)

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
