"""Decision-labeled view of a plant.

Every plant state has one version per assignment of a transmit/suppress
decision (Y or N) to each of its defined events, built on first use.  A step
keeps the plant transition structure and is free to land on any decision
version of the target, so it lands in a set when its plant successor does;
the decision taken at its source determines whether the receiver sees it.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterable
from functools import cached_property

from .automata import Plant
from .errors import AlphabetTooLarge, DestxError

Y = "Y"
N = "N"

_MAX_EVENTS_PER_STATE = 16


class LabeledState(tuple):
    """A plant state together with one decision per defined event: the pair
    (base, bits), bits being ((event, decision), ...) sorted by event, so it
    compares, hashes and sorts as that tuple."""

    __slots__ = ()
    base = property(operator.itemgetter(0))
    bits = property(operator.itemgetter(1))

    def label(self, e: str) -> str:
        for e2, lab in self.bits:
            if e2 == e:
                return lab
        raise DestxError(f"event {e!r} is not defined at {self.base!r}")

    def events(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.bits)

    def render(self) -> str:
        return self.base + "".join(lab for _, lab in self.bits)

    def __repr__(self):
        return f"<{self.render()}>"


class ObserverState(frozenset):
    """An estimate: a frozenset of labeled states, rendered and ordered
    canonically."""

    @cached_property
    def members(self) -> tuple[LabeledState, ...]:
        """The members in canonical order, for `render` and `sort_key`."""
        return tuple(sorted(self))

    def underlying(self) -> frozenset[str]:
        return frozenset(ls.base for ls in self)

    def render(self) -> str:
        return "(" + ",".join(ls.render() for ls in self.members) + ")"

    def sort_key(self):
        return (len(self), self.members)

    def __repr__(self):
        return self.render()


def _sorted_estimates(ranges) -> tuple[ObserverState, ...]:
    return tuple(sorted(map(ObserverState, ranges), key=ObserverState.sort_key))


def parse_labeled(text: str, plant: Plant) -> LabeledState:
    """Parse a rendering such as q0NNY back into a labeled state.

    The state name must be a declared plant state and the trailing letters
    must be one Y/N decision per defined event, in event order.  The labels
    are a suffix of the trailing Y/N run no longer than the alphabet, so
    only those splits are looked up in `plant.states`: at most
    min(run, |alphabet|) + 1 lookups, whatever the plant's size.
    """
    matches = []
    for k in range(min(len(text), len(plant.alphabet)) + 1):
        if k and text[-k] not in (Y, N):
            break
        q = text[: len(text) - k]
        if q in plant.states and len(plant.defined_events(q)) == k:
            matches.append(LabeledState((q, tuple(zip(sorted(plant.defined_events(q)), text[len(q):])))))
    if not matches:
        raise DestxError(f"{text!r} is not a labeled state of this plant")
    if len(matches) > 1:
        raise DestxError(f"{text!r} is ambiguous between the plant states {sorted(m.base for m in matches)}")
    return matches[0]


class LabeledSystem:
    """The decision versions of a plant's states, each state's built on
    first use, with step helpers.

    A system may carry a property, fixed when it is built; the observer
    code then drops every range, union and estimate that violates it.
    That is what `synthesize` builds.

    Immutable after construction apart from five memo tables:

    * `_versions`, keyed on a plant state name: its versions in canonical
      order, built by `versions_of` on first use;
    * `_ids`, keyed on a labeled state: its number k, given in the order
      the observer first meets it; it holds bit 2n+k of the observer's
      packed ranges over n plant states;
    * `_cover_cache`, keyed on a labeled state: its family of run-tree
      ranges that hold the property, as packed ints (`_cover_families`);
    * `_step_cache`, keyed on a frozenset of plant state names: the sorted
      admissible estimates over them that hold the property
      (`_estimates_over`).  The keys are {initial}, for the observer's
      initial estimates, and the targets of every transmitted event an
      observer step has followed;
    * `_oracle_cache`, keyed on a universe: the oracle families of the
      states whose own universe it is (`closure_family_bruteforce`).
    """

    def __init__(self, plant: Plant, prop: frozenset | None = None):
        self.plant = plant
        self.prop = prop
        self._versions: dict[str, tuple[LabeledState, ...]] = {}
        self._ids: dict[LabeledState, int] = {}
        self._cover_cache: dict = {}
        self._step_cache: dict = {}
        self._oracle_cache: dict = {}

    @cached_property
    def states(self) -> tuple[LabeledState, ...]:
        """Every version of every plant state in canonical order, cached on first read."""
        return tuple(v for q in sorted(self.plant.states) for v in self.versions_of(q))

    @property
    def initials(self) -> tuple[LabeledState, ...]:
        return self.versions_of(self.plant.initial)

    def versions_of(self, q: str) -> tuple[LabeledState, ...]:
        """The 2**k versions of a plant state defining k events, in canonical
        order; k is capped at `_MAX_EVENTS_PER_STATE`."""
        hit = self._versions.get(q)
        if hit is None:
            if q not in self.plant.states:
                raise DestxError(f"unknown plant state {q!r}")
            events = sorted(self.plant.defined_events(q))
            if len(events) > _MAX_EVENTS_PER_STATE:
                raise AlphabetTooLarge(f"state {q!r} defines {len(events)} events, bound is {_MAX_EVENTS_PER_STATE}")
            hit = self._versions[q] = tuple(
                LabeledState((q, bits)) for bits in itertools.product(*(((e, N), (e, Y)) for e in events))
            )
        return hit

    def suppressed_moves(self, ls: LabeledState) -> tuple[tuple[str, tuple[LabeledState, ...]], ...]:
        """Pairs (event, target versions) for the events `ls` suppresses."""
        return tuple((e, self.versions_of(self.plant.step(ls.base, e))) for e, lab in ls.bits if lab == N)

    def __repr__(self):
        return f"LabeledSystem(over {self.plant!r})"


def build_labeled_system(plant: Plant, prop: frozenset | None = None) -> LabeledSystem:
    """The decision-labeled system of a plant, whose estimates all hold
    `prop` when one is given.  It builds no version: each plant state's are
    built where they are first read."""
    return LabeledSystem(plant, prop)


def unobservable_reach(sys: LabeledSystem, seeds: Iterable[LabeledState]) -> frozenset[LabeledState]:
    """States reachable from any of `seeds` along suppressed steps only,
    landing on any decision version, the seeds included.

    A suppressed step lands on every version of its target, one of which
    suppresses every event.  So past the seeds the reach is every version
    of the plant states that the seeds' suppressed targets reach by any
    events: one walk over plant states.
    """
    seeds = frozenset(seeds)
    targets = {sys.plant.step(v.base, e) for v in seeds for e, lab in v.bits if lab == N}
    return seeds.union(*(sys.versions_of(q) for q in sys.plant.reach(targets)))


def targets(plant: Plant, z, e: str) -> frozenset[str]:
    """The plant states that the members of `z` transmitting `e` move to."""
    return frozenset(plant.step(v.base, e) for v in z if (e, Y) in v.bits)
