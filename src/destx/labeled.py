"""Decision-labeled view of a plant.

Every plant state is expanded into one version per assignment of a
transmit/suppress decision (Y or N) to each of its defined events.  A step
keeps the plant transition structure and is free to land on any decision
version of the target; the decision taken at the source of a step determines
whether that step is visible to the receiver.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

from .automata import Plant
from .errors import AlphabetTooLarge, ParseError, UndefinedEvent, UnknownState
from .properties import DistinguishabilitySpec

Y = "Y"
N = "N"

_MAX_EVENTS_PER_STATE = 16


@dataclass(frozen=True)
class LabeledState:
    """A plant state together with one decision per defined event."""

    base: str
    bits: tuple[tuple[str, str], ...]  # ((event, decision), ...) sorted by event

    @cached_property
    def _hash(self) -> int:
        return hash((self.base, self.bits))

    def __hash__(self):
        return self._hash

    @cached_property
    def _map(self) -> dict[str, str]:
        return dict(self.bits)

    def label(self, e: str) -> str:
        try:
            return self._map[e]
        except KeyError:
            raise UndefinedEvent(f"event {e!r} is not defined at {self.base!r}") from None

    def events(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.bits)

    def render(self) -> str:
        return self.base + "".join(lab for _, lab in self.bits)

    def sort_key(self) -> tuple[str, str]:
        return (self.base, "".join(lab for _, lab in self.bits))

    def __repr__(self):
        return f"<{self.render()}>"


def parse_labeled(text: str, plant: Plant) -> LabeledState:
    """Parse a rendering such as q0NNY back into a labeled state.

    The state name must be a declared plant state and the trailing letters
    must be one Y/N decision per defined event, in event order.
    """
    matches = []
    for q in plant.states:
        if not text.startswith(q):
            continue
        rest = text[len(q):]
        events = sorted(plant.defined_events(q))
        if len(rest) == len(events) and all(c in (Y, N) for c in rest):
            matches.append(LabeledState(q, tuple(zip(events, rest))))
    if not matches:
        raise ParseError(f"{text!r} is not a labeled state of this plant")
    if len(matches) > 1:
        raise ParseError(f"{text!r} is ambiguous: {[m.render() for m in matches]}")
    return matches[0]


class LabeledSystem:
    """All decision versions of a plant's states, with step helpers.

    A system may carry a property, fixed when it is built; the observer
    code then drops every range, union and estimate that violates it
    (`admits`).  That is what `synthesize` builds.

    Immutable after construction apart from two memo tables:

    * `_cover_cache`, keyed on a labeled state: its family of run-tree
      ranges that hold the property (`_cover_families`);
    * `_step_cache`, keyed on a frozenset of plant state names: the sorted
      admissible estimates over them that hold the property
      (`_estimates_over`).  The keys are {initial}, for the observer's
      initial estimates, and the targets of every transmitted event an
      observer step has followed.
    """

    def __init__(self, plant: Plant, states: Sequence[LabeledState], prop: DistinguishabilitySpec | None = None):
        self.plant = plant
        self.prop = prop
        self.states = tuple(sorted(states, key=LabeledState.sort_key))
        self._versions: dict[str, tuple[LabeledState, ...]] = {
            q: tuple(group) for q, group in itertools.groupby(self.states, key=lambda ls: ls.base)
        }
        self.initials = self._versions[plant.initial]
        self._cover_cache: dict = {}
        self._step_cache: dict = {}

    def admits(self, members: Iterable[LabeledState]) -> bool:
        """Whether the plant states of `members` hold the system's property;
        always true on a system without one."""
        return self.prop is None or self.prop.holds(frozenset(v.base for v in members))

    def versions_of(self, q: str) -> tuple[LabeledState, ...]:
        try:
            return self._versions[q]
        except KeyError:
            raise UnknownState(f"unknown plant state {q!r}") from None

    def successors(self, ls: LabeledState, e: str) -> tuple[LabeledState, ...]:
        """All versions of the plant successor, or () when the move is undefined."""
        return self._versions.get(self.plant.step(ls.base, e), ())

    def suppressed_moves(self, ls: LabeledState) -> tuple[tuple[str, tuple[LabeledState, ...]], ...]:
        """Pairs (event, target versions) for the events `ls` suppresses."""
        return tuple((e, self._versions[self.plant.step(ls.base, e)]) for e, lab in ls.bits if lab == N)

    def __repr__(self):
        return f"LabeledSystem({len(self.states)} states over {self.plant!r})"


def build_labeled_system(plant: Plant, prop: DistinguishabilitySpec | None = None) -> LabeledSystem:
    """Expand a plant into its decision-labeled system, whose estimates all
    hold `prop` when one is given.

    A state defining k events contributes 2**k versions, so k is capped at
    `_MAX_EVENTS_PER_STATE`.
    """
    states: list[LabeledState] = []
    for q in sorted(plant.states):
        events = sorted(plant.defined_events(q))
        if len(events) > _MAX_EVENTS_PER_STATE:
            raise AlphabetTooLarge(
                f"state {q!r} defines {len(events)} events, bound is {_MAX_EVENTS_PER_STATE}"
            )
        states.extend(LabeledState(q, bits) for bits in itertools.product(*(((e, N), (e, Y)) for e in events)))
    return LabeledSystem(plant, states, prop)


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
