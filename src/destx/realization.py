"""Concrete sensor policies and their extraction from a schedule.

A policy is a deterministic automaton over labeled plant states: the state
remembers which decision vector is active, its own labels say which events
get transmitted, and the transition map follows the plant through both
transmitted and suppressed events.
"""

from __future__ import annotations

from collections.abc import Iterable

from .automata import Plant, Word, read_input
from .errors import (
    MissingSuccessor,
    ParseError,
    PolicyIncomplete,
    WordNotInPlant,
)
from .labeled import N, Y, LabeledState, LabeledSystem, parse_labeled, unobservable_reach
from .synthesis import DeterministicSchedule


class Policy:
    """Sensor automaton bound to a plant.

    trans is partial: it covers every transition the realization visited,
    which for synthesized policies is everything reachable from the initial
    state.  Replaying a word that escapes the covered part raises
    PolicyIncomplete.
    """

    def __init__(self, plant: Plant, initial: LabeledState, trans: dict[tuple[LabeledState, str], LabeledState]):
        self.plant = plant
        self.initial = initial
        self.trans = dict(trans)
        if initial.base != plant.initial:
            raise ParseError(
                f"policy initial {initial.render()} is not a version of the plant initial {plant.initial!r}"
            )
        seen = {initial}
        for (x, e), y in self.trans.items():
            seen.add(x)
            seen.add(y)
            if plant.step(x.base, e) != y.base:
                raise ParseError(
                    f"policy transition {x.render()} -{e}-> {y.render()} does not follow the plant"
                )
        for x in seen:
            if tuple(sorted(plant.defined_events(x.base))) != x.events():
                raise ParseError(f"{x.render()} does not label exactly the defined events")
        self.states = tuple(sorted(seen, key=LabeledState.sort_key))

    def step(self, x: LabeledState, e: str) -> LabeledState:
        nxt = self.trans.get((x, e))
        if nxt is None:
            raise PolicyIncomplete(f"policy has no transition for ({x.render()}, {e})")
        return nxt

    def projection(self, s: Iterable[str]) -> Word:
        """The transmitted subsequence of a plant word."""
        q: str | None = self.plant.initial
        x = self.initial
        out = []
        for e in s:
            q = self.plant.step(q, e) if q is not None else None
            if q is None:
                raise WordNotInPlant(f"event {e!r} fell outside the plant language")
            if x.label(e) == Y:
                out.append(e)
            x = self.step(x, e)
        return tuple(out)

    def __repr__(self):
        return f"Policy(initial={self.initial.render()}, states={len(self.states)})"


def rank(sys: LabeledSystem, d: Iterable[LabeledState]) -> tuple[LabeledState, ...]:
    """Order labeled states by how many of the set lie in each one's
    unobservable reach, most first, then by `sort_key`.

    This is the canonically smallest suppressed-reachability chain, each
    element in the reach of its predecessor, whenever the set has one.
    Suppressed reach is transitive, so in a chain every element reaches all
    later ones: a chain exists exactly when every two elements are
    comparable, and an element then reaches at least as many of the set as
    any later one, strictly more unless the two reach each other.  A set
    without a chain is ordered all the same.
    """
    elems = set(d)
    reach = {v: unobservable_reach(sys, (v,)) for v in elems}
    return tuple(sorted(elems, key=lambda v: (-len(reach[v] & elems), v.sort_key())))


def realize_policy(sys: LabeledSystem, sched: DeterministicSchedule) -> Policy:
    """Turn a deterministic schedule into a concrete sensor automaton.

    Depth-first from the initial state; the active schedule state advances
    only on transmitted events.  When several members of the target estimate
    are versions of the same plant successor, the `rank` order decides, and
    an element already used as some target is skipped so repeated visits
    spread along that order.
    """
    z0 = sched.initial
    roots = [v for v in z0 if v.base == sys.plant.initial]
    if not roots:
        raise MissingSuccessor(f"schedule initial {z0.render()} has no plant-initial member")
    x0 = rank(sys, roots)[0]

    trans: dict[tuple[LabeledState, str], LabeledState] = {}
    visited = {x0}
    stack = [(x0, z0, iter(x0.events()))]
    while stack:
        x, z, events = stack[-1]
        e = next(events, None)
        if e is None:
            stack.pop()
            continue
        if x.label(e) == N:
            z2 = z
        else:
            z2 = sched.trans.get((z, e))
            if z2 is None:
                raise MissingSuccessor(
                    f"schedule lacks a successor for ({z.render()}, {e}) needed by {x.render()}"
                )
        d = [w for w in sys.successors(x, e) if w in z2]
        if not d:
            raise MissingSuccessor(
                f"no version of the plant successor of ({x.render()}, {e}) lies in {z2.render()}"
            )
        chain = rank(sys, d)
        tgt = next((c for c in chain if c not in visited), chain[0])
        trans[(x, e)] = tgt
        if tgt not in visited:
            visited.add(tgt)
            stack.append((tgt, z2, iter(tgt.events())))
    return Policy(sys.plant, x0, trans)


# ---------------------------------------------------------------------------
# policy text format
#
#   initial <labeled-state>
#   label <labeled-state> <event> Y|N     (one line per defined event)
#   trans <labeled-state> <event> <labeled-state>
#
# The label lines repeat what the state rendering already encodes; they are
# kept for readability and validated against the rendering on parse.
# ---------------------------------------------------------------------------

def format_policy(policy: Policy) -> str:
    lines = [f"initial {policy.initial.render()}"]
    for x in policy.states:
        for e, lab in x.bits:
            lines.append(f"label {x.render()} {e} {lab}")
    for (x, e), y in sorted(policy.trans.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1])):
        lines.append(f"trans {x.render()} {e} {y.render()}")
    return "\n".join(lines) + "\n"


def parse_policy(text: str, plant: Plant) -> Policy:
    initial: LabeledState | None = None
    trans: dict[tuple[LabeledState, str], LabeledState] = {}
    labels: list[tuple[LabeledState, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw, rest = tokens[0], tokens[1:]
        if kw == "initial":
            if len(rest) != 1 or initial is not None:
                raise ParseError(f"line {lineno}: bad or duplicate initial line")
            initial = parse_labeled(rest[0], plant)
        elif kw == "label":
            if len(rest) != 3:
                raise ParseError(f"line {lineno}: label takes state, event, Y|N")
            labels.append((parse_labeled(rest[0], plant), rest[1], rest[2]))
        elif kw == "trans":
            if len(rest) != 3:
                raise ParseError(f"line {lineno}: trans takes source, event, target")
            src = parse_labeled(rest[0], plant)
            dst = parse_labeled(rest[2], plant)
            if (src, rest[1]) in trans:
                raise ParseError(f"line {lineno}: duplicate transition for ({rest[0]},{rest[1]})")
            trans[(src, rest[1])] = dst
        else:
            raise ParseError(f"line {lineno}: unknown keyword {kw!r}")
    if initial is None:
        raise ParseError("missing initial line")
    for x, e, lab in labels:
        if lab not in (Y, N):
            raise ParseError(f"label for ({x.render()}, {e}) must be Y or N")
        if x.label(e) != lab:
            raise ParseError(
                f"label line for ({x.render()}, {e}) contradicts the state rendering"
            )
    return Policy(plant, initial, trans)


def load_policy(path: str, plant: Plant) -> Policy:
    return parse_policy(read_input(path), plant)
