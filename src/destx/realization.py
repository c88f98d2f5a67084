"""Concrete sensor policies and their extraction from a schedule.

A policy is a deterministic automaton over labeled plant states: the state
remembers which decision vector is active, its own labels say which events
get transmitted, and the transition map follows the plant through both
transmitted and suppressed events.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .automata import Plant, Word, read_input, records
from .errors import DestxError
from .labeled import N, Y, LabeledState, LabeledSystem, parse_labeled


class Policy:
    """Sensor automaton bound to a plant.

    trans is partial: it covers every transition the realization visited,
    which for synthesized policies is everything reachable from the initial
    state.  Replaying a word that escapes the covered part raises
    DestxError.
    """

    def __init__(self, plant: Plant, initial: LabeledState, trans: dict[tuple[LabeledState, str], LabeledState]):
        self.plant = plant
        self.initial = initial
        self.trans = dict(trans)
        if initial.base != plant.initial:
            raise DestxError(
                f"policy initial {initial.render()} is not a version of the plant initial {plant.initial!r}"
            )
        seen = {initial}
        for (x, e), y in self.trans.items():
            seen.add(x)
            seen.add(y)
            if plant.step(x.base, e) != y.base:
                raise DestxError(
                    f"policy transition {x.render()} -{e}-> {y.render()} does not follow the plant"
                )
        for x in seen:
            if tuple(sorted(plant.defined_events(x.base))) != x.events():
                raise DestxError(f"{x.render()} does not label exactly the defined events")
        self.states = tuple(sorted(seen))

    def step(self, x: LabeledState, e: str) -> LabeledState:
        nxt = self.trans.get((x, e))
        if nxt is None:
            raise DestxError(f"policy has no transition for ({x.render()}, {e})")
        return nxt

    def replay(self, s: Iterable[str]) -> Iterator[tuple[str, str]]:
        """Each event of the plant word `s` with the label the policy gives
        it, yielded once the policy has stepped past it: an event that the
        plant does not define, or that the policy has no transition for,
        raises DestxError before it is yielded."""
        x = self.initial
        for e in s:
            if self.plant.step(x.base, e) is None:
                raise DestxError(f"event {e!r} is not defined at plant state {x.base!r}")
            sent = x.label(e)
            x = self.step(x, e)
            yield e, sent

    def projection(self, s: Iterable[str]) -> Word:
        """The transmitted subsequence of a plant word."""
        return tuple(e for e, sent in self.replay(s) if sent == Y)

    def __repr__(self):
        return f"Policy(initial={self.initial.render()}, states={len(self.states)})"


class DeterministicSchedule(namedtuple("DeterministicSchedule", "initial states trans")):
    """One committed successor per (estimate, event), rooted at the estimate
    `initial`: `trans` maps (estimate, event) to it, and `states` holds the
    estimates reached, in `sort_key` order."""

    __slots__ = ()


def _leading_back_first(plant: Plant, versions: Iterable[LabeledState]) -> list[LabeledState]:
    """Versions of one plant state, those whose suppressed events lead back
    to that state first, each group in (base, bits) order."""

    def leads_back(v):
        return v.base in plant.reach(plant.step(v.base, e) for e, lab in v.bits if lab == N)

    return sorted(versions, key=lambda v: (not leads_back(v), v))


def realize_policy(sys: LabeledSystem, sched: DeterministicSchedule) -> Policy:
    """Turn a deterministic schedule into a concrete sensor automaton.

    Depth-first from the initial state; the active schedule state advances
    only on transmitted events.  When several members of the target estimate
    are versions of the plant successor, those whose suppressed events lead
    back to it in the plant come first, then (base, bits) decides; a
    version already used as some target is skipped so repeated visits spread
    along that order.  Only `sys.plant` is read.
    """
    plant = sys.plant
    z0 = sched.initial
    roots = [v for v in z0 if v.base == plant.initial]
    if not roots:
        raise DestxError(f"schedule initial {z0.render()} has no plant-initial member")
    x0 = _leading_back_first(plant, roots)[0]

    trans: dict[tuple[LabeledState, str], LabeledState] = {}
    visited = {x0}
    stack = [(x0, z0, iter(x0.bits))]
    while stack:
        x, z, bits = stack[-1]
        e, lab = next(bits, (None, None))
        if e is None:
            stack.pop()
            continue
        z2 = z if lab == N else sched.trans.get((z, e))
        if z2 is None:
            raise DestxError(f"schedule lacks a successor for ({z.render()}, {e}) needed by {x.render()}")
        q2 = plant.step(x.base, e)
        d = [w for w in z2 if w.base == q2]
        if not d:
            raise DestxError(
                f"no version of the plant successor of ({x.render()}, {e}) lies in {z2.render()}"
            )
        order = _leading_back_first(plant, d)
        tgt = next((c for c in order if c not in visited), order[0])
        trans[(x, e)] = tgt
        if tgt not in visited:
            visited.add(tgt)
            stack.append((tgt, z2, iter(tgt.bits)))
    return Policy(plant, x0, trans)


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
    for (x, e), y in sorted(policy.trans.items()):
        lines.append(f"trans {x.render()} {e} {y.render()}")
    return "\n".join(lines) + "\n"


def parse_policy(text: str, plant: Plant) -> Policy:
    initial: LabeledState | None = None
    trans: dict[tuple[LabeledState, str], LabeledState] = {}
    labels: list[tuple[LabeledState, str, str]] = []
    for lineno, _raw, kw, rest in records(text):
        if kw == "initial":
            if len(rest) != 1 or initial is not None:
                raise DestxError(f"line {lineno}: bad or duplicate initial line")
            initial = parse_labeled(rest[0], plant)
        elif kw == "label":
            if len(rest) != 3:
                raise DestxError(f"line {lineno}: label takes state, event, Y|N")
            labels.append((parse_labeled(rest[0], plant), rest[1], rest[2]))
        elif kw == "trans":
            if len(rest) != 3:
                raise DestxError(f"line {lineno}: trans takes source, event, target")
            src = parse_labeled(rest[0], plant)
            dst = parse_labeled(rest[2], plant)
            if (src, rest[1]) in trans:
                raise DestxError(f"line {lineno}: duplicate transition for ({rest[0]},{rest[1]})")
            trans[(src, rest[1])] = dst
        else:
            raise DestxError(f"line {lineno}: unknown keyword {kw!r}")
    if initial is None:
        raise DestxError("missing initial line")
    for x, e, lab in labels:
        if lab not in (Y, N):
            raise DestxError(f"label for ({x.render()}, {e}) must be Y or N")
        if x.label(e) != lab:
            raise DestxError(
                f"label line for ({x.render()}, {e}) contradicts the state rendering"
            )
    return Policy(plant, initial, trans)


def load_policy(path: str, plant: Plant) -> Policy:
    return parse_policy(read_input(path), plant)
