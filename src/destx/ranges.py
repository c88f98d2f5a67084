"""Run-tree range search on int bitmasks of labeled states: `_range_levels`
grows the ranges of the partial run trees inside a candidate set, level by
level, to its fixpoint.  `admissible` runs it for PROP1, to test a receiver
estimate without building an estimate family, and the oracle
(`destx.oracle`) on its own move table."""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterable, Sequence

from .automata import Plant
from .errors import InstanceTooLarge
from .labeled import N, LabeledState


def _maximal(sets) -> set[int]:
    """The bitmasks of `sets` that no other one of them contains."""
    kept: list[int] = []
    for s in sorted(sets, key=int.bit_count, reverse=True):
        if all(s | k != k for k in kept):
            kept.append(s)
    return set(kept)


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, lowest first."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _range_levels(moves: Sequence[Sequence[int]], cand: int, maximal: bool, charge):
    """The run-tree range families inside the bitmask `cand`, one list of
    bitmask sets per level, up to the first level that the next would leave
    unchanged.  `moves[i]` holds, per suppressed event of member i, the mask
    of the members that are versions of its target: the step may follow any
    of them inside `cand`.  Level 0 maps each member i to {1 << i}, and
    level d+1 unions {1 << i} with, per suppressed event, one level-d range
    of such a version or, unless `maximal`, nothing.  Each level holds the
    one before.  A range lies inside `cand`, so swapping it for a larger one
    of its family changes no union that must be `cand`: with `maximal` each
    level keeps only the maximal ranges, and every event that can be
    followed is.  `charge(unions)` counts each batch of unions."""
    # member -> (the members it reads, per event its versions inside); a
    # member with no such event keeps its one-node range and is left out
    reads = {i: [m & cand for m in ms if m & cand] for i, ms in enumerate(moves) if cand >> i & 1}
    reads = {i: (functools.reduce(operator.or_, ms), [_bits(m) for m in ms]) for i, ms in reads.items() if ms}
    nothing = set() if maximal else {0}
    level, last, changed = [{1 << i} for i in range(len(moves))], [set()] * len(moves), cand
    while True:
        yield level
        # semi-naive: a member none of whose reads changed keeps its set
        nxt, dirty, changed = level[:], changed, 0
        for i, (src, events) in reads.items():
            if not src & dirty:
                continue
            if len(events) == 1:  # then only the ranges new at level d make new unions
                new = {1 << i | r for w in events[0] for r in level[w] - last[w]}
                charge(len(new))
                acc = level[i] | new
            else:
                acc = {1 << i}
                for opts in events:
                    ways = nothing.union(*[level[w] for w in opts])
                    charge(len(acc) * len(ways))
                    acc = {a | r for a in acc for r in ways}
            if maximal:
                acc = _maximal(acc)
            if acc != level[i]:
                nxt[i], changed = acc, changed | 1 << i
        if not changed:
            return
        last, level = level, nxt


def admissible(plant: Plant, members: Sequence[LabeledState], bases: Iterable[str], budget: int) -> bool:
    """Whether `members` is an admissible estimate over the plant states
    `bases`: reach closed, every suppressed event of a member having a
    version of its target among them, and, at some level of the maximal
    `_range_levels` inside them, the union of one range per state of
    `bases`, rooted at a version of it among them.  A set that is not reach
    closed, or a base with no version among the members, gives False before
    any union.  Past `budget` set unions it raises PROP1's InstanceTooLarge."""
    at: dict[str, int] = {}
    for i, v in enumerate(members):
        at[v.base] = at.get(v.base, 0) | 1 << i
    groups = [_bits(at.get(q, 0)) for q in sorted(bases)]
    moves = [[at.get(plant.step(v.base, e), 0) for e, lab in v.bits if lab == N] for v in members]
    if not all(groups) or not all(map(all, moves)):
        return False
    cand = (1 << len(members)) - 1
    spent = 0

    def charge(unions: int) -> None:
        nonlocal spent
        spent += unions
        if spent > budget:
            raise InstanceTooLarge(
                f"the run-tree range search passed the budget of {budget} set unions"
                " on one (tracker state, targets) entry"
            )

    def covered(level) -> bool:
        *rest, last = groups
        if not rest:  # one group: a lookup
            return any(cand in level[i] for i in last)
        unions = {0}
        for group in rest:
            charge(len(unions) * sum(len(level[i]) for i in group))
            unions = _maximal({u | r for u in unions for i in group for r in level[i]})
        charge(len(unions) * sum(len(level[i]) for i in last))
        return any(u | r == cand for u in unions for i in last for r in level[i])

    return any(map(covered, _range_levels(moves, cand, True, charge)))
