"""Receiver-side estimate automaton over the decision-labeled system.

The receiver never sees suppressed events, so after each transmitted event
its estimate is a set of labeled states that is closed under suppressed
moves.  Because each intermediate state may resolve its suppressed successor
to any decision version, one transmission can lead to several alternative
closed estimates; the observer built here keeps all of them and is therefore
nondeterministic over estimate sets.

An estimate over a set of plant states is admissible when it is the exact
range of some partial run tree rooted at one decision version of each of
those states: each tree node follows any subset of its suppressed events
and commits to a single decision version of the plant successor per
followed event.  Revisiting a state at a different depth may commit
differently.  On top of that the estimate must be reach closed: every
suppressed obligation of every member is answered by some member.  The
initial estimates are the admissible estimates over the initial plant
state, and transmitting e from an estimate leads to those over the plant
states its members transmit e into; `_estimates_over` builds both.

On a system built with a property, a range or partial union of ranges
that violates it is dropped where it is formed.  Violation is upward-closed
under union, so it could only grow into violating estimates: the observer
is exactly the full one cut to the estimates that hold the property.

An estimate is an `ObserverState`, a frozenset of labeled states that also
renders and sorts canonically.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Sequence

from .automata import DEFAULT_BUDGET, Plant, explore
from .errors import InstanceTooLarge, StateBudgetExceeded
from .labeled import N, Y, LabeledState, LabeledSystem, ObserverState, unobservable_reach


def reach_closed(sys: LabeledSystem, members: frozenset[LabeledState]) -> bool:
    """Every suppressed event of every member must land inside the set: on
    a member of its plant successor, since the step may land on any version."""
    bases = {v.base for v in members}
    return all(sys.plant.step(v.base, e) in bases for v in members for e, lab in v.bits if lab == N)


def _union_choices(parts, keep, budget: int, start: frozenset = frozenset()) -> set[frozenset]:
    """Distinct unions of `start` with one option from every part, the
    partial unions filtered by `keep`.

    Equivalent to unioning each tuple of itertools.product(*parts) and
    keeping what `keep` accepts, when `keep` rejects every superset of a set
    it rejects; deduplicating and filtering after every part keeps the
    working set at the number of distinct accepted unions instead of the
    raw product size.  More than `budget` unions in one call stop it with
    StateBudgetExceeded.
    """
    acc: set[frozenset] = {start}
    work = 0
    for options in parts:
        opts = set(options)
        work += len(acc) * len(opts)
        if work > budget:
            raise StateBudgetExceeded(f"estimate unions exceeded {budget} set unions while combining ranges")
        acc = set(filter(keep, {a | o for a in acc for o in opts}))
    return acc


def _cover_families(sys: LabeledSystem, seeds, budget: int) -> dict[LabeledState, frozenset[frozenset[LabeledState]]]:
    """Least fixpoint of the run-tree range families.

    fam[v] collects every set of labeled states that is the range of some
    finite partial run tree rooted at v.  The defining step: pick a subset E
    of v's suppressed events, pick one version w of the plant successor for
    each event in E, pick a range already known for w, and union them with
    {v}.  Only ranges that hold the system's property are kept, and a
    state whose own plant state violates it roots none: every range of a
    tree holds its subtrees' ranges, so a range that holds is built from
    kept ranges only.  Results are memoized on the system since fam[v] only
    depends on the suppressed-reach universe of v and the property.  More
    than `budget` ranges over the universe, or unions in one step, stop it
    with StateBudgetExceeded.
    """
    universe = unobservable_reach(sys, seeds)
    pending = [v for v in universe if v not in sys._cover_cache]
    if not pending:
        return {v: sys._cover_cache[v] for v in universe}

    fam: dict[LabeledState, set[frozenset[LabeledState]]] = {
        v: set(sys._cover_cache.get(v, ())) for v in universe
    }
    # a fixed order makes the budget stop on the same cap in every process
    order = sorted(universe)
    changed = True
    while changed:
        changed = False
        total = 0
        for v in order:
            if v in sys._cover_cache or not sys.admits((v,)):
                total += len(fam[v])
                continue
            # per suppressed event: the ways to not follow it (empty) or to
            # follow it into one version with one of its known ranges
            per_event = []
            for _e, opts in sys.suppressed_moves(v):
                ways: set[frozenset[LabeledState]] = {frozenset()}
                for w in opts:
                    ways.update(fam[w])
                per_event.append(ways)
            for rng in _union_choices(per_event, sys.admits, budget, frozenset({v})):
                if rng not in fam[v]:
                    fam[v].add(rng)
                    changed = True
            total += len(fam[v])
            if total > budget:
                raise StateBudgetExceeded(f"estimate family exceeded {budget} sets while closing")
    for v in pending:
        sys._cover_cache[v] = frozenset(fam[v])
    return {v: sys._cover_cache[v] for v in universe}


def _sorted_estimates(ranges) -> tuple[ObserverState, ...]:
    return tuple(sorted(map(ObserverState, ranges), key=ObserverState.sort_key))


def closure_family(sys: LabeledSystem, seed: LabeledState, budget: int = DEFAULT_BUDGET) -> tuple[ObserverState, ...]:
    """All admissible closed estimates grown from a single seed state."""
    fam = _cover_families(sys, (seed,), budget)
    return _sorted_estimates(rng for rng in fam[seed] if reach_closed(sys, rng))


def _estimates_over(sys: LabeledSystem, bases: frozenset[str], budget: int) -> tuple[ObserverState, ...]:
    """All admissible estimates over the plant states `bases`, the
    observer's initial estimates when `bases` is {initial}: the reach-closed
    unions of one run-tree range per plant state, rooted at any of its
    versions.  An estimate seeded by a core, one version of each state, is
    such a union, and such a union is an estimate over the core its ranges
    are rooted at, so one union over the pooled families of each state's
    versions covers every core.  Unions that violate the system's property
    are dropped as they form.  Memoized on the system: the result depends
    on nothing else, and `budget` only decides whether it is built."""
    hit = sys._step_cache.get(bases)
    if hit is None:
        pools = [sys.versions_of(b) for b in sorted(bases)]
        fam = _cover_families(sys, [v for pool in pools for v in pool], budget)
        pooled = ({rng for v in pool for rng in fam[v]} for pool in pools)
        ranges = _union_choices(pooled, sys.admits, budget) if pools else ()
        hit = sys._step_cache[bases] = _sorted_estimates(rng for rng in ranges if reach_closed(sys, rng))
    return hit


def targets(plant: Plant, z, e: str) -> frozenset[str]:
    """The plant states that the members of `z` transmitting `e` move to."""
    return frozenset(plant.step(v.base, e) for v in z if (e, Y) in v.bits)


def observer_step(
    sys: LabeledSystem, z: ObserverState, e: str, budget: int = DEFAULT_BUDGET
) -> tuple[ObserverState, ...]:
    """All admissible estimates after `z` transmits `e`: those over the plant
    states its members transmit `e` into."""
    return _estimates_over(sys, targets(sys.plant, z, e), budget)


class DynamicObserver:
    """Nondeterministic transition system over admissible estimates."""

    def __init__(self, sys: LabeledSystem, states, initials, trans):
        self.sys = sys
        self.states = tuple(sorted(states, key=ObserverState.sort_key))
        self.initials = tuple(sorted(initials, key=ObserverState.sort_key))
        self.trans: dict[tuple[ObserverState, str], tuple[ObserverState, ...]] = dict(trans)

    def successors(self, z: ObserverState, e: str) -> tuple[ObserverState, ...]:
        return self.trans.get((z, e), ())

    @property
    def transition_count(self) -> int:
        return sum(len(v) for v in self.trans.values())

    def to_dot(self) -> str:
        ids = {z: f"n{i}" for i, z in enumerate(self.states)}
        lines = ["digraph observer {", "  rankdir=LR;"]
        for z in self.states:
            shape = "doublecircle" if z in self.initials else "circle"
            lines.append(f'  {ids[z]} [label="{z.render()}", shape={shape}];')
        for (z, e), targets in sorted(
            self.trans.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1])
        ):
            for z2 in targets:
                lines.append(f'  {ids[z]} -> {ids[z2]} [label="{e}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return f"DynamicObserver({len(self.states)} states, {self.transition_count} transitions)"


def build_observer(sys: LabeledSystem, state_budget: int = DEFAULT_BUDGET) -> DynamicObserver:
    """Explore every admissible estimate reachable from the initial ones,
    the estimates over the initial plant state.  `state_budget` caps the
    observer states, and the unions and range sets of each estimate step."""
    initials = _estimates_over(sys, frozenset({sys.plant.initial}), state_budget)
    states, trans = explore(
        initials, sys.plant.alphabet, lambda z, e: observer_step(sys, z, e, state_budget), state_budget
    )
    return DynamicObserver(sys, states, initials, trans)


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


def _range_levels(moves: Sequence[Sequence[int]], cand: int, depth: int | None, charge):
    """The run-tree range families inside the bitmask `cand`, one list of
    bitmask sets per level.  `moves[i]` holds, per suppressed event of
    member i, the mask of the members that are versions of its target: the
    step may follow any of them inside `cand`.  Level 0 maps each member i
    to {1 << i}, and level d+1 unions {1 << i} with, per suppressed event,
    nothing or one level-d range of such a version.  Each level holds the
    one before; the last is at `depth` (None: the fixpoint) or the one the
    next would leave unchanged.  A range lies inside `cand`, so swapping it
    for a larger one of its family changes no union that must be `cand`:
    the fixpoint keeps only maximal ranges.  `charge(unions)` counts each
    batch of unions."""
    # member -> (the members it reads, per event its versions inside); a
    # member with no such event keeps its one-node range and is left out
    reads = {i: [m & cand for m in ms if m & cand] for i, ms in enumerate(moves) if cand >> i & 1}
    reads = {i: (functools.reduce(operator.or_, ms), [_bits(m) for m in ms]) for i, ms in reads.items() if ms}
    nothing = set() if depth is None else {0}
    level, last, changed = [{1 << i} for i in range(len(moves))], [set()] * len(moves), cand
    for _ in itertools.count() if depth is None else range(depth):
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
            if depth is None:
                acc = _maximal(acc)
            if acc != level[i]:
                nxt[i], changed = acc, changed | 1 << i
        if not changed:
            return
        last, level = level, nxt
    yield level


def realizable(
    sys: LabeledSystem, members: Sequence[LabeledState], cand: int,
    roots: Sequence[Sequence[LabeledState]], depth: int | None = None, budget: int | None = None,
) -> bool:
    """Whether some level of `_range_levels` up to `depth` holds one range
    per group of `roots` (members inside `cand`), each rooted in its group,
    whose union is `cand`.  More than `budget` set unions (None: no cap)
    raise StateBudgetExceeded."""
    index = {v: i for i, v in enumerate(members)}
    groups = [[index[v] for v in group] for group in roots]
    at: dict[str, int] = {}
    for i, v in enumerate(members):
        at[v.base] = at.get(v.base, 0) | 1 << i
    moves = [[at.get(sys.plant.step(v.base, e), 0) for e, lab in v.bits if lab == N] for v in members]
    spent = 0

    def charge(unions: int) -> None:
        nonlocal spent
        spent += unions
        if budget is not None and spent > budget:
            raise StateBudgetExceeded(f"the run-tree range search passed the budget of {budget} set unions")

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

    return any(map(covered, _range_levels(moves, cand, depth, charge)))


def closure_family_bruteforce(
    sys: LabeledSystem, seed: LabeledState, depth: int | None = None
) -> tuple[ObserverState, ...]:
    """Oracle for closure_family by exhaustive subset search: every subset
    of the seed's suppressed-reach universe that holds the seed, is reach
    closed, and is the range of a partial run tree of at most `depth`
    levels (default |U|^2 + 1) that never leaves it.  It reads the system
    only through `sys.suppressed_moves`, in its own universe walk and then
    into one move table for its closure check, reach walks and
    `_range_levels`, on int bitmasks over the universe in sort order.

    The closure check and a subset's range families do not depend on the
    root, so one scan per (universe, depth), memoized on the system, serves
    every member whose own universe it is: one level loop per subset serves
    those whose reach fills it, and stops early once all are covered."""
    seen, work = {seed}, [seed]
    while work:
        for _e, opts in sys.suppressed_moves(work.pop()):
            work.extend(w for w in opts if w not in seen)
            seen.update(opts)
    n = len(seen)
    if n > 20:
        raise InstanceTooLarge(f"oracle universe has {n} states, cap is 20")
    if depth is None:
        depth = n * n + 1
    key = (frozenset(seen), depth)
    if key not in sys._oracle_cache:
        universe = sorted(seen)
        index = {v: i for i, v in enumerate(universe)}
        moves = [[sum(1 << index[w] for w in opts) for _e, opts in sys.suppressed_moves(v)] for v in universe]
        succ = {1 << i: functools.reduce(operator.or_, ts, 0) for i, ts in enumerate(moves)}
        pred = {1 << i: sum(b for b, t in succ.items() if t >> i & 1) for i in range(n)}
        # bit c of cols[i] is bit i of c, so `closed` tests every subset at
        # once: a closed subset meets each target of each member it holds
        cols: list[int] = []
        for k in range(n):
            cols = [x | x << (1 << k) for x in cols] + [((1 << (1 << k)) - 1) << (1 << k)]
        closed = (1 << (1 << n)) - 1
        for i, ts in enumerate(moves):
            for t in set(ts):
                closed &= ~cols[i] | functools.reduce(operator.or_, (cols[j] for j in _bits(t)))

        def walk(root: int, cand: int, table) -> int:
            reached = todo = root
            while todo:
                low = todo & -todo
                new = table[low] & cand & ~reached
                reached, todo = reached | new, todo ^ low | new
            return reached

        # the members whose own universe this is, and the subsets found for each
        full = (1 << n) - 1
        found = {i: [] for i in range(n) if walk(1 << i, full, succ) == full}
        seeds = sum(1 << i for i in found)
        for cand, bit in enumerate(reversed(f"{closed:b}")):
            if bit == "1":
                # the seeds whose reach fills `cand` are those that reach one
                # such seed, and no seed inside a reach that falls short is one
                left, pending = seeds & cand, set()
                while left and not pending:
                    root = left & -left
                    fwd = walk(root, cand, succ)
                    if fwd == cand:
                        pending = set(_bits(seeds & walk(root, cand, pred)))
                    left &= ~fwd
                for level in _range_levels(moves, cand, depth, lambda unions: None) if pending else ():
                    for i in [i for i in pending if cand in level[i]]:
                        pending.remove(i)
                        found[i].append(frozenset(v for j, v in enumerate(universe) if cand >> j & 1))
                    if not pending:
                        break
        sys._oracle_cache[key] = {universe[i]: _sorted_estimates(fam) for i, fam in found.items()}
    return sys._oracle_cache[key][seed]
