"""Construction of the receiver's estimate automaton over the labeled system.

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

Ranges are built as packed ints (`_cover_families`), so that a union is
one `|`, a property test one mask test per pair and a reach-closure test
one shift, and the range families close in semi-naive rounds.  They are
unpacked to `ObserverState` only where an estimate leaves this module.
"""

from __future__ import annotations

from .automata import DEFAULT_BUDGET, explore
from .errors import StateBudgetExceeded
from .labeled import (
    LabeledState, LabeledSystem, ObserverState, _sorted_estimates, targets, unobservable_reach,
)

_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})  # for a name inside a quoted DOT label


def _union_choices(parts, bad: set[int], budget: int, start: int = 0) -> set[int]:
    """Distinct unions of the packed range `start` with one option from
    every part, less those that hold a pair mask of `bad`; a part is given
    as the families whose union holds its options.

    Equivalent to unioning each tuple of itertools.product(*parts) and
    dropping the violating ones, since violation is upward-closed;
    deduplicating and filtering after every part keeps the working set at
    the number of distinct kept unions instead of the raw product size.
    More than `budget` unions in one call stop it with
    StateBudgetExceeded.  The test runs as each family joins a part, so a
    step past the budget stops before it hashes the rest of the part: a
    packed range is as wide as the system's id table.
    """
    acc = {start}
    work = 0
    for families in parts:
        options, room = set(), budget - work
        for fam in families:
            options.update(fam)
            if len(acc) * len(options) > room:
                raise StateBudgetExceeded("estimate unions exceeded %d set unions while combining ranges" % budget)
        work += len(acc) * len(options)
        acc = {a | o for a in acc for o in options}
        for p in bad:
            acc = {r for r in acc if r & p != p}
    return acc


def _cover_families(sys: LabeledSystem, seeds, budget: int):
    """Least fixpoint of the packed run-tree range families over the
    suppressed reach of `seeds`.

    fam[v] collects every set of labeled states that is the range of some
    finite partial run tree rooted at v.  The defining step: pick a subset E
    of v's suppressed events, pick one version w of the plant successor for
    each event in E, pick a range already known for w, and union them with
    {v}.  Only ranges that hold the system's property are kept, and a
    state whose own plant state violates it roots none: every range of a
    tree holds its subtrees' ranges, so a range that holds is built from
    kept ranges only.

    A range is packed into one int over the n plant states in sort order:
    bit i if a member is a version of state i, bit n+i if a member's
    suppressed event leads to state i, and bit 2n+k for the member
    numbered k in `sys._ids`.  Each field is a function of the members, so a
    union is one `|`, and the property's pair masks (`bad`) test a range:
    it violates when it holds all the bits of one.

    Rounds are semi-naive: a state is recomputed only when a state it
    reads grew in the round before, and a state with one suppressed event
    unions {v} with the ranges new in that round alone.  Families are
    memoized on the system since fam[v] only depends on the
    suppressed-reach universe of v and the property; cached ones are read
    as fixed.  Returns that memo, which then holds every state of the
    universe, and `bad`.  More than `budget` ranges over the universe after
    a round, or unions in one step, stop it with StateBudgetExceeded.
    """
    bit = {q: 1 << i for i, q in enumerate(sorted(sys.plant.states))}
    bad = {bit[a] | bit[b] for a, b in sys.prop or ()}
    universe = unobservable_reach(sys, seeds)
    cache, ids = sys._cover_cache, sys._ids
    pending = sorted(universe.difference(cache))
    if pending:
        level, reads = dict(zip(universe, map(cache.get, universe))), {}
        for v in pending:
            read = 0  # the plant states whose versions v reads
            events = []
            for _e, opts in sys.suppressed_moves(v):
                read |= bit[opts[0].base]
                events.append(opts)
            own = 1 << 2 * len(bit) + ids.setdefault(v, len(ids)) | read << len(bit) | bit[v.base]
            # {v} alone violates only by a pair of its plant state with itself
            level[v] = () if bit[v.base] in bad else frozenset({own})
            if level[v]:
                reads[v] = own, events, read
        # the first round reads every known range as new
        new, dirty = level, (1 << len(bit)) - 1
        while dirty:
            grown = {}
            for v, (own, events, read) in reads.items():
                if read & dirty:
                    if len(events) == 1:  # then only the ranges new in the last round make new unions
                        parts = [map(new.get, events[0])]
                    else:
                        parts = [[{0}, *map(level.get, opts)] for opts in events]
                    acc = level[v].union(_union_choices(parts, bad, budget, own))
                    if len(acc) > len(level[v]):
                        grown[v] = acc
            new, dirty = dict.fromkeys(universe, ()), 0
            for v, acc in grown.items():
                new[v], level[v] = acc - level[v], acc
                dirty |= bit[v.base]
            if sum(map(len, level.values())) > budget:
                raise StateBudgetExceeded("estimate family exceeded %d sets while closing" % budget)
        for v in pending:
            cache[v] = frozenset(level[v])
    return cache, bad


def _estimates(sys: LabeledSystem, ranges) -> tuple[ObserverState, ...]:
    """The reach-closed packed `ranges`, those holding every plant state
    their members' suppressed events lead to, unpacked to sorted estimates."""
    n = len(sys.plant.states)
    order, out = list(sys._ids), []
    for r in ranges:
        if not (r >> n) & ~r & ((1 << n) - 1):
            members, r = [], r >> 2 * n
            while r:
                low = r & -r
                members.append(order[low.bit_length() - 1])
                r ^= low
            out.append(members)
    return _sorted_estimates(out)


def closure_family(sys: LabeledSystem, seed: LabeledState, budget: int = DEFAULT_BUDGET) -> tuple[ObserverState, ...]:
    """All admissible closed estimates grown from a single seed state."""
    return _estimates(sys, _cover_families(sys, (seed,), budget)[0][seed])


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
        pools = list(map(sys.versions_of, sorted(bases)))
        fam, bad = _cover_families(sys, sum(pools, ()), budget)
        ranges = _union_choices([map(fam.get, pool) for pool in pools], bad, budget) if pools else ()
        hit = sys._step_cache[bases] = _estimates(sys, ranges)
    return hit


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
        return sum(map(len, self.trans.values()))

    def to_dot(self) -> str:
        ids = {z: "n%d" % i for i, z in enumerate(self.states)}
        lines = ["digraph observer {", "  rankdir=LR;"]
        for z in self.states:
            shape = "doublecircle" if z in self.initials else "circle"
            lines.append('  %s [label="%s", shape=%s];' % (ids[z], z.render().translate(_DOT_ESCAPES), shape))
        events = sorted(self.sys.plant.alphabet)
        for z in self.states:
            for e in events:
                for z2 in self.successors(z, e):
                    lines.append('  %s -> %s [label="%s"];' % (ids[z], ids[z2], e.translate(_DOT_ESCAPES)))
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        return "DynamicObserver(%d states, %d transitions)" % (len(self.states), self.transition_count)


def build_observer(sys: LabeledSystem, state_budget: int = DEFAULT_BUDGET) -> DynamicObserver:
    """Explore every admissible estimate reachable from the initial ones,
    the estimates over the initial plant state.  `state_budget` caps the
    observer states, and the unions and range sets of each estimate step."""
    initials = _estimates_over(sys, frozenset({sys.plant.initial}), state_budget)
    states, trans = explore(
        initials, sys.plant.alphabet, lambda z, e: observer_step(sys, z, e, state_budget), state_budget
    )
    return DynamicObserver(sys, states, initials, trans)


def __getattr__(name):  # `perfbench/traced.py` still imports the oracle from here
    if name != "closure_family_bruteforce":
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from .oracle import closure_family_bruteforce
    return closure_family_bruteforce
