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
"""

from __future__ import annotations

from .automata import DEFAULT_BUDGET, explore
from .errors import StateBudgetExceeded
from .labeled import (
    LabeledState, LabeledSystem, ObserverState, _sorted_estimates, reach_closed, targets, unobservable_reach,
)

_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})  # for a name inside a quoted DOT label


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
            lines.append(f'  {ids[z]} [label="{z.render().translate(_DOT_ESCAPES)}", shape={shape}];')
        for (z, e), succ in sorted(self.trans.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1])):
            for z2 in succ:
                lines.append(f'  {ids[z]} -> {ids[z2]} [label="{e.translate(_DOT_ESCAPES)}"];')
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


def __getattr__(name):  # `perfbench/traced.py` still imports the oracle from here
    if name != "closure_family_bruteforce":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import closure_family_bruteforce
    return closure_family_bruteforce
