"""Closure families, observer steps, and the dynamic observer automaton."""

import itertools
import random
import re
import types
from sys import modules

import pytest
from hypothesis import given, settings, strategies as st

from destx import (
    InstanceTooLarge,
    DistinguishabilitySpec,
    Plant,
    StateBudgetExceeded,
    build_labeled_system,
    build_observer,
    check_tracker_containment,
    closure_family,
    closure_family_bruteforce,
    explore,
    shortlex_levels,
    observer_step,
    parse_des,
    parse_labeled,
    unobservable_reach,
)
from destx import observer, oracle
from destx.automata import DEFAULT_BUDGET
from destx.labeled import N
from destx.observer import ObserverState, _cover_families
from destx.ranges import _range_levels, admissible
from destx_child import python_child
from randgen import make_labeled, random_plant

plants = st.integers(0, 10**6).map(lambda s: random_plant(random.Random(s)))


def _os(plant, *renderings):
    return ObserverState(parse_labeled(r, plant) for r in renderings)


def reach_closed(sys, members):
    """Reference for the closure half of `admissible`: every suppressed
    event of every member lands inside the set, on a member of its plant
    successor, since the step may land on any version."""
    bases = {v.base for v in members}
    return all(sys.plant.step(v.base, e) in bases for v in members for e, lab in v.bits if lab == N)


def _family(lsys, plant, seed):
    return [z.render() for z in closure_family(lsys, parse_labeled(seed, plant))]


def test_observer_state_canonical(plant):
    a = parse_labeled("q1Y", plant)
    b = parse_labeled("q0NNY", plant)
    z = ObserverState([a, b, a])
    assert len(z) == 2
    assert z.render() == "(q0NNY,q1Y)"
    assert z == _os(plant, "q1Y", "q0NNY")
    assert a in z
    assert z.underlying() == {"q0", "q1"}
    # an estimate is the frozenset of its members
    assert z == frozenset({a, b}) and hash(z) == hash(frozenset({a, b}))


def test_closure_family_q0NNY(lsys, plant):
    assert _family(lsys, plant, "q0NNY") == [
        "(q0NNY,q1Y,q5)",
        "(q0NNY,q1N,q2N,q5)",
        "(q0NNY,q1N,q2Y,q5)",
        "(q0NNY,q1N,q1Y,q2N,q5)",
        "(q0NNY,q1N,q2N,q2Y,q5)",
    ]


def test_closure_family_other_seeds(lsys, plant):
    assert _family(lsys, plant, "q2N") == [
        "(q1N,q2N)",
        "(q1Y,q2N)",
        "(q1N,q1Y,q2N)",
        "(q1N,q2N,q2Y)",
    ]
    assert _family(lsys, plant, "q3N") == [
        "(q3N,q4N)",
        "(q3N,q4Y)",
        "(q3N,q4N,q4Y)",
    ]
    assert _family(lsys, plant, "q2Y") == ["(q2Y)"]
    # the self loop may re-pick its version on revisit
    assert _family(lsys, plant, "q4N") == ["(q4N)", "(q4N,q4Y)"]


def test_closure_family_invariants(lsys):
    for seed in lsys.states:
        fam = closure_family(lsys, seed)
        assert fam
        ureach = unobservable_reach(lsys, (seed,))
        keys = [z.sort_key() for z in fam]
        assert keys == sorted(keys)
        assert len(set(fam)) == len(fam)
        for z in fam:
            assert seed in z
            assert z <= ureach
            assert reach_closed(lsys, z)


def test_reach_closed(plant):
    """`admissible` tests reach closure on its own move table: a set that
    some member's suppressed event leaves is no estimate, even where its
    one range covers it, as the lone q0NNY's does."""
    def ok(bases, *renderings):
        return admissible(plant, _os(plant, *renderings).members, bases, DEFAULT_BUDGET)

    assert ok({"q0"}, "q0NNY", "q1N", "q2N", "q5")
    assert not ok({"q0"}, "q0NNY", "q5")
    assert not ok({"q3"}, "q3N")
    assert ok({"q2"}, "q2Y")
    assert not ok({"q0"}, "q0NNY")


def test_observer_step(lsys, plant):
    z0 = _os(plant, "q0NNY", "q1Y", "q5")
    assert observer_step(lsys, z0, "σ1") == ()
    assert [z.render() for z in observer_step(lsys, z0, "σ2")] == [
        "(q2Y)",
        "(q1N,q2N)",
        "(q1Y,q2N)",
        "(q1N,q1Y,q2N)",
        "(q1N,q2N,q2Y)",
    ]
    assert [z.render() for z in observer_step(lsys, z0, "σ3")] == [
        "(q3Y)",
        "(q3N,q4N)",
        "(q3N,q4Y)",
        "(q3N,q4N,q4Y)",
    ]


def test_build_observer_size(obs):
    assert len(obs.states) == 101
    assert len(obs.initials) == 60
    assert obs.transition_count == 665


def test_observer_contents(obs, lsys, plant):
    fam = closure_family(lsys, parse_labeled("q0NNY", plant))
    assert set(fam) <= set(obs.initials)
    for z in obs.states:
        assert len(z) > 0
        assert reach_closed(lsys, z)
    # all successors are states; transitions only on defined events
    for (z, e), targets in obs.trans.items():
        assert targets
        assert set(targets) <= set(obs.states)
        assert e in plant.alphabet


def test_step_exists_iff_someone_transmits(obs, lsys, plant):
    for z in obs.states:
        for e in sorted(plant.alphabet):
            has_y = any(e in v.events() and v.label(e) == "Y" for v in z)
            assert bool(observer_step(lsys, z, e)) == has_y
            assert bool(obs.successors(z, e)) == has_y


def test_observer_deterministic(lsys):
    a = build_observer(lsys)
    b = build_observer(lsys)
    assert a.to_dot() == b.to_dot()
    assert a.states == b.states


def test_observer_budget(lsys):
    with pytest.raises(StateBudgetExceeded):
        build_observer(lsys, state_budget=10)


def test_explore_order_and_budget():
    succ = {(0, "a"): (1, 2), (1, "b"): (3,), (2, "a"): (0,)}

    def step(z, e):
        return succ.get((z, e), ())

    # breadth first: roots, then states in the order first reached
    states, trans = explore((0,), {"b", "a"}, step)
    assert states == (0, 1, 2, 3)
    assert trans == succ
    assert explore((0,), {"a", "b"}, step, budget=4)[0] == states
    with pytest.raises(StateBudgetExceeded):
        explore((0,), {"a", "b"}, step, budget=3)


def test_shortlex_levels():
    succ = {"r": (("a", "x"), ("b", "y")), "x": (("a", "z"),), "y": (("a", "z"), ("b", "x")), "z": ()}
    levels = [(n, dict(level)) for n, level in shortlex_levels("r", 10, succ.__getitem__)]
    # keys in the order of their first words; r a a and r b a meet at z;
    # the walk stops at the first empty level, long before depth 10
    assert levels == [
        (0, {"r": ((), 1)}),
        (1, {"x": (("a",), 1), "y": (("b",), 1)}),
        (2, {"z": (("a", "a"), 2), "x": (("b", "b"), 1)}),
        (3, {"z": (("b", "b", "a"), 1)}),
    ]
    assert [list(level) for _n, level in levels] == [["r"], ["x", "y"], ["z", "x"], ["z"]]

    def lazy(key):
        if key != "r":
            raise AssertionError(f"level after {key!r} was built")
        return succ[key]

    # a level is built only when the caller asks for it, never past depth
    assert [n for n, _level in shortlex_levels("r", 1, lazy)] == [0, 1]
    walk = shortlex_levels("r", 10, lazy)
    assert [next(walk)[0], next(walk)[0]] == [0, 1]
    with pytest.raises(AssertionError, match="level after 'x' was built"):
        next(walk)


def test_observer_trivial_plant():
    plant = Plant(["s"], ["a"], {}, "s")
    lsys = build_labeled_system(plant)
    obs = build_observer(lsys)
    assert len(obs.states) == 1
    assert obs.transition_count == 0
    assert obs.states[0].render() == "(s)"


def test_to_dot(obs):
    dot = obs.to_dot()
    assert dot.startswith("digraph")
    assert "(q2Y)" in dot
    assert obs.to_dot() == dot


def test_to_dot_escapes_quotes_and_backslashes():
    """Names holding `"` and `\\`: every label is one well-formed quoted
    string, closed before its attribute ends, that unescapes back to the
    estimate or event it renders; `\\N` would read as Graphviz's node name."""
    plant = parse_des('alphabet a"x\nstates q\\N q1\ninitial q\\N\ntrans q\\N a"x q1\ntrans q1 a"x q\\N\n')
    obs = build_observer(build_labeled_system(plant))
    dot = obs.to_dot()
    labels = re.findall(r'label=("(?:[^"\\]|\\.)*")([,\]])', dot)
    assert len(labels) == len(obs.states) + obs.transition_count == 37
    assert len(re.findall("label=", dot)) == len(labels)
    names = [re.sub(r"\\(.)", r"\1", quoted[1:-1]) for quoted, _end in labels]
    assert names[: len(obs.states)] == [z.render() for z in obs.states]
    assert set(names[len(obs.states):]) == {'a"x'}
    assert '"(q\\\\NY)"' in dot and '"a\\"x"' in dot


def test_oracle_still_imports_from_observer():
    """The oracle lives in `destx.oracle`; `destx.observer` forwards its one
    name, which `perfbench/traced.py` imports from there."""
    from destx.observer import closure_family_bruteforce as forwarded

    assert forwarded is oracle.closure_family_bruteforce is closure_family_bruteforce
    assert forwarded.__module__ == "destx.oracle"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        observer.no_such_name


def test_bruteforce_matches_on_fixture(lsys):
    for seed in lsys.states:
        assert closure_family(lsys, seed) == closure_family_bruteforce(lsys, seed)


def _top_down_ranges(sys, v, d, inside, memo):
    """The ranges of the partial run trees of at most `d` levels from `v`
    that never leave `inside`, computed top-down: per suppressed event,
    nothing or one range of a version of its target."""
    if (v, d) not in memo:
        if d == 0:
            out = frozenset({frozenset({v})})
        else:
            per_event = []
            for _e, opts in sys.suppressed_moves(v):
                ways = [None]
                for w in opts:
                    if w in inside:
                        ways.extend(_top_down_ranges(sys, w, d - 1, inside, memo))
                per_event.append(ways)
            out = frozenset(
                frozenset({v}).union(*(c for c in combo if c is not None))
                for combo in itertools.product(*per_event)
            )
        memo[(v, d)] = out
    return memo[(v, d)]


def _bruteforce_top_down(sys, seed):
    """The oracle as it was before its level loop: every candidate subset,
    checked against top-down range families with a fresh memo, always to
    depth |U|^2 + 1."""
    universe = sorted(unobservable_reach(sys, (seed,)))
    depth = len(universe) * len(universe) + 1

    def plain_reach(inside):
        seen = {seed}
        work = [seed]
        while work:
            v = work.pop()
            for _e, opts in sys.suppressed_moves(v):
                for w in opts:
                    if w in inside and w not in seen:
                        seen.add(w)
                        work.append(w)
        return frozenset(seen)

    others = [v for v in universe if v != seed]
    found = []
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            cand = frozenset({seed, *extra})
            if reach_closed(sys, cand) and plain_reach(cand) == cand and cand in _top_down_ranges(sys, seed, depth, cand, {}):
                found.append(cand)
    return tuple(sorted((ObserverState(c) for c in found), key=ObserverState.sort_key))


LADDER = Plant(["q0", "q1", "q2"], ["a", "b"], {("q0", "a"): "q1", ("q0", "b"): "q2", ("q1", "a"): "q0", ("q2", "b"): "q0"}, "q0")
# q0 loops on both events; q1 and q2 loop on one and swap on the other
HOLLOW = Plant(
    ["q0", "q1", "q2"],
    ["a", "b"],
    {("q0", "a"): "q0", ("q0", "b"): "q0", ("q1", "a"): "q2", ("q1", "b"): "q1", ("q2", "a"): "q1", ("q2", "b"): "q2"},
    "q0",
)


def _moves(sysd, members):
    """The move table `_range_levels` reads, over `members`: per member, per
    suppressed event, the mask of the members that are versions of its target."""
    return [
        [sum(1 << j for j, w in enumerate(members) if w.base == sysd.plant.step(v.base, e)) for e, lab in v.bits if lab == N]
        for v in members
    ]


def test_bruteforce_levels_match_top_down(lsys):
    """The level loop, which runs to its fixpoint, gives the oracle the
    top-down families at depth |U|^2 + 1, and its first levels of whole
    families are the top-down ranges at depths 0 to 3.  The levels are
    compared on every closed candidate of every universe, each member inside
    the candidate in turn.  ring(2,2), the ladder and the hollow plant have
    states with two suppressed events and self-loops; the top-down families
    take minutes there at depth |U|^2 + 1, so they are compared on their
    first three levels only."""
    full, small = (0, 1, 2, 3), (0, 1, 2)
    systems = {"running example": (lsys, full), "ring(4,1)": (build_labeled_system(_ring(4, 1)), full)}
    for i in range(20):  # the first criterion-5 plants
        plant = random_plant(random.Random(1000 + i), max_states=4)
        systems[f"random plant {1000 + i}"] = (build_labeled_system(plant), full)
    for name, plant in (("ring(2,2)", _ring(2, 2)), ("ladder", LADDER), ("hollow", HOLLOW)):
        systems[name] = (build_labeled_system(plant), small)
    for name, (sysd, depths) in systems.items():
        if depths == full:
            for seed in sysd.states:
                assert closure_family_bruteforce(sysd, seed) == _bruteforce_top_down(sysd, seed), (
                    f"{name}, seed {seed.render()}"
                )
        for universe in {unobservable_reach(sysd, (seed,)) for seed in sysd.states}:
            members = sorted(universe)
            moves = _moves(sysd, members)
            for cand in range(1, 1 << len(members)):
                inside = frozenset(v for i, v in enumerate(members) if cand >> i & 1)
                if not reach_closed(sysd, inside):
                    continue
                levels = list(itertools.islice(_range_levels(moves, cand, False, lambda unions: None), len(depths)))
                memo = {}
                for d in depths:
                    level = levels[min(d, len(levels) - 1)]  # the loop stops at its fixpoint
                    for i, v in enumerate(members):
                        want = {sum(1 << members.index(w) for w in r) for r in _top_down_ranges(sysd, v, d, inside, memo)}
                        assert v not in inside or level[i] == want, (
                            f"{name}, {[w.render() for w in members if w in inside]}, {v.render()}, depth {d}"
                        )


def _names_reached(func):
    """Every name that the code of `func` reads, following its nested
    functions and, transitively, the library functions and classes (their
    methods and properties included) that the code names, imported inside
    a function included: `from .m import f` puts both m and f in the
    importing code's names."""
    todo, seen, names = [(func.__code__, func.__globals__)], set(), set()
    while todo:
        code, namespace = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        todo.extend((c, namespace) for c in code.co_consts if isinstance(c, types.CodeType))
        imported = [vars(m) for m in map(modules.get, (f"destx.{n}" for n in code.co_names)) if m]
        for name in code.co_names:
            obj = next((ns[name] for ns in (namespace, *imported) if name in ns), None)
            if not getattr(obj, "__module__", "").startswith("destx."):
                continue
            for member in vars(obj).values() if isinstance(obj, type) else (obj,):
                member = getattr(member, "fget", None) or getattr(member, "func", member)
                if isinstance(member, types.FunctionType):
                    todo.append((member.__code__, member.__globals__))
    return names


def test_bruteforce_is_independent():
    """The oracle runs its own universe walk, closure check and reach walk,
    and shares only the level loop `_range_levels` with PROP1: no code it
    reaches names the production code it checks.  PROP1 tests the one
    candidate estimate with `admissible`, which runs that loop, and builds
    no estimate family and no observer."""
    production = {"admissible", "unobservable_reach", "_cover_families", "_union_choices", "_estimates_over", "explore", "reach"}
    names = _names_reached(closure_family_bruteforce)
    assert {"_range_levels", "suppressed_moves"} <= names
    assert not names & production
    # nor does its module load the observer, or hold any of its objects
    p = python_child("-c", "import sys, destx.oracle; print(*sorted(m for m in sys.modules if m.startswith('destx')))")
    assert p.returncode == 0, p.stderr
    assert "destx.oracle" in p.stdout.split() and "destx.observer" not in p.stdout.split()
    assert [k for k, v in vars(oracle).items() if getattr(v, "__module__", None) == "destx.observer"] == []
    names = _names_reached(check_tracker_containment)
    assert {"admissible", "_range_levels", "Estimator", "_first_failure"} <= names
    assert not names & {"_cover_families", "_estimates_over", "observer_step", "build_observer"}


def _realizable_whole(sysd, members, bases):
    """Reference for the cover half of `admissible`: at each level of the
    whole families of `_range_levels_full`, every union of one range per
    base, rooted at a version of it among the members, with no pruning."""
    groups = [[i for i, v in enumerate(members) if v.base == q] for q in sorted(bases)]
    full = (1 << len(members)) - 1
    for level in _range_levels_full(sysd, members, full, False) if all(groups) else ():
        unions = {0}
        for group in groups:
            unions = {u | r for u in unions for i in group for r in level[i]}
        if full in unions:
            return True
    return False


def test_admissible_maximal_ranges_match_whole_families():
    """`admissible` keeps only each family's maximal ranges and prunes each
    partial union to its maximal ones; the reach closure test and the whole
    families, every union kept, must give the same answer, on random
    members and bases, several bases, bases with no version among the
    members and members that are not reach closed included."""
    rng = random.Random(7)
    for seed in range(60):
        sysd = build_labeled_system(random_plant(random.Random(seed), max_states=4))
        states = sorted(sysd.plant.states)
        for _ in range(20):
            members = [v for v in sysd.states if rng.random() < 0.5] or list(sysd.states[:1])
            inside = sorted({v.base for v in members})
            bases = set(rng.sample(inside, rng.randint(1, min(3, len(inside)))))
            if rng.random() < 0.1:
                bases.add(rng.choice(states))
            want = reach_closed(sysd, members) and _realizable_whole(sysd, members, bases)
            assert admissible(sysd.plant, members, bases, 10**9) == want, (
                f"seed {seed}, {[v.render() for v in members]}, {sorted(bases)}"
            )


def _fan(k):
    """r suppresses k events into p0..p(k-1), each of which may suppress or
    transmit its one move to a leaf: the system, its members with the
    all-suppressing root first, and that root."""
    trans = {("r", f"e{i}"): f"p{i}" for i in range(k)} | {(f"p{i}", "x"): f"l{i}" for i in range(k)}
    plant = Plant(["r"] + [f"{s}{i}" for s in "pl" for i in range(k)], [f"e{i}" for i in range(k)] + ["x"], trans, "r")
    sysd = build_labeled_system(plant)
    root = make_labeled("r", {f"e{i}": N for i in range(k)})
    return sysd, [root] + [v for v in sysd.states if v.base != "r"], root


def test_admissible_budget():
    """With both versions of every p_i in the candidate, one tree from the
    root picks one version of each: never admissible, and the root's
    maximal ranges are 2^k incomparable sets, so at k = 12 the budget on
    set unions stops the search."""
    sysd, members, root = _fan(3)
    assert not admissible(sysd.plant, members, {"r"}, DEFAULT_BUDGET)
    one_each = [v for v in members if v == root or v.render().endswith("Y")]
    assert admissible(sysd.plant, one_each, {"r"}, DEFAULT_BUDGET)
    # a base with no version among the members fails before any union
    assert not admissible(sysd.plant, members[1:], {"r"}, 0)
    sysd, members, root = _fan(12)
    with pytest.raises(
        InstanceTooLarge,
        match=r"^the run-tree range search passed the budget of 1000 set unions on one \(tracker state, targets\) entry$",
    ):
        admissible(sysd.plant, members, {"r"}, 1000)


def test_bruteforce_scans_each_universe_once(monkeypatch):
    """The six qiN seeds of ring(6,1) share one 12-state universe, so its
    candidates are scanned once: one level loop per (universe, candidate)
    that some seed's reach fills, 256 in all with the six one-state
    universes of the qiY seeds, where a loop per seed and candidate made
    576."""
    cands, levels = [], _range_levels

    def counted(moves, cand, maximal, charge):
        cands.append((moves, cand))  # each scan builds its own table, held here
        return levels(moves, cand, maximal, charge)

    monkeypatch.setattr(oracle, "_range_levels", counted)
    sysd = build_labeled_system(_ring(6, 1))
    for seed in sysd.states:
        closure_family_bruteforce(sysd, seed)
    assert len(cands) == len({(id(moves), cand) for moves, cand in cands}) == 256


def test_bruteforce_level_loops_form_few_unions(monkeypatch):
    """Work-count guard on the oracle's 256 level loops on ring(6,1), the
    charge of each loop counted in place of the oracle's no-op: 7,368 set
    unions over 1,728 levels.  When every round recomputed every member
    from all its ranges, the same levels took 57,168 unions."""
    unions, levels = [0, 0], _range_levels

    def counted(moves, cand, maximal, charge):
        def count(n):
            unions[0] += n

        for level in levels(moves, cand, maximal, count):
            unions[1] += 1
            yield level

    monkeypatch.setattr(oracle, "_range_levels", counted)
    sysd = build_labeled_system(_ring(6, 1))
    for seed in sysd.states:
        closure_family_bruteforce(sysd, seed)
    assert unions == [7368, 1728]


def _range_levels_full(sysd, members, cand, maximal):
    """The level loop as it was before its rounds went semi-naive: it reads
    plant steps, and every round recomputes every member inside `cand`
    from all the ranges of the versions it reads, up to the first level
    that the next would leave unchanged."""
    inside = {v: i for i, v in enumerate(members) if cand >> i & 1}
    at = {}
    for v, i in inside.items():
        at.setdefault(v.base, []).append(i)
    moves = []
    for v, i in inside.items():
        events = [at[q] for q in (sysd.plant.step(v.base, e) for e, lab in v.bits if lab == N) if q in at]
        if events:
            moves.append((i, events))
    nothing = set() if maximal else {0}
    level = [{1 << i} for i in range(len(members))]
    while True:
        yield level
        nxt, changed = level[:], False
        for i, events in moves:
            acc = {1 << i}
            for opts in events:
                ways = nothing.union(*[level[w] for w in opts])
                acc = {a | r for a in acc for r in ways}
            if maximal:
                acc = {a for a in acc if not any(a != b and a | b == b for b in acc)}
            changed = changed or acc != level[i]
            nxt[i] = acc
        if not changed:
            return
        level = nxt


def _assert_levels_match(sysd, members, cand):
    """Every level that `_range_levels` yields on the move table of
    `members` is the one the full recompute yields, in both modes."""
    moves = _moves(sysd, members)
    for maximal in (True, False):
        got = list(_range_levels(moves, cand, maximal, lambda unions: None))
        assert got == list(_range_levels_full(sysd, members, cand, maximal)), (
            f"{[v.render() for i, v in enumerate(members) if cand >> i & 1]}, maximal {maximal}"
        )


def test_range_levels_match_full_recompute_on_random_candidates():
    rng = random.Random(11)
    for seed in range(60):
        sysd = build_labeled_system(random_plant(random.Random(seed), max_states=4))
        members = list(sysd.states)
        for _ in range(10):
            _assert_levels_match(sysd, members, rng.randrange(1, 1 << len(members)))


def test_range_levels_match_full_recompute_on_ring():
    """Every closed candidate of ring(6,1)'s 12-state universe."""
    sysd = build_labeled_system(_ring(6, 1))
    members = list(sysd.states)
    closed = [
        cand for cand in range(1, 1 << len(members))
        if reach_closed(sysd, frozenset(v for i, v in enumerate(members) if cand >> i & 1))
    ]
    assert len(closed) == 1583
    for cand in closed:
        _assert_levels_match(sysd, members, cand)


def test_bruteforce_memo_ignores_call_order():
    """The oracle memoizes per universe, so every seed gets the same family
    whether the seeds come in canonical order, in reverse order, or each on
    a fresh system.  ring(4,1)'s qiY seeds have universes strictly inside
    that of its qiN seeds."""
    plants = {"ring(4,1)": _ring(4, 1)}
    for i in range(300):  # the criterion-5 plants
        plants[f"random plant {1000 + i}"] = random_plant(random.Random(1000 + i), max_states=4)
    for name, plant in plants.items():
        seeds = build_labeled_system(plant).states
        fresh = [closure_family_bruteforce(build_labeled_system(plant), seed) for seed in seeds]
        sysd = build_labeled_system(plant)
        forward = [closure_family_bruteforce(sysd, seed) for seed in seeds]
        sysd = build_labeled_system(plant)
        backward = [closure_family_bruteforce(sysd, seed) for seed in reversed(seeds)]
        assert forward == backward[::-1] == fresh, name


def test_bruteforce_cap():
    events = ["x", "y", "z"]
    ring = {("A", e): "B" for e in events}
    ring |= {("B", e): "C" for e in events}
    ring |= {("C", e): "A" for e in events}
    plant = Plant(["A", "B", "C"], events, ring, "A")
    lsys = build_labeled_system(plant)
    seed = parse_labeled("ANNN", plant)
    with pytest.raises(InstanceTooLarge):
        closure_family_bruteforce(lsys, seed)


def _step_keys(plant, obs):
    """The plant states each (estimate, event) step of `obs` transmits into,
    and the initial state, over which the initial estimates are built."""
    return {frozenset({plant.initial})} | {
        frozenset(plant.step(v.base, e) for v in z if e in v.events() and v.label(e) == "Y")
        for z in obs.states
        for e in plant.alphabet
    }


def _steps_match_cold(plant, lsys, obs):
    for z in obs.states:
        for e in sorted(plant.alphabet):
            assert observer_step(lsys, z, e) == observer_step(build_labeled_system(plant), z, e)


def test_step_memo_matches_cold_system(plant, lsys, obs):
    _steps_match_cold(plant, lsys, obs)
    fresh = build_labeled_system(plant)
    build_observer(fresh)
    assert set(fresh._step_cache) == _step_keys(plant, obs)


@given(plants)
@settings(max_examples=15, deadline=None)
def test_step_memo_matches_cold_system_random(plant):
    lsys = build_labeled_system(plant)
    try:
        obs = build_observer(lsys, state_budget=300)
    except StateBudgetExceeded:
        return
    assert set(lsys._step_cache) == _step_keys(plant, obs)
    _steps_match_cold(plant, lsys, obs)


def test_step_memo_ring_2_2():
    ring = {("q0", "e0"): "q1", ("q1", "e0"): "q0", ("q0", "e1"): "q0", ("q1", "e1"): "q1"}
    plant = Plant(["q0", "q1"], ["e0", "e1"], ring, "q0")
    lsys = build_labeled_system(plant)
    obs = build_observer(lsys)
    assert len(obs.states) == 207
    assert obs.transition_count == 74230
    # 414 (estimate, event) steps share four target sets
    assert sorted(sorted(b) for b in lsys._step_cache) == [[], ["q0"], ["q0", "q1"], ["q1"]]


@given(plants)
@settings(max_examples=25, deadline=None)
def test_observer_invariants_random(plant):
    lsys = build_labeled_system(plant)
    try:
        obs = build_observer(lsys, state_budget=3000)
    except StateBudgetExceeded:
        return  # legitimately huge estimate space; bounded elsewhere
    assert obs.initials
    for z in obs.states:
        assert reach_closed(lsys, z)
    for (z, e), targets in obs.trans.items():
        assert tuple(obs.successors(z, e)) == targets
        # a step exists exactly when some member transmits the event
        assert any(v.label(e) != N for v in z if e in v.events())


def _ring(n, k):
    """States q0..q(n-1); event ej moves qi to q((i+j+1) mod n)."""
    trans = {(f"q{i}", f"e{j}"): f"q{(i + j + 1) % n}" for i in range(n) for j in range(k)}
    return Plant([f"q{i}" for i in range(n)], [f"e{j}" for j in range(k)], trans, "q0")


def _assert_union_is_reach(lsys, obs):
    """The estimates of every memoized step, and the initial estimates,
    together hold exactly the suppressed reach of their seeds' versions."""
    def union(estimates):
        return frozenset(v for z in estimates for v in z)

    assert union(obs.initials) == unobservable_reach(lsys, lsys.initials)
    assert lsys._step_cache
    for bases, estimates in lsys._step_cache.items():
        versions = [v for b in bases for v in lsys.versions_of(b)]
        assert union(estimates) == unobservable_reach(lsys, versions), sorted(bases)
        # and suppressed moves land on every version, so the union holds
        # every version of each plant state it touches
        touched = {v.base for v in union(estimates)}
        assert union(estimates) == {v for q in touched for v in lsys.versions_of(q)}


def test_estimate_union_is_suppressed_reach(lsys, obs):
    _assert_union_is_reach(lsys, obs)
    for n, k in ((2, 2), (3, 1), (4, 1)):
        ring = build_labeled_system(_ring(n, k))
        _assert_union_is_reach(ring, build_observer(ring))


def test_estimate_union_is_suppressed_reach_random():
    for seed in range(60):
        for sizes in ({}, {"max_states": 7, "max_labeled": 20}):
            lsys = build_labeled_system(random_plant(random.Random(seed), **sizes))
            _assert_union_is_reach(lsys, build_observer(lsys))


def _union_choices_reference(parts, keep, budget, start=frozenset()):
    """The observer's union step as it was on frozensets of labeled states:
    the distinct unions of `start` with one option from every part, the
    partial unions filtered by `keep`, more than `budget` unions raising."""
    acc = {start}
    work = 0
    for options in parts:
        opts = set(options)
        work += len(acc) * len(opts)
        if work > budget:
            raise StateBudgetExceeded(f"estimate unions exceeded {budget} set unions while combining ranges")
        acc = set(filter(keep, {a | o for a in acc for o in opts}))
    return acc


def _admits(sys, members):
    return sys.prop is None or sys.prop.holds(frozenset(v.base for v in members))


def _cover_families_reference(sys, seeds, memo):
    """The observer's range families as they were computed before ranges
    were packed: naive rounds over frozensets of labeled states, each state
    unioning {v} with, per suppressed event, nothing or a known range of a
    version of its target, the partial unions that violate the property
    dropped, until no family grows.  `memo` holds the families of earlier
    calls on the same system, and takes this call's."""
    universe = unobservable_reach(sys, seeds)
    fam = {v: set(memo.get(v, ())) for v in universe}
    order = sorted(universe)
    changed = True
    while changed:
        changed = False
        for v in order:
            if v in memo or not _admits(sys, (v,)):
                continue
            per_event = []
            for _e, opts in sys.suppressed_moves(v):
                ways = {frozenset()}
                for w in opts:
                    ways.update(fam[w])
                per_event.append(ways)
            keep = lambda rng: _admits(sys, rng)  # noqa: E731
            for rng in _union_choices_reference(per_event, keep, DEFAULT_BUDGET, frozenset({v})):
                if rng not in fam[v]:
                    fam[v].add(rng)
                    changed = True
    for v in universe:
        memo.setdefault(v, frozenset(fam[v]))
    return {v: memo[v] for v in universe}


def _unpacked(sys, fam):
    """A packed range family as sets of labeled states, each range checked
    against its layout: the members' plant states at bits 0..n-1, the plant
    states their suppressed events lead to at bits n..2n-1, and the member
    numbered k in `sys._ids` at bit 2n+k."""
    bit = {q: 1 << i for i, q in enumerate(sorted(sys.plant.states))}
    shift = 2 * len(bit)
    out = set()
    for rng in fam:
        members = frozenset(v for v, k in sys._ids.items() if rng >> shift + k & 1)
        packed = sum(1 << shift + sys._ids[v] for v in members)
        for v in members:
            packed |= bit[v.base]
            for _e, opts in sys.suppressed_moves(v):
                packed |= bit[opts[0].base] << len(bit)
        assert rng == packed, (sorted(members), bin(rng))
        out.add(members)
    return out


def _assert_families_match_reference(plant, pairs=None):
    """The packed families of every labeled state, unpacked, equal the
    reference's, on the full system and on the one carrying `pairs`: built
    in one call, and seed by seed in reverse order on a fresh system, where
    a later call reads what an earlier one memoized."""
    for prop in (None, pairs) if pairs else (None,):
        spec = DistinguishabilitySpec.of(prop) if prop else None
        sysd = build_labeled_system(plant, spec)
        want = _cover_families_reference(sysd, sysd.states, {})
        got = _cover_families(sysd, sysd.states, DEFAULT_BUDGET)[0]
        assert got.keys() == want.keys()
        seeded = build_labeled_system(plant, spec)
        for v in reversed(sysd.states):
            fam = _cover_families(seeded, (v,), DEFAULT_BUDGET)[0][v]
            assert _unpacked(sysd, got[v]) == _unpacked(seeded, fam) == want[v], (prop, v)


def _shape(n, moves):
    """A plant over q0..q(n-1) from (source, event, target) index triples."""
    events = sorted({f"e{e}" for _q, e, _p in moves})
    return Plant([f"q{i}" for i in range(n)], events, {(f"q{q}", f"e{e}"): f"q{p}" for q, e, p in moves}, "q0")


def test_packed_families_match_reference(plant, pairs):
    """The packed engine against the frozenset rounds it replaced: the
    running example, ring(n,1) with every pair (q0, qb), the three-state
    ring with a chord, the four strongly connected two-state plants with
    one two-event state, ring(2,2), and 200 random plants, each full and,
    but for ring(2,2), with pairs."""
    _assert_families_match_reference(plant, pairs)
    for n in range(3, 11):
        for b in range(1, n):
            _assert_families_match_reference(_ring(n, 1), [("q0", f"q{b}")])
    chord = _shape(3, [(0, 0, 1), (1, 0, 2), (2, 0, 0), (0, 1, 2)])
    _assert_families_match_reference(chord, [("q0", "q1")])
    for dense in (0, 1):
        for same in (True, False):
            moves = [(dense, 0, dense), (dense, 1, 1 - dense), (1 - dense, 0 if same else 1, dense)]
            _assert_families_match_reference(_shape(2, moves), [("q0", "q1")])
    _assert_families_match_reference(_ring(2, 2))
    rng = random.Random(5)
    for seed in range(200):
        plant = random_plant(random.Random(seed))
        _assert_families_match_reference(plant, [tuple(rng.choices(sorted(plant.states), k=2))])


def _estimates_over_per_core(sys, bases, memo):
    """The estimate builder before pooling, on the reference families
    (memoized in `memo`): for every core, one version of each plant state
    in `bases`, the reach-closed unions of one range per core member."""
    out = set()
    cores = itertools.product(*(sys.versions_of(b) for b in sorted(bases))) if bases else ()
    for core in cores:
        fam = _cover_families_reference(sys, core, memo)
        ranges = _union_choices_reference((fam[v] for v in core), lambda rng: _admits(sys, rng), DEFAULT_BUDGET)
        out.update(rng for rng in ranges if reach_closed(sys, rng))
    return tuple(sorted(map(ObserverState, out), key=ObserverState.sort_key))


def _assert_pooled_matches_per_core(lsys):
    obs = build_observer(lsys)
    closures = {z for v in lsys.initials for z in closure_family(lsys, v)}
    assert obs.initials == tuple(sorted(closures, key=ObserverState.sort_key))
    assert frozenset({lsys.plant.initial}) in lsys._step_cache
    memo = {}
    for bases, estimates in lsys._step_cache.items():
        assert estimates == _estimates_over_per_core(lsys, bases, memo), sorted(bases)


def test_pooled_estimates_match_per_core(lsys):
    _assert_pooled_matches_per_core(lsys)
    _assert_pooled_matches_per_core(build_labeled_system(_ring(2, 2)))
    # a fan: s suppresses into x1, x2 and x3, whose d moves to the looping
    # y1, y2 and y3, so one step has three target states of two versions
    trans = {("s", e): f"x{i}" for i, e in enumerate("abc", start=1)}
    trans |= {(q, "d"): f"y{q[1]}" for q in ("x1", "x2", "x3", "y1", "y2", "y3")}
    fan = build_labeled_system(Plant(["s", "x1", "x2", "x3", "y1", "y2", "y3"], ["a", "b", "c", "d"], trans, "s"))
    _assert_pooled_matches_per_core(fan)
    assert frozenset({"y1", "y2", "y3"}) in fan._step_cache


def test_pooled_estimates_match_per_core_random():
    for seed in range(100):
        for sizes in ({}, {"max_states": 7, "max_labeled": 20}):
            _assert_pooled_matches_per_core(build_labeled_system(random_plant(random.Random(seed), **sizes)))
