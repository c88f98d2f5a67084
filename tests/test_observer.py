"""Closure families, observer steps, and the dynamic observer automaton."""

import itertools
import random
import types
from sys import setprofile

import pytest
from hypothesis import given, settings, strategies as st

from destx import (
    InstanceTooLarge,
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
    parse_labeled,
    reach_closed,
    unobservable_reach,
)
from destx.automata import DEFAULT_BUDGET
from destx.labeled import N
from destx.observer import ObserverState, _cover_families, _union_choices, realizable
from randgen import make_labeled, random_plant

plants = st.integers(0, 10**6).map(lambda s: random_plant(random.Random(s)))


def _os(plant, *renderings):
    return ObserverState(parse_labeled(r, plant) for r in renderings)


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


def test_reach_closed(lsys, plant):
    assert reach_closed(lsys, _os(plant, "q0NNY", "q1N", "q2N", "q5"))
    assert not reach_closed(lsys, _os(plant, "q0NNY", "q5"))
    assert not reach_closed(lsys, _os(plant, "q3N"))
    assert reach_closed(lsys, _os(plant, "q2Y"))


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


def test_bruteforce_matches_on_fixture(lsys):
    for seed in lsys.states:
        assert closure_family(lsys, seed) == closure_family_bruteforce(lsys, seed)


def _bruteforce_top_down(sys, seed, depth=None):
    """The oracle as it was before its level loop: every candidate subset,
    checked against top-down depth-indexed range families with a fresh memo,
    always to the full depth."""
    universe = sorted(unobservable_reach(sys, (seed,)), key=lambda v: v.sort_key())
    if depth is None:
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

    def ranges(v, d, inside, memo):
        if (v, d) not in memo:
            if d == 0:
                out = frozenset({frozenset({v})})
            else:
                per_event = []
                for _e, opts in sys.suppressed_moves(v):
                    ways = [None]
                    for w in opts:
                        if w in inside:
                            ways.extend(ranges(w, d - 1, inside, memo))
                    per_event.append(ways)
                out = frozenset(
                    frozenset({v}).union(*(c for c in combo if c is not None))
                    for combo in itertools.product(*per_event)
                )
            memo[(v, d)] = out
        return memo[(v, d)]

    others = [v for v in universe if v != seed]
    found = []
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            cand = frozenset({seed, *extra})
            if reach_closed(sys, cand) and plain_reach(cand) == cand and cand in ranges(seed, depth, cand, {}):
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


def test_bruteforce_levels_match_top_down(lsys):
    """The level loop's two early exits give the full-depth answer: the
    same tuple as the top-down families at every depth, default included.
    ring(2,2), the ladder and the hollow plant have states with two
    suppressed events and self-loops; the top-down families take minutes
    there at the default depth, so they run at small depths only."""
    all_depths, small = (None, 0, 1, 2, 3), (0, 1, 2)
    systems = {"running example": (lsys, all_depths), "ring(4,1)": (build_labeled_system(_ring(4, 1)), all_depths)}
    for i in range(20):  # the first criterion-5 plants
        plant = random_plant(random.Random(1000 + i), max_states=4)
        systems[f"random plant {1000 + i}"] = (build_labeled_system(plant), all_depths)
    for name, plant in (("ring(2,2)", _ring(2, 2)), ("ladder", LADDER), ("hollow", HOLLOW)):
        systems[name] = (build_labeled_system(plant), small)
    for name, (sysd, depths) in systems.items():
        for seed in sysd.states:
            for depth in depths:
                assert closure_family_bruteforce(sysd, seed, depth) == _bruteforce_top_down(sysd, seed, depth), (
                    f"{name}, seed {seed.render()}, depth {depth}"
                )


def _names_reached(func):
    """Every name that the code of `func` reads, following its nested
    functions and, transitively, the library functions and classes (their
    methods and properties included) that the code names."""
    todo, seen, names = [(func.__code__, func.__globals__)], set(), set()
    while todo:
        code, namespace = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        names.update(code.co_names)
        todo.extend((c, namespace) for c in code.co_consts if isinstance(c, types.CodeType))
        for name in code.co_names:
            obj = namespace.get(name)
            if not getattr(obj, "__module__", "").startswith("destx."):
                continue
            for member in vars(obj).values() if isinstance(obj, type) else (obj,):
                member = getattr(member, "fget", None) or getattr(member, "func", member)
                if isinstance(member, types.FunctionType):
                    todo.append((member.__code__, member.__globals__))
    return names


def test_bruteforce_is_independent():
    """The oracle runs its own universe walk, closure check and reach walk,
    and shares only `realizable` with PROP1: no code it reaches names the
    production code it checks.  PROP1 tests the one candidate estimate with
    that function and builds no estimate family and no observer."""
    production = {"reach_closed", "unobservable_reach", "_cover_families", "_union_choices", "_estimates_over", "explore", "reach"}
    names = _names_reached(closure_family_bruteforce)
    assert {"realizable", "suppressed_moves"} <= names
    assert not names & production
    names = _names_reached(check_tracker_containment)
    assert {"realizable", "reach_closed", "Estimator", "_first_failure"} <= names
    assert not names & {"_cover_families", "_estimates_over", "observer_step", "build_observer"}


def test_realizable_maximal_ranges_match_whole_families():
    """At the fixpoint `realizable` keeps only each family's maximal ranges;
    a depth far past the fixpoint keeps the whole families and must give
    the same answer, on random candidates and root groups, several groups
    included."""
    rng = random.Random(7)
    for seed in range(60):
        sysd = build_labeled_system(random_plant(random.Random(seed), max_states=4))
        members = list(sysd.states)
        for _ in range(20):
            inside = [v for v in members if rng.random() < 0.5] or members[:1]
            cand = sum(1 << members.index(v) for v in inside)
            roots = [rng.sample(inside, rng.randint(1, min(2, len(inside)))) for _ in range(rng.randint(1, 3))]
            assert realizable(sysd, members, cand, roots) == realizable(sysd, members, cand, roots, 10**6), (
                f"seed {seed}, {[v.render() for v in inside]}, {[[v.render() for v in g] for g in roots]}"
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


def test_realizable_budget():
    """With both versions of every p_i in the candidate, one tree from the
    root picks one version of each: never realizable, and the root's
    maximal ranges are 2^k incomparable sets, so at k = 12 the budget on
    set unions stops the search."""
    sysd, members, root = _fan(3)
    assert not realizable(sysd, members, (1 << len(members)) - 1, [[root]])
    one_each = sum(1 << i for i, v in enumerate(members) if v == root or v.render().endswith("Y"))
    assert realizable(sysd, members, one_each, [[root]])
    sysd, members, root = _fan(12)
    with pytest.raises(StateBudgetExceeded, match=r"^the run-tree range search passed the budget of 1000 set unions$"):
        realizable(sysd, members, (1 << len(members)) - 1, [[root]], budget=1000)


def test_bruteforce_default_depth(lsys):
    """The default depth is |U|^2 + 1.  The level loop's exits stop it long
    before that level on every plant here, so the test reads the `depth`
    each call ends with instead of its answer."""
    depths = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is closure_family_bruteforce.__code__:
            depths.append(frame.f_locals["depth"])

    setprofile(profile)
    try:
        for seed in lsys.states:
            closure_family_bruteforce(lsys, seed)
        closure_family_bruteforce(lsys, lsys.states[0], 3)
    finally:
        setprofile(None)
    sizes = [len(unobservable_reach(lsys, (seed,))) for seed in lsys.states]
    assert depths == [n * n + 1 for n in sizes] + [3]


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


def _estimates_over_per_core(sys, bases):
    """The estimate builder before pooling: for every core, one version of
    each plant state in `bases`, the reach-closed unions of one range per
    core member."""
    out = set()
    cores = itertools.product(*(sys.versions_of(b) for b in sorted(bases))) if bases else ()
    for core in cores:
        fam = _cover_families(sys, core, DEFAULT_BUDGET)
        ranges = _union_choices((fam[v] for v in core), sys.admits, DEFAULT_BUDGET)
        out.update(rng for rng in ranges if reach_closed(sys, rng))
    return tuple(sorted(map(ObserverState, out), key=ObserverState.sort_key))


def _assert_pooled_matches_per_core(lsys):
    obs = build_observer(lsys)
    closures = {z for v in lsys.initials for z in closure_family(lsys, v)}
    assert obs.initials == tuple(sorted(closures, key=ObserverState.sort_key))
    assert frozenset({lsys.plant.initial}) in lsys._step_cache
    for bases, estimates in lsys._step_cache.items():
        assert estimates == _estimates_over_per_core(lsys, bases), sorted(bases)


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
