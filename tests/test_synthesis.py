"""Pruning, the consistency fixpoint, and minimum-transmission extraction."""

import itertools
import random

import pytest

from destx import (
    DestxError,
    DeterministicSchedule,
    DistinguishabilitySpec,
    DynamicObserver,
    Infeasible,
    Plant,
    build_labeled_system,
    build_observer,
    consistency_fixpoint,
    count_nontransmitted,
    distinguishability,
    extract_min_transmit,
    format_policy,
    parse_labeled,
    explore,
    prune_violating,
    synthesize,
)
from destx.labeled import Y
from destx.observer import ObserverState
from destx.synthesis import _restrict_reachable
from randgen import random_plant


def _os(plant, *renderings):
    return ObserverState(parse_labeled(r, plant) for r in renderings)


def test_prune_sizes(obs, g0, gstar):
    assert len(obs.states) == 101
    assert len(g0.states) == 18
    assert len(g0.initials) == 8
    assert len(gstar.states) == 16
    assert len(gstar.initials) == 6


def test_prune_drops_violations(g0, prop):
    for z in g0.states:
        assert prop.holds(z.underlying())


def test_consistency_drops_exactly_two(g0, gstar, plant):
    dropped = set(g0.states) - set(gstar.states)
    assert dropped == {
        _os(plant, "q0YYN", "q3Y"),
        _os(plant, "q0NYN", "q3Y", "q5"),
    }


def _is_consistent(full, pruned, z):
    """No event on which the full observer moves from z lost every
    successor in `pruned`."""
    return all(pruned.successors(z, e) or not full.successors(z, e) for e in full.sys.plant.alphabet)


def _unpacked(sys, fam):
    """A packed range family as sets of labeled states: the labeled state
    numbered k in `sys._ids` is bit k past the two plant-state fields."""
    shift = 2 * len(sys.plant.states)
    return {frozenset(v for v, k in sys._ids.items() if rng >> shift + k & 1) for rng in fam}


def _fixpoint_by_waves(full, g0):
    """The consistency fixpoint as a wave loop: drop every inconsistent
    state, re-trim to what the initials reach, repeat until stable.
    Returns the fragment and the number of waves that removed states."""
    cur, waves = g0, 0
    while True:
        bad = {z for z in cur.states if not _is_consistent(full, cur, z)}
        if not bad:
            return cur, waves
        cur, waves = _restrict_reachable(cur, set(cur.states) - bad), waves + 1


def _assert_fixpoint_matches_waves(full, plant, pairs):
    """consistency_fixpoint equals the wave loop, and the observer built on
    the system that carries the property equals the pruned full observer,
    before the fixpoint and after it, with range families that are the full
    ones cut to what holds the property; returns the wave count."""
    prop = distinguishability(DistinguishabilitySpec.of(pairs), plant)
    g0 = prune_violating(full, prop)
    psys = build_labeled_system(plant, prop)
    pruned = build_observer(psys)
    for v, fam in psys._cover_cache.items():
        cut = {rng for rng in _unpacked(full.sys, full.sys._cover_cache[v]) if prop.holds({w.base for w in rng})}
        assert _unpacked(psys, fam) == cut, (pairs, v)
    ref, waves = _fixpoint_by_waves(full, g0)
    for got, want in (
        (pruned, g0),
        (consistency_fixpoint(full, g0), ref),
        (consistency_fixpoint(pruned, pruned), ref),
    ):
        assert (got.states, got.initials, got.trans) == (want.states, want.initials, want.trans), pairs
    return waves


def test_fixpoint_matches_waves(obs, g0, plant):
    assert not _is_consistent(obs, g0, _os(plant, "q0YYN", "q3Y"))
    assert not _is_consistent(obs, g0, _os(plant, "q0NYN", "q3Y", "q5"))
    assert _is_consistent(obs, g0, _os(plant, "q0NNY", "q1Y", "q5"))
    pairs = list(itertools.combinations(sorted(plant.states), 2))
    specs = [spec for k in (1, 2) for spec in itertools.combinations(pairs, k)]
    waves = [_assert_fixpoint_matches_waves(obs, plant, spec) for spec in specs]
    assert waves.count(1) == 35 and max(waves) == 1


def test_fixpoint_matches_waves_random():
    for seed in range(300):
        rng = random.Random(seed)
        plant = random_plant(rng)
        obs = build_observer(build_labeled_system(plant))
        for _ in range(3):
            pairs = [tuple(rng.sample(sorted(plant.states), 2)) for _ in range(rng.randint(1, 2))]
            _assert_fixpoint_matches_waves(obs, plant, pairs)
    # over the first 1,500 plants, the only pair sets of at most three pairs
    # on which the wave loop takes two waves
    for seed, pairs in (
        (60, [("q0", "q2"), ("q0", "q3"), ("q1", "q2")]),
        (60, [("q0", "q2"), ("q0", "q3"), ("q2", "q3")]),
        (756, [("q1", "q2"), ("q1", "q3"), ("q2", "q3")]),
        (756, [("q1", "q2"), ("q1", "q4"), ("q2", "q3")]),
    ):
        plant = random_plant(random.Random(seed))
        assert _assert_fixpoint_matches_waves(build_observer(build_labeled_system(plant)), plant, pairs) == 2
    # crafted, since random plants almost never show these: on a chain into
    # a forbidden state each wave removes the estimates one step further
    # back, and on a fork the estimate (q1), which defines no event and so is
    # never inconsistent, is dropped by the final trim alone
    chain = Plant(["q0", "q1", "q2", "q3"], ["a"], {("q0", "a"): "q1", ("q1", "a"): "q2", ("q2", "a"): "q3"}, "q0")
    assert _assert_fixpoint_matches_waves(build_observer(build_labeled_system(chain)), chain, [("q3", "q3")]) == 3
    fork = Plant(["q0", "q1", "q2"], ["a", "c"], {("q0", "a"): "q1", ("q0", "c"): "q2"}, "q0")
    full = build_observer(build_labeled_system(fork))
    assert _assert_fixpoint_matches_waves(full, fork, [("q2", "q2")]) == 1
    g0 = prune_violating(full, distinguishability(DistinguishabilitySpec.of([("q2", "q2")]), fork))
    stranded = _os(fork, "q1")
    assert stranded in g0.states and stranded not in consistency_fixpoint(full, g0).states


def test_pruned_build_matches_on_rings_and_self_pairs(obs, plant):
    # ring(n,1) with every pair (q0, qb), and on the running example every
    # pair of a state with itself, which leaves some plant states without
    # any estimate and, for q0, no initial estimate at all
    for n in range(3, 9):
        states = [f"q{i}" for i in range(n)]
        ring = Plant(states, ["e"], {(states[i], "e"): states[(i + 1) % n] for i in range(n)}, "q0")
        full = build_observer(build_labeled_system(ring))
        for b in range(1, n):
            _assert_fixpoint_matches_waves(full, ring, [("q0", f"q{b}")])
    for q in sorted(plant.states):
        _assert_fixpoint_matches_waves(obs, plant, [(q, q)])
    prop = distinguishability(DistinguishabilitySpec.of([("q0", "q0")]), plant)
    assert build_observer(build_labeled_system(plant, prop)).states == ()


def _assert_successor_exists_iff_member_transmits(full):
    """The full observer moves from z on e exactly when some member of z
    labels e Y, the bit consistency_fixpoint reads; returns the pairs checked."""
    checked = 0
    for z in full.states:
        for e in full.sys.plant.alphabet:
            assert bool(full.successors(z, e)) == any((e, Y) in v.bits for v in z), (z, e)
            checked += 1
    return checked


def test_successor_exists_iff_member_transmits(obs):
    checked = _assert_successor_exists_iff_member_transmits(obs)
    # ring(2,2): ej moves qi to q((i + j + 1) mod 2)
    trans = {(f"q{i}", f"e{j}"): f"q{(i + j + 1) % 2}" for i in range(2) for j in range(2)}
    ring = Plant(["q0", "q1"], ["e0", "e1"], trans, "q0")
    checked += _assert_successor_exists_iff_member_transmits(build_observer(build_labeled_system(ring)))
    for seed in range(300):
        plant = random_plant(random.Random(seed))
        checked += _assert_successor_exists_iff_member_transmits(build_observer(build_labeled_system(plant)))
    assert checked >= 7000


def test_fixpoint_trims_stranded_states(lsys, plant):
    # a hand-made observer: the initial a is inconsistent (its σ3 successor
    # x is pruned), and b and c, consistent themselves, are reachable only
    # through a
    a, b, c, x = (_os(plant, r) for r in ("q0YYY", "q1Y", "q2Y", "q3Y"))
    full = DynamicObserver(lsys, [a, b, c, x], [a], {(a, "σ1"): (b,), (a, "σ3"): (x,), (b, "σ2"): (c,)})
    g0 = _restrict_reachable(full, {a, b, c})
    assert g0.states == (a, b, c)
    g = consistency_fixpoint(full, g0)
    assert (g.states, g.initials, g.trans) == ((), (), {})
    assert _fixpoint_by_waves(full, g0)[0].states == ()


def test_fixpoint_idempotent(obs, gstar):
    again = consistency_fixpoint(obs, gstar)
    assert set(again.states) == set(gstar.states)
    assert set(again.initials) == set(gstar.initials)


def test_fixpoint_postcondition(obs, gstar, plant):
    # wherever the full observer can move, the pruned one still can
    for z in gstar.states:
        for e in sorted(plant.alphabet):
            if obs.successors(z, e):
                assert gstar.successors(z, e)
            assert set(gstar.successors(z, e)) <= set(obs.successors(z, e))


def test_gstar_initials(gstar):
    assert [z.render() for z in gstar.initials] == [
        "(q0YYY)",
        "(q0NYY,q5)",
        "(q0YNY,q1Y)",
        "(q0NNY,q1Y,q5)",
        "(q0YNN,q1Y,q3Y)",
        "(q0NNN,q1Y,q3Y,q5)",
    ]


def test_empty_spec_prunes_nothing(obs, plant):
    free = distinguishability(DistinguishabilitySpec.of([]), plant)
    g = consistency_fixpoint(obs, prune_violating(obs, free))
    assert set(g.states) == set(obs.states)
    assert set(g.initials) == set(obs.initials)


def test_infeasible_when_initial_always_violates():
    plant = Plant(["q0"], ["a"], {}, "q0")
    lsys = build_labeled_system(plant)
    obs = build_observer(lsys)
    prop = distinguishability(DistinguishabilitySpec.of([("q0", "q0")]), plant)
    g = consistency_fixpoint(obs, prune_violating(obs, prop))
    assert not g.initials
    with pytest.raises(Infeasible):
        extract_min_transmit(g)


def test_sub_automaton_scores(gstar, lsys, plant):
    # the sub-automaton of each surviving initial, as extraction scores it
    subs = [explore((root,), plant.alphabet, gstar.successors) for root in gstar.initials]
    scores = [sum(count_nontransmitted(lsys, z) for z in states) for states, _ in subs]
    assert scores == [2, 3, 3, 3, 5, 5]
    assert [len(states) for states, _ in subs] == [8, 7, 8, 7, 10, 9]
    for root, (states, trans) in zip(gstar.initials, subs):
        assert states[0] == root
        assert set(states) <= set(gstar.states)
        for (z, e), targets in trans.items():
            assert targets == gstar.successors(z, e)


def test_count_nontransmitted(lsys, plant):
    z0 = _os(plant, "q0NNY", "q1Y", "q5")
    # q0NNY owns both suppressed moves; members are counted once
    assert count_nontransmitted(lsys, z0) == 1
    assert count_nontransmitted(lsys, _os(plant, "q2Y")) == 0
    assert count_nontransmitted(lsys, _os(plant, "q3N", "q4N")) == 2
    assert count_nontransmitted(lsys, _os(plant, "q1Y", "q2N")) == 1
    assert count_nontransmitted(lsys, _os(plant, "q1Y", "q2N"), mode="unlabeled") == 2


def test_extract_default(gstar, plant):
    sched = extract_min_transmit(gstar)
    assert sched.initial.render() == "(q0YNN,q1Y,q3Y)"
    got = sorted(
        (z.render(), e, w.render()) for (z, e), w in sched.trans.items()
    )
    assert got == [
        ("(q0YNN,q1Y,q3Y)", "σ1", "(q5)"),
        ("(q0YNN,q1Y,q3Y)", "σ2", "(q2Y,q4N)"),
        ("(q1Y)", "σ2", "(q2Y)"),
        ("(q2Y)", "σ1", "(q1Y)"),
        ("(q2Y,q4N)", "σ1", "(q1Y)"),
    ]


def test_extract_pinned(gstar, plant, pinned_sched):
    assert pinned_sched.initial == _os(plant, "q0NNY", "q1Y", "q5")
    got = sorted(
        (z.render(), e, w.render()) for (z, e), w in pinned_sched.trans.items()
    )
    assert got == [
        ("(q0NNY,q1Y,q5)", "σ2", "(q2Y)"),
        ("(q0NNY,q1Y,q5)", "σ3", "(q3Y)"),
        ("(q1Y)", "σ2", "(q2Y)"),
        ("(q2Y)", "σ1", "(q1Y)"),
        ("(q3Y)", "σ2", "(q4N)"),
    ]
    assert {z.render() for z in pinned_sched.states} == {
        "(q0NNY,q1Y,q5)", "(q1Y)", "(q2Y)", "(q3Y)", "(q4N)",
    }


def test_extract_refines_gstar(gstar, prop):
    sched = extract_min_transmit(gstar)
    for z in sched.states:
        assert z in set(gstar.states)
        assert prop.holds(z.underlying())
    for (z, e), w in sched.trans.items():
        assert w in gstar.successors(z, e)


def test_extract_deterministic(gstar, pinned_sched):
    def parts(sched):
        return (sched.initial, sched.states, sched.trans)

    assert parts(extract_min_transmit(gstar)) == parts(extract_min_transmit(gstar))
    assert parts(extract_min_transmit(gstar)) != parts(pinned_sched)


def test_extract_unknown_pin(gstar, plant):
    with pytest.raises(DestxError, match=r"^\(q2Y\) is not a surviving initial estimate$"):
        extract_min_transmit(gstar, pin_initial=_os(plant, "q2Y"))


def test_synthesize_runs_the_stages(plant, prop, gstar, pinned_sched, default_policy, pinned_policy):
    # the observer of the system carrying the property, whose fixpoint is
    # the full observer's pruned one; a pin roots the schedule at the first
    # surviving initial that holds the labeled state, or none holds it
    obs, fixpoint, sched, policy = synthesize(plant, prop)
    assert (len(obs.states), obs.transition_count) == (18, 38)
    assert set(fixpoint.states) == set(gstar.states)
    assert sched == extract_min_transmit(fixpoint)
    assert format_policy(policy) == format_policy(default_policy)
    _obs, _fixpoint, sched, policy = synthesize(plant, prop, pin_initial="q0NNY")
    assert sched == pinned_sched
    assert format_policy(policy) == format_policy(pinned_policy)
    with pytest.raises(Infeasible, match=r"^no surviving initial estimate contains q1N$"):
        synthesize(plant, prop, pin_initial="q1N")


def test_single_branch_plant_schedule():
    plant = Plant(["a", "b"], ["go"], {("a", "go"): "b"}, "a")
    lsys = build_labeled_system(plant)
    obs = build_observer(lsys)
    free = distinguishability(DistinguishabilitySpec.of([]), plant)
    sched = extract_min_transmit(consistency_fixpoint(obs, prune_violating(obs, free)))
    # suppressing the only event wins: one silent state, no transitions
    assert sched.trans == {}
    assert sched.initial.render() == "(aN,b)"
    assert isinstance(sched, DeterministicSchedule)
