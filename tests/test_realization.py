"""Version order, schedule realization, policy files, and history projections."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from destx import (
    DestxError,
    DeterministicSchedule,
    DistinguishabilitySpec,
    LabeledState,
    Plant,
    Policy,
    build_labeled_system,
    build_observer,
    check_estimate_agreement,
    check_property_satisfaction,
    check_tracker_containment,
    consistency_fixpoint,
    distinguishability,
    extract_min_transmit,
    format_policy,
    parse_labeled,
    parse_policy,
    realize_policy,
    unobservable_reach,
)
from destx import realization
from destx.labeled import N, Y
from destx.observer import ObserverState
from destx.realization import _leading_back_first
from randgen import make_labeled, random_live_plant, random_plant, random_policy, uniform_policy

plants = st.integers(0, 10**6).map(lambda s: random_plant(random.Random(s)))


def _os(plant, *renderings):
    return ObserverState(parse_labeled(r, plant) for r in renderings)


def test_realize_versions_without_chain():
    # q0NN suppresses b into q2, and the pinned estimate holds both q2N and
    # q2Y, neither in the other's suppressed reach
    plant = Plant(["q0", "q1", "q2"], ["a", "b"], {("q0", "a"): "q0", ("q0", "b"): "q2", ("q2", "b"): "q1"}, "q0")
    prop = distinguishability(DistinguishabilitySpec.of([]), plant)
    lsys = build_labeled_system(plant, prop)
    obs = build_observer(lsys)
    gstar = consistency_fixpoint(obs, obs)
    pin = _os(plant, "q0NN", "q1", "q2N", "q2Y")
    assert pin in gstar.initials
    policy = realize_policy(lsys, extract_min_transmit(gstar, pin_initial=pin))
    for report in (
        check_tracker_containment(plant, policy, 6),
        check_estimate_agreement(plant, policy, 6),
        check_property_satisfaction(plant, policy, prop, 6),
    ):
        assert report.ok, report.line()


def _rank_by_permutations(lsys, d):
    """Reference for `_rank_formula`: the first permutation, in canonical order, in
    which every element lies in the suppressed reach of its predecessor."""
    elems = sorted(set(d))
    reach = {v: unobservable_reach(lsys, (v,)) for v in elems}
    for perm in itertools.permutations(elems):
        if all(b in reach[a] for a, b in zip(perm, perm[1:])):
            return perm
    return None


def _rank_formula(lsys, d):
    """The order realization once took on any set of labeled states: most
    of the set in each one's unobservable reach first, then (base, bits)."""
    elems = set(d)
    reach = {v: unobservable_reach(lsys, (v,)) for v in elems}
    return tuple(sorted(elems, key=lambda v: (-len(reach[v] & elems), v)))


def test_rank_matches_permutation_search(lsys, plant):
    # realization orders one plant state's versions: q2N suppresses σ1
    # into q1, which leads back to q2, and q2Y suppresses nothing
    q2n, q2y = parse_labeled("q2N", plant), parse_labeled("q2Y", plant)
    assert _leading_back_first(plant, [q2y, q2n]) == _leading_back_first(plant, [q2n, q2y]) == [q2n, q2y]
    assert _leading_back_first(plant, [q2n]) == [q2n]
    # nothing leads back to q0, so (base, bits) alone orders its versions
    assert _leading_back_first(plant, reversed(lsys.initials)) == list(lsys.initials)
    # s leaves for the sink t on a and loops on b, c and d: a version leads
    # back when it suppresses a loop, and the two that transmit all three
    # loops go last, on a set past the size the permutation search takes
    loops = Plant(["s", "t"], "abcd", {("s", "a"): "t", **{("s", e): "s" for e in "bcd"}}, "s")
    lsys4 = build_labeled_system(loops)
    versions = lsys4.versions_of("s")
    last = [make_labeled("s", {"a": a, "b": Y, "c": Y, "d": Y}) for a in (N, Y)]
    got = _leading_back_first(loops, reversed(versions))
    assert got == [v for v in versions if v not in last] + last
    assert tuple(got) == _rank_formula(lsys4, versions)
    chains = long_chains = chainless = 0
    for seed in range(300):
        rng = random.Random(seed)
        for rplant in (random_plant(rng), random_live_plant(rng)):
            rsys = build_labeled_system(rplant)
            for q in sorted(rplant.states):
                versions = rsys.versions_of(q)
                d = rng.sample(versions, rng.randint(1, min(7, len(versions))))
                got = tuple(_leading_back_first(rplant, d))
                assert got == _rank_formula(rsys, d)
                ref = _rank_by_permutations(rsys, d)
                if ref is None:
                    chainless += 1
                else:
                    chains += 1
                    long_chains += len(ref) >= 3
                    assert got == ref
    assert chains > 1000 and long_chains > 100 and chainless > 200, (chains, long_chains, chainless)


def test_realize_order_matches_rank_formula(monkeypatch):
    # pinning every surviving root of random plants, realization writes the
    # same policy with its order swapped for the general rank formula
    cases = []
    for seed in range(150):
        rng = random.Random(seed)
        rplant = random_plant(rng)
        states = sorted(rplant.states)
        prop = distinguishability(DistinguishabilitySpec.of([(rng.choice(states), rng.choice(states))]), rplant)
        rsys = build_labeled_system(rplant, prop)
        obs = build_observer(rsys)
        gstar = consistency_fixpoint(obs, obs)
        for z in gstar.initials:
            sched = extract_min_transmit(gstar, pin_initial=z)
            cases.append((rsys, sched, format_policy(realize_policy(rsys, sched))))
    monkeypatch.setattr(realization, "_leading_back_first", lambda p, d: _rank_formula(build_labeled_system(p), d))
    for rsys, sched, text in cases:
        assert format_policy(realize_policy(rsys, sched)) == text
    # the order decides: (base, bits) alone changes some of these policies
    monkeypatch.setattr(realization, "_leading_back_first", lambda p, d: sorted(d))
    changed = sum(format_policy(realize_policy(rsys, sched)) != text for rsys, sched, text in cases)
    assert len(cases) > 300 and changed > 10, (len(cases), changed)


PINNED_TEXT = """initial q0NNY
label q0NNY σ1 N
label q0NNY σ2 N
label q0NNY σ3 Y
label q1Y σ2 Y
label q2Y σ1 Y
label q3Y σ2 Y
label q4N σ3 N
trans q0NNY σ1 q5
trans q0NNY σ2 q1Y
trans q0NNY σ3 q3Y
trans q1Y σ2 q2Y
trans q2Y σ1 q1Y
trans q3Y σ2 q4N
trans q4N σ3 q4N
"""


def test_realize_pinned(pinned_policy):
    assert format_policy(pinned_policy) == PINNED_TEXT
    assert pinned_policy.initial.render() == "q0NNY"
    assert len(pinned_policy.states) == 6


def test_realize_default(default_policy, plant):
    assert default_policy.initial.render() == "q0YNN"
    assert parse_labeled("q0YNN", plant).label("σ1") == Y
    assert default_policy.step(parse_labeled("q0YNN", plant), "σ2").render() == "q1Y"
    assert len(default_policy.states) == 6


def test_realize_multi_target_uses_rank_and_claims(lsys, plant):
    z0 = _os(plant, "q0NNY", "q1Y", "q5")
    zA = _os(plant, "q1N", "q2N", "q2Y")
    sched = DeterministicSchedule(
        z0,
        (z0, zA, _os(plant, "q1Y"), _os(plant, "q3Y"), _os(plant, "q4N")),
        {
            (z0, "σ2"): zA,
            (z0, "σ3"): _os(plant, "q3Y"),
            (zA, "σ1"): _os(plant, "q1Y"),
            (_os(plant, "q3Y"), "σ2"): _os(plant, "q4N"),
        },
    )
    pol = realize_policy(lsys, sched)
    step = lambda x, e: pol.step(parse_labeled(x, plant), e).render()
    # first visit to the q2 pair takes the rank head ...
    assert step("q1Y", "σ2") == "q2N"
    assert step("q2N", "σ1") == "q1N"
    # ... the second visit advances past the claimed version
    assert step("q1N", "σ2") == "q2Y"
    assert step("q2Y", "σ1") == "q1Y"
    assert len(pol.states) == 8


def test_realize_alternates_when_chain_exhausted():
    loop = Plant(["p"], ["a"], {("p", "a"): "p"}, "p")
    lsys = build_labeled_system(loop)
    pn = make_labeled("p", {"a": N})
    py = make_labeled("p", {"a": Y})
    z = ObserverState([pn, py])
    pol = realize_policy(lsys, DeterministicSchedule(z, (z,), {(z, "a"): z}))
    assert pol.initial == pn
    assert pol.step(pn, "a") == py
    assert pol.step(py, "a") == pn
    assert pol.projection(("a", "a", "a")) == ("a",)


def test_realize_missing_successor(lsys, plant):
    z0, z1 = _os(plant, "q0NNY", "q1Y", "q5"), _os(plant, "q2Y")
    # q2Y transmits σ1 but the schedule has no move for it
    sched = DeterministicSchedule(z0, (z0, z1), {(z0, "σ2"): z1})
    with pytest.raises(DestxError, match=r"^schedule lacks a successor for \(\(q2Y\), σ1\) needed by q2Y$"):
        realize_policy(lsys, sched)
    # once the loop back to z0 is there, x0 transmits σ3 with no move for it
    sched = DeterministicSchedule(z0, (z0, z1), {(z0, "σ2"): z1, (z1, "σ1"): z0})
    with pytest.raises(DestxError, match=r"^schedule lacks a successor for \(\(q0NNY,q1Y,q5\), σ3\) needed by q0NNY$"):
        realize_policy(lsys, sched)
    # a successor that shares no version with the plant target is as bad
    sched = DeterministicSchedule(z0, (z0, z1), {(z0, "σ2"): z1, (z1, "σ1"): z0, (z0, "σ3"): z1})
    with pytest.raises(DestxError, match=r"^no version of the plant successor of \(q0NNY, σ3\) lies in \(q2Y\)$"):
        realize_policy(lsys, sched)


def test_policy_validation(plant, lsys):
    q1y = parse_labeled("q1Y", plant)
    with pytest.raises(DestxError, match=r"^policy initial q1Y is not a version of the plant initial 'q0'$"):
        Policy(plant, q1y, {})  # initial must sit on the plant's initial state
    q0 = parse_labeled("q0NNY", plant)
    with pytest.raises(DestxError, match=r"^policy transition q0NNY -σ2-> q3Y does not follow the plant$"):
        Policy(plant, q0, {(q0, "σ2"): parse_labeled("q3Y", plant)})  # wrong target


def test_policy_step_incomplete(plant):
    q0 = parse_labeled("q0NNY", plant)
    pol = Policy(plant, q0, {})
    with pytest.raises(DestxError, match=r"^policy has no transition for \(q0NNY, σ2\)$"):
        pol.step(q0, "σ2")


def test_uniform_policies(plant):
    ay = uniform_policy(plant, Y)
    an = uniform_policy(plant, N)
    assert ay.projection(("σ2", "σ2", "σ1")) == ("σ2", "σ2", "σ1")
    assert an.projection(("σ2", "σ2", "σ1")) == ()
    assert len(ay.states) == 6
    assert all(x.label(e) == Y for x in ay.states for e in x.events())


def test_projection(pinned_policy, hand_policy):
    assert pinned_policy.projection(("σ2", "σ2")) == ("σ2",)
    assert pinned_policy.projection(("σ3", "σ2")) == ("σ3", "σ2")
    assert hand_policy.projection(("σ2", "σ2", "σ1", "σ2")) == ("σ2", "σ2")
    assert hand_policy.projection(()) == ()
    with pytest.raises(DestxError, match=r"^event 'σ1' is not defined at plant state 'q5'$"):
        pinned_policy.projection(("σ1", "σ1"))


def test_transmitted_count(pinned_policy, plant):
    assert len(pinned_policy.projection(("σ3", "σ2"))) == 2
    assert len(pinned_policy.projection(("σ2", "σ2", "σ1", "σ2"))) == 3
    assert len(uniform_policy(plant, N).projection(("σ3", "σ2"))) == 0


def test_format_parse_round_trip(pinned_policy, hand_policy, plant):
    for pol in (pinned_policy, hand_policy):
        text = format_policy(pol)
        again = parse_policy(text, plant)
        assert format_policy(again) == text


def test_parse_policy_rejects(plant):
    with pytest.raises(DestxError, match=r"^missing initial line$"):
        parse_policy("label q0NNY σ1 N\n", plant)  # no initial
    base = "initial q0NNY\n"
    with pytest.raises(DestxError, match=r"^label line for \(q0NNY, σ1\) contradicts the state rendering$"):
        # label line contradicting the state name
        parse_policy(base + "label q0NNY σ1 Y\n", plant)
    with pytest.raises(DestxError, match=r"^policy transition q0NNY -σ2-> q3Y does not follow the plant$"):
        # transition disagreeing with the plant
        parse_policy(base + "trans q0NNY σ2 q3Y\n", plant)
    with pytest.raises(DestxError, match=r"^policy transition q0NNY -σ9-> q1Y does not follow the plant$"):
        parse_policy(base + "trans q0NNY σ9 q1Y\n", plant)
    with pytest.raises(DestxError, match=r"^line 2: unknown keyword 'widget'$"):
        parse_policy(base + "widget q0NNY\n", plant)
    for text, message in (
        ("initial q0NNY q1Y\n", r"^line 1: bad or duplicate initial line$"),
        (base + "initial q0NNY\n", r"^line 2: bad or duplicate initial line$"),
        (base + "label q0NNY σ1\n", r"^line 2: label takes state, event, Y\|N$"),
        (base + "trans q0NNY σ2\n", r"^line 2: trans takes source, event, target$"),
        (base + "trans q0NNY σ2 q1Y\ntrans q0NNY σ2 q1N\n", r"^line 3: duplicate transition for \(q0NNY,σ2\)$"),
        (base + "label q0NNY σ1 X\n", r"^label for \(q0NNY, σ1\) must be Y or N$"),
    ):
        with pytest.raises(DestxError, match=message):
            parse_policy(text, plant)


def test_policy_rejects_a_state_labeling_other_events(plant):
    # q3 defines σ2 alone, so a version of it labeling σ2 and σ3 is no state
    q3 = LabeledState(("q3", (("σ2", Y), ("σ3", Y))))
    with pytest.raises(DestxError, match=r"^q3YY does not label exactly the defined events$"):
        Policy(plant, parse_labeled("q0NNY", plant), {(parse_labeled("q0NNY", plant), "σ3"): q3})


def test_realize_rejects_a_schedule_without_the_plant_initial(lsys, plant):
    z = _os(plant, "q1Y", "q2Y")
    with pytest.raises(DestxError, match=r"^schedule initial \(q1Y,q2Y\) has no plant-initial member$"):
        realize_policy(lsys, DeterministicSchedule(z, (z,), {}))


@given(plants, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_policy_tracks_plant_random(plant, pseed):
    pol = random_policy(random.Random(pseed), plant)
    for s in plant.words_upto(4):
        x, q = pol.initial, plant.initial
        for e in s:
            assert x.base == q
            x, q = pol.step(x, e), plant.step(q, e)
        assert x.base == q
        assert len(pol.projection(s)) <= len(s)


def _ring_cases():
    """ring(n,1), n = 3..8, with every pair (q0, qb).  The realized policy
    keys its states on the labeled state alone, so a labeled state reached
    under two schedule states inherits the first one's continuation; for
    b >= 3 the estimate after e^n then merges the pair."""
    for n in range(3, 9):
        for b in range(1, n):
            marks = ()
            if b >= 3:
                marks = pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason="ROADMAP item 1: realization keyed on the labeled state alone merges the pair after e^n",
                )
            yield pytest.param(n, b, marks=marks, id=f"ring({n},1)-q0~q{b}")


@pytest.mark.parametrize("n, b", _ring_cases())
def test_ring_synthesized_policy_satisfies_problem1(n, b):
    states = [f"q{i}" for i in range(n)]
    plant = Plant(states, ["e"], {(states[i], "e"): states[(i + 1) % n] for i in range(n)}, "q0")
    prop = distinguishability(DistinguishabilitySpec.of([("q0", f"q{b}")]), plant)
    lsys = build_labeled_system(plant, prop)
    obs = build_observer(lsys)
    policy = realize_policy(lsys, extract_min_transmit(consistency_fixpoint(obs, obs)))
    report = check_property_satisfaction(plant, policy, prop, min(12, 2 * n))
    assert report.ok, report.line()
