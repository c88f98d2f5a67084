"""Receiver-side estimation: tracker, brute force, and the checkers."""

import itertools
import random
import types
from pathlib import Path

import pytest

import destx.estimation
import destx.labeled
import destx.observer
from destx import (
    CheckReport,
    DestxError,
    DeterministicSchedule,
    DistinguishabilitySpec,
    Estimator,
    InstanceTooLarge,
    Plant,
    Policy,
    build_labeled_system,
    build_observer,
    check_estimate_agreement,
    check_property_satisfaction,
    check_tracker_containment,
    cli,
    consistency_fixpoint,
    distinguishability,
    explore,
    extract_min_transmit,
    format_policy,
    parse_labeled,
    prune_violating,
    realize_policy,
    shortlex_levels,
)
from destx.estimation import check_estimates
from destx.labeled import N, Y
from destx.observer import ObserverState
from randgen import (
    flip_to_suppress,
    random_live_plant,
    random_plant,
    random_policy,
    random_policy_with_memory,
    suppressing_tree,
    uniform_policy,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _bruteforce_states(policy, s, bound=None):
    """Word-length reference for the brute-force sets: the (plant state,
    policy state) pairs ending the plant words of length <= `bound` that
    project like `s`, found breadth-first over (plant state, policy state,
    projection) triples, one level of word length at a time.  A step only
    extends a projection, so only triples whose projection is a prefix of
    the target p are kept.

    The bound defaults to |p| + (|p|+1)(|X|-1), X the policy's states, which
    reaches every triple with projection p when the policy has a move for
    every defined event of its states; the answer is then the exact
    brute-force set.  A policy state x fixes its plant state x.base, so a
    triple is fixed by its policy state and projection.  Cut a shortest
    word reaching a triple at its |p| transmitted events into |p|+1
    stretches of suppressed steps.  If a policy state repeated within one
    stretch, both visits would be the same triple, and cutting the loop
    between them would leave a shorter word reaching the same end.  So a
    stretch visits at most |X| policy states and takes at most |X|-1
    steps."""
    plant, target = policy.plant, policy.projection(s)
    if bound is None:
        bound = len(target) + (len(target) + 1) * (len(policy.states) - 1)
    start = (plant.initial, policy.initial, ())
    seen, frontier = {start}, [start]
    for _ in range(bound):
        fresh = []
        for q, x, p in frontier:
            for e in sorted(plant.defined_events(q)):
                t = (plant.step(q, e), policy.step(x, e), p + (e,) if x.label(e) == Y else p)
                if t[2] == target[:len(t[2])] and t not in seen:
                    seen.add(t)
                    fresh.append(t)
        frontier = fresh
    return frozenset((q, x) for q, x, p in seen if p == target)


def _bruteforce_estimate(policy, s, bound=None):
    """The plant states of `_bruteforce_states`: the estimate by definition."""
    return frozenset(q for q, _x in _bruteforce_states(policy, s, bound))


def _memo_set(policy, s, memo=None):
    """The brute-force set for the projection of `s`, stepped along it from
    the empty projection's set on the memo `memo`, a fresh one by default."""
    S, after = memo or destx.estimation._brute_force(policy, 100_000)
    for e in policy.projection(s):
        S = after(S, e)
    return S


def _exact_estimate(policy, s):
    """The same estimate, from a fresh brute-force memo."""
    return frozenset(x.base for x in _memo_set(policy, s))


def _synthesized(plant, pairs):
    lsys = build_labeled_system(plant)
    obs = build_observer(lsys)
    prop = distinguishability(DistinguishabilitySpec.of(pairs), plant)
    gstar = consistency_fixpoint(obs, prune_violating(obs, prop))
    return realize_policy(lsys, extract_min_transmit(gstar)), prop


FIB = Plant(["q0", "q1"], ["a", "b"], {("q0", "a"): "q1", ("q0", "b"): "q1", ("q1", "b"): "q0"}, "q0")

# one reachable state with two self-loops, and two unreachable states that
# raise the labeled states to twelve
HOLLOW = Plant(
    ["q0", "q1", "q2"], ["a", "b"],
    {("q0", "a"): "q0", ("q0", "b"): "q0", ("q1", "a"): "q2", ("q1", "b"): "q1",
     ("q2", "a"): "q1", ("q2", "b"): "q2"},
    "q0",
)


def _after(est, observed):
    """The tracker state after an observed word, or None if the tracker
    cannot follow it."""
    h = est.initial
    for e in observed:
        h = est.step(h, e)
        if h is None:
            return None
    return h


def _full_tracker(est):
    """Every tracker state and move, built by walking `est.step` from the
    initial state."""
    def step(h, e):
        h2 = est.step(h, e)
        return () if h2 is None else (h2,)

    return explore((est.initial,), est.sys.plant.alphabet, step)


def _render(states):
    return "{" + ",".join(sorted(states)) + "}"


def _prop1_word_by_word(plant, policy, depth):
    """Reference for check_tracker_containment: one breadth-first entry per
    observed word, in shortlex order, checking that the tracker state is
    one of the observer's estimates on that word: one of its initials on
    the empty word, and one of `observer_step(h, e)` after h -e->."""
    sys = build_labeled_system(plant)
    est = Estimator(sys, policy)
    initials = destx.observer._estimates_over(sys, frozenset({plant.initial}), 100_000)
    checked = 0
    queue = [((), est.initial, initials, frozenset({plant.initial}))]
    while queue:
        w, h, allowed, targets = queue.pop(0)
        checked += 1
        if h not in allowed:
            return CheckReport(
                "PROP1", False, checked, depth, w,
                expected="estimate over " + _render(targets),
                got=_render(x.render() for x in h),
            )
        if len(w) == depth:
            continue
        for e in sorted(plant.alphabet):
            h2 = est.step(h, e)
            if h2 is None:
                continue
            queue.append((w + (e,), h2, destx.observer.observer_step(sys, h, e), destx.labeled.targets(plant, h, e)))
    return CheckReport("PROP1", True, checked, depth)


def _buckets_word_by_word(policy, depth, cache):
    """Reference for `_bruteforce_estimate` at a bound: endpoint states of
    every plant word up to `depth`, one word at a time, keyed by the word's
    projection."""
    if depth in cache:
        return cache[depth]
    plant = policy.plant
    buckets = {(): {plant.initial}}
    stack = [(plant.initial, policy.initial, (), 0)]
    while stack:
        q, x, proj, n = stack.pop()
        if n == depth:
            continue
        for e in sorted(plant.defined_events(q)):
            q2 = plant.step(q, e)
            x2 = policy.trans.get((x, e))
            if x2 is None:
                raise DestxError(f"policy has no transition for ({x.render()}, {e})")
            proj2 = proj + (e,) if x.label(e) == Y else proj
            buckets.setdefault(proj2, set()).add(q2)
            stack.append((q2, x2, proj2, n + 1))
    cache[depth] = {w: frozenset(qs) for w, qs in buckets.items()}
    return cache[depth]


def _estimate_by_projection(policy, s, cache):
    """`_bruteforce_estimate` at the proven bound, memoized per projection."""
    proj = policy.projection(s)
    if proj not in cache:
        cache[proj] = _bruteforce_estimate(policy, s)
    return cache[proj]


def _thm1_word_by_word(plant, policy, depth, cache):
    """Reference for check_estimate_agreement: every word replayed from the
    start, its brute-force estimate read from the word-length reference at
    the proven bound."""
    est = Estimator(build_labeled_system(plant), policy)
    checked = 0
    for s in plant.words_upto(depth):
        checked += 1
        h = _after(est, policy.projection(s))
        tracker = h.underlying() if h is not None else frozenset()
        brute = _estimate_by_projection(policy, s, cache)
        if tracker != brute:
            return CheckReport("THM1", False, checked, depth, s, expected=_render(brute), got=_render(tracker))
    return CheckReport("THM1", True, checked, depth)


def _problem1_word_by_word(plant, policy, prop, depth, cache):
    """Reference for check_property_satisfaction."""
    checked = 0
    for s in plant.words_upto(depth):
        checked += 1
        estimate = _estimate_by_projection(policy, s, cache)
        if not prop.holds(estimate):
            return CheckReport(
                "PROBLEM1", False, checked, depth, s,
                expected="estimate satisfying the property",
                got=_render(estimate) + " (" + prop.describe(estimate) + ")",
            )
    return CheckReport("PROBLEM1", True, checked, depth)


def _assert_bruteforce_matches(plant, policy, prop):
    """The word-length reference at a bound equals the words up to that
    bound, and the THM1/PROBLEM1 reports equal the word-by-word references;
    returns the report lines."""
    buckets = {}
    for s in plant.words_upto(3):
        for extra in (0, 2, 7):
            bound = len(s) + extra
            ref = _buckets_word_by_word(policy, bound, buckets).get(policy.projection(s), frozenset())
            assert _bruteforce_estimate(policy, s, bound) == ref, (s, bound)
    lines = []
    cache = {}
    for depth in (3, 5):
        got = check_estimate_agreement(plant, policy, depth)
        assert got.line() == _thm1_word_by_word(plant, policy, depth, cache).line()
        lines.append(got.line())
        got = check_property_satisfaction(plant, policy, prop, depth)
        assert got.line() == _problem1_word_by_word(plant, policy, prop, depth, cache).line()
        lines.append(got.line())
    return lines


def _assert_exact_matches_reference(policy):
    """For each depth 0-5, a fresh brute-force memo, stepped along the
    projections of the plant words up to the depth in shortlex order, gives
    the word-length reference's policy states at the proven bound, each with
    its plant state, and so its estimate."""
    refs = {}
    for depth in range(6):
        memo = destx.estimation._brute_force(policy, 100_000)
        for s in policy.plant.words_upto(depth):
            proj = policy.projection(s)
            if proj not in refs:
                refs[proj] = _bruteforce_states(policy, s)
            assert {(x.base, x) for x in _memo_set(policy, s, memo)} == refs[proj], s


def _assert_prop1_matches(plant, policy, depth):
    got = check_tracker_containment(plant, policy, depth)
    ref = _prop1_word_by_word(plant, policy, depth)
    assert got.line() == ref.line()
    if ref.ok:
        assert got.words == ref.words
    return got


def _product_tracker(sys, policy):
    """Reference for Estimator: the tracker over the product of the policy
    with the labeled plant.  A product state pairs a policy state with a
    labeled plant state; a move needs the policy move and keeps the one
    labeled successor equal to the policy's target.  Returns the tracker's
    initial state and its step, over sets of product states."""
    v0 = (policy.initial, policy.initial)
    ptrans = {}
    seen, work = {v0}, [v0]
    while work:
        v = work.pop()
        sensor, aug = v
        for e in aug.events():
            x2 = policy.trans.get((sensor, e))
            cands = [w for w in sys.versions_of(sys.plant.step(aug.base, e)) if w == x2]
            if x2 is None or not cands:
                continue
            ptrans[(v, e)] = v2 = (x2, cands[0])
            if v2 not in seen:
                seen.add(v2)
                work.append(v2)

    def close(seed):
        out, work = set(seed), list(seed)
        while work:
            v = work.pop()
            for e, lab in v[0].bits:
                v2 = ptrans.get((v, e)) if lab == N else None
                if v2 is not None and v2 not in out:
                    out.add(v2)
                    work.append(v2)
        return frozenset(out)

    def step(h, e):
        moved = {ptrans[(v, e)] for v in h if dict(v[0].bits).get(e) == Y and (v, e) in ptrans}
        return close(moved) if moved else None

    return close({v0}), step


def _assert_tracker_matches_product(sys, policy, depth=6):
    """Same state count, and the same estimate on every observed word up to
    `depth`, as the product tracker; the estimator has built only what it
    was asked for."""
    est = Estimator(sys, policy)
    assert list(est.states) == [est.initial]
    h0, step = _product_tracker(sys, policy)
    alphabet = sorted(sys.plant.alphabet)
    states = {h0}
    level = [((), h0, est.initial)]
    for n in range(depth + 1):
        nxt = []
        for w, hp, h in level:
            assert h is not None and h == ObserverState(aug for _, aug in hp), w
            if n == depth:
                continue
            for e in alphabet:
                hp2 = step(hp, e)
                if hp2 is None:
                    assert est.step(h, e) is None, w + (e,)
                else:
                    nxt.append((w + (e,), hp2, est.step(h, e)))
        level = nxt
    # the product tracker's reachable states, one per estimator state
    work = [h0]
    while work:
        hp = work.pop()
        for e in alphabet:
            hp2 = step(hp, e)
            if hp2 is not None and hp2 not in states:
                states.add(hp2)
                work.append(hp2)
    tracker_states, _ = _full_tracker(est)
    assert len(states) == len(tracker_states) == len(est.states)


def test_estimator_matches_product_running_example(lsys, plant, hand_policy, pinned_policy, default_policy):
    for pol in (hand_policy, pinned_policy, default_policy, uniform_policy(plant, Y), uniform_policy(plant, N)):
        _assert_tracker_matches_product(lsys, pol)


def test_estimator_matches_product_random():
    for seed in range(200):
        rng = random.Random(seed)
        plant = random_plant(rng)
        sys = build_labeled_system(plant)
        for policy in (random_policy(rng, plant), random_policy_with_memory(rng, plant)):
            _assert_tracker_matches_product(sys, policy)


def test_estimator_hand_policy(lsys, hand_policy):
    est = Estimator(lsys, hand_policy)
    assert sorted(est.initial.underlying()) == ["q0", "q1", "q5"]
    h = _after(est, ("σ2",))
    assert h.render() == "(q1Y,q2N)"
    assert sorted(h.underlying()) == ["q1", "q2"]
    # σ1 is never transmitted by this policy
    assert _after(est, ("σ1",)) is None
    assert _after(est, ()) == est.initial


def test_estimator_uniform(lsys, plant):
    est_n = Estimator(lsys, uniform_policy(plant, N))
    states, trans = _full_tracker(est_n)
    assert len(states) == 1
    assert trans == {}
    assert est_n.initial.underlying() == frozenset(plant.states)

    est_y = Estimator(lsys, uniform_policy(plant, Y))
    states, _ = _full_tracker(est_y)
    assert len(states) == 6
    assert sorted(_after(est_y, ("σ2", "σ2")).underlying()) == ["q2"]
    for h in states:
        assert len(h) == 1  # full transmission pins the state


def test_estimate_bruteforce(plant, hand_policy):
    an = uniform_policy(plant, N)
    ay = uniform_policy(plant, Y)
    for estimate in (_exact_estimate, _bruteforce_estimate):
        # every state, q2 and q4 two suppressed steps away included
        assert estimate(an, ()) == frozenset(plant.states)
        assert estimate(an, ("σ2", "σ2")) == frozenset(plant.states)
        assert estimate(ay, ("σ2",)) == {"q1"}
        assert sorted(estimate(hand_policy, ())) == ["q0", "q1", "q5"]
        with pytest.raises(DestxError, match=r"^event 'σ1' is not defined at plant state 'q5'$"):
            estimate(an, ("σ1", "σ1"))


def test_bruteforce_incomplete_policy(plant, prop):
    partial = Policy(plant, parse_labeled("q0NNY", plant), {})
    # the word-length reference steps only below its bound, which is 0 for
    # the empty projection of a one-state policy, and stops on a step past
    # the initial state
    assert _bruteforce_estimate(partial, ()) == {"q0"}
    incomplete = r"^policy has no transition for \(q0NNY, σ1\)$"
    with pytest.raises(DestxError, match=incomplete):
        _bruteforce_estimate(partial, (), 3)
    # the memo closes the empty projection, stepping q0NNY at once
    with pytest.raises(DestxError, match=incomplete):
        _exact_estimate(partial, ())
    # the checks and their word-by-word references stop alike
    for depth in (3, 5):
        for check in (
            lambda: check_estimate_agreement(plant, partial, depth),
            lambda: check_property_satisfaction(plant, partial, prop, depth),
            lambda: _thm1_word_by_word(plant, partial, depth, {}),
            lambda: _problem1_word_by_word(plant, partial, prop, depth, {}),
        ):
            with pytest.raises(DestxError, match=incomplete):
                check()


def test_check_report_keywords_match_positions():
    by_keyword = CheckReport("PROBLEM1", False, 3, 6, ("σ2", "σ2"), expected="{q1,q2}", got="x")
    by_position = CheckReport("PROBLEM1", False, 3, 6, ("σ2", "σ2"), "{q1,q2}", "x")
    assert by_keyword.line() == by_position.line() == "FAIL PROBLEM1 word=σ2 σ2 expected={q1,q2} got=x"
    assert CheckReport(name="THM1", ok=True, words=14, depth=6).line() == "THM1 ok words=14 depth=6"
    assert CheckReport("PROP1", False, 1, 0, ()).line() == "FAIL PROP1 word=ε expected= got="


def test_report_and_schedule_are_named_tuples(plant, lsys):
    report = CheckReport("PROBLEM1", False, 3, 6, ("σ2", "σ2"), "{q1,q2}", "x")
    fields = ("PROBLEM1", False, 3, 6, ("σ2", "σ2"), "{q1,q2}", "x")
    assert report == fields and hash(report) == hash(fields)
    with pytest.raises(AttributeError):
        report.ok = True
    ok = CheckReport("THM1", True, 14, 6)
    assert (ok.word, ok.expected, ok.got) == (None, "", "")
    assert ok.line() == "THM1 ok words=14 depth=6"
    assert report.line() == "FAIL PROBLEM1 word=σ2 σ2 expected={q1,q2} got=x"
    z = ObserverState(lsys.versions_of(plant.initial)[:1])
    sched = DeterministicSchedule(z, (z,), {(z, "σ1"): z})
    assert (sched.initial, sched.states, sched.trans) == (z, (z,), {(z, "σ1"): z}) == tuple(sched)


def test_check_lines_pinned(plant, prop, pinned_policy):
    assert check_tracker_containment(plant, pinned_policy, 5).line() == "PROP1 ok words=8 depth=5"
    assert check_estimate_agreement(plant, pinned_policy, 5).line() == "THM1 ok words=12 depth=5"
    assert (
        check_property_satisfaction(plant, pinned_policy, prop, 8).line()
        == "PROBLEM1 ok words=18 depth=8"
    )


def test_check_lines_default(plant, prop, default_policy):
    assert check_tracker_containment(plant, default_policy, 5).ok
    assert check_estimate_agreement(plant, default_policy, 5).ok
    assert check_property_satisfaction(plant, default_policy, prop, 8).ok


def test_check_uniform_policies(plant, prop):
    for decision in (Y, N):
        pol = uniform_policy(plant, decision)
        assert check_tracker_containment(plant, pol, 4).ok
        assert check_estimate_agreement(plant, pol, 4).ok
    # transmitting everything separates all pairs; suppressing everything cannot
    assert check_property_satisfaction(plant, uniform_policy(plant, Y), prop, 4).ok
    report = check_property_satisfaction(plant, uniform_policy(plant, N), prop, 4)
    assert not report.ok
    assert report.word == ()  # the silent estimate is already too coarse


def test_check_hand_policy_fails_property(plant, prop, hand_policy):
    report = check_property_satisfaction(plant, hand_policy, prop, 4)
    assert not report.ok
    assert report.word == ("σ2", "σ2")
    assert report.line() == (
        "FAIL PROBLEM1 word=σ2 σ2 expected=estimate satisfying the property "
        "got={q1,q2} (estimate {q1,q2} merges q1~q2)"
    )
    # yet its tracker still agrees with brute force
    assert check_estimate_agreement(plant, hand_policy, 5).ok
    assert check_tracker_containment(plant, hand_policy, 5).ok


def _simulate(capsys, tmp_path, policy, trace):
    """Run `simulate` on the running example and `policy`, written to a
    file, over the events `trace`: its exit code, the initial estimate,
    (sent, estimate) per step printed, the last projection printed, and
    stderr."""
    path = tmp_path / "trace.policy"
    path.write_text(format_policy(policy), encoding="utf-8")
    code = cli.main(["simulate", str(DATA / "running_example.des"), str(path), "--trace", " ".join(trace)])
    out, err = capsys.readouterr()
    first, *lines = out.splitlines()
    steps = [line.split()[2:] for line in lines]
    proj = steps[-1][1].removeprefix("proj=") if steps else "ε"
    return code, _estimate(first), [(sent == "sent=Y", _estimate(est)) for sent, _proj, est in steps], proj, err


def _estimate(text):
    """The set that a `simulate` line ending in `estimate={...}` prints."""
    return frozenset(text.split("=")[-1].strip("{}").split(","))


def test_trace_session(capsys, tmp_path, hand_policy):
    code, initial, steps, _proj, err = _simulate(capsys, tmp_path, hand_policy, ["σ3", "σ2", "σ1"])
    assert sorted(initial) == ["q0", "q1", "q5"]
    assert steps == [(True, frozenset({"q3"})), (True, frozenset({"q4"}))]
    assert (code, err) == (2, "error: event 'σ1' is not defined at plant state 'q4'\n")


def test_trace_session_suppressed_steps(capsys, tmp_path, hand_policy):
    code, _initial, steps, proj, err = _simulate(capsys, tmp_path, hand_policy, ["σ2", "σ2", "σ1", "σ2"])
    assert steps == [
        (False, frozenset({"q0", "q1", "q5"})),
        (True, frozenset({"q1", "q2"})),
        (False, frozenset({"q1", "q2"})),
        (True, frozenset({"q1", "q2"})),
    ]
    assert proj == "σ2,σ2"
    assert (code, err) == (0, "")


def test_online_matches_bruteforce(capsys, tmp_path, plant, pinned_policy, hand_policy):
    for pol in (pinned_policy, hand_policy):
        for s in plant.words_upto(5):
            code, est, steps, _proj, _err = _simulate(capsys, tmp_path, pol, s)
            assert code == 0
            if steps:
                est = steps[-1][1]
            assert est == _bruteforce_estimate(pol, s)


def test_suppressing_more_never_shrinks_silent_estimate():
    # flipping one Y to N keeps every silent word silent, so the
    # empty-observation estimate can only grow
    for seed in range(40):
        rng = random.Random(seed)
        plant = random_plant(rng, max_states=4)
        pol = random_policy(rng, plant)
        flipped = flip_to_suppress(rng, plant, pol)
        if flipped is None:
            continue
        before = _bruteforce_estimate(pol, ())
        after = _bruteforce_estimate(flipped, ())
        assert before <= after
        # and projections only lose events, pointwise
        for s in plant.words_upto(4):
            pa, pb = pol.projection(s), flipped.projection(s)
            it = iter(pa)
            assert all(e in it for e in pb)  # subsequence


def test_prop1_matches_word_by_word_running_example(plant, pinned_policy, default_policy):
    for pol in (pinned_policy, default_policy):
        for depth in range(9):
            assert _assert_prop1_matches(plant, pol, depth).ok


def test_prop1_matches_word_by_word_fib():
    pol, _ = _synthesized(FIB, [("q0", "q1")])
    for p in (pol, uniform_policy(FIB, Y), uniform_policy(FIB, N)):
        assert _assert_prop1_matches(FIB, p, 14).ok


def test_prop1_matches_word_by_word_random():
    # a memoryless policy keeps the receiver inside the observer; a policy
    # with memory may leave it, and the two routes must then fail alike
    for seed in range(50):
        rng = random.Random(seed)
        plant = random_plant(rng)
        assert _assert_prop1_matches(plant, random_policy(rng, plant), 5).ok, f"seed {seed}"
        _assert_prop1_matches(plant, random_policy_with_memory(rng, plant), 5)


# q0 -b-> q1, q1 -a-> q0, q1 -b-> q1, and a policy that remembers whether
# q1 was entered from q0: it suppresses a on the first visit only
SWITCH = Plant(["q0", "q1"], ["a", "b"], {("q0", "b"): "q1", ("q1", "a"): "q0", ("q1", "b"): "q1"}, "q0")


def _switch_policy():
    q0y, q1ny, q1yy = (parse_labeled(r, SWITCH) for r in ("q0Y", "q1NY", "q1YY"))
    return Policy(
        SWITCH, q0y,
        {(q0y, "b"): q1ny, (q1ny, "a"): q0y, (q1ny, "b"): q1yy, (q1yy, "a"): q0y, (q1yy, "b"): q1yy},
    )


def test_prop1_fails_on_memory_policy_outside_observer():
    # after b b the tracker holds both versions of q1, and inside that set
    # neither version's run trees reach the other, but every estimate over
    # {q1} is one range rooted at one version of q1
    report = _assert_prop1_matches(SWITCH, _switch_policy(), 3)
    assert report.line() == "FAIL PROP1 word=b b expected=estimate over {q1} got={q0Y,q1NY,q1YY}"
    assert report.words == 3
    assert _assert_prop1_matches(SWITCH, _switch_policy(), 1).line() == "PROP1 ok words=2 depth=1"
    # the receiver's estimate is still the brute-force one
    assert check_estimate_agreement(SWITCH, _switch_policy(), 5).ok


def test_prop1_matches_word_by_word_ring_2_2_and_hollow():
    ring22 = Plant(["q0", "q1"], ["e0", "e1"], {("q0", "e0"): "q1", ("q1", "e0"): "q0", ("q0", "e1"): "q0", ("q1", "e1"): "q1"}, "q0")
    # the reference reads ring(2,2)'s 74,230 observer transitions per word
    for shape, depth in ((ring22, 4), (HOLLOW, 7)):
        pol, _ = _synthesized(shape, [("q0", "q1")])
        for p in (pol, uniform_policy(shape, Y), uniform_policy(shape, N)):
            assert _assert_prop1_matches(shape, p, depth).ok


def test_prop1_failure_names_shortlex_first_word(monkeypatch):
    # a and b lead to the same pair, so the two failing words a c and b c
    # share one entry; the report names the first of them
    plant = Plant(["q0", "q1", "q2"], ["a", "b", "c"], {("q0", "a"): "q1", ("q0", "b"): "q1", ("q1", "c"): "q2"}, "q0")
    policy = uniform_policy(plant, Y)
    assert _assert_prop1_matches(plant, policy, 3).line() == "PROP1 ok words=5 depth=3"
    real = Estimator.step
    q1y = parse_labeled("q1Y", plant)

    def with_q1y(self, h, e):
        # a tracker that also claims q1Y once it reaches q2, where the
        # observer allows only q2
        h2 = real(self, h, e)
        return ObserverState(h2 | {q1y}) if h2 is not None and "q2" in h2.underlying() else h2

    monkeypatch.setattr(Estimator, "step", with_q1y)
    report = _assert_prop1_matches(plant, policy, 3)
    assert report.line() == "FAIL PROP1 word=a c expected=estimate over {q2} got={q1Y,q2}"
    assert report.words == 4


def test_thm1_problem1_failures_name_shortlex_first_word(monkeypatch):
    # q0 suppresses a and b, so the failing words a c and b c reach the same
    # (plant state, policy state, projection) triple; the reports name the
    # first of them and count the words before it plus that word
    plant = Plant(["q0", "q1", "q2"], ["a", "b", "c"], {("q0", "a"): "q1", ("q0", "b"): "q1", ("q1", "c"): "q2"}, "q0")
    q0nn, q1y, q2 = (parse_labeled(r, plant) for r in ("q0NN", "q1Y", "q2"))
    policy = Policy(plant, q0nn, {(q0nn, "a"): q1y, (q0nn, "b"): q1y, (q1y, "c"): q2})
    prop = distinguishability(DistinguishabilitySpec.of([("q2", "q2")]), plant)
    cache = {}
    report = check_property_satisfaction(plant, policy, prop, 3)
    assert report.line() == _problem1_word_by_word(plant, policy, prop, 3, cache).line()
    assert report.line() == (
        "FAIL PROBLEM1 word=a c expected=estimate satisfying the property "
        "got={q2} (estimate {q2} merges q2~q2)"
    )
    assert report.words == 4
    assert check_estimate_agreement(plant, policy, 3).line() == "THM1 ok words=5 depth=3"
    real = Estimator.step

    def with_q1y(self, h, e):
        # a tracker that also claims q1Y once it reaches q2
        h2 = real(self, h, e)
        return ObserverState(h2 | {q1y}) if h2 is not None and "q2" in h2.underlying() else h2

    monkeypatch.setattr(Estimator, "step", with_q1y)
    report = check_estimate_agreement(plant, policy, 3)
    assert report.line() == _thm1_word_by_word(plant, policy, 3, cache).line()
    assert report.line() == "FAIL THM1 word=a c expected={q2} got={q1,q2}"
    assert report.words == 4


def test_prop1_bounded_by_budget(plant, pinned_policy):
    # the pinned policy's walk to depth 6 holds 9 entries, one per word
    assert check_tracker_containment(plant, pinned_policy, 6, 9).line() == "PROP1 ok words=9 depth=6"
    with pytest.raises(InstanceTooLarge, match=r"^PROP1: more than 8 \(tracker state, targets\) entries"):
        check_tracker_containment(plant, pinned_policy, 6, 8)


def test_prop1_range_search_bounded_by_budget():
    # a binary tree of height 2 whose root loops on c: the first tracker
    # state holds two versions of the root, and deciding it takes 16 set
    # unions; the unions of one entry's search count against the budget
    plant, policy = suppressing_tree(2, True)
    assert check_tracker_containment(plant, policy, 0, 16).line() == "PROP1 ok words=1 depth=0"
    with pytest.raises(
        InstanceTooLarge,
        match=r"^PROP1: the run-tree range search passed the budget of 15 set unions on one \(tracker state, targets\) entry$",
    ):
        check_tracker_containment(plant, policy, 0, 15)


def _running_policies(plant, hand_policy, pinned_policy):
    return (hand_policy, pinned_policy, uniform_policy(plant, Y), uniform_policy(plant, N))


def test_bruteforce_matches_word_by_word_running_example(plant, prop, hand_policy, pinned_policy):
    lines = []
    for pol in _running_policies(plant, hand_policy, pinned_policy):
        lines += _assert_bruteforce_matches(plant, pol, prop)
    assert sum(line.startswith("FAIL PROBLEM1") for line in lines) == 4  # hand and uniform N


def test_bruteforce_matches_word_by_word_random():
    fails = 0
    for seed in range(200):
        rng = random.Random(seed)
        plant = random_plant(rng)
        pair = rng.sample(sorted(plant.states), 2)
        prop = distinguishability(DistinguishabilitySpec.of([pair]), plant)
        for policy in (random_policy(rng, plant), random_policy_with_memory(rng, plant)):
            lines = _assert_bruteforce_matches(plant, policy, prop)
            fails += sum(line.startswith("FAIL") for line in lines)
    assert fails > 0


def test_bruteforce_matches_word_by_word_thm1_failures(monkeypatch, plant, hand_policy, pinned_policy):
    # a tracker that forgets the largest state of every estimate it reports
    real = ObserverState.underlying
    monkeypatch.setattr(ObserverState, "underlying", lambda h: real(h) - {max(real(h))})
    prop = distinguishability(DistinguishabilitySpec.of([]), plant)
    for pol in _running_policies(plant, hand_policy, pinned_policy):
        lines = _assert_bruteforce_matches(plant, pol, prop)
        assert lines[0].startswith("FAIL THM1 word=ε ")


def test_exact_table_matches_word_length_reference(plant, hand_policy, pinned_policy, default_policy):
    ladder = Plant(["q0", "q1", "q2"], ["a", "b"], {("q0", "a"): "q1", ("q0", "b"): "q2", ("q1", "a"): "q0", ("q2", "b"): "q0"}, "q0")
    for pol in (*_running_policies(plant, hand_policy, pinned_policy), default_policy):
        _assert_exact_matches_reference(pol)
    for shape, pair in ((FIB, ("q0", "q1")), (HOLLOW, ("q0", "q1")), (ladder, ("q1", "q2"))):
        pol, _ = _synthesized(shape, [pair])
        for p in (pol, uniform_policy(shape, Y), uniform_policy(shape, N)):
            _assert_exact_matches_reference(p)
    for seed in range(300):
        rng = random.Random(seed)
        plant = random_plant(rng)
        for policy in (random_policy(rng, plant), random_policy_with_memory(rng, plant)):
            _assert_exact_matches_reference(policy)


def test_bruteforce_table_is_independent():
    """The brute-force memo reads the policy on its own: no code object of
    `_brute_force`, nested ones included, names the tracker or observer
    code it is compared with."""
    tracker = {"Estimator", "ObserverState", "explore", "unobservable_reach", "build_labeled_system"}
    codes = [destx.estimation._brute_force.__code__]
    names = set()
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    assert {"step", "bits", "initial"} <= names
    assert not names & tracker


def _memo_size(policy, depth):
    """Policy states that a fresh brute-force memo puts into its sets when
    stepped along the projections of the plant words up to `depth`, as THM1
    and PROBLEM1 step it: the least budget that it passes."""
    words = policy.plant.words_upto(depth)
    for budget in itertools.count(1):
        try:
            memo = destx.estimation._brute_force(policy, budget)
            for s in words:
                _memo_set(policy, s, memo)
        except InstanceTooLarge:
            continue
        return budget


def test_estimate_memo_counts_policy_states_not_words():
    # the deep-verify benchmark's hollow shape: 63 words up to depth 5 fall
    # into 15 walk entries and a memo of 5 policy states, and the two
    # unreachable states, which raise the labeled states to twelve, add none
    pol, prop = _synthesized(HOLLOW, [("q0", "q1")])
    assert len(build_labeled_system(HOLLOW).states) == 12
    assert check_estimates(HOLLOW, pol, None, 5, 15, names=("THM1",))[0].line() == "THM1 ok words=63 depth=5"
    assert check_estimates(HOLLOW, pol, prop, 5, 15, names=("PROBLEM1",))[0].ok
    with pytest.raises(InstanceTooLarge, match=r"^PROBLEM1: more than 14 \(policy state, estimate\) entries"):
        check_estimates(HOLLOW, pol, prop, 5, 14, names=("PROBLEM1",))
    reachable = Plant(["q0"], ["a", "b"], {("q0", "a"): "q0", ("q0", "b"): "q0"}, "q0")
    assert _memo_size(pol, 5) == _memo_size(Policy(reachable, pol.initial, pol.trans), 5) == 5


def test_bruteforce_keys_match_plant_word_triples():
    """Per level, each key that THM1 walks, (policy state, brute-force set,
    tracker state), and each that PROBLEM1 walks, (policy state, brute-force
    set), merges the distinct (plant state, policy state, projection)
    triples that the plant words of that length reach, stepped one word at
    a time: its first word is the least of theirs and its count the sum of
    theirs, keys in the order of their first words.  The sets are the
    word-length reference's and the tracker states a replay's, so the
    budget stops and `words=` counts are those of the merged triples.
    Plants of the second draw have words of every length."""
    for seed, draw in itertools.product(range(200), (random_plant, random_live_plant)):
        rng = random.Random(seed)
        plant = draw(rng)
        sys = build_labeled_system(plant)
        for policy in (random_policy(rng, plant), random_policy_with_memory(rng, plant)):
            walks = []
            for est in (Estimator(sys, policy), None):
                root, successors = destx.estimation._walk(policy, 100_000, est)
                walks.append(shortlex_levels(root, 10, successors))
            replay, sets = Estimator(sys, policy), {}
            words = [((), plant.initial, policy.initial, ())]
            for (n, thm1), (_n, problem1) in zip(*walks):
                triples = {}
                for w, q, x, proj in words:
                    assert q == x.base
                    first, count = triples.get((q, x, proj), (w, 0))
                    triples[(q, x, proj)] = (first, count + 1)
                for level, tracked in ((thm1, True), (problem1, False)):
                    keys = {}
                    for (_q, x, proj), (first, count) in triples.items():
                        if proj not in sets:
                            sets[proj] = frozenset(x2 for _q2, x2 in _bruteforce_states(policy, first))
                        key = (x, sets[proj], _after(replay, proj)) if tracked else (x, sets[proj])
                        least, total = keys.get(key, (first, 0))
                        keys[key] = (min(least, first), total + count)
                    assert list(level.items()) == list(keys.items()), (seed, n)
                words = [
                    (w + (e,), plant.step(q, e), policy.step(x, e), proj + (e,) if x.label(e) == Y else proj)
                    for w, q, x, proj in words
                    for e in sorted(plant.defined_events(q))
                ]
            assert n == 10 or not words, seed


def test_checks_bounded_by_budget():
    pol, prop = _synthesized(FIB, [("q0", "q1")])
    # suppressing everything leaves every fib word silent, so its 2,045
    # words up to depth 18 fall into one entry per level, 19 in all, and
    # its memo holds one set of two policy states
    silent = uniform_policy(FIB, N)
    free = distinguishability(DistinguishabilitySpec.of([]), FIB)
    # fib's synthesized policy transmits every event: its walk also holds
    # one entry per level, and its memo four sets of one policy state each;
    # the fourth, made on the way to level 2, passes a budget of 3 that the
    # walk's first three levels fit
    assert _memo_size(silent, 18) == 2
    assert _memo_size(pol, 18) == 4
    for name, check in (
        ("THM1", lambda p, pr, budget: check_estimates(FIB, p, None, 18, budget, names=("THM1",))[0]),
        ("PROBLEM1", lambda p, pr, budget: check_estimates(FIB, p, pr, 18, budget, names=("PROBLEM1",))[0]),
    ):
        for p, pr in ((silent, free), (pol, prop)):
            with pytest.raises(
                InstanceTooLarge,
                match=rf"^{name}: more than 18 \(policy state, estimate\) entries "
                r"over the plant words up to length 18, over the budget$",
            ):
                check(p, pr, 18)
            assert check(p, pr, 19).line() == f"{name} ok words=2045 depth=18"
        with pytest.raises(
            InstanceTooLarge, match=rf"^{name}: the brute-force sets passed the budget of 3 policy states$"
        ):
            check(pol, prop, 3)
