"""Acceptance gate: the seven shipping criteria, one test and one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
timings.  Criterion 3 pins the full reference realization table for the
q0NNY-rooted schedule and has the brute-force PROBLEM1 check vouch for it.
"""

import random
import time
from pathlib import Path

from destx import (
    build_labeled_system,
    check_estimate_agreement,
    check_property_satisfaction,
    check_tracker_containment,
    closure_family,
    closure_family_bruteforce,
    consistency_fixpoint,
    format_policy,
    observer_step,
    parse_labeled,
    parse_policy,
    transmitted_count,
)
from destx.labeled import N, Y
from destx.observer import ObserverState
from destx_child import run
from randgen import random_plant, random_policy, uniform_policy

DATA = Path(__file__).resolve().parent.parent / "data"
PLANT = str(DATA / "running_example.des")
PAIRS = str(DATA / "distinguish.pairs")
HAND = str(DATA / "example.policy")


def _ok(n, msg, t0):
    print(f"\nPASS criterion {n}: {msg} ({time.monotonic() - t0:.2f}s)")


def test_criterion_1_closure_families_exact(plant, lsys):
    t0 = time.monotonic()
    fam = closure_family(lsys, parse_labeled("q0NNY", plant))
    assert [z.render() for z in fam] == [
        "(q0NNY,q1Y,q5)",
        "(q0NNY,q1N,q2N,q5)",
        "(q0NNY,q1N,q2Y,q5)",
        "(q0NNY,q1N,q1Y,q2N,q5)",
        "(q0NNY,q1N,q2N,q2Y,q5)",
    ]
    z0 = ObserverState(parse_labeled(r, plant) for r in ("q0NNY", "q1Y", "q5"))
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
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok(1, "closure family and observer steps reproduce the worked example", t0)


def test_criterion_2_pruning_and_fixpoint(obs, g0, gstar, plant):
    t0 = time.monotonic()
    doomed = {
        ObserverState(parse_labeled(r, plant) for r in ("q0NYN", "q3Y", "q5")),
        ObserverState(parse_labeled(r, plant) for r in ("q0YYN", "q3Y")),
    }
    assert doomed <= set(g0.states)
    assert doomed == set(g0.states) - set(gstar.states)
    again = consistency_fixpoint(obs, gstar)
    assert set(again.states) == set(gstar.states)
    assert set(again.initials) == set(gstar.initials)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _ok(2, "consistency pruning removes exactly the two doomed estimates and is idempotent", t0)


def test_criterion_3_pinned_realization_exact(plant, prop, pinned_policy, hand_policy):
    t0 = time.monotonic()
    pol = pinned_policy
    x = lambda r: parse_labeled(r, plant)
    assert pol.initial == x("q0NNY")
    table = {
        ("q0NNY", "σ1"): "q5",
        ("q0NNY", "σ2"): "q1Y",
        ("q0NNY", "σ3"): "q3Y",
        ("q1Y", "σ2"): "q2Y",
        ("q2Y", "σ1"): "q1Y",
        ("q3Y", "σ2"): "q4N",
        ("q4N", "σ3"): "q4N",
    }
    got = {(v.render(), e): y.render() for (v, e), y in pol.trans.items()}
    assert got == table, (
        "(q1Y,σ2) must reach q2Y: every estimate containing q2N also holds q1, "
        "so pair q1~q2 prunes it"
    )
    assert [v.render() for v in pol.states] == ["q0NNY", "q1Y", "q2Y", "q3Y", "q4N", "q5"]
    labels = {
        ("q0NNY", "σ1"): N,
        ("q0NNY", "σ2"): N,
        ("q0NNY", "σ3"): Y,
        ("q1Y", "σ2"): Y,
        ("q2Y", "σ1"): Y,
        ("q3Y", "σ2"): Y,
        ("q4N", "σ3"): N,
    }
    assert {(v.render(), e): v.label(e) for v in pol.states for e in v.events()} == labels
    # the brute-force oracle vouches for the reference table ...
    assert check_property_satisfaction(plant, pol, prop, 8).ok
    # ... and rejects the same table with q2N in place of q2Y
    to_n = lambda r: "q2N" if r == "q2Y" else r
    assert {
        (v.render(), e): y.render() for (v, e), y in hand_policy.trans.items()
    } == {(to_n(v), e): to_n(y) for (v, e), y in table.items()}
    report = check_property_satisfaction(plant, hand_policy, prop, 8)
    assert not report.ok
    assert report.word == ("σ2", "σ2")
    assert "merges q1~q2" in report.line()
    _ok(3, "pinned realization matches the reference table and satisfies the property", t0)


def test_criterion_4_random_agreement_and_containment():
    t0 = time.monotonic()
    for seed in range(200):
        rng = random.Random(seed)
        plant = random_plant(rng)
        policy = random_policy(rng, plant)
        thm = check_estimate_agreement(plant, policy, 5)
        assert thm.ok, f"seed {seed}: {thm.line()}"
        prop1 = check_tracker_containment(plant, policy, 5)
        assert prop1.ok, f"seed {seed}: {prop1.line()}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _ok(4, "tracker agreement and containment hold on 200 random instances", t0)


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    seeds = 0
    for i in range(300):
        rng = random.Random(1000 + i)
        plant = random_plant(rng, max_states=4)
        lsys = build_labeled_system(plant)
        for v in lsys.states:
            assert closure_family(lsys, v) == closure_family_bruteforce(lsys, v), (
                f"instance {i}, seed state {v.render()}"
            )
            seeds += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok(5, f"closure families match the brute-force oracle on {seeds} seeds", t0)


def test_criterion_6_end_to_end_satisfaction(plant, prop, default_policy):
    t0 = time.monotonic()
    assert check_property_satisfaction(plant, default_policy, prop, 8).ok
    baseline = uniform_policy(plant, Y)
    strict = 0
    for s in plant.words_upto(6):
        sent = transmitted_count(default_policy, s)
        assert sent <= len(s)
        assert transmitted_count(baseline, s) == len(s)
        if sent < len(s):
            strict += 1
    assert strict > 0
    _ok(6, f"synthesized policy satisfies the property and saves {strict} transmissions-bearing words", t0)


def test_criterion_7_determinism_and_round_trip(tmp_path, plant):
    t0 = time.monotonic()
    out_a = tmp_path / "a.policy"
    out_b = tmp_path / "b.policy"
    commands = [
        ("build-observer", PLANT),
        ("synthesize", PLANT, PAIRS, str(out_a)),
        ("verify", PLANT, HAND, PAIRS, "--depth", "4"),
        ("simulate", PLANT, HAND, "--trace", "σ2 σ2 σ1 σ2"),
        ("oracle-maxs", PLANT),
    ]
    for args in commands:
        first = run(*args)
        if args[0] == "synthesize":
            text_a = out_a.read_text()
            second = run(*args[:3], str(out_b))
            assert out_b.read_text() == text_a
            assert second.stdout.replace(str(out_b), str(out_a)) == first.stdout
        else:
            second = run(*args)
            assert second.stdout == first.stdout
        assert second.returncode == first.returncode
    policy = parse_policy(out_a.read_text(), plant)
    assert format_policy(policy) == out_a.read_text()
    assert format_policy(parse_policy(format_policy(policy), plant)) == format_policy(policy)
    _ok(7, "CLI output is byte-stable and policy files round-trip", t0)
