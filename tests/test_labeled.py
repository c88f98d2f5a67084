"""Labeled system: decision versions and suppressed reach."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from destx import (
    AlphabetTooLarge,
    ParseError,
    Plant,
    UndefinedEvent,
    UnknownState,
    build_labeled_system,
    parse_labeled,
    unobservable_reach,
)
from destx.labeled import N, Y
from randgen import make_labeled, random_plant

plants = st.integers(0, 10**6).map(lambda s: random_plant(random.Random(s)))


def test_state_count(lsys, plant):
    # one version per subset-of-defined-events decision vector
    expected = sum(2 ** len(plant.defined_events(q)) for q in plant.states)
    assert len(lsys.states) == expected == 17


def test_versions_of(lsys):
    assert len(lsys.versions_of("q0")) == 8
    assert len(lsys.versions_of("q1")) == 2
    assert len(lsys.versions_of("q5")) == 1
    with pytest.raises(UnknownState):
        lsys.versions_of("q9")


def test_render_and_labels(plant):
    v = make_labeled("q0", {"σ1": N, "σ2": N, "σ3": Y})
    assert v.render() == "q0NNY"
    assert v.label("σ1") == N
    assert v.label("σ3") == Y
    assert v.events() == ("σ1", "σ2", "σ3")
    with pytest.raises(UndefinedEvent):
        make_labeled("q1", {"σ2": Y}).label("σ1")


def test_parse_labeled(plant):
    assert parse_labeled("q0NNY", plant) == make_labeled(
        "q0", {"σ1": N, "σ2": N, "σ3": Y}
    )
    assert parse_labeled("q2N", plant) == make_labeled("q2", {"σ1": N})
    assert parse_labeled("q5", plant) == make_labeled("q5", {})
    for bad in ("q9N", "q0NN", "q0NNYY", "q0NNX", ""):
        with pytest.raises(ParseError):
            parse_labeled(bad, plant)


def test_parse_render_round_trip(lsys, plant):
    for v in lsys.states:
        assert parse_labeled(v.render(), plant) == v


def test_sort_key_orders_by_base_then_bits(lsys):
    rendered = [v.render() for v in lsys.states]
    assert rendered == sorted(rendered)
    assert rendered[0].startswith("q0")
    assert rendered[-1] == "q5"


def test_successors(lsys, plant):
    v = parse_labeled("q0NNY", plant)
    assert {w.render() for w in lsys.successors(v, "σ2")} == {"q1N", "q1Y"}
    assert lsys.successors(v, "σ1") == (parse_labeled("q5", plant),)
    assert lsys.successors(parse_labeled("q5", plant), "σ1") == ()


def test_suppressed_moves(lsys, plant):
    v = parse_labeled("q0NNY", plant)
    moves = dict(lsys.suppressed_moves(v))
    assert set(moves) == {"σ1", "σ2"}  # σ3 is transmitted
    assert {w.render() for w in moves["σ2"]} == {"q1N", "q1Y"}
    assert lsys.suppressed_moves(parse_labeled("q2Y", plant)) == ()


def test_unobservable_reach_values(lsys, plant):
    def reach(r):
        return sorted(v.render() for v in unobservable_reach(lsys, (parse_labeled(r, plant),)))

    assert reach("q0NNY") == ["q0NNY", "q1N", "q1Y", "q2N", "q2Y", "q5"]
    assert reach("q0YYY") == ["q0YYY"]
    assert reach("q1N") == ["q1N", "q1Y", "q2N", "q2Y"]
    assert reach("q3N") == ["q3N", "q4N", "q4Y"]
    assert reach("q2Y") == ["q2Y"]


def test_alphabet_too_large():
    events = [f"e{i}" for i in range(17)]
    plant = Plant(["s"], events, {("s", e): "s" for e in events}, "s")
    with pytest.raises(AlphabetTooLarge):
        build_labeled_system(plant)


def _ureach_by_strings(lsys, seed):
    """Independent reading: endpoints of paths all of whose steps are
    suppressed at their source, enumerated step by step."""
    depth = 2 * len(lsys.states)
    seen = {seed}
    frontier = [seed]
    for _ in range(depth):
        nxt = []
        for v in frontier:
            for _e, opts in lsys.suppressed_moves(v):
                for w in opts:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return frozenset(seen)


@given(plants)
@example(Plant(["s"], "abcd", {("s", e): "s" for e in "abcd"}, "s"))
@settings(max_examples=40, deadline=None)
def test_unobservable_reach_matches_string_definition(plant):
    lsys = build_labeled_system(plant)
    for v in lsys.states:
        got = unobservable_reach(lsys, (v,))
        assert v in got
        assert got == _ureach_by_strings(lsys, v)
    # several seeds: the union of their reaches
    assert unobservable_reach(lsys, ()) == frozenset()
    seeds = lsys.states[::2]
    assert unobservable_reach(lsys, seeds) == frozenset().union(*(_ureach_by_strings(lsys, v) for v in seeds))


@given(plants)
@settings(max_examples=40, deadline=None)
def test_state_count_formula_random(plant):
    lsys = build_labeled_system(plant)
    expected = sum(2 ** len(plant.defined_events(q)) for q in plant.states)
    assert len(lsys.states) == expected
    # forgetting labels lands every move on a plant transition
    for v in lsys.states:
        for e in v.events():
            for w in lsys.successors(v, e):
                assert plant.step(v.base, e) == w.base


def test_initial_versions(lsys, plant):
    assert {v.base for v in lsys.initials} == {"q0"}
    assert len(lsys.initials) == 8
