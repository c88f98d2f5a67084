"""Labeled system: decision versions and suppressed reach."""

import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from destx import (
    AlphabetTooLarge,
    DestxError,
    Plant,
    build_labeled_system,
    parse_labeled,
    unobservable_reach,
)
from destx.labeled import N, Y, LabeledState
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
    with pytest.raises(DestxError, match=r"^unknown plant state 'q9'$"):
        lsys.versions_of("q9")


def test_render_and_labels(plant):
    v = make_labeled("q0", {"σ1": N, "σ2": N, "σ3": Y})
    assert v.render() == "q0NNY"
    assert v.label("σ1") == N
    assert v.label("σ3") == Y
    assert v.events() == ("σ1", "σ2", "σ3")
    with pytest.raises(DestxError, match=r"^event 'σ1' is not defined at 'q1'$"):
        make_labeled("q1", {"σ2": Y}).label("σ1")


def test_parse_labeled(plant):
    assert parse_labeled("q0NNY", plant) == make_labeled(
        "q0", {"σ1": N, "σ2": N, "σ3": Y}
    )
    assert parse_labeled("q2N", plant) == make_labeled("q2", {"σ1": N})
    assert parse_labeled("q5", plant) == make_labeled("q5", {})
    for bad in ("q9N", "q0NN", "q0NNYY", "q0NNX", ""):
        with pytest.raises(DestxError, match=f"^{re.escape(repr(bad))} is not a labeled state of this plant$"):
            parse_labeled(bad, plant)


def test_parse_labeled_ambiguity_names_candidates():
    # q with two events, qY with one and qYN with none: every version
    # renders as qYN, so the message names the three plant states
    plant = Plant(["q", "qY", "qYN"], "ab", {("q", "a"): "qY", ("q", "b"): "qYN", ("qY", "a"): "q"}, "q")
    with pytest.raises(DestxError) as exc:
        parse_labeled("qYN", plant)
    assert str(exc.value) == "'qYN' is ambiguous between the plant states ['q', 'qY', 'qYN']"
    assert parse_labeled("qNN", plant) == make_labeled("q", {"a": N, "b": N})


def _matches_by_scan(text, plant):
    """Independent reading: every plant state that `text` starts with and
    whose defined events the rest of `text` labels Y or N."""
    matches = []
    for q in plant.states:
        if not text.startswith(q):
            continue
        rest = text[len(q):]
        events = sorted(plant.defined_events(q))
        if len(rest) == len(events) and all(c in (Y, N) for c in rest):
            matches.append(LabeledState((q, tuple(zip(events, rest)))))
    return matches


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_parse_labeled_matches_scan(seed):
    # state names that collide with each other's renderings; every query
    # finds exactly the matches of a scan over all plant states
    rng = random.Random(seed)
    events = "abc"[: rng.randint(1, 3)]
    names = rng.sample(["q", "qN", "qY", "qYN", "qYNN", "qNY", "qYY", "Y", "N", "YN", "r"], rng.randint(1, 8))
    trans = {(q, e): rng.choice(names) for q in names for e in events if rng.random() < 0.5}
    plant = Plant(names, events, trans, names[0])
    queries = {q + "".join(rng.choice("YN") for _ in range(rng.randint(0, 4))) for q in names for _ in range(4)}
    queries |= {"", "Y", "NN", "qYNNY", "qYX", "q" + "Y" * 50}
    for text in sorted(queries):
        found = _matches_by_scan(text, plant)
        if len(found) == 1:
            assert parse_labeled(text, plant) == found[0]
            continue
        with pytest.raises(DestxError) as exc:
            parse_labeled(text, plant)
        if found:
            bases = sorted(v.base for v in found)
            assert str(exc.value) == f"{text!r} is ambiguous between the plant states {bases}"
        else:
            assert str(exc.value) == f"{text!r} is not a labeled state of this plant"


def test_parse_render_round_trip(lsys, plant):
    for v in lsys.states:
        assert parse_labeled(v.render(), plant) == v


def test_labeled_state_is_an_immutable_value(lsys):
    v = make_labeled("q0", {"σ1": N, "σ2": N, "σ3": Y})
    w = make_labeled("q0", {"σ1": N, "σ2": N, "σ3": Y})
    assert v is not w and v == w and hash(v) == hash(w)
    assert v in set(lsys.states) and {v: 1}[w] == 1
    assert v != make_labeled("q0", {"σ1": N, "σ2": N, "σ3": N})
    # the value is the pair (base, bits)
    assert v == ("q0", v.bits) and ("q0", v.bits) == v and hash(v) == hash(("q0", v.bits))
    for name in ("base", "bits"):
        with pytest.raises(AttributeError):
            setattr(v, name, getattr(w, name))
        with pytest.raises(AttributeError):
            delattr(v, name)
    # nor can any other attribute be set: the state is its tuple alone
    assert not hasattr(v, "__dict__")
    with pytest.raises(AttributeError):
        v.note = "x"
    assert v == w and repr(v) == "<q0NNY>"


def test_sort_key_orders_by_base_then_bits(lsys):
    rendered = [v.render() for v in lsys.states]
    assert rendered == sorted(rendered)
    assert rendered[0].startswith("q0")
    assert rendered[-1] == "q5"
    # states sort as their (base, bits) pairs
    shuffled = lsys.states[::-1]
    assert sorted(shuffled) == sorted(shuffled, key=lambda v: (v.base, v.bits)) == list(lsys.states)


def test_suppressed_moves(lsys, plant):
    v = parse_labeled("q0NNY", plant)
    moves = dict(lsys.suppressed_moves(v))
    assert set(moves) == {"σ1", "σ2"}  # σ3 is transmitted
    assert {w.render() for w in moves["σ2"]} == {"q1N", "q1Y"}
    assert moves["σ1"] == (parse_labeled("q5", plant),)
    assert lsys.suppressed_moves(parse_labeled("q2Y", plant)) == ()
    assert lsys.suppressed_moves(parse_labeled("q5", plant)) == ()
    # a transmitted move lands on the same versions of its plant successor
    assert {w.render() for w in lsys.versions_of(plant.step(v.base, "σ3"))} == {"q3N", "q3Y"}


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
    # building the system expands nothing; the cap applies where versions are read
    lsys = build_labeled_system(plant)
    with pytest.raises(AlphabetTooLarge, match="state 's' defines 17 events, bound is 16"):
        lsys.states
    with pytest.raises(AlphabetTooLarge, match="state 's' defines 17 events, bound is 16"):
        lsys.versions_of("s")


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
    assert lsys.states == tuple(sorted(lsys.states, key=lambda v: (v.base, v.bits)))
    assert lsys.initials == lsys.versions_of(plant.initial)
    # forgetting labels lands every move on a plant transition
    for v in lsys.states:
        for e in v.events():
            for w in lsys.versions_of(plant.step(v.base, e)):
                assert plant.step(v.base, e) == w.base


def test_initial_versions(lsys, plant):
    assert {v.base for v in lsys.initials} == {"q0"}
    assert len(lsys.initials) == 8
