"""Distinguishability specifications and the induced estimate predicate."""

import pytest
from hypothesis import given, settings, strategies as st

from destx import (
    DestxError,
    DistinguishabilitySpec,
    distinguishability,
    parse_labeled,
)
from destx.observer import ObserverState

STATES = ("q0", "q1", "q2", "q3", "q4", "q5")


def test_spec_parse_rejects():
    with pytest.raises(DestxError, match=r"^line 1: expected 'pair <state> <state>', got 'pair q0'$"):
        DistinguishabilitySpec.parse("pair q0\n")
    with pytest.raises(DestxError, match=r"^line 1: expected 'pair <state> <state>', got 'couple q0 q1'$"):
        DistinguishabilitySpec.parse("couple q0 q1\n")


def test_spec_parse_comments():
    spec = DistinguishabilitySpec.parse("# header\n\npair a b  # tail\n")
    assert spec == frozenset({("a", "b")})


def test_spec_is_an_immutable_value():
    spec = DistinguishabilitySpec.of([("a", "b"), ("c", "d")])
    same = DistinguishabilitySpec.parse("pair c d\npair a b\n")
    assert spec is not same and spec == same and hash(spec) == hash(same)
    assert spec != DistinguishabilitySpec.of([("b", "a"), ("c", "d")])
    # the value is the frozenset of its pairs, with no attribute to set
    pairs = frozenset({("a", "b"), ("c", "d")})
    assert spec == pairs and pairs == spec and hash(spec) == hash(pairs)
    with pytest.raises(AttributeError):
        spec.pairs = frozenset()
    with pytest.raises(AttributeError):
        spec.anything = 1
    assert spec == same


def test_pairs_are_ordered_tuples():
    spec = DistinguishabilitySpec.of([("q2", "q1")])
    assert spec == frozenset({("q2", "q1")})
    assert ("q1", "q2") not in spec


def test_holds(prop):
    assert prop.holds(frozenset({"q0", "q1", "q3", "q5"}))
    assert prop.holds(frozenset({"q2"}))
    assert prop.holds(frozenset({"q2", "q4"}))
    assert not prop.holds(frozenset({"q1", "q2"}))
    assert not prop.holds(frozenset({"q3", "q4"}))
    assert not prop.holds(frozenset(STATES))
    assert prop.holds(frozenset())


def test_explain(prop):
    msg = prop.describe(frozenset({"q1", "q2"}))
    assert msg == "estimate {q1,q2} merges q1~q2"


def test_self_pair(plant):
    prop = distinguishability(DistinguishabilitySpec.of([("q0", "q0")]), plant)
    assert not prop.holds(frozenset({"q0"}))
    assert prop.holds(frozenset({"q1"}))


def test_verdict_ignores_pair_order(plant):
    forward = distinguishability(DistinguishabilitySpec.of([("q1", "q2")]), plant)
    backward = distinguishability(DistinguishabilitySpec.of([("q2", "q1")]), plant)
    for content in ({"q1", "q2"}, {"q1"}, {"q2"}, set()):
        assert forward.holds(frozenset(content)) == backward.holds(frozenset(content))


def test_unknown_state(plant):
    with pytest.raises(DestxError, match=r"^pair mentions unknown state 'q9'$"):
        distinguishability(DistinguishabilitySpec.of([("q0", "q9")]), plant)


def test_irrelevant_states_do_not_change_verdict():
    from destx import Plant

    tiny = Plant(["a", "b", "c"], ["e"], {("a", "e"): "b"}, "a")
    prop = distinguishability(DistinguishabilitySpec.of([("a", "b")]), tiny)
    # c appears in no pair, so adding it never flips the answer
    for base in (set(), {"a"}, {"b"}, {"a", "b"}):
        assert prop.holds(frozenset(base)) == prop.holds(frozenset(base | {"c"}))


def test_underlying_states(plant):
    z = ObserverState(
        [parse_labeled("q0NNY", plant), parse_labeled("q1Y", plant), parse_labeled("q5", plant)]
    )
    assert z.underlying() == {"q0", "q1", "q5"}
    # labels are forgotten: two versions of the same base collapse
    z2 = ObserverState([parse_labeled("q1Y", plant), parse_labeled("q1N", plant)])
    assert z2.underlying() == {"q1"}


def test_violating_states(obs, prop, plant):
    bad_set = {z for z in obs.states if not prop.holds(z.underlying())}
    assert len(bad_set) == 82  # of the observer's 101 estimates
    assert ObserverState([parse_labeled("q1N", plant), parse_labeled("q2N", plant)]) in bad_set
    z0 = ObserverState(
        [parse_labeled("q0NNY", plant), parse_labeled("q1Y", plant), parse_labeled("q5", plant)]
    )
    assert z0 not in bad_set


subsets = st.frozensets(st.sampled_from(STATES))


@given(subsets, subsets)
@settings(max_examples=80, deadline=None)
def test_violation_monotone_under_union(prop, small, extra):
    # growing an estimate can only introduce violations, never cure them
    if not prop.holds(small):
        assert not prop.holds(small | extra)
