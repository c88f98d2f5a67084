"""Plant parsing and word enumeration."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from destx import (
    EPSILON,
    DestxError,
    Plant,
    parse_des,
    render_word,
    word,
)
from randgen import lang_size_capped, random_plant

plants = st.integers(0, 10**6).map(lambda s: random_plant(random.Random(s)))


def run_word(plant, q, w):
    """State reached from `q` along `w`, or None once any step is undefined."""
    for e in w:
        q = plant.step(q, e)
        if q is None:
            return None
    return q


def test_word_helpers():
    assert word("") == ()
    assert word("  σ2   σ2 σ1 ") == ("σ2", "σ2", "σ1")
    assert render_word(()) == "ε"
    assert render_word(("σ1", "σ3")) == "σ1 σ3"
    assert EPSILON == ()


def test_step_and_run_word(plant):
    assert plant.step("q0", "σ2") == "q1"
    assert plant.step("q0", "badevent") is None
    assert run_word(plant, "q0", word("σ2 σ2 σ1")) == "q1"
    assert run_word(plant, "q0", word("σ1 σ1")) is None
    assert run_word(plant, "q3", word("σ2 σ3 σ3")) == "q4"
    assert run_word(plant, "q0", ()) == "q0"


def test_defined_events(plant):
    assert plant.defined_events("q0") == {"σ1", "σ2", "σ3"}
    assert plant.defined_events("q5") == frozenset()


def test_words_upto_small(plant):
    got = plant.words_upto(2)
    assert got == [
        (),
        ("σ1",),
        ("σ2",),
        ("σ3",),
        ("σ2", "σ2"),
        ("σ3", "σ2"),
    ]
    assert plant.words_upto(0) == [()]


def test_words_upto_counts(plant):
    # the two live branches each contribute one word per extra level
    assert len(plant.words_upto(6)) == 14
    assert len(plant.words_upto(7)) == 16


def test_lang_size_capped_counts_words(plant):
    for p in [plant] + [random_plant(random.Random(seed)) for seed in range(50)]:
        for depth in range(9):
            n = len(p.words_upto(depth))
            for cap in (n - 1, n, n + 1, 10**9):
                expected = None if cap < n else n
                assert lang_size_capped(p, depth, cap) == expected, (p, depth, cap)


@given(plants, st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_words_upto_canonical(plant, depth):
    ws = plant.words_upto(depth)
    assert ws[0] == ()
    assert len(set(ws)) == len(ws)
    # length-then-lex order
    assert ws == sorted(ws, key=lambda w: (len(w), w))
    # prefix closed and monotone in the depth bound
    seen = set(ws)
    for w in ws:
        assert w[:-1] in seen or w == ()
    assert seen <= set(plant.words_upto(depth + 1))
    # every word actually runs
    for w in ws:
        assert run_word(plant, plant.initial, w) is not None


def test_parse_accepts_comments_and_blanks():
    text = """
    # toy
    alphabet a b

    states s0 s1
    initial s0
    trans s0 a s1  # inline comments are fine
    """
    p = parse_des(text)
    assert p.step("s0", "a") == "s1"
    assert p.initial == "s0"


# each rejected plant text and the message that names its fault
REJECTED = {
    "alphabet a\nstates s0\n": r"^missing initial line$",
    "alphabet a\ninitial s0\ntrans s0 a s0\n": r"^a plant needs at least one state$",
    "alphabet a\nstates s0\ninitial s1\n": r"^initial state 's1' is not a declared state$",
    "alphabet a\nstates s0\ninitial s0\ntrans s0 b s0\n": r"^transition \(s0,b,s0\) uses an undeclared event$",
    "alphabet a\nstates s0\ninitial s0\ntrans s0 a s9\n": r"^transition \(s0,a,s9\) uses an undeclared state$",
    "alphabet a\nstates s0 s1\ninitial s0\ntrans s0 a s0\ntrans s0 a s1\n": r"^line 5: duplicate transition for \(s0,a\)$",
    "alphabet a\nstates s0\ninitial s0\ninitial s0\n": r"^line 4: duplicate initial line$",
    "states s0\ninitial s0\nfrobnicate s0\n": r"^line 3: unknown keyword 'frobnicate'$",
    "alphabet a\nstates s0 s1\ninitial s0 s1\n": r"^line 3: initial takes exactly one state$",
    "alphabet a\nstates s0\ninitial s0\ntrans s0 a\n": r"^line 4: trans takes source, event, target$",
}


@pytest.mark.parametrize("text", list(REJECTED))
def test_parse_rejects(text):
    with pytest.raises(DestxError, match=REJECTED[text]):
        parse_des(text)


def test_plant_validation():
    with pytest.raises(DestxError, match=r"^transition \(s0,a,s9\) uses an undeclared state$"):
        Plant(["s0"], ["a"], {("s0", "a"): "s9"}, "s0")
    with pytest.raises(DestxError, match=r"^a plant needs at least one state$"):
        Plant([], [], {}, "s0")
