"""Command-line interface: outputs, exit codes, determinism."""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from destx import cli, format_policy
from destx_child import run
from randgen import random_plant, random_policy, random_policy_with_memory, suppressing_tree, transitions

DATA = Path(__file__).resolve().parent.parent / "data"
PLANT = str(DATA / "running_example.des")
PAIRS = str(DATA / "distinguish.pairs")
HAND = str(DATA / "example.policy")


def test_build_observer():
    p = run("build-observer", PLANT)
    assert p.returncode == 0
    assert p.stdout == "states 101\ninitials 60\ntransitions 665\n"
    assert p.stderr == ""


def test_build_observer_dot(tmp_path):
    dot = tmp_path / "obs.dot"
    p = run("build-observer", PLANT, "--dot", str(dot))
    assert p.returncode == 0
    assert f"dot {dot}" in p.stdout
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "(q2Y)" in text


def test_synthesize_pinned(tmp_path):
    out = tmp_path / "pin.policy"
    p = run("synthesize", PLANT, PAIRS, str(out), "--pin-initial", "q0NNY")
    assert p.returncode == 0
    assert p.stdout == (
        f"feasible\nroot (q0NNY,q1Y,q5)\npolicy-states 6\npolicy {out}\n"
    )
    text = out.read_text()
    assert text.startswith("initial q0NNY\n")
    assert "trans q1Y σ2 q2Y" in text


def test_synthesize_default(tmp_path):
    out = tmp_path / "auto.policy"
    p = run("synthesize", PLANT, PAIRS, str(out))
    assert p.returncode == 0
    assert "root (q0YNN,q1Y,q3Y)" in p.stdout
    assert out.read_text().startswith("initial q0YNN\n")


def test_verify_synthesized(tmp_path):
    out = tmp_path / "pin.policy"
    run("synthesize", PLANT, PAIRS, str(out), "--pin-initial", "q0NNY")
    p = run("verify", PLANT, str(out), PAIRS)
    assert p.returncode == 0
    assert p.stdout == (
        "PROP1 ok words=9 depth=6\n"
        "THM1 ok words=14 depth=6\n"
        "PROBLEM1 ok words=14 depth=6\n"
    )


def test_verify_hand_policy_fails():
    p = run("verify", PLANT, HAND, PAIRS, "--depth", "4")
    assert p.returncode == 5
    assert p.stdout == (
        "PROP1 ok words=7 depth=4\n"
        "THM1 ok words=10 depth=4\n"
        "FAIL PROBLEM1 word=σ2 σ2 expected=estimate satisfying the property "
        "got={q1,q2} (estimate {q1,q2} merges q1~q2)\n"
    )


def test_ring_2_2_end_to_end(tmp_path):
    plant = tmp_path / "ring.des"
    plant.write_text(
        "alphabet e0 e1\nstates q0 q1\ninitial q0\n"
        "trans q0 e0 q1\ntrans q1 e0 q0\ntrans q0 e1 q0\ntrans q1 e1 q1\n"
    )
    spec = tmp_path / "ring.pairs"
    spec.write_text("pair q0 q1\n")
    out = tmp_path / "ring.policy"
    p = run("synthesize", str(plant), str(spec), str(out))
    assert p.returncode == 0
    assert p.stdout == f"feasible\nroot (q0YN)\npolicy-states 2\npolicy {out}\n"
    assert out.read_text() == (
        "initial q0YN\n"
        "label q0YN e0 Y\n"
        "label q0YN e1 N\n"
        "label q1YN e0 Y\n"
        "label q1YN e1 N\n"
        "trans q0YN e0 q1YN\n"
        "trans q0YN e1 q0YN\n"
        "trans q1YN e0 q0YN\n"
        "trans q1YN e1 q1YN\n"
    )
    p = run("verify", str(plant), str(out), str(spec))
    assert p.returncode == 0
    assert p.stdout == (
        "PROP1 ok words=7 depth=6\n"
        "THM1 ok words=127 depth=6\n"
        "PROBLEM1 ok words=127 depth=6\n"
    )


def test_simulate():
    p = run("simulate", PLANT, HAND, "--trace", "σ3 σ2")
    assert p.returncode == 0
    assert p.stdout == (
        "initial estimate={q0,q1,q5}\n"
        "1 σ3 sent=Y proj=σ3 estimate={q3}\n"
        "2 σ2 sent=Y proj=σ3,σ2 estimate={q4}\n"
    )


def test_simulate_suppression():
    p = run("simulate", PLANT, HAND, "--trace", "σ2 σ2 σ1 σ2")
    assert p.returncode == 0
    assert p.stdout == (
        "initial estimate={q0,q1,q5}\n"
        "1 σ2 sent=N proj=ε estimate={q0,q1,q5}\n"
        "2 σ2 sent=Y proj=σ2 estimate={q1,q2}\n"
        "3 σ1 sent=N proj=σ2 estimate={q1,q2}\n"
        "4 σ2 sent=Y proj=σ2,σ2 estimate={q1,q2}\n"
    )


def test_simulate_empty_trace():
    p = run("simulate", PLANT, HAND)
    assert p.returncode == 0
    assert p.stdout == "initial estimate={q0,q1,q5}\n"


def test_simulate_bad_event():
    p = run("simulate", PLANT, HAND, "--trace", "σ1 σ1")
    assert p.returncode == 2


def test_oracle_maxs():
    p = run("oracle-maxs", PLANT)
    assert p.returncode == 0
    assert p.stdout == "seeds 17 mismatches 0\n"


def test_oracle_maxs_has_no_depth():
    p = run("oracle-maxs", PLANT, "--depth", "3")
    assert p.returncode == 2
    assert p.stdout == ""
    p = run("oracle-maxs", "--help")
    assert p.returncode == 0
    assert "--depth" not in p.stdout
    assert "--budget" in p.stdout


def _lossy(real):
    """`real` with the first estimate of seed q0NNY dropped."""

    def lossy(sysd, seed, *budget):
        fam = real(sysd, seed, *budget)
        return fam[1:] if seed.render() == "q0NNY" else fam

    return lossy


def test_oracle_maxs_mismatch(monkeypatch, capsys):
    monkeypatch.setattr(cli, "closure_family", _lossy(cli.closure_family))
    assert cli.main(["oracle-maxs", PLANT]) == 5
    assert capsys.readouterr().out == (
        "MISMATCH seed=q0NNY only-fast=[] only-brute=['(q0NNY,q1Y,q5)']\n"
        "seeds 17 mismatches 1\n"
    )


def test_oracle_maxs_lossy_brute_side(monkeypatch, capsys):
    monkeypatch.setattr(cli, "closure_family_bruteforce", _lossy(cli.closure_family_bruteforce))
    assert cli.main(["oracle-maxs", PLANT]) == 5
    assert capsys.readouterr().out == (
        "MISMATCH seed=q0NNY only-fast=['(q0NNY,q1Y,q5)'] only-brute=[]\n"
        "seeds 17 mismatches 1\n"
    )


def test_oracle_maxs_ladder(tmp_path):
    # q0 has two events, so 4 versions, and q1, q2 two each: 8 labeled states
    ladder = tmp_path / "ladder.des"
    ladder.write_text(
        "alphabet a b\nstates q0 q1 q2\ninitial q0\n"
        "trans q0 a q1\ntrans q0 b q2\ntrans q1 a q0\ntrans q2 b q0\n"
    )
    p = run("oracle-maxs", str(ladder))
    assert p.returncode == 0
    assert p.stdout == "seeds 8 mismatches 0\n"


def test_missing_file():
    p = run("build-observer", "no_such_file.des")
    assert p.returncode == 2


def test_bad_plant(tmp_path):
    bad = tmp_path / "bad.des"
    bad.write_text("alphabet a\nstates s0\n")
    p = run("build-observer", str(bad))
    assert p.returncode == 2
    assert "initial" in p.stderr


@pytest.mark.parametrize("kind", ["plant", "pairs", "policy"])
def test_non_utf8_input(tmp_path, kind):
    files = {"plant": PLANT, "policy": HAND, "pairs": PAIRS}
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(Path(files[kind]).read_bytes() + b"# \xff\n")
    files[kind] = str(bad)
    p = run("verify", files["plant"], files["policy"], files["pairs"])
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr == f"error: {bad}: not valid UTF-8 (invalid start byte)\n"


def test_verify_bounded_by_budget(tmp_path):
    # the policy suppresses every event, so each fib word is silent and
    # each level of THM1's walk holds one triple: 33 up to depth 32
    plant = tmp_path / "fib.des"
    plant.write_text("alphabet a b\nstates q0 q1\ninitial q0\ntrans q0 a q1\ntrans q0 b q1\ntrans q1 b q0\n")
    spec = tmp_path / "fib.pairs"
    spec.write_text("")
    silent = tmp_path / "fib.policy"
    silent.write_text("initial q0NN\ntrans q0NN a q1N\ntrans q0NN b q1N\ntrans q1N b q0NN\n")
    p = run("verify", str(plant), str(silent), str(spec), "--depth", "32", "--budget", "32")
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr == (
        "error: THM1: more than 32 (plant state, policy state, projection) entries "
        "over the plant words up to length 32, over the budget\n"
    )
    p = run("verify", str(plant), str(silent), str(spec), "--depth", "32", "--budget", "33")
    assert p.returncode == 0
    assert p.stdout.splitlines()[1:] == ["THM1 ok words=262141 depth=32", "PROBLEM1 ok words=262141 depth=32"]


LADDER = "alphabet a b\nstates q0 q1 q2\ninitial q0\ntrans q0 a q1\ntrans q0 b q2\ntrans q1 a q0\ntrans q2 b q0\n"
HOLLOW = (
    "alphabet a b\nstates q0 q1 q2\ninitial q0\n"
    "trans q0 a q0\ntrans q0 b q0\ntrans q1 a q2\ntrans q1 b q1\ntrans q2 a q1\ntrans q2 b q2\n"
)


@pytest.mark.parametrize("des, pair", [(LADDER, "q1 q2"), (HOLLOW, "q0 q1")], ids=["ladder", "hollow"])
def test_verify_depth_32_within_default_budget(tmp_path, des, pair):
    # ladder has 262,141 words up to depth 32 and hollow 8,589,934,591, far
    # past the default budget; their walks hold a few hundred entries
    plant = tmp_path / "p.des"
    plant.write_text(des)
    spec = tmp_path / "p.pairs"
    spec.write_text(f"pair {pair}\n")
    out = tmp_path / "p.policy"
    assert run("synthesize", str(plant), str(spec), str(out)).returncode == 0
    p = run("verify", str(plant), str(out), str(spec), "--depth", "32", timeout=30)
    assert p.returncode == 0, p.stderr
    assert [line.split()[:2] for line in p.stdout.splitlines()] == [["PROP1", "ok"], ["THM1", "ok"], ["PROBLEM1", "ok"]]


RING_6_1 = "alphabet e\nstates q0 q1 q2 q3 q4 q5\ninitial q0\n" + "".join(
    f"trans q{i} e q{(i + 1) % 6}\n" for i in range(6)
)
RING_2_2 = (
    "alphabet e0 e1\nstates q0 q1\ninitial q0\n"
    "trans q0 e0 q1\ntrans q0 e1 q0\ntrans q1 e0 q0\ntrans q1 e1 q1\n"
)


@pytest.mark.parametrize(
    "des, seeds", [(RING_6_1, 12), (RING_2_2, 8), (HOLLOW, 12)], ids=["ring(6,1)", "ring(2,2)", "hollow"]
)
def test_oracle_maxs_shapes(tmp_path, des, seeds):
    # a 12-state suppressed cycle with one event per state, and two events
    # per state with self-loops
    plant = tmp_path / "plant.des"
    plant.write_text(des)
    p = run("oracle-maxs", str(plant), timeout=10)
    assert p.returncode == 0
    assert p.stdout == f"seeds {seeds} mismatches 0\n"


@pytest.fixture
def shift_register(tmp_path):
    """Plant, policy and empty pairs file whose tracker has 2^17 states.

    States p0 … p18: p0 transmits a and b as self-loops and suppresses c
    into p1, p1 transmits a into p2, and each p_i with 2 <= i < 18 transmits
    a and b into p_{i+1}.  A tracker state is {p0, p1} plus any subset of
    p2 … p18."""
    n = 18
    moves = [("p0", "a", "p0"), ("p0", "b", "p0"), ("p0", "c", "p1"), ("p1", "a", "p2")]
    moves += [(f"p{i}", e, f"p{i + 1}") for i in range(2, n) for e in "ab"]
    labels = {"p0": "YYN", "p1": "Y", **{f"p{i}": "YY" for i in range(2, n)}, f"p{n}": ""}
    plant = tmp_path / "shift.des"
    plant.write_text(
        "alphabet a b c\nstates " + " ".join(labels) + "\ninitial p0\n"
        + "".join(f"trans {q} {e} {q2}\n" for q, e, q2 in moves)
    )
    policy = tmp_path / "shift.policy"
    policy.write_text(
        "initial p0YYN\n" + "".join(f"trans {q}{labels[q]} {e} {q2}{labels[q2]}\n" for q, e, q2 in moves)
    )
    spec = tmp_path / "shift.pairs"
    spec.write_text("")
    return str(plant), str(policy), str(spec)


def test_tracker_built_on_demand(shift_register):
    # each command builds only the tracker states it visits, so both finish
    # long before a full subset construction would
    plant, policy, spec = shift_register
    p = run("verify", plant, policy, spec, "--budget", "10", "--depth", "2", timeout=3)
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr == (
        "error: THM1: the brute-force estimate table passed the budget of 10 "
        "(plant state, policy state, projection) triples at projection length 1\n"
    )
    p = run("simulate", plant, policy, "--trace", "a", timeout=3)
    assert p.returncode == 0
    assert p.stdout == "initial estimate={p0,p1}\n1 a sent=Y proj=a estimate={p0,p1,p2}\n"


def test_verify_shift_register_default_budget(shift_register):
    # the brute-force table holds only the triples of the projections asked
    # for, so the family's 79 labeled states cost it nothing
    plant, policy, spec = shift_register
    p = run("verify", plant, policy, spec, "--depth", "6", timeout=5)
    assert p.returncode == 0, p.stderr
    assert p.stdout == (
        "PROP1 ok words=127 depth=6\n"
        "THM1 ok words=319 depth=6\n"
        "PROBLEM1 ok words=319 depth=6\n"
    )


def test_verify_prop1_bounded_by_budget():
    # PROP1 runs first; its walk holds 9 entries to depth 6
    p = run("verify", PLANT, HAND, PAIRS, "--budget", "5")
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr == (
        "error: PROP1: more than 5 (tracker state, targets) entries "
        "over the observed words up to length 3, over the budget\n"
    )


def _swap(tmp_path, k):
    """Two states that swap on each of k events, 2**k versions each, the
    pair (s, t) and the policy that transmits everything: the paths of the
    plant, pairs and policy files."""
    events = [f"e{i}" for i in range(k)]
    moves = sorted((q, e, q2) for e in events for q, q2 in (("s", "t"), ("t", "s")))
    plant = tmp_path / "swap.des"
    plant.write_text(
        f"alphabet {' '.join(events)}\nstates s t\ninitial s\n" + "".join(f"trans {q} {e} {q2}\n" for q, e, q2 in moves)
    )
    spec = tmp_path / "swap.pairs"
    spec.write_text("pair s t\n")
    ys = "Y" * k
    policy = tmp_path / "all.policy"
    policy.write_text(
        f"initial s{ys}\n"
        + "".join(f"label {q}{ys} {e} Y\n" for q in "st" for e in events)
        + "".join(f"trans {q}{ys} {e} {q2}{ys}\n" for q, e, q2 in moves)
    )
    return plant, spec, policy


def test_many_events_per_state(tmp_path):
    # 256 versions per state: PROP1 tests one candidate per tracker step and
    # the suppressed reach walks the 2 plant states, not their versions
    plant, spec, policy = _swap(tmp_path, 8)
    ys = "Y" * 8
    p = run("verify", str(plant), str(policy), str(spec), "--depth", "2", timeout=10)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "".join(f"{check} ok words=73 depth=2\n" for check in ("PROP1", "THM1", "PROBLEM1"))
    out = tmp_path / "out.policy"
    p = run("synthesize", str(plant), str(spec), str(out), timeout=10)
    assert p.returncode == 0, p.stderr
    assert p.stdout == f"feasible\nroot (s{ys})\npolicy-states 2\npolicy {out}\n"
    assert out.read_text() == policy.read_text()


def test_wide_states_build_linearly(tmp_path):
    # 32,768 versions per state: the labeled system is built in one pass
    # over the sorted versions, so both commands finish well inside the
    # limit; grouping the versions by repeated tuple concatenation is
    # quadratic in them and misses it twice over or more
    plant, spec, policy = _swap(tmp_path, 15)
    p = run("verify", str(plant), str(policy), str(spec), "--depth", "1", timeout=4)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "".join(f"{check} ok words=16 depth=1\n" for check in ("PROP1", "THM1", "PROBLEM1"))
    p = run("simulate", str(plant), str(policy), "--trace", "e0 e1", timeout=4)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "initial estimate={s}\n1 e0 sent=Y proj=e0 estimate={t}\n2 e1 sent=Y proj=e0,e1 estimate={s}\n"


def test_verify_suppressing_tree(tmp_path):
    # a 63-node binary tree whose policy suppresses every move: the first
    # tracker state holds every node, and PROP1's range search keeps only
    # the maximal ranges of each, one per node where no version is left to
    # choose.  Whole families of subtrees grow to 458,329 sets a node at
    # height 4 and do not finish.  With the root looping on c the first
    # state holds two versions of the root; a budget below the search's
    # 330 set unions stops it
    spec = tmp_path / "none.pairs"
    spec.write_text("")
    for loop, props, words in ((False, 1, 63), (True, 6, 120)):
        plant, policy = suppressing_tree(5, loop)
        des, pol = tmp_path / f"tree{loop}.des", tmp_path / f"tree{loop}.policy"
        des.write_text(_plant_text(plant))
        pol.write_text(format_policy(policy))
        p = run("verify", str(des), str(pol), str(spec), "--depth", "5", timeout=10)
        assert p.returncode == 0, p.stderr
        assert p.stdout == (
            f"PROP1 ok words={props} depth=5\nTHM1 ok words={words} depth=5\nPROBLEM1 ok words={words} depth=5\n"
        )
    p = run("verify", str(des), str(pol), str(spec), "--depth", "0", "--budget", "329", timeout=10)
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr == (
        "error: PROP1: the run-tree range search passed the budget of 329 set unions "
        "on one (tracker state, targets) entry\n"
    )


def test_verify_memory_policy_outside_observer(tmp_path):
    # the policy suppresses a on its first visit to q1 only, so after b b
    # the receiver holds both versions of q1, which no observer estimate
    # over {q1} does
    plant = tmp_path / "switch.des"
    plant.write_text("alphabet a b\nstates q0 q1\ninitial q0\ntrans q0 b q1\ntrans q1 a q0\ntrans q1 b q1\n")
    policy = tmp_path / "switch.policy"
    policy.write_text(
        "initial q0Y\nlabel q0Y b Y\n"
        "label q1NY a N\nlabel q1NY b Y\nlabel q1YY a Y\nlabel q1YY b Y\n"
        "trans q0Y b q1NY\ntrans q1NY a q0Y\ntrans q1NY b q1YY\ntrans q1YY a q0Y\ntrans q1YY b q1YY\n"
    )
    spec = tmp_path / "switch.pairs"
    spec.write_text("")
    p = run("verify", str(plant), str(policy), str(spec), "--depth", "3")
    assert p.returncode == 5
    assert p.stdout == (
        "FAIL PROP1 word=b b expected=estimate over {q1} got={q0Y,q1NY,q1YY}\n"
        "THM1 ok words=7 depth=3\n"
        "PROBLEM1 ok words=7 depth=3\n"
    )


DENSE3 = (
    "alphabet a b\nstates q0 q1 q2\ninitial q0\n"
    "trans q0 a q1\ntrans q0 b q2\ntrans q1 a q0\ntrans q1 b q2\ntrans q2 a q2\ntrans q2 b q1\n"
)
RING_3_2 = (
    "alphabet e0 e1\nstates q0 q1 q2\ninitial q0\n"
    "trans q0 e0 q1\ntrans q0 e1 q2\ntrans q1 e0 q2\ntrans q1 e1 q0\ntrans q2 e0 q0\ntrans q2 e1 q1\n"
)


def test_estimate_unions_bounded(tmp_path):
    # one step of this plant unions run-tree ranges for minutes; the budget
    # caps the unions per step, so it stops every command that builds every
    # estimate, and synthesize with no pairs prunes none
    plant = tmp_path / "dense3.des"
    plant.write_text(DENSE3)
    spec = tmp_path / "dense3.pairs"
    spec.write_text("")
    out = tmp_path / "dense3.policy"
    for args, budget in (
        (("build-observer", str(plant), "--budget", "300"), 300),
        (("synthesize", str(plant), str(spec), str(out)), 100000),
        (("oracle-maxs", str(plant)), 100000),
        (("oracle-maxs", str(plant), "--budget", "300"), 300),
    ):
        p = run(*args, timeout=10)
        assert p.returncode == 3, args
        assert p.stdout == ""
        assert p.stderr == f"error: estimate unions exceeded {budget} set unions while combining ranges\n"
    assert not out.exists()


def test_budget_caps_estimate_families():
    # the running example's observer has 101 states, but closing its
    # initial range families takes more than 150 sets
    p = run("build-observer", PLANT, "--budget", "150")
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr == "error: estimate family exceeded 150 sets while closing\n"
    p = run("build-observer", PLANT, "--budget", "200")
    assert p.returncode == 0
    assert p.stdout == "states 101\ninitials 60\ntransitions 665\n"
    p = run("oracle-maxs", PLANT, "--budget", "10")
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr == "error: estimate family exceeded 10 sets while closing\n"


@pytest.mark.parametrize("des", [DENSE3, RING_3_2], ids=["dense3", "ring(3,2)"])
def test_pruned_synthesis_decides_past_union_cap(tmp_path, des):
    # the unions that merge q0 and q1 are dropped as they form, so the
    # plants whose full observer passes the union cap are decided
    plant = tmp_path / "p.des"
    plant.write_text(des)
    spec = tmp_path / "p.pairs"
    spec.write_text("pair q0 q1\n")
    out = tmp_path / "p.policy"
    p = run("synthesize", str(plant), str(spec), str(out), timeout=10)
    assert p.returncode == 0, p.stderr
    assert p.stdout.startswith("feasible\n")
    p = run("verify", str(plant), str(out), str(spec), "--depth", "6", timeout=10)
    assert p.returncode == 0, p.stdout


def test_depth_out_of_range():
    p = run("verify", PLANT, HAND, PAIRS, "--depth", "33")
    assert p.returncode == 2
    assert p.stderr == "error: depth must be between 0 and 32, got 33\n"
    p = run("verify", PLANT, HAND, PAIRS, "--budget", "0")
    assert p.returncode == 2
    assert p.stderr == "error: budget must be at least 1, got 0\n"


def test_budget_flag():
    p = run("build-observer", PLANT, "--budget", "10")
    assert p.returncode == 3
    p = run("build-observer", PLANT, "--budget", "0")
    assert p.returncode == 2


def test_infeasible_exit(tmp_path):
    plant = tmp_path / "p.des"
    plant.write_text("alphabet a\nstates q0\ninitial q0\n")
    spec = tmp_path / "p.pairs"
    spec.write_text("pair q0 q0\n")
    out = tmp_path / "p.policy"
    p = run("synthesize", str(plant), str(spec), str(out))
    assert p.returncode == 4
    assert "infeasible" in p.stdout
    assert not out.exists()


def test_pin_not_surviving(tmp_path):
    out = tmp_path / "pin.policy"
    # q1N only appears in estimates that merge q1 with q2
    p = run("synthesize", PLANT, PAIRS, str(out), "--pin-initial", "q1N")
    assert p.returncode == 4


def test_usage_error():
    p = run()
    assert p.returncode == 2
    p = run("frobnicate")
    assert p.returncode == 2


def test_repeated_runs_identical(tmp_path):
    for args in (
        ("build-observer", PLANT),
        ("verify", PLANT, HAND, PAIRS, "--depth", "4"),
        ("simulate", PLANT, HAND, "--trace", "σ3 σ2"),
        ("oracle-maxs", PLANT),
    ):
        a, b = run(*args), run(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode


def _plant_text(plant) -> str:
    return (
        f"alphabet {' '.join(sorted(plant.alphabet))}\nstates {' '.join(sorted(plant.states))}\n"
        f"initial {plant.initial}\n" + "".join(f"trans {q} {e} {q2}\n" for q, e, q2 in transitions(plant))
    )


def _fuzz_inputs(data) -> dict[str, bytes]:
    """Plant, pairs and policy files: a random plant with random pairs and
    a memoryless or memory policy, any of them possibly replaced by or
    spliced with random bytes, UTF-8 or not."""
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    plant = random_plant(rng)
    states = sorted(plant.states)
    pairs = [rng.sample(states, 2) for _ in range(rng.randint(0, 2))]
    policy = (random_policy if rng.random() < 0.5 else random_policy_with_memory)(rng, plant)
    files = {
        "plant": _plant_text(plant).encode(),
        "pairs": "".join(f"pair {a} {b}\n" for a, b in pairs).encode(),
        "policy": format_policy(policy).encode(),
    }
    for kind in files:
        how = data.draw(st.sampled_from(["keep", "keep", "keep", "replace", "splice"]), label=kind)
        noise = data.draw(st.binary(max_size=40), label=f"{kind} bytes")
        if how == "replace":
            files[kind] = noise
        elif how == "splice":
            at = data.draw(st.integers(0, len(files[kind])), label=f"{kind} offset")
            files[kind] = files[kind][:at] + noise + files[kind][at:]
    return files


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.data())
def test_cli_fuzz(data):
    # every input either succeeds or ends with a documented exit code, never
    # with a traceback or a run without bound
    command = data.draw(st.sampled_from(["build-observer", "synthesize", "verify", "simulate", "oracle-maxs"]))
    files = _fuzz_inputs(data)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: str(Path(tmp) / kind) for kind in (*files, "out")}
        for kind, content in files.items():
            Path(paths[kind]).write_bytes(content)
        args = {
            "build-observer": [paths["plant"]],
            "synthesize": [paths["plant"], paths["pairs"], paths["out"]],
            "verify": [paths["plant"], paths["policy"], paths["pairs"], "--depth", str(data.draw(st.integers(0, 8)))],
            "simulate": [paths["plant"], paths["policy"]],
            "oracle-maxs": [paths["plant"]],
        }[command]
        if command == "simulate":
            trace = data.draw(st.lists(st.sampled_from(["a", "b", "c", "z"]), max_size=6))
            args += ["--trace", " ".join(trace)]
        elif data.draw(st.booleans()):
            args += ["--budget", str(data.draw(st.integers(1, 2000)))]
        p = run(command, *args, timeout=10)
    assert p.returncode in (0, 2, 3, 4, 5), (command, files, p.stderr)
    assert "Traceback" not in p.stderr, (command, files, p.stderr)
