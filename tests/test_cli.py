"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import destx.errors
import destx.observer
import destx.oracle
from destx import (
    AlphabetTooLarge,
    DestxError,
    Estimator,
    Infeasible,
    InstanceTooLarge,
    ObserverState,
    StateBudgetExceeded,
    check_estimate_agreement,
    check_property_satisfaction,
    check_tracker_containment,
    cli,
    distinguishability,
    format_policy,
    load_pairs,
    load_plant,
    load_policy,
)
from destx_child import python_child, run
from randgen import (
    random_live_plant,
    random_plant,
    random_policy,
    random_policy_with_memory,
    suppressing_tree,
    transitions,
)

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


def test_build_observer_dot_unwritable(tmp_path):
    # the DOT file is written before anything is printed, so a failed write
    # leaves stdout empty, as on every other exit-2 path
    dot = tmp_path / "no-such-dir" / "obs.dot"
    p = run("build-observer", PLANT, "--dot", str(dot))
    assert (p.returncode, p.stdout) == (2, "")
    assert p.stderr == f"error: [Errno 2] No such file or directory: '{dot}'\n"


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
    monkeypatch.setattr(destx.observer, "closure_family", _lossy(destx.observer.closure_family))
    assert cli.main(["oracle-maxs", PLANT]) == 5
    assert capsys.readouterr().out == (
        "MISMATCH seed=q0NNY only-fast=[] only-brute=['(q0NNY,q1Y,q5)']\n"
        "seeds 17 mismatches 1\n"
    )


def test_oracle_maxs_lossy_brute_side(monkeypatch, capsys):
    monkeypatch.setattr(destx.oracle, "closure_family_bruteforce", _lossy(destx.oracle.closure_family_bruteforce))
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


def test_cold_import_skips_code_generation_modules():
    # every CLI call is a fresh interpreter, so what `import destx.cli`
    # pulls in is paid on every call; only modules it newly loads count,
    # since `site` may have loaded some of these already
    p = python_child(
        "-c",
        "import sys; before = set(sys.modules); import destx.cli; "
        "print(*sorted(set(sys.modules) - before))",
    )
    assert p.returncode == 0, p.stderr
    loaded = set(p.stdout.split())
    assert "destx.cli" in loaded
    heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "argparse", "gettext", "locale"}
    assert sorted(loaded & heavy) == []
    # the package loads a module on first access to one of its names, and
    # each command only the modules it runs: `verify` runs PROP1's range
    # search and builds no observer; `oracle-maxs` runs the observer's
    # closure families and the oracle, which runs the range search
    base = ["destx.automata", "destx.cli", "destx.errors"]
    assert sorted(m for m in loaded if m.startswith("destx")) == ["destx", *base]
    p = python_child("-c", "import sys, destx; print(*sorted(m for m in sys.modules if m.startswith('destx')))")
    assert p.stdout.split() == ["destx"]
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out.policy")
        for command, modules in (
            (["build-observer", PLANT], {"labeled", "observer"}),
            (["oracle-maxs", PLANT], {"labeled", "observer", "oracle", "ranges"}),
            (["synthesize", PLANT, PAIRS, out], {"labeled", "observer", "properties", "realization", "synthesis"}),
            (["verify", PLANT, HAND, PAIRS], {"estimation", "labeled", "properties", "ranges", "realization"}),
            (["simulate", PLANT, HAND, "--trace", "σ3 σ2"], {"estimation", "labeled", "realization"}),
        ):
            p = python_child(
                "-c",
                "import sys; from destx.cli import main; before = set(sys.modules); code = main(sys.argv[1:]); "
                "print(*sorted(m for m in sys.modules if m.startswith('destx.')), file=sys.stderr); "
                "print(*sorted(set(sys.modules) - before), file=sys.stderr); "
                "raise SystemExit(code)",
                *command,
            )
            assert p.returncode in (0, 5), p.stderr
            loaded, new = (set(line.split()) for line in p.stderr.splitlines()[-2:])
            assert sorted(loaded) == sorted([*base, *(f"destx.{m}" for m in modules)]), command[0]
            assert sorted(new & heavy) == [], command[0]
    p = python_child(
        "-c",
        "import destx; print(*destx.__all__); print(*dir(destx)); "
        "star = {}; exec('from destx import *', star); print(*sorted(set(star) - {'__builtins__'}))",
    )
    exports, names, star = (line.split() for line in p.stdout.splitlines())
    assert star == exports
    assert exports == sorted(exports) == [
        "AlphabetTooLarge", "CheckReport", "DestxError", "DeterministicSchedule", "DistinguishabilitySpec",
        "DynamicObserver", "EPSILON", "Estimator", "Infeasible", "InstanceTooLarge", "LabeledState",
        "LabeledSystem", "ObserverState", "Plant", "Policy", "StateBudgetExceeded", "TraceSession",
        "Word", "automata", "build_labeled_system", "build_observer",
        "check_estimate_agreement", "check_property_satisfaction", "check_tracker_containment",
        "closure_family", "closure_family_bruteforce", "consistency_fixpoint", "count_nontransmitted",
        "distinguishability", "errors", "estimation", "explore", "extract_min_transmit", "format_policy",
        "labeled", "load_pairs", "load_plant", "load_policy", "observer", "observer_step", "oracle", "parse_des",
        "parse_labeled", "parse_policy", "properties", "prune_violating", "reach_closed",
        "realization", "realize_policy", "render_word", "shortlex_levels", "synthesis",
        "unobservable_reach", "word",
    ]
    assert names == sorted([*exports, "__all__", "__builtins__", "__cached__", "__doc__", "__file__",
                            "__loader__", "__name__", "__package__", "__path__", "__spec__"])


def test_exit_code_per_error_family(monkeypatch, capsys):
    # every error class, whatever command raises it, exits with its
    # family's code and its message; exit 4 also says infeasible
    codes = {DestxError: 2, InstanceTooLarge: 3, StateBudgetExceeded: 3, AlphabetTooLarge: 3, Infeasible: 4}
    defined = {c for c in vars(destx.errors).values() if isinstance(c, type) and c.__module__ == "destx.errors"}
    assert set(codes) == defined
    for error, code in codes.items():

        def fail(args):
            raise error(f"{error.__name__} stopped the run")

        monkeypatch.setattr(cli, "cmd_simulate", fail)
        assert cli.main(["simulate", PLANT, HAND]) == code, error
        assert capsys.readouterr() == ("infeasible\n" if code == 4 else "", f"error: {error.__name__} stopped the run\n")


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
    # each level of THM1's walk holds one entry: 33 up to depth 32
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
        "error: THM1: more than 32 (policy state, estimate) entries "
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


def test_verify_fib_walks_finite_keys(tmp_path):
    # deep-verify's fib with its synthesized policy, which transmits every
    # event: each check's walk holds one entry per level and the brute-force
    # memo four policy states, so depth 18 fits a budget of 19, and depth 32
    # decides within the default budget
    files = [tmp_path / name for name in ("fib.des", "fib.policy", "fib.pairs")]
    files[0].write_text(FIB)
    files[2].write_text("pair q0 q1\n")
    assert run("synthesize", str(files[0]), str(files[2]), str(files[1])).returncode == 0
    verify = ("verify", *map(str, files))
    p = run(*verify, "--depth", "18", "--budget", "19", timeout=3)
    assert (p.returncode, p.stdout, p.stderr) == (
        0, "PROP1 ok words=2045 depth=18\nTHM1 ok words=2045 depth=18\nPROBLEM1 ok words=2045 depth=18\n", ""
    )
    p = run(*verify, "--depth", "18", "--budget", "18", timeout=3)
    assert (p.returncode, p.stderr) == (
        3, "error: PROP1: more than 18 (tracker state, targets) entries over the observed words up to length 18, "
        "over the budget\n"
    )
    p = run(*verify, "--depth", "32", timeout=3)
    assert (p.returncode, p.stdout, p.stderr) == (
        0, "PROP1 ok words=262141 depth=32\nTHM1 ok words=262141 depth=32\nPROBLEM1 ok words=262141 depth=32\n", ""
    )


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


CHAIN_12 = "alphabet a\nstates " + " ".join(f"q{i}" for i in range(12)) + "\ninitial q0\n" + "".join(
    f"trans q{i} a q{i + 1}\n" for i in range(11)
)
RING_3_XYZ = "alphabet x y z\nstates A B C\ninitial A\n" + "".join(
    f"trans {a} {e} {b}\n" for a, b in (("A", "B"), ("B", "C"), ("C", "A")) for e in "xyz"
)


@pytest.mark.parametrize(
    "des, stderr",
    [
        (CHAIN_12, "error: oracle universe has 22 states, cap is 20\n"),
        (RING_3_XYZ, "error: estimate unions exceeded 100000 set unions while combining ranges\n"),
    ],
    ids=["chain: brute side", "ring: fast side"],
)
def test_oracle_maxs_refusal_order(tmp_path, des, stderr):
    # each seed runs the fast side, then the brute side: the chain's first
    # seed q0N passes the fast side and has a 22-state universe, and the
    # ring's first seed ANNN has a 24-state universe but the fast side's
    # union budget refuses it first
    plant = tmp_path / "plant.des"
    plant.write_text(des)
    p = run("oracle-maxs", str(plant), timeout=10)
    assert (p.returncode, p.stdout, p.stderr) == (3, "", stderr)


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
    assert p.stderr == "error: THM1: the brute-force sets passed the budget of 10 policy states\n"
    p = run("simulate", plant, policy, "--trace", "a", timeout=3)
    assert p.returncode == 0
    assert p.stdout == "initial estimate={p0,p1}\n1 a sent=Y proj=a estimate={p0,p1,p2}\n"


def test_verify_shift_register_default_budget(shift_register):
    # the brute-force memo holds only the sets of the projections asked
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


def test_wide_states_expand_only_where_read(tmp_path):
    # 2**20 versions per state, past the cap of 16 events: `verify` and
    # `simulate` read the policy and plant steps and build no version, so
    # they decide; the commands that build the observer or seed every
    # version refuse the state
    plant, spec, policy = _swap(tmp_path, 20)
    p = run("verify", str(plant), str(policy), str(spec), "--depth", "1", timeout=4)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "".join(f"{check} ok words=21 depth=1\n" for check in ("PROP1", "THM1", "PROBLEM1"))
    p = run("simulate", str(plant), str(policy), "--trace", "e0 e1", timeout=4)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "initial estimate={s}\n1 e0 sent=Y proj=e0 estimate={t}\n2 e1 sent=Y proj=e0,e1 estimate={s}\n"
    out = tmp_path / "out.policy"
    for args in (("build-observer", plant), ("synthesize", plant, spec, out), ("oracle-maxs", plant)):
        p = run(*map(str, args), timeout=4)
        assert p.returncode == 3, args[0]
        assert (p.stdout, p.stderr) == ("", "error: state 's' defines 20 events, bound is 16\n")


def test_unreachable_wide_state_is_never_expanded(tmp_path):
    # z defines 17 events but no initial run reaches it: only `oracle-maxs`,
    # which seeds every version, reads its versions
    wide = [f"w{i}" for i in range(17)]
    plant = tmp_path / "far.des"
    plant.write_text(
        f"alphabet a b {' '.join(wide)}\nstates q0 q1 q2 z\ninitial q0\n"
        "trans q0 a q1\ntrans q0 b q2\ntrans q1 b q0\n" + "".join(f"trans z {e} z\n" for e in wide)
    )
    spec = tmp_path / "far.pairs"
    spec.write_text("pair q1 q2\n")
    out = tmp_path / "far.policy"
    p = run("build-observer", str(plant), timeout=4)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "states 25\ninitials 16\ntransitions 320\n"
    p = run("synthesize", str(plant), str(spec), str(out), timeout=4)
    assert p.returncode == 0, p.stderr
    assert p.stdout == f"feasible\nroot (q0YY)\npolicy-states 4\npolicy {out}\n"
    p = run("oracle-maxs", str(plant), timeout=4)
    assert p.returncode == 3
    assert (p.stdout, p.stderr) == ("", "error: state 'z' defines 17 events, bound is 16\n")


@pytest.fixture
def ring3000(tmp_path):
    """A 3,000-state ring on two events, s{i} moving to s{i+1} on a and to
    s{i+7} on b (mod 3,000), the policy that transmits everything and the
    pair (s0, s1): the paths of the plant, policy and pairs files."""
    n = 3000
    moves = [(i, e, (i + d) % n) for i in range(n) for e, d in (("a", 1), ("b", 7))]
    plant = tmp_path / "ring.des"
    plant.write_text(
        "alphabet a b\nstates " + " ".join(f"s{i}" for i in range(n)) + "\ninitial s0\n"
        + "".join(f"trans s{i} {e} s{j}\n" for i, e, j in moves)
    )
    policy = tmp_path / "all.policy"
    policy.write_text("initial s0YY\n" + "".join(f"trans s{i}YY {e} s{j}YY\n" for i, e, j in moves))
    spec = tmp_path / "ring.pairs"
    spec.write_text("pair s0 s1\n")
    return str(plant), str(policy), str(spec)


def test_large_plant_read_in_linear_time(ring3000):
    # each policy name is looked up, not matched against every plant state,
    # so reading the 3,000-state plant and its policy costs well under 3 s
    plant, policy, spec = ring3000
    p = run("verify", plant, policy, spec, "--depth", "3", timeout=3)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "".join(f"{check} ok words=15 depth=3\n" for check in ("PROP1", "THM1", "PROBLEM1"))
    p = run("simulate", plant, policy, "--trace", "a", timeout=3)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "initial estimate={s0}\n1 a sent=Y proj=a estimate={s1}\n"


def test_long_policy_name_bounded(ring3000, tmp_path):
    # a name of 100,000 Y letters: only the splits no longer than the
    # alphabet are looked up
    plant, _policy, spec = ring3000
    policy = tmp_path / "long.policy"
    policy.write_text("initial " + "Y" * 100_000 + "\n")
    p = run("verify", plant, str(policy), spec, timeout=2)
    assert p.returncode == 2
    assert p.stdout == ""
    assert p.stderr.endswith("Y' is not a labeled state of this plant\n")


def test_verify_suppressing_tree(tmp_path):
    # a 63-node binary tree whose policy suppresses every move: the first
    # tracker state holds every node, and PROP1's range search keeps only
    # the maximal ranges of each, one per node where no version is left to
    # choose.  Whole families of subtrees grow to 458,329 sets a node at
    # height 4 and do not finish.  With the root looping on c the first
    # state holds two versions of the root; a budget below the search's
    # 134 set unions stops it
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
    p = run("verify", str(des), str(pol), str(spec), "--depth", "0", "--budget", "133", timeout=10)
    assert p.returncode == 3
    assert p.stdout == ""
    assert p.stderr == (
        "error: PROP1: the run-tree range search passed the budget of 133 set unions "
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


FIB = "alphabet a b\nstates q0 q1\ninitial q0\ntrans q0 a q1\ntrans q0 b q1\ntrans q1 b q0\n"


def _verify_as_checks_alone(capsys, files, depth, budget):
    """Run `verify` on the plant, policy and pairs `files` and assert that it
    says what PROP1, THM1 and PROBLEM1 say when each runs alone: their three
    lines, or the message of the first to pass the budget.  Returns the
    check and the stop that message names, such as "THM1: more", or ""."""
    plant = load_plant(files[0])
    policy = load_policy(files[1], plant)
    prop = distinguishability(load_pairs(files[2]), plant)
    try:
        reports = [
            check_tracker_containment(plant, policy, depth, budget),
            check_estimate_agreement(plant, policy, depth, budget),
            check_property_satisfaction(plant, policy, prop, depth, budget),
        ]
    except InstanceTooLarge as exc:
        expected = (3, "", f"error: {exc}\n")
    else:
        expected = (0 if all(r.ok for r in reports) else 5, "".join(f"{r.line()}\n" for r in reports), "")
    code = cli.main(["verify", *map(str, files), "--depth", str(depth), "--budget", str(budget)])
    assert (code, *capsys.readouterr()) == expected, (files, depth, budget)
    return " ".join(expected[2].split()[1:3])


def _wrong_tracker(m, kind):
    """Patch the tracker so that THM1 fails and PROBLEM1 walks on alone:
    "forgetful" drops the largest state of every estimate, so THM1 fails on
    the empty word; "late" also claims the initial policy state after every
    transmitted event, so THM1 fails, if at all, later in the walk."""
    if kind == "forgetful":
        real = ObserverState.underlying
        m.setattr(ObserverState, "underlying", lambda h: real(h) - {max(real(h))})
    elif kind == "late":
        real = Estimator.step

        def step(self, h, e):
            h2 = real(self, h, e)
            return None if h2 is None else ObserverState(h2 | {self.policy.initial})

        m.setattr(Estimator, "step", step)


def test_verify_shares_one_walk_as_checks_alone(tmp_path, capsys, monkeypatch):
    """`verify` runs THM1 and PROBLEM1 in one walk over one brute-force memo,
    and prints what the checks print one at a time: at every depth up to 10
    on the benchmark's fib, ladder and hollow, and, one depth in turn and
    depth 10, on random plants that dead-end and plants that do not, each
    with a memoryless policy and a policy with memory.  Small budgets and
    wrong trackers land each of the four stops: the walk's entries and the
    memo's policy states, for THM1 and, once THM1 has failed, for PROBLEM1."""
    stops = set()
    budgets = (100_000, 4, 12, 40)
    trackers = (None, "forgetful", "late")
    files = [tmp_path / name for name in ("p.des", "p.policy", "p.pairs")]
    for des, pair in ((FIB, "q0 q1"), (LADDER, "q1 q2"), (HOLLOW, "q0 q1")):
        files[0].write_text(des)
        files[2].write_text(f"pair {pair}\n")
        assert cli.main(["synthesize", str(files[0]), str(files[2]), str(files[1])]) == 0
        capsys.readouterr()
        for kind in trackers:
            with monkeypatch.context() as m:
                _wrong_tracker(m, kind)
                for depth in range(11):
                    for budget in budgets:
                        stops.add(_verify_as_checks_alone(capsys, files, depth, budget))
    i = 0
    for seed in range(200):
        for draw in (random_plant, random_live_plant):
            rng = random.Random(seed)
            plant = draw(rng)
            files[0].write_text(_plant_text(plant))
            files[2].write_text("pair {} {}\n".format(*rng.sample(sorted(plant.states), 2)))
            for policy in (random_policy(rng, plant), random_policy_with_memory(rng, plant)):
                files[1].write_text(format_policy(policy))
                for depth in (i % 10, 10):
                    with monkeypatch.context() as m:
                        _wrong_tracker(m, trackers[i % 3])
                        stops.add(_verify_as_checks_alone(capsys, files, depth, budgets[(i // 3 + depth) % 4]))
                i += 1
    assert {"THM1: more", "THM1: the", "PROBLEM1: more", "PROBLEM1: the"} <= stops


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


def _argparse_reference() -> argparse.ArgumentParser:
    """The argparse parser that `cli` used before its table: the reference
    for what each argv parses to."""
    p = argparse.ArgumentParser(prog="destx")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, depth=False):
        sp.add_argument("--budget", type=int, default=None)
        if depth:
            sp.add_argument("--depth", type=int, default=6)

    sp = sub.add_parser("build-observer")
    sp.add_argument("plant")
    sp.add_argument("--dot", default=None)
    common(sp)
    sp = sub.add_parser("synthesize")
    sp.add_argument("plant")
    sp.add_argument("pairs")
    sp.add_argument("out")
    sp.add_argument("--pin-initial", default=None)
    sp.add_argument("--nz-mode", choices=("default", "unlabeled"), default="default")
    common(sp)
    sp = sub.add_parser("verify")
    sp.add_argument("plant")
    sp.add_argument("policy")
    sp.add_argument("pairs")
    common(sp, depth=True)
    sp = sub.add_parser("simulate")
    sp.add_argument("plant")
    sp.add_argument("policy")
    sp.add_argument("--trace", default="")
    sp = sub.add_parser("oracle-maxs")
    sp.add_argument("plant")
    common(sp)
    return p


README_PLANT, README_PAIRS = "data/running_example.des", "data/distinguish.pairs"
ACCEPTED = [
    # the tests', the README's and the benchmark's calls
    ["build-observer", PLANT],
    ["build-observer", PLANT, "--dot", "obs.dot"],
    ["build-observer", PLANT, "--budget", "150"],
    ["build-observer", PLANT, "--budget", "0"],
    ["build-observer", README_PLANT, "--budget", "100000000"],
    ["synthesize", PLANT, PAIRS, "pin.policy", "--pin-initial", "q0NNY"],
    ["synthesize", PLANT, PAIRS, "auto.policy"],
    ["synthesize", PLANT, PAIRS, "pin.policy", "--pin-initial", "q1N"],
    ["synthesize", README_PLANT, README_PAIRS, "min.policy", "--pin-initial", "q0NNY"],
    ["verify", PLANT, "pin.policy", PAIRS],
    ["verify", PLANT, HAND, PAIRS, "--depth", "4"],
    ["verify", PLANT, HAND, PAIRS, "--depth", "33"],
    ["verify", PLANT, HAND, PAIRS, "--budget", "5"],
    ["verify", PLANT, HAND, PAIRS, "--budget", "0"],
    ["verify", "fib.des", "fib.policy", "fib.pairs", "--depth", "32", "--budget", "32"],
    ["verify", "tree.des", "tree.policy", "none.pairs", "--depth", "0", "--budget", "329"],
    ["verify", README_PLANT, "min.policy", README_PAIRS, "--depth", "6"],
    ["simulate", PLANT, HAND, "--trace", "σ3 σ2"],
    ["simulate", PLANT, HAND, "--trace", "σ2 σ2 σ1 σ2"],
    ["simulate", PLANT, HAND],
    ["simulate", PLANT, HAND, "--trace", ""],
    ["simulate", README_PLANT, "min.policy", "--trace", "σ2 σ2 σ1"],
    ["oracle-maxs", PLANT],
    ["oracle-maxs", PLANT, "--budget", "300"],
    # options before, between and after the positionals
    ["verify", "--depth", "4", PLANT, HAND, PAIRS],
    ["verify", PLANT, "--budget", "7", HAND, "--depth", "3", PAIRS],
    ["synthesize", "--nz-mode", "unlabeled", PLANT, PAIRS, "--pin-initial", "q0NNY", "out.policy"],
    ["synthesize", PLANT, PAIRS, "out.policy", "--nz-mode", "default"],
    # --opt=value
    ["verify", PLANT, HAND, PAIRS, "--depth=4", "--budget=9"],
    ["simulate", PLANT, HAND, "--trace=σ3 σ2"],
    ["simulate", PLANT, HAND, "--trace="],
    ["simulate", PLANT, HAND, "--trace=a=b"],
    ["synthesize", PLANT, PAIRS, "out.policy", "--pin-initial=q0NNY", "--nz-mode=unlabeled"],
    ["build-observer", PLANT, "--dot=obs.dot"],
    # unique prefixes
    ["synthesize", PLANT, PAIRS, "out.policy", "--pin", "q0NNY", "--nz=unlabeled"],
    ["verify", PLANT, HAND, PAIRS, "--dep", "4", "--b", "10"],
    ["simulate", PLANT, HAND, "--tr", "σ3"],
    ["build-observer", PLANT, "--d", "obs.dot", "--bud=5"],
    # -- ends the options
    ["verify", "--depth", "3", "--", PLANT, HAND, PAIRS],
    ["verify", PLANT, "--", HAND, PAIRS],
    ["verify", PLANT, HAND, PAIRS, "--"],
    ["build-observer", "--", "-plant.des"],
    # the last of a repeated option wins
    ["verify", PLANT, HAND, PAIRS, "--depth", "3", "--depth", "5"],
    ["simulate", PLANT, HAND, "--trace", "a", "--trace", "b"],
    ["synthesize", PLANT, PAIRS, "out.policy", "--nz-mode", "unlabeled", "--nz-mode", "default"],
    # values argparse reads as positionals although they start with "-",
    # and the forms int() accepts
    ["verify", PLANT, HAND, PAIRS, "--depth", "-1"],
    ["verify", PLANT, HAND, PAIRS, "--budget", "-5", "--depth", "+4"],
    ["verify", PLANT, HAND, PAIRS, "--depth", " 4 "],
    ["simulate", PLANT, HAND, "--trace", "-x y"],
    ["build-observer", "-"],
    ["build-observer", "-1.5"],
]
REJECTED = [
    [],
    ["frobnicate"],
    ["VERIFY", PLANT, HAND, PAIRS],
    ["--", "verify", PLANT, HAND, PAIRS],
    ["--budget", "3", "verify", PLANT, HAND, PAIRS],
    ["verify", PLANT, HAND, PAIRS, "--zzz"],
    ["verify", PLANT, HAND, PAIRS, "-x"],
    ["verify", PLANT, HAND, PAIRS, "-d", "3"],
    ["oracle-maxs", PLANT, "--depth", "3"],
    ["simulate", PLANT, HAND, "--budget", "3"],
    ["verify", PLANT, HAND, PAIRS, "--depth"],
    ["verify", PLANT, HAND, PAIRS, "--depth", "--budget", "3"],
    ["verify", PLANT, HAND, PAIRS, "--depth", "-x"],
    ["simulate", PLANT, HAND, "--trace", "--"],
    ["build-observer", PLANT, "--dot"],
    ["verify", PLANT, HAND, PAIRS, "--depth", "x"],
    ["verify", PLANT, HAND, PAIRS, "--depth=4.5"],
    ["verify", PLANT, HAND, PAIRS, "--budget="],
    ["synthesize", PLANT, PAIRS, "out.policy", "--nz-mode", "fast"],
    ["synthesize", PLANT, PAIRS, "out.policy", "--nz=Default"],
    ["build-observer"],
    ["verify", PLANT, HAND],
    ["verify", PLANT, HAND, PAIRS, "extra"],
    ["verify", "--", "--depth", "3", PLANT, HAND, PAIRS],
    ["verify", PLANT, HAND, PAIRS, "-hx"],
    ["verify", PLANT, HAND, PAIRS, "--help=x"],
]
OPTIONS = {
    "build-observer": ["--budget", "--dot"],
    "synthesize": ["--budget", "--nz-mode", "--pin-initial"],
    "verify": ["--budget", "--depth"],
    "simulate": ["--trace"],
    "oracle-maxs": ["--budget"],
}


def _parse(parser, argv, capsys):
    """What `parser.parse_args(argv)` gives: its namespace as a dict or its
    exit code, and what it printed."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


def test_parser_matches_argparse(capsys):
    # every argv the old argparse parser accepted parses to the same
    # attributes, and every one it rejected exits 2 with a usage line and an
    # error line on stderr and nothing on stdout
    reference = _argparse_reference()
    for argv in ACCEPTED:
        expected, _printed = _parse(reference, argv, capsys)
        assert isinstance(expected, dict), argv
        assert _parse(cli.build_parser(), argv, capsys) == (expected, ("", "")), argv
    for argv in REJECTED:
        assert _parse(reference, argv, capsys)[0] == 2, argv
        code, (out, err) = _parse(cli.build_parser(), argv, capsys)
        assert (code, out) == (2, ""), argv
        usage, error = err.splitlines()
        assert usage.startswith("usage: destx") and ": error: " in error, argv


def test_help_lists_the_commands_options(capsys):
    # -h and --help, after the command or before it, print help and exit 0;
    # a command's help names exactly its own options, as argparse's did
    reference = _argparse_reference()
    for command, options in OPTIONS.items():
        for argv in ([command, "-h"], [command, PLANT, "--help"], [command, "--he", "--zzz"]):
            helps = []
            for parser in (reference, cli.build_parser()):
                code, (out, err) = _parse(parser, argv, capsys)
                assert (code, err) == (0, ""), argv
                helps.append(sorted(set(re.findall(r"--[a-z][a-z-]*", out)) - {"--help"}))
            assert helps == [options, options], argv
    for argv in (["-h"], ["--help"], ["--h", "verify"]):
        code, (out, err) = _parse(cli.build_parser(), argv, capsys)
        assert (code, err) == (0, ""), argv
        assert all(command in out for command in OPTIONS), argv


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
