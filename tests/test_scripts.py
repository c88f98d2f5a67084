"""The end-to-end demo script on the bundled running example, the compile
cost report, the small-scope corpus run, and the benchmark's tracer against
the command line tool."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from destx_child import python_child, run

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_pipeline.py"
COMPILE_COST = ROOT / "scripts" / "compile_cost.py"
SMALLSCOPE = ROOT / "scripts" / "smallscope.py"
TRACED = ROOT / "perfbench" / "traced.py"
PLANT = str(ROOT / "data" / "running_example.des")
PAIRS = str(ROOT / "data" / "distinguish.pairs")
HAND = str(ROOT / "data" / "example.policy")


def test_run_pipeline_depth_6(tmp_path):
    out = tmp_path / "default.policy"
    p = subprocess.run(
        [sys.executable, str(SCRIPT), "--depth", "6", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    for line in (
        "labeled system: 17 states",
        "observer: 18 states, 38 transitions",  # built on the system carrying the property
        "PROP1 ok words=8 depth=6",
        "THM1 ok words=14 depth=6",
        "PROBLEM1 ok words=14 depth=6",
        "transmissions over words to depth 6: 21 of 43",
        f"wrote {out}",
    ):
        assert line in lines
    assert out.read_text().startswith("initial ")


def _demo(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True)


def test_run_pipeline_exits_as_the_cli_does(tmp_path):
    """The demo reports an error as `destx` does, with its exit code and
    no traceback, and exits 5 on a failed check."""
    pairs = tmp_path / "same.pairs"
    pairs.write_text("pair q0 q0\n")
    p = _demo("--pairs", str(pairs))
    assert p.returncode == 4
    assert p.stdout.splitlines()[-1] == "infeasible"
    assert p.stderr == "error: no estimate survives pruning; the property cannot be enforced\n"
    p = _demo("--pairs", str(tmp_path / "missing.pairs"))
    assert p.returncode == 2 and p.stderr.startswith("error: ") and "Traceback" not in p.stderr
    # the ring(n,1) defect of ROADMAP item 1: the policy merges q0 and q3 after a a a a
    ring = tmp_path / "ring.des"
    ring.write_text("alphabet a\nstates q0 q1 q2 q3\ninitial q0\n" + "".join(
        f"trans q{i} a q{(i + 1) % 4}\n" for i in range(4)
    ))
    pairs.write_text("pair q0 q3\n")
    p = _demo("--plant", str(ring), "--pairs", str(pairs), "--depth", "4")
    assert p.returncode == 5, p.stderr
    assert p.stdout.splitlines()[-1].startswith("FAIL PROBLEM1 word=a a a a ")


def test_run_pipeline_counts_reachable_versions(tmp_path):
    """The labeled-states line counts the versions of the states the initial
    state reaches, so an unreachable state defining more events than a
    state may is never expanded, as `destx synthesize` never expands it."""
    plant = tmp_path / "wide.des"
    events = [f"b{i}" for i in range(17)]
    plant.write_text(
        "alphabet a " + " ".join(events) + "\nstates s z\ninitial s\ntrans s a s\n"
        + "".join(f"trans z {e} s\n" for e in events)
    )
    pairs = tmp_path / "wide.pairs"
    pairs.write_text("pair s z\n")
    assert run("synthesize", str(plant), str(pairs), str(tmp_path / "wide.policy")).stdout.startswith("feasible\n")
    p = _demo("--plant", str(plant), "--pairs", str(pairs))
    assert p.returncode == 0, p.stderr
    assert "labeled system: 2 states" in p.stdout.splitlines()


def test_compile_cost_lists_each_commands_modules():
    """`scripts/compile_cost.py` prints, per command, a line `COMMAND: M
    modules, L lines, T ms` and under it one line per module it loads:
    name, line count and compile time."""
    p = subprocess.run([sys.executable, str(COMPILE_COST), "--repeat", "1"], capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    heads, modules = {}, {}
    for line in p.stdout.splitlines():
        if line.startswith("  "):
            modules[command].append(line.split())
        else:
            command, head = line.split(": ")
            heads[command], modules[command] = head, []
    assert list(heads) == ["build-observer", "oracle-maxs", "synthesize", "verify", "simulate"]
    # the modules `synthesize` loads, as the cold-import test pins them,
    # and the entry module of `python -m destx`
    loaded = ("__main__", "automata", "cli", "errors", "labeled", "observer", "properties", "realization", "synthesis")
    assert [m for m, _lines, _ms in modules["synthesize"]] == ["destx"] + [f"destx.{m}" for m in loaded]
    for command, rows in modules.items():
        for m, lines, ms in rows:
            path = ROOT / "src" / "destx" / ("__init__.py" if m == "destx" else m[len("destx."):] + ".py")
            assert int(lines) == len(path.read_text("utf-8").splitlines()) and float(ms) > 0, m
        assert heads[command].startswith(f"{len(rows)} modules, {sum(int(r[1]) for r in rows)} lines, "), command


def test_smallscope_every_500th_case():
    """`scripts/smallscope.py --every 500` runs cases 0, 500, ..., 4500;
    case 3500 is one of the unsound outputs of ROADMAP item 1."""
    p = subprocess.run([sys.executable, str(SMALLSCOPE), "--every", "500"], capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "cases 10 decided 10 unsound 1 prop1-fail 0\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("synthesize", PLANT, PAIRS, "POLICY"), 0),
        (("synthesize", PLANT, PAIRS, "POLICY", "--pin-initial", "q0NNY"), 0),
        (("verify", PLANT, HAND, PAIRS), 5),  # the hand-written policy merges q1 and q2
        (("oracle-maxs", PLANT), 0),
    ],
    ids=["synthesize", "synthesize-pinned", "verify", "oracle-maxs"],
)
def test_traced_says_what_the_cli_says(tmp_path, argv, code):
    """`perfbench/traced.py SPANS_OUT COMMAND ARGS` calls the library the way
    `destx.cli` does, with spans around each layer.  Under `--trace 1`,
    `perfbench/run.py` counts a call as failed unless it gives the same exit
    code, the same stdout once the policy path is swapped, and the same
    policy bytes as `python -m destx`; so a library change that the tracer
    does not follow fails here."""
    cli_policy, traced_policy = tmp_path / "cli.policy", tmp_path / "traced.policy"
    spans = tmp_path / "spans.json"
    plain = run(*(str(cli_policy) if a == "POLICY" else a for a in argv))
    traced = python_child(
        str(TRACED), str(spans), *(str(traced_policy) if a == "POLICY" else a for a in argv)
    )
    assert plain.returncode == code, plain.stderr
    assert traced.returncode == plain.returncode, traced.stderr
    assert traced.stdout.replace(str(traced_policy), str(cli_policy)) == plain.stdout
    if "POLICY" in argv:
        assert traced_policy.read_bytes() == cli_policy.read_bytes()
    record = json.loads(spans.read_text("utf-8"))
    assert record["spans"] and set(record) == {"spans", "counters"}
