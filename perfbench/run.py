#!/usr/bin/env python3
"""destx benchmark: synthesize, verify and oracle time on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a destx checkout; the library is taken from `src/`.
Each workload is a closed loop with a single client: one CLI call runs at a
time, each under a time limit.  A job is `destx synthesize`, then `destx
verify` on the written policy, and for some jobs `destx oracle-maxs`.  The
whole job list is repeated in rounds until the time is up, and each call is
reported by its median over the rounds, at the reference speed (see
`probe`).  Every output is checked (see `run_job`); the last stdout line is
one JSON object with the verdict and the metrics.  With --trace 1 every call is also run a second time through
perfbench/traced.py, which records spans around each layer, and the
per-layer metrics are reported instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from replay import ReplayError, replay  # noqa: E402
from workloads import WORKLOADS, Job, jobs_for  # noqa: E402

CALL_LIMIT_S = 8.0  # per call; ring(2,2) synthesize needs about 18 s today
# The probe loop's time at the reference speed (its fast speed on a 2-vCPU
# cloud VM, where it ranges 4.3-7.8 ms); see `probe`.
PROBE_REF_S = 0.0045
SETUPS = 9
STOP_GRACE_S = 5.0
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}

END_TO_END = {
    "setup_s": "s",
    "synth_s": "s",
    "verify_s": "s",
    "oracle_s": "s",
    "decided_frac": "ratio",
    "right_frac": "ratio",
    "tx_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span or counter it sums)
PER_LAYER = {
    "automata.load_s": ("s", "automata.load"),
    "automata.words": ("count", "automata.words"),
    "labeled.build_s": ("s", "labeled.build"),
    "labeled.states": ("count", "labeled.states"),
    "observer.closure_initial_s": ("s", "observer.closure_initial"),
    "observer.build_s": ("s", "observer.build"),
    "observer.states": ("count", "observer.states"),
    "observer.initials": ("count", "observer.initials"),
    "observer.transitions": ("count", "observer.transitions"),
    "observer.oracle_s": ("s", "observer.oracle"),
    "observer.oracle_seeds": ("count", "observer.oracle_seeds"),
    "observer.oracle_mismatches": ("count", "observer.oracle_mismatches"),
    "properties.holds_s": ("s", "properties.holds"),
    "properties.violating": ("count", "properties.violating"),
    "synthesis.prune_s": ("s", "synthesis.prune"),
    "synthesis.fixpoint_s": ("s", "synthesis.fixpoint"),
    "synthesis.extract_s": ("s", "synthesis.extract"),
    "synthesis.g0_states": ("count", "synthesis.g0_states"),
    "synthesis.gstar_states": ("count", "synthesis.gstar_states"),
    "synthesis.sub_automata": ("count", "synthesis.sub_automata"),
    "synthesis.schedule_states": ("count", "synthesis.schedule_states"),
    "realization.realize_s": ("s", "realization.realize"),
    "realization.format_s": ("s", "realization.format"),
    "realization.policy_states": ("count", "realization.policy_states"),
    "estimation.tracker_s": ("s", "estimation.tracker"),
    "estimation.tracker_states": ("count", "estimation.tracker_states"),
    "estimation.prop1_s": ("s", "estimation.prop1"),
    "estimation.thm1_s": ("s", "estimation.thm1"),
    "estimation.problem1_s": ("s", "estimation.problem1"),
    "estimation.prop1_words": ("count", "estimation.prop1_words"),
    "estimation.thm1_words": ("count", "estimation.thm1_words"),
    "estimation.problem1_words": ("count", "estimation.problem1_words"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Call:
    kind: str
    wall: float
    code: int | None  # None when the call hit the time limit
    stdout: str
    stderr: str
    rss_mb: float
    speed: float  # PROBE_REF_S over the probe time around the call

    @property
    def seconds(self) -> float:
        """Wall time at the reference speed; an undecided call counts as the limit."""
        return CALL_LIMIT_S if self.code is None else self.wall * self.speed


def probe() -> float:
    """Time a fixed pure-Python loop, fastest of three tries.

    The host runs at two speeds about 1.6x apart and switches between them
    every second to every twenty seconds, on both vCPUs at once.  Raw wall
    times of one CLI call spread by 45% (quartile distance over median);
    scaled by the probe taken around each call they spread by 11%.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(40000):
            k = i % 1009
            d[k] = d.get(k, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Outcome:
    status: str  # "right", "wrong" or "undecided"
    calls: list[Call]
    problems: list[str] = field(default_factory=list)  # unexpected: make the run incorrect
    once_s: float = 0.0  # calls made in the first round only
    known_defect: bool = False
    tally: tuple[int, int] | None = None  # (transmitted, events) from the replay
    traced: list[Call] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)


class Runner:
    """Starts one child at a time and waits for it, up to a time limit."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in ("DESTX_BUDGET", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.serial = 0

    def run(self, kind: str, argv: list[str], stop_grace: float = 0.0) -> Call:
        self.serial += 1
        out = self.work / f"call{self.serial}.out"
        err = self.work / f"call{self.serial}.err"
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        exited = threading.Event()
        ended: list[float] = []

        def wait_exit():
            # WNOWAIT leaves the child unreaped, so its pid cannot be reused
            # before the kill below; it is reaped with wait4 afterwards.
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            ended.append(time.perf_counter())
            exited.set()

        before = probe()
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
        waiter = threading.Thread(target=wait_exit, daemon=True)
        waiter.start()
        timed_out = not exited.wait(CALL_LIMIT_S)
        if timed_out:
            if stop_grace:
                os.kill(pid, signal.SIGTERM)
                exited.wait(stop_grace)
            if not exited.is_set():
                os.kill(pid, signal.SIGKILL)
        waiter.join()
        _, status, usage = os.wait4(pid, 0)
        code = None if timed_out else os.waitstatus_to_exitcode(status)
        wall = ended[0] - start
        speed = PROBE_REF_S / ((before + probe()) / 2)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        stderr = err.read_text(encoding="utf-8", errors="replace")
        out.unlink()
        err.unlink()
        return Call(kind, wall, code, stdout, stderr, usage.ru_maxrss / 1024.0, speed)

    def destx(self, kind: str, *args: str) -> Call:
        return self.run(kind, ["-m", "destx", kind, *args])

    def traced(self, kind: str, spans_out: Path, *args: str) -> Call:
        return self.run(kind, [str(HERE / "traced.py"), str(spans_out), kind, *args], STOP_GRACE_S)


def write_inputs(jobs: list[Job], where: Path) -> str:
    """Write every job's plant and pairs file; return a digest of the bytes."""
    where.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for job in jobs:
        for suffix, text in ((".des", job.des), (".pairs", job.pairs)):
            data = text.encode("utf-8")
            (where / f"{job.name}{suffix}").write_bytes(data)
            digest.update(job.name.encode() + suffix.encode() + data)
    return digest.hexdigest()


def setup(runner: Runner, workload: str, seed: int, inputs: Path) -> tuple[float, str]:
    """Generate and write the seed's inputs, then import destx cold in a child.

    Returns the time at the reference speed and a digest of the inputs."""
    start = time.perf_counter()
    digest = write_inputs(jobs_for(workload, seed), inputs)
    written = time.perf_counter() - start
    call = runner.run("import", ["-c", "import destx; print(destx.__file__)"])
    if call.code != 0:
        raise BenchError(f"cannot import destx from {ROOT / 'src'}: {call.stderr.strip()}")
    if Path(call.stdout.strip()).resolve().parent != (ROOT / "src" / "destx").resolve():
        raise BenchError(f"destx was imported from {call.stdout.strip()}, not from this checkout")
    return (written + call.wall) * call.speed, digest


def check_call(call: Call, problems: list[str]) -> None:
    if call.code is not None and call.code not in DOCUMENTED_EXITS:
        problems.append(f"{call.kind} exited {call.code}")
    if "Traceback" in call.stderr:
        problems.append(f"{call.kind} printed a traceback")
    if call.code == 2:
        problems.append(f"{call.kind} rejected a generated input: {call.stderr.strip()}")


def frozen_problems(job: Job, call: Call, policy: Path) -> list[str]:
    expected = dict(job.frozen).get(call.kind)
    if expected is None:
        return []
    expected = expected.replace("POLICY", str(policy))
    if call.stdout != expected:
        return [f"{call.kind} output differs from the README: {call.stdout!r}"]
    return []


def run_job(runner: Runner, job: Job, inputs: Path, first_round: bool, trace: bool) -> Outcome:
    """Run one job's calls in order and classify the outcome.

    A job is undecided when a call hit the time limit or exited 3.  It is
    wrong when the replay finds a merged pair, verify prints FAIL,
    oracle-maxs reports a mismatch, a call exits outside {0,2,3,4,5} or
    prints a traceback, or the running example's output differs from the
    README.  A wrong outcome is expected only for the known ring(n,1)
    defect, and only in its documented form; anything else unexpected is
    listed in `problems` and makes the whole run incorrect.
    """
    des, pairs = str(inputs / f"{job.name}.des"), str(inputs / f"{job.name}.pairs")
    policy = inputs / f"{job.name}.policy"
    depth = str(job.depth)
    policy.unlink(missing_ok=True)
    plan = [("synthesize", [des, pairs, str(policy)] + (["--pin-initial", job.pin] if job.pin else []))]
    plan.append(("verify", [des, str(policy), pairs, "--depth", depth]))
    if job.oracle:
        plan.append(("oracle-maxs", [des]))
    out = Outcome("right", [])
    wrong: list[str] = []

    if first_round and job.frozen:
        call = runner.destx("build-observer", des)
        out.once_s = call.wall
        check_call(call, out.problems)
        out.problems += frozen_problems(job, call, policy)

    for kind, args in plan:
        if kind == "verify" and not policy.exists():
            continue  # synthesize reported infeasible; there is nothing to verify
        call = runner.destx(kind, *args)
        out.calls.append(call)
        check_call(call, out.problems)
        out.problems += frozen_problems(job, call, policy)
        if trace:
            out.traced.append(trace_call(runner, job, kind, args, call, policy, out))
        if call.code is None or call.code == 3:
            out.status = "undecided"
            break
        if kind == "synthesize" and call.code == 0 and not policy.exists():
            out.problems.append("synthesize exited 0 but wrote no policy")
        if kind == "verify" and (call.code == 5) != ("FAIL" in call.stdout):
            out.problems.append(f"verify exit code {call.code} disagrees with its report")
        if kind == "verify" and "FAIL" in call.stdout:
            wrong.append("verify: " + call.stdout.strip().replace("\n", " | "))
        if kind == "oracle-maxs" and (call.code != 0 or "MISMATCH" in call.stdout):
            wrong.append("oracle-maxs: " + call.stdout.strip().splitlines()[-1])

    if out.status != "undecided" and policy.exists():
        try:
            rep = replay(Path(des).read_text("utf-8"), policy.read_text("utf-8"), Path(pairs).read_text("utf-8"), job.depth)
        except ReplayError as exc:
            out.problems.append(f"replay: {exc}")
        else:
            out.tally = (rep.transmitted, rep.events)
            if rep.violation is not None:
                wrong.append("replay merges a pair after " + " ".join(rep.violation))
            if job.tally is not None and out.tally != job.tally:
                out.problems.append(f"replay counts {out.tally}, expected {job.tally}")
    if out.problems:
        wrong += out.problems
    if wrong and out.status != "undecided":
        out.status = "wrong"
        out.known_defect = is_known_defect(job, out, wrong)
        if not out.known_defect and not out.problems:
            out.problems += wrong
    return out


def is_known_defect(job: Job, out: Outcome, wrong: list[str]) -> bool:
    """The ring(n,1) policy with the pair (q0, q[n//2]) merges that pair:
    synthesize succeeds, PROP1 and THM1 pass, PROBLEM1 fails on e^n, and the
    replay agrees that some word merges the pair."""
    if job.defect_word is None or out.problems:
        return False
    verify = next((c for c in out.calls if c.kind == "verify"), None)
    if verify is None or verify.code != 5:
        return False
    lines = verify.stdout.splitlines()
    return (
        len(lines) == 3
        and lines[0].startswith("PROP1 ok ")
        and lines[1].startswith("THM1 ok ")
        and lines[2].startswith(f"FAIL PROBLEM1 word={job.defect_word} ")
        and any(w.startswith("replay merges") for w in wrong)
    )


def trace_call(runner: Runner, job: Job, kind: str, args: list[str], plain: Call, policy: Path, out: Outcome) -> Call:
    """Run the same command through traced.py and check it says the same."""
    spans_out = runner.work / "spans.json"
    traced_policy = policy.with_suffix(".traced-policy")
    targs = [str(traced_policy) if a == str(policy) and kind == "synthesize" else a for a in args]
    call = runner.traced(kind, spans_out, *targs)
    if spans_out.exists():
        record = json.loads(spans_out.read_text("utf-8"))
        spans_out.unlink()
    else:  # killed after ignoring SIGTERM for STOP_GRACE_S
        record = {"spans": [], "counters": {}}
    for span in record["spans"]:
        # spans of one job share its name; `parent` indexes the same call's spans
        span["job"], span["call"] = job.name, runner.serial
        seconds = (span["end"] - span["start"]) * call.speed
        out.layers[span["name"]] = out.layers.get(span["name"], 0.0) + seconds
    for name, value in record["counters"].items():
        out.layers[name] = out.layers.get(name, 0.0) + value
    out.spans += record["spans"]
    if plain.code is not None and call.code is not None:
        same = call.code == plain.code and call.stdout.replace(str(traced_policy), str(policy)) == plain.stdout
        if kind == "synthesize" and plain.code == 0:
            same = same and traced_policy.read_bytes() == policy.read_bytes()
        if not same:
            out.problems.append(f"traced {kind} differs from the command line tool")
    traced_policy.unlink(missing_ok=True)
    return call


def median_sum(rounds: list[dict[str, dict[str, float]]], key: str) -> float:
    """Sum over jobs of each job's median over rounds."""
    per_job: dict[str, list[float]] = {}
    for rnd in rounds:
        for job, values in rnd.items():
            if key in values:
                per_job.setdefault(job, []).append(values[key])
    return sum(statistics.median(v) for v in per_job.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "destx" / "__init__.py").is_file():
        print(f"error: no destx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work)
    inputs = work / "inputs"
    try:
        setups = [setup(runner, args.workload, args.seed, inputs) for _ in range(SETUPS)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs = jobs_for(args.workload, args.seed)
    deterministic = len({digest for _s, digest in setups}) == 1

    rounds: list[dict[str, Outcome]] = []
    stuck: dict[str, Outcome] = {}  # undecided jobs are not retried within a run
    start = time.perf_counter()
    estimate = 0.0
    while not rounds or time.perf_counter() - start + estimate <= args.seconds:
        # the next round repeats this one minus the calls it will not repeat
        t0 = time.perf_counter()
        once = 0.0
        rnd = {}
        for job in jobs:
            if job.name in stuck:
                rnd[job.name] = stuck[job.name]
                continue
            outcome = run_job(runner, job, inputs, not rounds, bool(args.trace))
            once += outcome.once_s
            if outcome.status == "undecided":
                stuck[job.name] = outcome
                once += sum(c.wall for c in outcome.calls + outcome.traced)
            rnd[job.name] = outcome
            label = "known defect" if outcome.known_defect else outcome.status
            times = " ".join(f"{c.kind}={c.seconds:.3f}s/{c.code}" for c in outcome.calls)
            print(f"round {len(rounds) + 1} {job.name}: {label} {times}", flush=True)
            for p in outcome.problems:
                print(f"  problem: {p}", flush=True)
        rounds.append(rnd)
        estimate = time.perf_counter() - t0 - once

    outcomes = [o for rnd in rounds for o in rnd.values()]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    correct = deterministic and failed == 0
    counts = {s: sum(o.status == s for o in outcomes) for s in ("right", "wrong", "undecided")}
    known = sum(o.known_defect for o in outcomes)
    print(f"jobs attempted {attempted}: right {counts['right']}, wrong {counts['wrong']} "
          f"({known} the known defect), undecided {counts['undecided']}, unexpected {failed}")

    if args.trace:
        metrics = layer_metrics(rounds)
        write_spans(args.workload, args.seed, rounds)
    else:
        metrics = end_to_end_metrics(rounds, [s for s, _d in setups])
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    if not deterministic:
        print("problem: one seed produced different input bytes across set-ups")
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        work.parent.rmdir()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def call_times(rnd: dict[str, Outcome], traced: bool = False) -> dict[str, dict[str, float]]:
    out = {}
    for job, o in rnd.items():
        values: dict[str, float] = {}
        for c in o.traced if traced else o.calls:
            values[c.kind] = values.get(c.kind, 0.0) + c.seconds
            values["total"] = values.get("total", 0.0) + c.seconds
        out[job] = values
    return out


def end_to_end_metrics(rounds: list[dict[str, Outcome]], setups: list[float]) -> dict:
    times = [call_times(r) for r in rounds]
    outcomes = [o for rnd in rounds for o in rnd.values()]
    tallies = [o.tally for o in rounds[0].values() if o.tally is not None]
    rss = [max((c.rss_mb for o in rnd.values() for c in o.calls if c.code is not None), default=0.0) for rnd in rounds]
    values = {
        "setup_s": statistics.median(setups),
        "synth_s": median_sum(times, "synthesize"),
        "verify_s": median_sum(times, "verify"),
        "oracle_s": median_sum(times, "oracle-maxs"),
        "decided_frac": sum(o.status != "undecided" for o in outcomes) / len(outcomes),
        "right_frac": sum(o.status != "wrong" for o in outcomes) / len(outcomes),
        "tx_ratio": sum(t for t, _e in tallies) / max(1, sum(e for _t, e in tallies)),
        "peak_rss_mb": statistics.median(rss),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(rounds: list[dict[str, Outcome]]) -> dict:
    layers = [{job: o.layers for job, o in rnd.items()} for rnd in rounds]
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        out[name] = {"value": median_sum(layers, source), "unit": unit}
    states = out["observer.states"]["value"]
    out["synthesis.survivor_ratio"] = {
        "value": out["synthesis.gstar_states"]["value"] / states if states else 0.0,
        "unit": "ratio",
    }
    traced = median_sum([call_times(r, traced=True) for r in rounds], "total")
    plain = median_sum([call_times(r) for r in rounds], "total")
    out["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    return out


def write_spans(workload: str, seed: int, rounds: list[dict[str, Outcome]]) -> None:
    spans = []
    seen = set()  # an undecided job's outcome stands in for later rounds
    for i, rnd in enumerate(rounds, start=1):
        for o in rnd.values():
            if id(o) not in seen:
                seen.add(id(o))
                spans += [dict(s, round=i) for s in o.spans]
    dest = ROOT / ".perfbench_out" / f"spans-{workload}-{seed}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
