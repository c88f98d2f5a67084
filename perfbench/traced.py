"""One destx command, run in-process with spans around every layer call.

Usage: traced.py SPANS_OUT COMMAND ARGS...  where COMMAND and ARGS are those
of `python -m destx` for synthesize, verify and oracle-maxs.  The calls are
made in the same order and on the same objects as `destx.cli`, so caches
filled by one layer are read by the next exactly as in the command line
tool; the few extra calls that only feed counters come after the calls they
mirror or touch no shared state.  Prints what the command line tool prints.
Spans and counters stay in memory and are written to SPANS_OUT as JSON when
the command ends, also when it is stopped by SIGTERM at the time limit.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from contextlib import contextmanager

from destx.automata import load_plant
from destx.cli import _resolve_budget, build_parser
from destx.errors import (
    AlphabetTooLarge,
    DestxError,
    Infeasible,
    InstanceTooLarge,
    StateBudgetExceeded,
)
from destx.estimation import (
    Estimator,
    check_estimate_agreement,
    check_property_satisfaction,
    check_tracker_containment,
)
from destx.labeled import build_labeled_system, parse_labeled
from destx.observer import build_observer, closure_family, closure_family_bruteforce
from destx.properties import distinguishability, load_pairs
from destx.realization import format_policy, load_policy, realize_policy
from destx.synthesis import consistency_fixpoint, extract_min_transmit, prune_violating


class Stopped(BaseException):
    """Raised from the SIGTERM handler so open spans are closed on the way out."""


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "complete": False,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
            rec["complete"] = True
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counters[name] = value


def synthesize(args, t: Tracer) -> int:
    with t.span("automata.load"):
        plant = load_plant(args.plant)
    with t.span("properties.load"):
        spec = load_pairs(args.pairs)
        prop = distinguishability(spec, plant)
    with t.span("labeled.build"):
        sysd = build_labeled_system(plant)
    t.count("labeled.states", len(sysd.states))
    with t.span("observer.closure_initial"):
        for v in sysd.initials:
            closure_family(sysd, v)
    with t.span("observer.build"):
        obs = build_observer(sysd, state_budget=args.resolved_budget)
    t.count("observer.states", len(obs.states))
    t.count("observer.initials", len(obs.initials))
    t.count("observer.transitions", obs.transition_count)
    with t.span("properties.holds"):
        violating = sum(1 for z in obs.states if not prop.holds(z.underlying()))
    t.count("properties.violating", violating)
    with t.span("synthesis.prune"):
        g0 = prune_violating(obs, prop)
    t.count("synthesis.g0_states", len(g0.states))
    with t.span("synthesis.fixpoint"):
        gstar = consistency_fixpoint(obs, g0)
    t.count("synthesis.gstar_states", len(gstar.states))
    t.count("synthesis.sub_automata", len(gstar.initials))
    pin = None
    if args.pin_initial is not None:
        member = parse_labeled(args.pin_initial, plant)
        candidates = [z for z in gstar.initials if member in z]
        if not candidates:
            raise Infeasible(f"no surviving initial estimate contains {args.pin_initial}")
        pin = candidates[0]
    with t.span("synthesis.extract"):
        sched = extract_min_transmit(gstar, pin_initial=pin, nz_mode=args.nz_mode)
    t.count("synthesis.schedule_states", len(sched.states))
    with t.span("realization.realize"):
        policy = realize_policy(sysd, sched)
    t.count("realization.policy_states", len(policy.states))
    with t.span("realization.format"):
        text = format_policy(policy)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("feasible")
    print(f"root {sched.initial.render()}")
    print(f"policy-states {len(policy.states)}")
    print(f"policy {args.out}")
    return 0


def verify(args, t: Tracer) -> int:
    with t.span("automata.load"):
        plant = load_plant(args.plant)
    with t.span("realization.load"):
        policy = load_policy(args.policy, plant)
    with t.span("properties.load"):
        spec = load_pairs(args.pairs)
        prop = distinguishability(spec, plant)
    reports = []
    for name, check in (
        ("prop1", lambda: check_tracker_containment(plant, policy, args.depth, args.resolved_budget)),
        ("thm1", lambda: check_estimate_agreement(plant, policy, args.depth)),
        ("problem1", lambda: check_property_satisfaction(plant, policy, prop, args.depth)),
    ):
        with t.span(f"estimation.{name}"):
            report = check()
        t.count(f"estimation.{name}_words", report.words)
        reports.append(report)
    with t.span("automata.words_upto"):
        t.count("automata.words", len(plant.words_upto(args.depth)))
    with t.span("estimation.tracker"):
        est = Estimator(build_labeled_system(plant), policy)
    t.count("estimation.tracker_states", len(est.states))
    for r in reports:
        print(r.line())
    return 0 if all(r.ok for r in reports) else 5


def oracle_maxs(args, t: Tracer) -> int:
    with t.span("automata.load"):
        plant = load_plant(args.plant)
    with t.span("labeled.build"):
        sysd = build_labeled_system(plant)
    mismatches = 0
    with t.span("observer.oracle"):
        for seed in sysd.states:
            fast = set(closure_family(sysd, seed))
            brute = set(closure_family_bruteforce(sysd, seed))
            if fast != brute:
                mismatches += 1
                only_fast = sorted(z.render() for z in fast - brute)
                only_brute = sorted(z.render() for z in brute - fast)
                print(f"MISMATCH seed={seed.render()} only-fast={only_fast} only-brute={only_brute}")
    t.count("observer.oracle_seeds", len(sysd.states))
    t.count("observer.oracle_mismatches", mismatches)
    print(f"seeds {len(sysd.states)} mismatches {mismatches}")
    return 0 if mismatches == 0 else 5


COMMANDS = {"synthesize": synthesize, "verify": verify, "oracle-maxs": oracle_maxs}


def run(argv: list[str], t: Tracer) -> int:
    """Same argument parsing and exit-code mapping as destx.cli.main."""
    args = build_parser().parse_args(argv)
    args.resolved_budget = _resolve_budget(getattr(args, "budget", None))
    with t.span(f"cli.{args.command}"):
        try:
            return COMMANDS[args.command](args, t)
        except (StateBudgetExceeded, InstanceTooLarge, AlphabetTooLarge) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except Infeasible as exc:
            print("infeasible")
            print(f"error: {exc}", file=sys.stderr)
            return 4
        except (OSError, DestxError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


def _stop(_signum, _frame):
    raise Stopped()


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    signal.signal(signal.SIGTERM, _stop)
    code = 124
    try:
        code = run(argv, tracer)
    except Stopped:
        pass
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
