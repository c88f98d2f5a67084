"""Command-line frontend.

Commands mirror the pipeline stages: build the estimate observer, run the
synthesis to a policy file, verify a policy at bounded depth, replay a
trace, and cross-check the closure computation against its brute-force
oracle.  Exit codes: 0 success, 2 bad input, 3 instance too large,
4 infeasible, 5 verification failure.
"""

from __future__ import annotations

import argparse
import sys as _sys

from .automata import DEFAULT_BUDGET, load_plant, word
from .errors import (
    AlphabetTooLarge,
    DestxError,
    Infeasible,
    InstanceTooLarge,
    StateBudgetExceeded,
)
from .estimation import (
    TraceSession,
    check_estimate_agreement,
    check_property_satisfaction,
    check_tracker_containment,
    _render_states,
)
from .labeled import build_labeled_system, parse_labeled
from .observer import build_observer, closure_family, closure_family_bruteforce
from .properties import distinguishability, load_pairs
from .realization import format_policy, load_policy, realize_policy
from .synthesis import consistency_fixpoint, extract_min_transmit

DEFAULT_DEPTH = 6


def _resolve_budget(flag_value: int | None) -> int:
    return DEFAULT_BUDGET if flag_value is None else flag_value


def _compact(w) -> str:
    return ",".join(w) if w else "ε"


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="destx", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, depth=False):
        sp.add_argument(
            "--budget", type=int, default=None,
            help="cap on observer states and on the set unions and range sets of each estimate step "
            "and closure family or, "
            "in verify, on the entries of each check's walk, the set unions of PROP1's test of one entry "
            "and the brute-force estimate-table triples "
            f"(default: {DEFAULT_BUDGET})",
        )
        if depth:
            sp.add_argument("--depth", type=int, default=DEFAULT_DEPTH, help="word-length bound")

    sp = sub.add_parser("build-observer", help="build the estimate observer and print its size")
    sp.add_argument("plant")
    sp.add_argument("--dot", default=None, help="write the observer as a DOT graph")
    common(sp)

    sp = sub.add_parser("synthesize", help="synthesize a transmission policy")
    sp.add_argument("plant")
    sp.add_argument("pairs")
    sp.add_argument("out", help="path of the policy file to write")
    sp.add_argument("--pin-initial", default=None, metavar="LABELED_STATE",
                    help="root the schedule at the surviving initial containing this labeled state")
    sp.add_argument("--nz-mode", choices=("default", "unlabeled"), default="default",
                    help="how suppression counts are taken during extraction")
    common(sp)

    sp = sub.add_parser("verify", help="run the bounded-depth checks against a policy")
    sp.add_argument("plant")
    sp.add_argument("policy")
    sp.add_argument("pairs")
    common(sp, depth=True)

    sp = sub.add_parser("simulate", help="replay a trace and print what the receiver sees")
    sp.add_argument("plant")
    sp.add_argument("policy")
    sp.add_argument("--trace", default="", help="whitespace-separated event sequence")

    sp = sub.add_parser("oracle-maxs", help="diff the closure family against its brute-force oracle")
    sp.add_argument("plant")
    common(sp)
    return p


def cmd_build_observer(args) -> int:
    plant = load_plant(args.plant)
    sysd = build_labeled_system(plant)
    obs = build_observer(sysd, state_budget=args.resolved_budget)
    print(f"states {len(obs.states)}")
    print(f"initials {len(obs.initials)}")
    print(f"transitions {obs.transition_count}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(obs.to_dot())
        print(f"dot {args.dot}")
    return 0


def cmd_synthesize(args) -> int:
    plant = load_plant(args.plant)
    spec = load_pairs(args.pairs)
    prop = distinguishability(spec, plant)
    sysd = build_labeled_system(plant, prop)
    obs = build_observer(sysd, state_budget=args.resolved_budget)
    gstar = consistency_fixpoint(obs, obs)
    pin = None
    if args.pin_initial is not None:
        member = parse_labeled(args.pin_initial, plant)
        candidates = [z for z in gstar.initials if member in z]
        if not candidates:
            raise Infeasible(f"no surviving initial estimate contains {args.pin_initial}")
        pin = candidates[0]
    sched = extract_min_transmit(gstar, pin_initial=pin, nz_mode=args.nz_mode)
    policy = realize_policy(sysd, sched)
    text = format_policy(policy)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print("feasible")
    print(f"root {sched.initial.render()}")
    print(f"policy-states {len(policy.states)}")
    print(f"policy {args.out}")
    return 0


def cmd_verify(args) -> int:
    plant = load_plant(args.plant)
    policy = load_policy(args.policy, plant)
    spec = load_pairs(args.pairs)
    prop = distinguishability(spec, plant)
    reports = [
        check_tracker_containment(plant, policy, args.depth, args.resolved_budget),
        check_estimate_agreement(plant, policy, args.depth, args.resolved_budget),
        check_property_satisfaction(plant, policy, prop, args.depth, args.resolved_budget),
    ]
    for r in reports:
        print(r.line())
    return 0 if all(r.ok for r in reports) else 5


def cmd_simulate(args) -> int:
    plant = load_plant(args.plant)
    policy = load_policy(args.policy, plant)
    session = TraceSession(plant, policy)
    print(f"initial estimate={_render_states(session.estimate)}")
    for i, e in enumerate(word(args.trace), start=1):
        sent, estimate = session.step(e)
        sent_mark = "Y" if sent else "N"
        print(
            f"{i} {e} sent={sent_mark} proj={_compact(session.observed)} "
            f"estimate={_render_states(estimate)}"
        )
    return 0


def cmd_oracle_maxs(args) -> int:
    plant = load_plant(args.plant)
    sysd = build_labeled_system(plant)
    mismatches = 0
    for seed in sysd.states:
        fast = set(closure_family(sysd, seed, args.resolved_budget))
        brute = set(closure_family_bruteforce(sysd, seed))
        if fast != brute:
            mismatches += 1
            only_fast = sorted(z.render() for z in fast - brute)
            only_brute = sorted(z.render() for z in brute - fast)
            print(f"MISMATCH seed={seed.render()} only-fast={only_fast} only-brute={only_brute}")
    print(f"seeds {len(sysd.states)} mismatches {mismatches}")
    return 0 if mismatches == 0 else 5


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.resolved_budget = _resolve_budget(getattr(args, "budget", None))
        depth = getattr(args, "depth", DEFAULT_DEPTH)
        if not 0 <= depth <= 32:
            raise DestxError(f"depth must be between 0 and 32, got {depth}")
        if args.resolved_budget < 1:
            raise DestxError(f"budget must be at least 1, got {args.resolved_budget}")
        handler = {
            "build-observer": cmd_build_observer,
            "synthesize": cmd_synthesize,
            "verify": cmd_verify,
            "simulate": cmd_simulate,
            "oracle-maxs": cmd_oracle_maxs,
        }[args.command]
        return handler(args)
    except (StateBudgetExceeded, InstanceTooLarge, AlphabetTooLarge) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3
    except Infeasible as exc:
        print("infeasible")
        print(f"error: {exc}", file=_sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2
    except DestxError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
