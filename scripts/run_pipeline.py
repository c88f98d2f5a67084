#!/usr/bin/env python3
"""End-to-end demo on the bundled running example.

Builds the labeled system and dynamic observer, prunes against the
distinguishability property, extracts a minimum-transmission schedule,
realizes it as a policy, and verifies the result with the brute-force
checkers. Prints a short trace of each stage.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from destx import (
    build_labeled_system,
    build_observer,
    check_estimate_agreement,
    check_property_satisfaction,
    check_tracker_containment,
    consistency_fixpoint,
    distinguishability,
    extract_min_transmit,
    format_policy,
    load_pairs,
    load_plant,
    prune_violating,
    realize_policy,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--plant", type=Path, default=DATA / "running_example.des")
    ap.add_argument("--pairs", type=Path, default=DATA / "distinguish.pairs")
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--out", type=Path, default=None, help="write realized policy here")
    args = ap.parse_args()

    t0 = time.monotonic()
    plant = load_plant(args.plant)
    pairs = load_pairs(args.pairs)
    prop = distinguishability(pairs, plant)
    print(f"plant: {len(plant.states)} states, {len(plant.alphabet)} events")

    sys_ = build_labeled_system(plant)
    print(f"labeled system: {len(sys_.states)} states")

    obs = build_observer(sys_)
    print(f"observer: {len(obs.states)} states, {obs.transition_count} transitions")

    g0 = prune_violating(obs, prop)
    gstar = consistency_fixpoint(obs, g0)
    print(f"pruned: {len(g0.states)} -> {len(gstar.states)} states after consistency")

    print(f"deterministic sub-automata: {len(gstar.initials)}")

    sched = extract_min_transmit(gstar)
    print(f"schedule root: {sched.initial.render()} ({len(sched.states)} states)")

    policy = realize_policy(sys_, sched)
    print(f"policy: initial {policy.initial.render()}, {len(policy.states)} states")
    if args.out is not None:
        args.out.write_text(format_policy(policy))
        print(f"wrote {args.out}")

    for report in (
        check_tracker_containment(plant, policy, depth=args.depth),
        check_estimate_agreement(plant, policy, depth=args.depth),
        check_property_satisfaction(plant, policy, prop, depth=args.depth),
    ):
        print(report.line())
        if not report.ok:
            return 1

    total = sum(
        len(policy.projection(s)) for s in plant.words_upto(args.depth)
    )
    full = sum(len(s) for s in plant.words_upto(args.depth))
    print(f"transmissions over words to depth {args.depth}: {total} of {full}")
    print(f"done in {time.monotonic() - t0:.2f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
