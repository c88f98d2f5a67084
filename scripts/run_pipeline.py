#!/usr/bin/env python3
"""End-to-end demo on the bundled running example.

Calls the route of `destx synthesize`, `destx.synthesize`: it builds the
labeled system carrying the distinguishability property and its dynamic
observer, which holds only estimates that keep the property, closes it
under consistency, extracts a minimum-transmission schedule and realizes it
as a policy.  Prints the size of each stage's result, then verifies the
policy with the checks of `destx verify`, `destx.verify`.  Exits as `destx`
does: 0 success, 2 bad input, 3 instance too large, 4 infeasible, 5 a
failed check.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from destx import distinguishability, format_policy, load_pairs, load_plant, synthesize, verify
from destx.cli import exit_code

DATA = Path(__file__).resolve().parent.parent / "data"


def run(args) -> int:
    t0 = time.monotonic()
    plant = load_plant(args.plant)
    prop = distinguishability(load_pairs(args.pairs), plant)
    print(f"plant: {len(plant.states)} states, {len(plant.alphabet)} events")

    obs, gstar, sched, policy = synthesize(plant, prop)
    versions = sum(len(obs.sys.versions_of(q)) for q in plant.reach([plant.initial]))
    print(f"labeled system: {versions} states")
    print(f"observer: {len(obs.states)} states, {obs.transition_count} transitions")
    print(f"pruned: {len(obs.states)} -> {len(gstar.states)} states after consistency")
    print(f"deterministic sub-automata: {len(gstar.initials)}")
    print(f"schedule root: {sched.initial.render()} ({len(sched.states)} states)")
    print(f"policy: initial {policy.initial.render()}, {len(policy.states)} states")
    if args.out is not None:
        args.out.write_text(format_policy(policy))
        print(f"wrote {args.out}")

    # each report comes as its walk ends, so PROP1's line prints before THM1 and PROBLEM1 run their one walk
    for report in verify(plant, policy, prop, args.depth):
        print(report.line())
        if not report.ok:
            return 5

    words = plant.words_upto(args.depth)
    total = sum(len(policy.projection(s)) for s in words)
    full = sum(map(len, words))
    print(f"transmissions over words to depth {args.depth}: {total} of {full}")
    print(f"done in {time.monotonic() - t0:.2f}s")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--plant", type=Path, default=DATA / "running_example.des")
    ap.add_argument("--pairs", type=Path, default=DATA / "distinguish.pairs")
    ap.add_argument("--depth", type=int, default=6)
    ap.add_argument("--out", type=Path, default=None, help="write realized policy here")
    return exit_code(run, ap.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
