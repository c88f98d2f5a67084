#!/usr/bin/env python3
"""Run the exhaustive small-scope corpus (`tests/smallscope.py`): every
3-state, 2-event plant in which the initial state reaches every state, with
each of its pairs, 4,896 cases.  Each case is synthesized in process by
`destx.synthesize`, the route of `destx synthesize`, and its policy is
checked by PROP1 at depth 6 and by an exact PROBLEM1.  Prints one line:

    cases N decided D unsound U prop1-fail F

where a case is decided when synthesis ends feasible or infeasible within
the default budget, unsound when its policy fails the exact PROBLEM1, and
a PROP1 failure when its policy fails PROP1.

    python3 scripts/smallscope.py [--every K]

`--every K` runs every K-th case only, the first included.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from destx import Infeasible, InstanceTooLarge, check_tracker_containment  # noqa: E402
from smallscope import corpus, sound, synthesize  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--every", type=int, default=1, help="run every K-th case (default: all)")
    args = ap.parse_args()
    if args.every < 1:
        ap.error("--every must be at least 1")
    cases = decided = unsound = prop1_fail = 0
    for i, (plant, pair) in enumerate(corpus()):
        if i % args.every:
            continue
        cases += 1
        try:
            prop, policy = synthesize(plant, pair)
        except Infeasible:
            decided += 1
            continue
        except InstanceTooLarge:
            continue
        decided += 1
        unsound += not sound(policy, prop)
        prop1_fail += not check_tracker_containment(plant, policy, 6).ok
    print(f"cases {cases} decided {decided} unsound {unsound} prop1-fail {prop1_fail}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
