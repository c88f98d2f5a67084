"""Seeded job sets for the benchmark workloads.

A job is one plant with one pairs file: `destx synthesize`, then `destx verify`
on the written policy, and for some jobs `destx oracle-maxs` on the plant.
The seed relabels states and events, picks the pairs among structurally
equivalent choices, and draws the random plants; destx only ever sees the
text this module produces.  Plant shapes are fixed per workload so that the
seed moves names and tie-breaks, not the amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """A plant before naming: states 0..n-1, events 0..k-1, initial state 0."""

    n: int
    k: int
    trans: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Job:
    name: str
    des: str
    pairs: str
    depth: int
    oracle: bool = False
    pin: str | None = None
    # exact stdout expected per command, for the README's running example
    frozen: tuple[tuple[str, str], ...] = ()
    # (transmitted, events) the replay must count, for the running example
    tally: tuple[int, int] | None = None
    # the known ring(n,1) soundness defect: the word verify must name
    defect_word: str | None = None


RUNNING_EXAMPLE = """\
alphabet σ1 σ2 σ3
states q0 q1 q2 q3 q4 q5
initial q0
trans q0 σ1 q5
trans q0 σ2 q1
trans q0 σ3 q3
trans q1 σ2 q2
trans q2 σ1 q1
trans q3 σ2 q4
trans q4 σ3 q4
"""

RUNNING_PAIRS = "".join(
    f"pair {a} {b}\n"
    for a in ("q0", "q1", "q3", "q5")
    for b in ("q2", "q4")
)

# stdout of the README's command-line examples; POLICY stands for the path
RUNNING_FROZEN = (
    ("build-observer", "states 101\ninitials 60\ntransitions 665\n"),
    ("synthesize", "feasible\nroot (q0NNY,q1Y,q5)\npolicy-states 6\npolicy POLICY\n"),
    ("verify", "PROP1 ok words=9 depth=6\nTHM1 ok words=14 depth=6\nPROBLEM1 ok words=14 depth=6\n"),
    ("oracle-maxs", "seeds 17 mismatches 0\n"),
)


def ring(n: int, k: int) -> Shape:
    """States 0..n-1, event j moves state i to (i+j+1) mod n."""
    return Shape(n, k, tuple((i, j, (i + j + 1) % n) for i in range(n) for j in range(k)))


class Namer:
    """Seeded renaming of a shape's states and events."""

    def __init__(self, rng: random.Random, shape: Shape):
        self.states = [f"q{v}" for v in rng.sample(range(10, 100), shape.n)]
        self.events = rng.sample("abcdefghijklmnopqrstuvwxyz", shape.k)
        self.shape = shape

    def des(self) -> str:
        s = self.shape
        lines = [
            "alphabet " + " ".join(self.events),
            "states " + " ".join(self.states),
            f"initial {self.states[0]}",
        ]
        lines += [f"trans {self.states[a]} {self.events[e]} {self.states[b]}" for a, e, b in s.trans]
        return "\n".join(lines) + "\n"

    def pairs(self, pairs, rng: random.Random) -> str:
        out = []
        for a, b in pairs:
            a, b = self.states[a], self.states[b]
            out.append(f"pair {a} {b}\n" if rng.random() < 0.5 else f"pair {b} {a}\n")
        return "".join(out)


def _job(rng, name, shape, pairs, depth, oracle=False, defect=False) -> Job:
    nm = Namer(rng, shape)
    word = " ".join([nm.events[0]] * depth) if defect else None
    return Job(name, nm.des(), nm.pairs(pairs, rng), depth, oracle=oracle, defect_word=word)


def _dense2(dense: int, same: bool) -> Shape:
    """A strongly connected two-state, two-event plant: the dense state loops
    on event 0 and leaves on event 1, the other state returns on event 0 if
    `same`, else on event 1."""
    other = 1 - dense
    return Shape(2, 2, ((dense, 0, dense), (dense, 1, other), (other, 0 if same else 1, dense)))


def sparse_ring(rng: random.Random) -> list[Job]:
    # ring(n,1) with the pair (q0, q[n//2]) is the known soundness defect:
    # verify at depth n fails PROBLEM1 on e^n.  Offsets 1 and 2 verify clean.
    return [
        _job(rng, "ring6-half", ring(6, 1), [(0, 3)], 6, oracle=True, defect=True),
        _job(rng, "ring16-half", ring(16, 1), [(0, 8)], 16, defect=True),
        _job(rng, "ring16-near", ring(16, 1), [(0, rng.choice((1, 2)))], 16),
    ]


def dense_wall(rng: random.Random) -> list[Job]:
    # the README's pinned example, and the default root that the README's
    # demo script tallies as 21 transmissions of 43 events at depth 6
    pinned = Job(
        "running-example", RUNNING_EXAMPLE, RUNNING_PAIRS, 6, oracle=True,
        pin="q0NNY", frozen=RUNNING_FROZEN,
    )
    default = Job("running-default", RUNNING_EXAMPLE, RUNNING_PAIRS, 6, tally=(21, 43))
    chord = Shape(3, 2, ring(3, 1).trans + ((0, 1, 2),))  # ring(3,1) plus q0 -e1-> q2
    # pair (q0,q1): 102 estimates, 9 survive pruning and 7 the fixpoint; the
    # other pairs verify 5-10% faster or slower, so the pair stays fixed
    jobs = [pinned, default, _job(rng, "chord3", chord, [(0, 1)], 6)]
    # The four shapes of _dense2 up to renaming.  Each has six labeled
    # states and 37-42 estimates.  Shapes drawn at random from all two-state
    # plants range from 3 to 42 estimates and from 0 to 1.2 s of oracle
    # time, which made the workload's cost follow the seed.
    for dense in (0, 1):
        for same in (True, False):
            oracle = dense == 0 and same
            jobs.append(_job(rng, f"dense2-{dense}{'s' if same else 'd'}", _dense2(dense, same), [(0, 1)], 6, oracle=oracle))
    jobs.append(_job(rng, "ring2x2-wall", ring(2, 2), [(0, 1)], 6))
    return jobs


def deep_verify(rng: random.Random) -> list[Job]:
    # one dense state each, so the observers stay small; the cost is the
    # words up to the depth and the brute-force slack on top of them
    fib = Shape(2, 2, ((0, 0, 1), (0, 1, 1), (1, 1, 0)))
    ladder = Shape(3, 2, ((0, 0, 1), (0, 1, 2), (1, 0, 0), (2, 1, 0)))
    # one reachable state with two self-loops; two unreachable states
    # triple the labeled states, and with them the brute-force slack.
    # Only fib gets an oracle run: the oracle's universe grows with the
    # suppressed-reach of every labeled state, reachable or not, and it
    # takes 8 s on ladder and longer on hollow.
    hollow = Shape(3, 2, ((0, 0, 0), (0, 1, 0), (1, 0, 2), (1, 1, 1), (2, 0, 1), (2, 1, 2)))
    return [
        _job(rng, "fib", fib, [(0, 1)], 18, oracle=True),
        _job(rng, "ladder", ladder, [(1, 2)], 18),
        _job(rng, "hollow", hollow, [(0, 1)], 5),
    ]


WORKLOADS = {
    "sparse-ring": sparse_ring,
    "dense-wall": dense_wall,
    "deep-verify": deep_verify,
}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
