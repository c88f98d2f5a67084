"""Independent verdict on a written policy, from the file texts alone.

This module shares no code with destx.  It parses the `.des`, `.pairs` and
`.policy` texts itself, walks every plant word up to the depth next to the
policy, and computes what the receiver can know after each word: the set of
plant states reachable by any plant word with the same transmitted
projection, of any length.  That set is computed exactly, by closing the
plant-policy product under suppressed moves between transmitted events, so
no slack bound on suppressed continuations is needed.
"""

from __future__ import annotations

from dataclasses import dataclass


class ReplayError(Exception):
    """The policy text does not describe a complete policy for the plant."""


def _lines(text: str):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            yield line


def parse_plant(text: str):
    initial = None
    trans: dict[tuple[str, str], str] = {}
    for kw, *rest in _lines(text):
        if kw == "initial":
            initial = rest[0]
        elif kw == "trans":
            trans[(rest[0], rest[1])] = rest[2]
    return initial, trans


def parse_pairs(text: str) -> list[tuple[str, str]]:
    return [(rest[0], rest[1]) for kw, *rest in _lines(text) if kw == "pair"]


def parse_policy(text: str):
    initial = None
    label: dict[tuple[str, str], str] = {}
    trans: dict[tuple[str, str], str] = {}
    for kw, *rest in _lines(text):
        if kw == "initial":
            initial = rest[0]
        elif kw == "label":
            label[(rest[0], rest[1])] = rest[2]
        elif kw == "trans":
            trans[(rest[0], rest[1])] = rest[2]
    if initial is None:
        raise ReplayError("policy has no initial line")
    return initial, label, trans


@dataclass
class Replay:
    events: int
    transmitted: int
    violation: tuple[str, ...] | None  # first word, shortest then lexicographic


def replay(des: str, policy: str, pairs: str, depth: int) -> Replay:
    q0, ptrans = parse_plant(des)
    x0, label, xtrans = parse_policy(policy)
    bad = parse_pairs(pairs)
    events_at: dict[str, list[str]] = {}
    for q, e in sorted(ptrans):
        events_at.setdefault(q, []).append(e)

    def move(pos, e):
        q, x = pos
        lab = label.get((x, e))
        nxt = xtrans.get((x, e))
        if lab not in ("Y", "N") or nxt is None:
            raise ReplayError(f"policy state {x} has no decision or successor for {e}")
        return lab == "Y", (ptrans[(q, e)], nxt)

    def close(seeds) -> frozenset:
        seen = set(seeds)
        work = list(seeds)
        while work:
            pos = work.pop()
            for e in events_at.get(pos[0], ()):
                sent, nxt = move(pos, e)
                if not sent and nxt not in seen:
                    seen.add(nxt)
                    work.append(nxt)
        return frozenset(seen)

    after: dict[tuple[frozenset, str], frozenset] = {}

    def observe(est: frozenset, e: str) -> frozenset:
        key = (est, e)
        hit = after.get(key)
        if hit is None:
            moved = set()
            for pos in est:
                if e in events_at.get(pos[0], ()):
                    sent, nxt = move(pos, e)
                    if sent:
                        moved.add(nxt)
            hit = after[key] = close(moved)
        return hit

    def violates(est: frozenset) -> bool:
        states = {q for q, _x in est}
        return any(a in states and b in states for a, b in bad)

    start = (q0, x0)
    layer = [((), start, close([start]), 0)]
    out = Replay(events=0, transmitted=0, violation=None)
    for length in range(depth + 1):
        nxt_layer = []
        for w, pos, est, sent_count in layer:
            out.events += length
            out.transmitted += sent_count
            if out.violation is None and violates(est):
                out.violation = w
            if length == depth:
                continue
            for e in events_at.get(pos[0], ()):
                sent, pos2 = move(pos, e)
                est2 = observe(est, e) if sent else est
                nxt_layer.append((w + (e,), pos2, est2, sent_count + sent))
        layer = nxt_layer
    return out
