"""Finite-automaton core: deterministic plants and words.

A plant is a deterministic automaton with a partial transition function;
absence of an entry means the move is undefined, there are no sink states.
Event and state identifiers are plain strings and every canonical order used
by the toolkit is the lexicographic order on those strings.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import DestxError, StateBudgetExceeded

Word = tuple[str, ...]
EPSILON: Word = ()

# The one limit on a run's size: observer states, unions and range sets
# while building estimates, and the entries, PROP1 unions and brute-force
# memo policy states of each check.
DEFAULT_BUDGET = 100_000


def word(text: str) -> Word:
    """Split a whitespace-separated trace into a word."""
    return tuple(text.split())


def render_word(w: Iterable[str]) -> str:
    w = tuple(w)
    return " ".join(w) if w else "ε"


def read_input(path) -> str:
    """Text of an input file; a file that is not UTF-8 is a DestxError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DestxError(f"{path}: not valid UTF-8 ({exc.reason})") from None


def records(text: str):
    """The lines of an input file that hold a token, each as (line number,
    raw line, keyword, arguments): `#` starts a comment, blank lines are
    skipped, and the first token is the keyword."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, raw, tokens[0], tokens[1:]


class Plant:
    """Deterministic plant with a partial transition map.

    Immutable after construction; all views returned to callers are
    frozen or freshly built.
    """

    def __init__(
        self,
        states: Iterable[str],
        alphabet: Iterable[str],
        trans: Mapping[tuple[str, str], str],
        initial: str,
    ):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.initial = initial
        self._trans = dict(trans)
        if not self.states:
            raise DestxError("a plant needs at least one state")
        if initial not in self.states:
            raise DestxError(f"initial state {initial!r} is not a declared state")
        defined: dict[str, list[str]] = {q: [] for q in self.states}
        for (q, e), p in self._trans.items():
            if q not in self.states or p not in self.states:
                raise DestxError(f"transition ({q},{e},{p}) uses an undeclared state")
            if e not in self.alphabet:
                raise DestxError(f"transition ({q},{e},{p}) uses an undeclared event")
            defined[q].append(e)
        self._defined = {q: frozenset(es) for q, es in defined.items()}

    def step(self, q: str, e: str) -> str | None:
        """Successor of `q` under `e`, or None when the move is undefined."""
        return self._trans.get((q, e))

    def defined_events(self, q: str) -> frozenset[str]:
        return self._defined[q]

    def reach(self, states: Iterable[str]) -> frozenset[str]:
        """The states reachable from `states` by any events, those included."""
        trans = self._trans
        return frozenset(explore(states, self.alphabet, lambda q, e: (trans[(q, e)],) if (q, e) in trans else ())[0])

    def words_upto(self, depth: int) -> list[Word]:
        """All generated words of length at most `depth` in shortlex order,
        the empty word first: one `shortlex_levels` key per word."""

        def successors(key):
            w, q = key
            return ((e, (w + (e,), self._trans[(q, e)])) for e in sorted(self._defined[q]))

        return [w for _n, level in shortlex_levels((EPSILON, self.initial), depth, successors) for w, _q in level]

    def __repr__(self):
        return f"Plant(states={len(self.states)}, events={len(self.alphabet)}, initial={self.initial!r})"


def explore(roots, alphabet, step, budget: int | None = None):
    """Breadth-first walk from `roots` under `step`, one state at a time,
    events in sorted order.

    `step(z, e)` returns the tuple of successors of z on e, empty when there
    are none.  Returns the states reached, roots first and then in the order
    they were first reached, and the transition table holding every
    non-empty step.  More than `budget` states stop the walk with
    StateBudgetExceeded."""
    events = sorted(alphabet)
    seen = dict.fromkeys(roots)
    work = list(seen)
    trans = {}
    for z in work:
        for e in events:
            targets = step(z, e)
            if not targets:
                continue
            trans[(z, e)] = targets
            for t in targets:
                if t not in seen:
                    seen[t] = None
                    if budget is not None and len(seen) > budget:
                        raise StateBudgetExceeded(f"observer exceeded {budget} states")
                    work.append(t)
    return tuple(seen), trans


def shortlex_levels(root, depth: int, successors):
    """The words of length <= `depth` from `root`, one level per length,
    grouped by a key that alone decides how a word continues.

    `successors(key)` yields the pairs (event, next key) in sorted event
    order.  For each length n this yields `(n, {key: (first, count)})`:
    `first` is the shortlex-first of the `count` words of length n reaching
    the key.  Keys come in the order of their first words, so the first key
    with some property holds the shortlex-first word with it.  A level is
    built only after the caller has consumed the previous one, and the walk
    stops at the first empty level."""
    level = {root: ((), 1)}
    for n in range(depth + 1):
        yield n, level
        if n == depth:
            return
        nxt: dict = {}
        for key, (w, count) in level.items():
            for e, key2 in successors(key):
                first, total = nxt.get(key2, (w + (e,), 0))
                nxt[key2] = (first, total + count)
        if not nxt:
            return
        level = nxt


# ---------------------------------------------------------------------------
# plant text format
#
#   alphabet <e1> <e2> ...
#   states   <q1> <q2> ...
#   initial  <q>
#   trans    <src> <event> <dst>
#
# Read by `records`; any other keyword is an error.
# ---------------------------------------------------------------------------

def parse_des(text: str) -> Plant:
    alphabet: list[str] = []
    states: list[str] = []
    initial: str | None = None
    trans: dict[tuple[str, str], str] = {}
    for lineno, _raw, kw, rest in records(text):
        if kw == "alphabet":
            alphabet.extend(rest)
        elif kw == "states":
            states.extend(rest)
        elif kw == "initial":
            if len(rest) != 1:
                raise DestxError(f"line {lineno}: initial takes exactly one state")
            if initial is not None:
                raise DestxError(f"line {lineno}: duplicate initial line")
            initial = rest[0]
        elif kw == "trans":
            if len(rest) != 3:
                raise DestxError(f"line {lineno}: trans takes source, event, target")
            src, e, dst = rest
            if (src, e) in trans:
                raise DestxError(f"line {lineno}: duplicate transition for ({src},{e})")
            trans[(src, e)] = dst
        else:
            raise DestxError(f"line {lineno}: unknown keyword {kw!r}")
    if initial is None:
        raise DestxError("missing initial line")
    return Plant(states, alphabet, trans, initial)


def load_plant(path: str) -> Plant:
    return parse_des(read_input(path))
