"""The information-state property over receiver estimates.

The property maps a set of plant states (the underlying content of an
estimate) to true or false.  It is pairwise distinguishability: an estimate
fails as soon as it contains both states of a forbidden pair, i.e. the
receiver can no longer tell them apart.
"""

from __future__ import annotations

from collections.abc import Iterable

from .automata import Plant, read_input, records
from .errors import DestxError


class DistinguishabilitySpec(frozenset):
    """Pairs of plant states that must never be confused: a frozenset of
    (state, state) tuples.

    Pairs are kept exactly as written; a set of states violates the
    specification when both components of any pair appear in it, so the
    verdict itself is insensitive to pair order.
    """

    __slots__ = ()

    @staticmethod
    def of(pairs: Iterable[tuple[str, str]]) -> "DistinguishabilitySpec":
        return DistinguishabilitySpec((a, b) for a, b in pairs)

    @staticmethod
    def parse(text: str) -> "DistinguishabilitySpec":
        pairs = []
        for ln, raw, kw, rest in records(text):
            if kw != "pair" or len(rest) != 2:
                raise DestxError(f"line {ln}: expected 'pair <state> <state>', got {raw!r}")
            pairs.append((rest[0], rest[1]))
        return DistinguishabilitySpec.of(pairs)

    def holds(self, content: frozenset[str]) -> bool:
        """Whether the set of plant states `content` merges no pair."""
        return not any(a in content and b in content for a, b in self)

    def describe(self, content: frozenset[str]) -> str:
        """Which pairs a violating `content` merges."""
        bad = sorted((a, b) for a, b in self if a in content and b in content)
        culprits = " ".join(f"{a}~{b}" for a, b in bad)
        return f"estimate {{{','.join(sorted(content))}}} merges {culprits}"


def distinguishability(spec: DistinguishabilitySpec, plant: Plant) -> DistinguishabilitySpec:
    """The spec itself, once every state it names is a state of `plant`."""
    for a, b in spec:
        for q in (a, b):
            if q not in plant.states:
                raise DestxError(f"pair mentions unknown state {q!r}")
    return spec


def load_pairs(path) -> DistinguishabilitySpec:
    return DistinguishabilitySpec.parse(read_input(path))
