"""Exception types shared across the toolkit."""


class DestxError(Exception):
    """Base class for every toolkit-specific error."""


class ParseError(DestxError):
    """Malformed input text (plant, pair list, policy, or trace)."""


class UndefinedEvent(DestxError):
    """An event was queried at a state where it is not defined."""


class UnknownState(DestxError):
    """A name does not refer to any state of the bound plant."""


class AlphabetTooLarge(DestxError):
    """A state defines more events than the decision-vector bound allows."""


class StateBudgetExceeded(DestxError):
    """A search passed the state budget: observer states, estimate unions,
    the range sets of a closure family, or the run-tree range search."""


class InstanceTooLarge(DestxError):
    """A brute-force check passed its cap: the oracle's 20-state universe,
    the budget of a check's walk over words, or that of the estimate table."""


class Infeasible(DestxError):
    """No transmission schedule satisfies the requested property."""


class UnknownInitial(DestxError):
    """A pinned initial state does not survive synthesis."""


class MissingSuccessor(DestxError):
    """A schedule state offers no successor for a defined plant move."""


class WordNotInPlant(DestxError):
    """A word is not generated by the plant."""


class PolicyIncomplete(DestxError):
    """A replay needed a policy transition that was never defined."""
