"""Exception types shared across the toolkit, one family per exit code of
the command line (`cli.main`):

* `DestxError`, exit 2: bad input, such as a malformed or inconsistent
  plant, pair list, policy or trace, or a name that is not in the plant;
* `InstanceTooLarge`, exit 3: a search or check passed its cap;
* `Infeasible`, exit 4: no transmission schedule satisfies the property.
"""


class DestxError(Exception):
    """Base class for every toolkit-specific error, and the bad-input one."""


class InstanceTooLarge(DestxError):
    """A cap was passed; raised as such by the brute-force checks: the
    oracle's 20-state universe, a check's walk over words or estimate table."""


class AlphabetTooLarge(InstanceTooLarge):
    """A state defines more events than the decision-vector bound allows."""


class StateBudgetExceeded(InstanceTooLarge):
    """A search passed the state budget: observer states, estimate unions,
    or the range sets of a closure family."""


class Infeasible(DestxError):
    """No transmission schedule satisfies the requested property."""
