"""Exception types shared across the package, how a message shows an input,
the one rule each for an integer, a real, a collection and a nonempty
argument, and the one wording of a budget refusal."""

import math
import numbers
import operator

# a message shows at most this many characters of an input value
_ECHO_LIMIT = 200


def _echo(value, show=repr) -> str:
    """show(value), cut after _ECHO_LIMIT characters and marked '...' there,
    so a message echoes a bounded prefix of any input."""
    try:
        text = show(value)
    except ValueError:  # an int past the int-to-str digit limit, maybe inside value
        return f"<{type(value).__name__} past the int-to-str digit limit>"
    return text if len(text) <= _ECHO_LIMIT else f"{text[:_ECHO_LIMIT]}..."


def _check_int(value, label: str, minimum: int | None = None,
               maximum: int | None = None) -> int:
    """operator.index(value), refused as an InputError naming label unless
    value is an integer (never a bool) within minimum..maximum."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InputError(f"{label}: expected an integer, got {_echo(value)}")
    value = operator.index(value)
    if minimum is not None and value < minimum:
        raise InputError(f"{label}: must be at least {minimum}, got {_echo(value)}")
    if maximum is not None and value > maximum:
        raise InputError(f"{label}: must be at most {maximum}, got {_echo(value)}")
    return value


def _check_real(value, label: str, positive: bool = False) -> float:
    """float(value), refused as an InputError naming label unless value is a
    numbers.Real (never a bool) that is finite, and above 0 when positive."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{label}: expected a real number, got {_echo(value)}")
    try:
        x = float(value)
    except OverflowError:  # an int or a Fraction past float range
        x = math.inf
    if not math.isfinite(x):
        raise InputError(f"{label}: must be finite, got {_echo(value)}")
    if positive and x <= 0:
        raise InputError(f"{label}: must be positive, got {_echo(value)}")
    return x


def _check_collection(items, label: str, hashable: bool = False):
    """tuple(items), or frozenset(items) when hashable (either comes back
    uncopied when items already is one), refused as an InputError naming
    label unless items is iterable and, when hashable, every item is."""
    try:
        iter(items)  # a one-shot iterator is not advanced
    except TypeError:
        raise InputError(f"{label}: expected a collection, got {_echo(items)}") from None
    if not hashable:
        return tuple(items)
    try:
        return frozenset(items)
    except TypeError:
        raise InputError(f"{label}: expected hashable items, got {_echo(items)}") from None


def _check_nonempty(items, label: str):
    """items, refused as an InputError naming label when it is empty."""
    if not items:
        raise InputError(f"{label}: must be nonempty")
    return items


class CoverlabError(Exception):
    """Base class for all package-specific errors."""


class InputError(CoverlabError, ValueError):
    """A malformed argument, graph, action, or scenario field."""


class BudgetExceededError(CoverlabError, RuntimeError):
    """'<what> holds <count> <unit>, above the budget <limit>': count is
    the exact count that passed limit (partial_count), or a str naming a
    size floor, read 'at least <count>' (partial_count 0)."""

    def __init__(self, what: str, count: int | str, limit: int, unit: str = "points"):
        floor = isinstance(count, str)
        super().__init__(f"{what} holds {'at least ' if floor else ''}{count} {unit}, "
                         f"above the budget {limit}")
        self.partial_count = 0 if floor else count
        self.limit = limit


class FolnerVerificationError(CoverlabError, ValueError):
    """A candidate set failed certificate verification.

    Carries the offending generator and its exact ratio so callers can
    report which direction of the action broke the bound.
    """

    def __init__(self, generator: int, ratio, epsilon):
        super().__init__(
            f"generator {generator} has symmetric-difference ratio {ratio} "
            f"exceeding epsilon {epsilon}"
        )
        self.generator = generator
        self.ratio = ratio
        self.epsilon = epsilon


class InequalityViolation(CoverlabError, AssertionError):
    """An audited inequality failed. Indicates a bug, not a math outcome."""


class NumericalError(CoverlabError, RuntimeError):
    """An eigensolve or other numeric routine missed its tolerance."""
