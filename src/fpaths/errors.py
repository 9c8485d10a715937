"""Exception hierarchy shared by every module in the package.

All domain errors derive from :class:`FpathsError`, itself a
``ValueError``, so callers can catch one base class.  Errors that point
at a specific location carry an ``index`` attribute; the convention for
each class is stated in its docstring and is deliberately frozen by the
test suite (several tools consume these indexes).
"""
from __future__ import annotations

import copyreg


class FpathsError(ValueError):
    """Base class for every domain error raised by this package."""

    def __reduce__(self):
        # The default calls ``type(self)(*self.args)``, but a subclass's
        # ``__init__`` takes its attributes, not the message in ``args``;
        # this sets ``args`` and the attributes without ``__init__``.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# ---------------------------------------------------------------- F-paths


class StepNotInF(FpathsError):
    """A step is not an int pair (a, b) in F = {a>=1, b<=1} ∪ {(0,1)}."""

    def __init__(self, step, position):
        self.step = step
        self.position = position
        super().__init__(
            f"step {int_text(self.step)} at position {position} is not in F")


class PrefixViolation(FpathsError):
    """A prefix of the path has sum(dx) > sum(dy).

    ``index`` is the 1-based length of the shortest offending prefix.
    """

    def __init__(self, index):
        self.index = index
        super().__init__(f"prefix of length {index} has sum(dx) > sum(dy)")


class GuardExceeded(FpathsError):
    """An n above the ceiling ``guard``: a common index above the
    enumeration ceiling ``fpath_core.MAX_N``, a count's n above
    ``counting.MAX_COUNT_N``, or a binomial top above
    ``counting.MAX_BINOMIAL_N``."""

    def __init__(self, requested, guard):
        self.requested = requested
        self.guard = guard
        super().__init__(f"n must be <= {guard}, got {int_text(requested)}")


# ------------------------------------------------- lattice-path families


class BelowAxis(FpathsError):
    """A path letter would take the path below the x-axis (0-based index)."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"letter {index} takes the path below the x-axis")


class NotClosed(FpathsError):
    """The path does not return to the x-axis at its right end."""

    def __init__(self, height):
        self.height = height
        super().__init__(f"path ends at height {height}, not 0")


class TripleDescent(FpathsError):
    """A Schröder word contains DDD; ``index`` is the 0-based factor start."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"triple descent starting at letter {index}")


class RunFormViolation(FpathsError):
    """A bicolored word breaks the run form u..dr..db.. (0-based index)."""

    def __init__(self, index, reason=""):
        self.index = index
        msg = f"run form broken at letter {index}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


# --------------------------------------- permutations / inversion sequences


class NotAvoider(FpathsError):
    """The object contains one of the family's forbidden patterns."""

    def __init__(self, pattern):
        self.pattern = tuple(pattern)
        super().__init__(f"contains pattern {self.pattern}")


class FormViolation(FpathsError):
    """The object breaks a structural form (inversion bound, run form, ...)."""


# ----------------------------------------------------------------- trees


class WeightOutOfRange(FpathsError):
    """An interior vertex weight is not in 1..outdegree (preorder ``vertex``)."""

    def __init__(self, vertex, weight, outdeg):
        self.vertex = vertex
        self.weight = weight
        self.outdeg = outdeg
        super().__init__(
            f"vertex {vertex} has weight {int_text(weight, repr)}, "
            f"expected 1..{int_text(outdeg)}"
        )


class WeightOnLeafOrRoot(FpathsError):
    """The root or a leaf carries a weight (preorder ``vertex``, root = 0)."""

    def __init__(self, vertex, weight):
        self.vertex = vertex
        self.weight = weight
        super().__init__(f"vertex {vertex} must be unweighted, "
                         f"got {int_text(weight, repr)}")


# -------------------------------------------------------- counting / text


def int_text(value, form=str) -> str:
    """``form(value)``, ``form`` being ``str`` or ``repr``, also for an
    int past CPython's int-to-str digit limit
    (``sys.get_int_max_str_digits()``), alone or inside a tuple or list:
    its digits come from ``Decimal``, exact for ints.  The process-wide
    limit is left as is."""
    try:
        return form(value)
    except ValueError:
        if not isinstance(value, (tuple, list)):
            # here, so that ``counting`` does not load it
            from decimal import Decimal
            return str(Decimal(value))
        text = ", ".join(int_text(v, repr) for v in value)
        if isinstance(value, list):
            return f"[{text}]"
        return f"({text},)" if len(value) == 1 else f"({text})"


class InexactDivision(FpathsError):
    """An integer division in a counting formula left a remainder (internal bug)."""

    def __init__(self, numerator, denominator):
        self.numerator = numerator
        self.denominator = denominator
        super().__init__(
            f"{int_text(numerator)} is not divisible by {int_text(denominator)}")


class ParseError(FpathsError):
    """A text form could not be parsed; ``offset`` is the 0-based byte offset."""

    def __init__(self, offset, message):
        self.offset = offset
        super().__init__(f"parse error at offset {offset}: {message}")
