"""Exception types shared across the toolkit.

Everything raised on purpose derives from DirlapError so callers (and the
CLI) can distinguish bad input from a genuine bug.
"""

import numpy as np


class DirlapError(Exception):
    """Base class for all toolkit errors."""


class InputParseError(DirlapError):
    """A file or argument could not be parsed at all."""


class InvalidArgumentError(DirlapError, ValueError):
    """A parameter is out of its documented range (too few angles, a
    generator size below its minimum, a vertex id outside the graph), or
    an output path cannot be written."""


class SchemaViolationError(DirlapError):
    """Parsed input does not match the documented schema."""


class NonPositiveWeightError(DirlapError):
    """An edge weight is zero or negative."""


class NonPositiveMeasureError(DirlapError):
    """A vertex measure is zero or negative."""


class SelfLoopError(DirlapError):
    """An edge starts and ends at the same vertex."""


class DuplicateEdgeError(DirlapError):
    """The same ordered vertex pair appears twice in the edge list."""


class IsolatedDirectionError(DirlapError):
    """A vertex has zero total outgoing or zero total incoming weight."""


class EmptySubsetError(DirlapError):
    """A vertex subset argument is empty."""


class KirchhoffViolatedError(DirlapError):
    """An operation requiring outflow == inflow at every vertex was applied
    to a graph that does not satisfy it."""


class DisconnectedError(DirlapError):
    """The graph (or an induced subgraph) is not connected where required."""


class EmptyComplementError(DirlapError):
    """A filtration has no level with a non-empty complement to profile."""


class NoConvergenceError(DirlapError):
    """The iterative eigenvalue computation exceeded its iteration cap."""


def _require_finite(message: str, compute):
    """compute(), one float or many, unless one is not finite or compute raises
    OverflowError (as float ** and int / int do): then InvalidArgumentError(message)."""
    try:
        value = compute()
        if np.isfinite(np.asarray(value, dtype=float)).all():
            return value
    except OverflowError:
        pass
    raise InvalidArgumentError(message)
