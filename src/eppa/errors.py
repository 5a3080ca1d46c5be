"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: format and usage problems
exit 3, resource limits exit 2, failed predicates and verifications exit 1.
"""

from __future__ import annotations


class EppaError(Exception):
    """Base class for everything raised deliberately by this package."""


class GraphFormatError(EppaError):
    """Malformed graph, label, map, or witness data."""


class UnknownVertex(EppaError):
    """A vertex id that the graph or map does not contain."""


class InvalidMap(EppaError):
    """A map violating a precondition (totality, injectivity, isometry)."""


class NotAMetricSpace(EppaError):
    """An operation needing a metric space got something else."""


class DisconnectedGraph(EppaError):
    """An operation needing a connected graph got a disconnected one."""


class VertexCapExceeded(EppaError):
    """A construction would exceed the configured vertex cap.

    It would need `needed * 2**exponent` vertices, or at least that many
    when `at_least` is set.  The message never writes out a huge count in
    decimal: such a size reads as base * 2^exponent, as in `size`.
    """

    def __init__(self, stage: str, needed: int, cap: int, exponent: int = 0,
                 at_least: bool = False):
        self.stage = stage
        self.needed = needed
        self.exponent = exponent
        self.at_least = at_least
        self.cap = cap
        size = _format_size(needed, exponent)
        if at_least and not size.startswith("at least "):
            size = f"at least {size}"
        self.size = size
        super().__init__(f"{stage}: needs {size} vertices, cap is {cap}")


def _format_size(base: int, exponent: int) -> str:
    if not exponent and base.bit_length() > 64:
        exponent = (base & -base).bit_length() - 1
        base >>= exponent
    if base.bit_length() > 64:
        return f"at least 2^{base.bit_length() - 1 + exponent}"
    if not exponent:
        return str(base)
    return f"2^{exponent}" if base == 1 else f"{base} * 2^{exponent}"


class BudgetExhausted(EppaError):
    """A bounded search ran out of budget before reaching a verdict."""
