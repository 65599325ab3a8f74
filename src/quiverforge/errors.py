"""Exception hierarchy and enumeration budgets.

Every operation that walks a q-power-sized set takes a ``cap`` argument
(default ``DEFAULT_CAP``) and raises :class:`CapExceeded` instead of
silently truncating or sampling.  The charge is the number of elements the
enumeration about to run will walk, made before anything is built; only a
walk that may stop early (the early-exit End-ring scan) counts as it goes.
"""

from __future__ import annotations

DEFAULT_CAP = 10**6


class QuiverForgeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(QuiverForgeError):
    """Malformed input: bad quiver data, index mismatch, violated precondition."""


class SingularMatrixError(QuiverForgeError):
    """Inverse requested for a singular matrix."""


def _count_text(n: int) -> str:
    """n in decimal, or a power-of-two bound when n has more digits than
    Python's int-to-str limit allows."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"


class CapExceeded(QuiverForgeError):
    """An enumeration would exceed its element budget."""

    def __init__(self, what: str, needed: int, cap: int):
        super().__init__(f"{what} needs {_count_text(needed)} elements, cap is {_count_text(cap)}")
        self.what = what
        self.needed = needed
        self.cap = cap


class UndecidedAtCap(CapExceeded):
    """A search was aborted at the cap without reaching a verdict."""


class ConsistencyError(QuiverForgeError):
    """An internal cross-check failed; this signals a bug, not bad input."""


class SmallCharacteristic(QuiverForgeError):
    """Group order does not divide a level-set count: characteristic too
    small or the stability parameter is not generic in this characteristic.
    ``level_set`` is that count."""

    def __init__(self, message: str, level_set: int):
        super().__init__(message)
        self.level_set = level_set


class NonPolynomialBehavior(QuiverForgeError):
    """Interpolated counts failed verification at fresh evaluation points."""

    def __init__(self, message: str, evaluations: dict[int, int]):
        super().__init__(f"{message}; evaluations: {evaluations}")
        self.evaluations = dict(evaluations)


class TheoremViolation(QuiverForgeError):
    """Computed data contradicts a theorem hypothesis the caller relied on."""


def check_cap(needed: int, cap: int, what: str) -> None:
    if needed > cap:
        raise CapExceeded(what, needed, cap)
