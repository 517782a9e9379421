"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: InputError -> 2, GuardError -> 3,
any other SfkError -> 4.
"""


class SfkError(Exception):
    """Base class for all package-specific failures."""


class InputError(SfkError):
    """Caller handed us something unusable (bad file, bad shape, bad flag)."""


class ShapeError(InputError):
    """Operand dimensions are incompatible."""


class FormatError(InputError):
    """A serialized matrix file is malformed."""


class CorruptionError(SfkError):
    """A packed structure violates its own invariants; likely an internal bug."""


class GuardError(SfkError):
    """A size/safety guard tripped; only `sfk bench`'s guard has an
    override (--force)."""


class DivergenceError(SfkError):
    """Training state (loss or weights) became non-finite."""

    def __init__(self, step: int, what: str = "loss"):
        super().__init__(f"{what} became non-finite at step {step}")
        self.step = step
