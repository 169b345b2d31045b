"""Exception types shared across the package.

Two broad families matter to callers: format/content problems in data the
user handed us (``DataError``) and numerical failures detected at runtime
(``NumericalError``). The CLI maps these to exit codes 2 and 3.
"""

import contextlib


class SoupAdapterError(Exception):
    """Base class for all library errors."""


@contextlib.contextmanager
def prefixed(where):
    """Put ``where`` first in the message of a library error that the
    block raises: the file a format error was found in, or the set,
    class, component or epoch a numerical one arose in."""
    try:
        yield
    except SoupAdapterError as exc:
        exc.args = (f"{where}: {exc}",)
        raise


class DataError(SoupAdapterError):
    """A file or in-memory input violates its documented contract."""


class NumericalError(SoupAdapterError):
    """A numerical invariant failed at runtime."""


# ---------------------------------------------------------------- data errors

class BadMagic(DataError):
    pass


class VersionUnsupported(DataError):
    pass


class CorruptLength(DataError):
    pass


class NormViolation(DataError):
    pass


class NonFiniteValue(DataError):
    pass


class InsufficientShots(DataError):
    def __init__(self, class_index: int, available: int):
        self.class_index = class_index
        self.available = available
        super().__init__(
            f"class {class_index} has only {available} samples in the split"
        )

    def __reduce__(self):  # its args too, which prefixed may have set
        return type(self), (self.class_index, self.available), \
            {**vars(self), "args": self.args}


class EmptyClass(DataError):
    pass


class EmptyBank(DataError):
    pass


class ShapeMismatch(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class ClassSetMismatch(ShapeMismatch):
    pass


class RedTooLarge(DataError):
    pass


class SoupMismatch(DataError):
    pass


class IoFailure(DataError):
    pass


# ----------------------------------------------------------- numerical errors

class DegenerateVector(NumericalError):
    pass


class EquivalenceViolation(NumericalError):
    def __init__(self, worst: float, input_index: int):
        self.worst = worst
        self.input_index = input_index
        super().__init__(
            f"ensemble and merged adapter disagree by {worst:.3e} "
            f"on probe input {input_index}"
        )

    def __reduce__(self):  # its args too, which prefixed may have set
        return type(self), (self.worst, self.input_index), \
            {**vars(self), "args": self.args}
