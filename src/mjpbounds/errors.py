"""Exception types raised by the library.

Validation failures (bad rate matrices, non-probability vectors, malformed
model files) derive from :class:`ValidationError`; breakdowns of a numerical
procedure derive from :class:`NumericalError`.  Both inherit ``ValueError`` so
callers that do not care about the distinction can catch broadly.
"""


class ValidationError(ValueError):
    """Input violates a structural precondition."""


class NumericalError(ValueError):
    """A numerical procedure failed or left its supported regime."""


class NonSquareError(ValidationError):
    def __init__(self, shape):
        self.shape = shape
        super().__init__(f"rate matrix must be square with n >= 2, got shape {shape}")


class NegativeRateError(ValidationError):
    def __init__(self, x, y, value):
        self.x, self.y, self.value = x, y, value
        super().__init__(f"off-diagonal rate q[{x},{y}] = {value} is negative")


class RowSumViolationError(ValidationError):
    def __init__(self, x, value):
        self.x, self.value = x, value
        super().__init__(f"row {x} of the rate matrix sums to {value}, not 0")


class NotIrreducibleError(ValidationError):
    def __init__(self, msg="rate matrix is not irreducible"):
        super().__init__(msg)


class SingularSystemError(NumericalError):
    def __init__(self, msg="linear solve for the invariant distribution failed"):
        super().__init__(msg)


class ZeroHorizonError(ValidationError):
    def __init__(self):
        super().__init__("time average is undefined for a zero-length horizon")


class DegenerateGapError(NumericalError):
    def __init__(self, second_eigenvalue):
        self.second_eigenvalue = second_eigenvalue
        super().__init__(
            "second-largest eigenvalue "
            f"{second_eigenvalue} is too close to 0; no usable spectral gap"
        )


class NotCenteredError(ValidationError):
    def __init__(self, mean):
        self.mean = mean
        super().__init__(f"observable is not centered: pi(f) = {mean}")


class FSobolevNotVerifiedError(ValidationError):
    def __init__(self, verdict):
        self.verdict = verdict
        super().__init__(
            f"the log-Sobolev inequality with constant c = {verdict.c} is violated "
            f"on this chain (max_violation = {verdict.max_violation:.6g} > 0)"
        )


class OrderTooLargeError(ValidationError):
    def __init__(self, order, limit):
        self.order, self.limit = order, limit
        super().__init__(f"series order {order} exceeds the cap {limit}")


class OutOfRangeError(ValidationError):
    def __init__(self, msg):
        super().__init__(msg)


class DomainError(ValidationError):
    def __init__(self, x, lo, hi):
        self.x = x
        super().__init__(f"argument {x} outside the domain [{lo}, {hi}]")


class ParseError(ValidationError):
    def __init__(self, path, detail):
        self.path, self.detail = path, detail
        super().__init__(f"{path}: {detail}")
