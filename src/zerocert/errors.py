"""Exception hierarchy shared across the package."""


class ZeroCertError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(ZeroCertError):
    """Arguments violate a precondition (dimension mismatch, bad range, ...)."""


class VanishingOnBoundary(ZeroCertError):
    """A boundary sample has (numerically) zero image norm."""

    def __init__(self, index, point=None, norm=0.0):
        self.index = index
        self.point = point
        self.norm = norm
        super().__init__(f"map vanishes at boundary sample {index} (norm={norm:.3e})")


class BudgetExhausted(ZeroCertError):
    """An adaptive loop ran out of budget; carries the best estimate so far."""

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class NotANullHomotopy(ZeroCertError):
    """A boundary map has no null homotopy: it vanishes on a sample or its
    winding is not 0."""


class DegreeLost(ZeroCertError):
    """No sub-cell retained a nonzero winding during bisection."""

    def __init__(self, cell):
        self.cell = cell
        super().__init__(f"no sub-cell with nonzero winding inside {cell}")


class Unsupported(ZeroCertError):
    """Dimension pair (n, m) outside what the obstruction machinery decides."""

    def __init__(self, n, m):
        self.n = n
        self.m = m
        super().__init__(f"no obstruction computation available for n={n}, m={m}")


class DomainError(ZeroCertError):
    """Map evaluation left its domain (division by zero, sqrt of a negative)."""

    def __init__(self, point, detail=""):
        self.point = point
        super().__init__(f"evaluation failed at {point}: {detail}" if detail
                         else f"evaluation failed at {point}")


class MapSyntaxError(ZeroCertError):
    """Malformed map expression text."""

    def __init__(self, message, line, column):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class UndefinedVariable(MapSyntaxError):
    """Variable index outside [1, n]."""

    def __init__(self, name, n, line, column):
        self.name = name
        self.n = n
        super().__init__(f"variable {name!r} undefined for domain dimension {n}",
                         line, column)


class NonIntegerExponent(MapSyntaxError):
    """'^' requires a literal integer exponent."""

    def __init__(self, text, line, column):
        super().__init__(f"exponent must be a literal integer, got {text!r}",
                         line, column)
