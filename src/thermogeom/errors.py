"""Exception types shared across the toolkit."""


class ThermoGeomError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(ThermoGeomError):
    """Invalid input data, configuration, or a violated type invariant."""


class NumericalDomainError(ThermoGeomError):
    """A computation left its numerical domain (boundary, overflow, degeneracy)."""


class NearSingularError(NumericalDomainError):
    """An SLD denominator p_a + p_b fell below the floor: the state is at the boundary."""


class ParameterRangeError(NumericalDomainError):
    """Intensive parameter outside the overflow guard, or a point whose result is not finite."""


class NumericalConsistencyError(NumericalDomainError):
    """A quantity that must be nonnegative/monotone by construction is not."""


class DegenerateMetricError(NumericalDomainError):
    """|g_S| below threshold; connection coefficients undefined."""


class SignatureError(NumericalDomainError):
    """Vertical metric restriction is not positive-definite where it must be."""


class ExprSyntaxError(ValidationError):
    """Expression text failed to parse; carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprNameError(ValidationError):
    """Unknown identifier in an expression."""


class ExprArityError(ValidationError):
    """Function called with the wrong number of arguments."""


class ExprDomainError(NumericalDomainError):
    """Expression evaluation hit a domain violation (names node and operand)."""
