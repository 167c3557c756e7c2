"""Exception types shared across the package."""


class OresError(Exception):
    """Base class for all package errors."""


class DegreeOverflow(OresError):
    """A computation produced or required a word longer than the degree cap."""


class PresentationMismatch(OresError):
    """Operands belong to different presentations."""


class PresentationError(OresError):
    """A presentation failed validation (termination, confluence, dagger closure)."""


class IrregularDenominator(OresError):
    """A denominator failed the bounded regularity check."""


class OreWitnessNotFound(OresError):
    """No Ore witness was found within the search budget."""


class WitnessCheckError(OresError):
    """A witness failed its exact re-check before being returned.

    This is a defect in the search, never a budget outcome: the search
    returns a witness only after the identity it claims holds exactly.
    """


class InsufficientDegree(OresError):
    """The requested construction needs a larger truncation degree."""


class StateAxiomError(OresError):
    """A moment table violates a state axiom (normalization, symmetry, positivity)."""


class TruncationLimit(OresError):
    """The truncation size cap was reached before meeting the tolerance."""


class FormulaDomainError(OresError):
    """A band coefficient formula was evaluated outside its domain."""


class ConfigError(OresError):
    """Invalid scenario or CLI configuration."""


class ExpressionError(OresError):
    """An expression is syntactically valid but unusable in this context."""
