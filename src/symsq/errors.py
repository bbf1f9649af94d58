"""Exception hierarchy shared across the package.

Every error that a caller is expected to catch derives from SymsqError,
so `except SymsqError` at the CLI boundary maps cleanly to exit code 2.
"""


class SymsqError(Exception):
    """Base class for all library errors."""


class NotAUnit(SymsqError):
    """Inversion or Teichmuller lift requested for a non-unit."""


class PrecisionLoss(SymsqError):
    """The requested output precision cannot be achieved from the inputs."""


class NotOrdinary(SymsqError):
    """The U_p (or T_p) eigenvalue is not a p-adic unit."""


class OrderMismatch(SymsqError):
    """Cyclotomic operands live in different Q(zeta_n) without promotion."""


class NotEmbeddable(SymsqError):
    """A cyclotomic value has no image in Z_p at the requested prime."""


class BadPrime(SymsqError):
    """Hecke operator applied at a prime incompatible with the level."""


class BadMode(SymsqError):
    """Level-raising map invoked in a mode inconsistent with the level."""


class InsufficientPrecision(SymsqError):
    """All coefficients vanish at working precision; unit part invisible."""


class TruncationTooShort(SymsqError):
    """lambda-invariant is too close to the truncation edge to be trusted."""


class InvalidSatake(SymsqError):
    """Satake parameters inconsistent with the declared ramification type."""


class DivergenceGuard(SymsqError):
    """Complex Euler product factor left the convergence region."""


class SchemaError(SymsqError):
    """Input file failed schema validation; message lists every problem."""
