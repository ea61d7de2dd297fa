"""Exception hierarchy shared across the package."""

from __future__ import annotations


class QuivdetError(Exception):
    """Base class for all package errors."""


class ParseError(QuivdetError):
    """A file-format error; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class QuiverSyntaxError(ParseError):
    pass


class DuplicateNameError(ParseError):
    pass


class DanglingEndpointError(ParseError):
    pass


class CycleDetectedError(ParseError):
    pass


class DataSyntaxError(ParseError):
    """Error in the representation/morphism data file format."""


class SemanticError(QuivdetError):
    """Valid syntax, invalid meaning: unknown names, shape mismatches."""


class NotIndecomposableError(QuivdetError):
    pass


class HasProjectiveSummandError(QuivdetError):
    pass


class HasInjectiveSummandError(QuivdetError):
    pass


class FieldTooSmallError(QuivdetError):
    """Raised over F_p, p <= dim M, by the trace-form radical of End(M), and by
    the splitter when it finds neither a split nor a certificate; the message
    suggests rerunning over the rationals."""


class DecompositionInconclusiveError(QuivdetError):
    """The Krull-Schmidt splitter found neither a splitting endomorphism nor a
    field-degree certificate of indecomposability among its candidates.  It
    is the splitter's only fallback and never claims a verdict: End(M)/rad
    may be a noncommutative division algebra, or a split the deterministic
    candidate list misses."""


class InvariantError(QuivdetError):
    """An internal consistency check failed: a computed object does not have
    the property the mathematics guarantees (an idempotent that is not
    idempotent, a claimed isomorphism that is not invertible).  Raised
    explicitly, so the check also runs under python -O."""


def invariant(holds: bool, message: str) -> None:
    """The package's one consistency check: raise InvariantError unless holds."""
    if not holds:
        raise InvariantError(message)


class InputNotInPathBasisError(QuivdetError):
    """A map between canonical projective/injective sums had malformed block
    structure and could not be transported along the Nakayama equivalence."""
