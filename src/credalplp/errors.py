"""Shared exception types and the Undefined result sentinel."""


class PlpError(Exception):
    """Base class for all engine errors."""


class PlpSyntaxError(PlpError):
    """Raised when a program or query cannot be parsed or validated.

    Carries a list of Diagnostic records (see credalplp.syntax).
    """

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class ResourceGuardError(PlpError):
    """A configurable size cap (ground rules, total choices, ...) was hit."""


class NotAcyclicError(PlpError):
    """Bayesian-network compilation requires an acyclic ground program."""


class InconsistentProgramError(PlpError):
    """A credal query hit a total choice with no stable model.

    ``witness`` is the offending TotalChoice; ``description`` names its atoms.
    """

    def __init__(self, witness, description: str):
        self.witness = witness
        self.description = description
        super().__init__(f"no stable model for total choice {witness}")


class _Undefined:
    """Singleton for query results that have no defined value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Undefined"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()
