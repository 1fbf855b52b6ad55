"""Exception hierarchy.

The CLI maps these onto exit codes: input problems exit 2, exhausted
search budgets exit 3, valid-but-unsupported configurations exit 4.
"""


class GluesurfError(Exception):
    pass


class InputError(GluesurfError):
    """Malformed, inconsistent, or incomplete input data."""


class UnsupportedError(GluesurfError):
    """Structurally valid input outside the supported configuration space."""


class BudgetExceededError(GluesurfError):
    """A brute-force enumeration would exceed the configured budget."""


# -- gluing data ------------------------------------------------------------

class GluingFormatError(InputError):
    """The JSON document does not match the gluing-data schema."""


class GluingValidationError(InputError):
    """One or more structural invariants of the gluing data fail.

    ``issues`` lists every violation found, each prefixed with a stable
    code such as ``NonInvolutive`` or ``FixedMarkedPoint``.
    """

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(self.issues))


# -- group theory -----------------------------------------------------------

class PresentationFormatError(InputError):
    pass


class UnknownGroupError(InputError):
    pass


# -- topology ---------------------------------------------------------------

class GenusNotZeroError(UnsupportedError):
    pass


class DbarDisconnectedError(UnsupportedError):
    pass


class NotSimplyConnectedError(UnsupportedError):
    pass


class UnsupportedNormalHomologyError(UnsupportedError):
    pass


# -- invariants -------------------------------------------------------------

class NormalizationIrregularError(UnsupportedError):
    """A normal component has q > 0, outside the irregularity algorithm's scope."""


class SurfaceNotConnectedError(UnsupportedError):
    pass


class GeometricGenusNonzeroError(UnsupportedError):
    pass


class MissingFieldError(InputError):
    pass


class NegativeResultError(InputError):
    """A computed invariant came out negative; the input is inconsistent."""


# -- four-lines classifier ---------------------------------------------------

class NotInD4Error(InputError):
    pass


class LabelAmbiguousError(GluesurfError):
    """Classification key matched zero or several built-in table rows."""
