"""Error taxonomy shared across the package.

Two families, matching the CLI exit codes:

* DomainError (exit code 1): the input or the request is invalid, or a
  mathematical check came out negative in a way the caller asked us to
  treat as failure.
* ProtocolError (exit code 2): a numerical certification step gave up
  before reaching its tolerance (unstable window, runaway closure, a
  decomposition that would not converge). These never silently degrade
  into wrong answers; they abort.
"""


class WckError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class DomainError(WckError):
    """Invalid input or a negative verdict the caller treats as fatal."""

    exit_code = 1


class GraphError(DomainError):
    """Malformed graph document or an impossible path request."""


class WeightError(DomainError):
    """Malformed or inadmissible weight specification."""


class ElementError(DomainError):
    """Malformed element expression or an ill-typed element operation."""


class ProtocolError(WckError):
    """A numerical certification protocol failed to stabilize."""

    exit_code = 2


class WindowUnstableError(ProtocolError):
    """Window norms or span dimensions kept moving after max widenings."""


class ClosureOverflowError(ProtocolError):
    """A linear closure exceeded the configured dimension bound."""


class DecompositionError(ProtocolError):
    """Central decomposition could not be certified."""


class MultiplicityError(ProtocolError):
    """An embedding multiplicity failed its integrality or consistency check."""


def check_index(value, lo, hi, what, error=DomainError):
    """Raise error unless value is an int, not a bool, in [lo, hi].

    Either bound may be infinite; error is a DomainError subclass.
    """
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise error(
            "%s must be an int in [%s, %s], got %r" % (what, lo, hi, value)
        )
