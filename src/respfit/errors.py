"""Exception hierarchy shared across the toolkit, and naming, which says where one arose."""

from contextlib import contextmanager


class RespfitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RespfitError, ValueError):
    """An argument or a configuration value is invalid; the message opens with its name."""


class SolverError(RespfitError):
    """Base class for numerical failures (integration, root finding, fitting)."""


class InvalidGridError(ConfigError):
    """The requested window is not a whole number of resolvable steps."""


class NonFiniteError(SolverError):
    """The integrated state overflowed or became NaN (trajectory blow-up)."""


class NoRootError(SolverError):
    """The equilibrium equation has no sign change on the search bracket."""


class OutOfDomainError(ConfigError):
    """A trajectory was evaluated at a time outside its domain, or at a non-finite one."""


class SingularNormalEquationsError(SolverError):
    """A parameter direction leaves the residual unchanged, so the fit cannot resolve it."""


@contextmanager
def naming(name: str, kind: type[Exception]):
    """Re-raise a kind error from the block as its own class, the message opening with name.

    The original is the new error's __cause__. An OSError's errno carries
    over too. Its strerror, filename and filename2 stay on the cause only:
    OSError's str() prints them in place of the message once they are set.
    """
    try:
        yield
    except kind as exc:
        named = type(exc)(f"{name}: {exc}")
        if isinstance(exc, OSError):
            named.errno = exc.errno
        raise named from exc
