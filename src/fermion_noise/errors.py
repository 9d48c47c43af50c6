"""Exception types shared across the package.

Input validation raises plain ``ValueError`` (bad arguments, unsupported
configurations, dimension mismatches).  ``InvariantViolation`` is reserved for
numerical states that have become unphysical, e.g. a correlation matrix whose
singular values exceed one beyond tolerance.  The command-line driver maps
``ConfigError`` (a command-line or config-file entry it rejected) to exit
code 2 and ``InvariantViolation`` to exit code 3; a plain ``ValueError``
that reaches it is a bug, not bad input, and propagates.
"""


class InvariantViolation(RuntimeError):
    """A numerical invariant of a physical object failed beyond tolerance."""


class ConfigError(ValueError):
    """A command-line or config-file entry could not be validated."""
