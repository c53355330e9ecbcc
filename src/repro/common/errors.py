"""Exception hierarchy for the ProFess reproduction."""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value."""


class TraceError(ReproError):
    """A malformed trace record, file, or generator specification."""


class SimulationError(ReproError):
    """An internal invariant of the simulation engine was violated."""


class InvalidValueError(ReproError, ValueError):
    """A bad argument or out-of-domain value passed to a public API.

    Derives from :class:`ValueError` too, so callers (and tests) that
    catch the builtin keep working; new code should catch
    :class:`ReproError` (the C303 lint rule enforces the pedigree).
    """


class UnknownNameError(ReproError, KeyError):
    """An unknown program, workload, policy, or experiment name."""


class PolicySpecError(InvalidValueError):
    """A malformed policy spec string or inconsistent axis combination.

    Raised by :meth:`repro.policies.registry.PolicySpec.parse` and the
    spec constructor; derives from :class:`InvalidValueError` so callers
    that catch the builtin ``ValueError`` keep working.
    """


class UnknownPolicyError(InvalidValueError):
    """A policy base name that is not in the registry.

    Carries ``known`` — the sorted registered names — so CLI error
    messages can list the alternatives.
    """

    def __init__(self, name: str, known: list[str]) -> None:
        self.name = name
        self.known = list(known)
        super().__init__(
            f"unknown policy {name!r}; choose from {self.known}"
        )


class RangeError(ReproError, IndexError):
    """An index or identifier outside its structure's valid range."""
