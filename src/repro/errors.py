"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Configuration problems raise :class:`ConfigError` at construction
time rather than producing silently-wrong simulations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ConfigError(ReproError, ValueError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError, RuntimeError):
    """The simulator reached an inconsistent internal state.

    This always indicates a bug (e.g. a credit-accounting violation), never
    a user mistake, so it is raised eagerly instead of being papered over.
    """


class TraceFormatError(ReproError, ValueError):
    """A traffic trace file is malformed."""


class LinkStateError(ReproError, RuntimeError):
    """An operation was attempted on a link in an incompatible state.

    For example: pushing a flit onto a link that is disabled for a bit-rate
    transition, or commanding a transition while another is in flight.
    """


class ExecutionError(ReproError, RuntimeError):
    """A failure of the sweep-execution harness (not of a simulation).

    Raised for harness-level conditions: a worker process dying, or a
    sweep aborting in strict mode.  Simulation-internal inconsistencies
    stay :class:`SimulationError`.
    """


class SweepExecutionError(ExecutionError):
    """A strict-mode sweep aborted with unrecoverable point failures.

    Carries the structured :class:`~repro.experiments.executor.
    SweepFailureReport` built up to the abort, so callers still see
    per-point causes and exception text.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        #: The partial failure report at abort time (``None`` when the
        #: error predates any bookkeeping).
        self.report = report
