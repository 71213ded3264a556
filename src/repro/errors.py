"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures without also catching unrelated Python
errors.  The hierarchy mirrors the major subsystems: topology modelling,
schedule construction, schedule verification, and simulation.
:func:`check_schema` holds the one envelope check every versioned JSON
artifact reader shares.
"""

from __future__ import annotations

from typing import Any

from repro._version import __version__


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class TopologyError(ReproError):
    """The topology is malformed (not a tree, bad node kinds, etc.)."""


class TopologyFormatError(TopologyError):
    """A topology description file could not be parsed."""


class SchedulingError(ReproError):
    """The scheduling pipeline could not construct a valid schedule."""


class VerificationError(ReproError):
    """A produced schedule violates one of the paper's invariants.

    Raised by the verifiers in :mod:`repro.core.verify` when a schedule is
    not contention free, misses messages, duplicates messages, or exceeds
    the optimal phase count.
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed or references unknown nodes."""


class StallError(SimulationError):
    """The stall watchdog aborted a run that stopped making progress.

    Carries a :class:`repro.faults.watchdog.StallDiagnosis` naming the
    blocked phase, the pending synchronization edges and the fault(s)
    that plausibly caused the stall, so callers get an explanation (and
    a fallback opportunity) instead of a hung simulation.
    """

    def __init__(self, message: str, diagnosis=None) -> None:
        super().__init__(message)
        self.diagnosis = diagnosis


class ProgramError(ReproError):
    """A per-rank communication program is malformed or deadlocks."""


class CodegenError(ReproError):
    """The C code generator was given an unsupported schedule."""


def check_schema(
    data: Any, what: str, version: int, *, required: bool = False
) -> int:
    """The ``schema`` of a JSON artifact envelope, checked.

    Raises :class:`ReproError` when *data* is not a JSON object, when
    its schema is not an integer >= 1, or when a newer repro wrote it
    (schema above *version*).  A missing schema reads as *version*
    (pre-versioning artifacts) unless *required*.
    """
    if not isinstance(data, dict):
        raise ReproError(f"{what} must be a JSON object")
    schema = data.get("schema") if required else data.get("schema", version)
    if not isinstance(schema, int) or schema < 1:
        raise ReproError(f"{what} has invalid schema {schema!r}")
    if schema > version:
        raise ReproError(
            f"{what} uses schema {schema}, but this version of repro "
            f"({__version__}) reads up to schema {version}; "
            "upgrade repro to read it"
        )
    return schema
