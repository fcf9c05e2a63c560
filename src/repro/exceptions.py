"""Exception hierarchy for the Sigmund reproduction.

All library errors derive from :class:`SigmundError` so callers can catch
one base class at service boundaries while still being able to react to
specific failure modes (isolation violations, capacity problems, etc.).
"""

from __future__ import annotations


class SigmundError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(SigmundError):
    """A configuration record or grid specification is invalid."""


class DataError(SigmundError):
    """Training or catalog data is malformed or inconsistent."""


class TaxonomyError(DataError):
    """A taxonomy operation referenced an unknown node or broke tree shape."""


class IsolationError(SigmundError):
    """A cross-retailer access was attempted.

    Sigmund guarantees that one retailer's data and models are never used
    for another retailer (paper section I).  The registry raises this error
    whenever an artifact is requested under the wrong retailer id.
    """


class ModelNotTrainedError(SigmundError):
    """An operation required a trained model but none was available."""


class CheckpointError(SigmundError):
    """A checkpoint could not be written, read, or garbage-collected."""


class CheckpointCorruptionError(CheckpointError):
    """A stored checkpoint failed its integrity check on restore.

    Torn writes, bit rot, or a truncated blob on the shared filesystem:
    the checksum (or deserialization) did not match the payload.  Callers
    on the recovery path treat this as "no checkpoint" and cold-start —
    a corrupt checkpoint must never be half-loaded into a model.
    """


class RetrievalError(SigmundError):
    """An ANN retrieval index could not be built or queried.

    Raised when a model has no embedding surface to index, or when an
    index is asked about items it was not built over.
    """


class ClusterError(SigmundError):
    """The cluster simulator was asked to do something impossible."""


class MapReduceError(SigmundError):
    """A MapReduce job failed permanently (retries exhausted)."""


class FaultInjectedError(SigmundError):
    """A deliberate failure raised by a fault-injection plan.

    Robustness tests and the fault-isolation benchmark use this to make
    failures deterministic; seeing it outside a test means a
    :class:`~repro.mapreduce.runtime.FaultPlan` leaked into production
    wiring."""


class ServingError(SigmundError):
    """The serving store could not satisfy a request."""


class SimulatedCrash(BaseException):
    """A coordinator kill injected by a :class:`~repro.core.recovery.CrashPlan`.

    Deliberately derives from :class:`BaseException`, not
    :class:`SigmundError`: a machine kill is not a task fault, so none of
    the fault-isolation layers (MapReduce dead-lettering, per-cell
    degradation, the service's per-retailer try/except) may catch and
    absorb it.  It must unwind the whole daily run — exactly like
    ``KeyboardInterrupt`` — leaving the run journal open so
    ``SigmundService.recover()`` can resume the day.
    """

    def __init__(self, stage: str, label: str = ""):
        super().__init__(f"simulated crash at {stage}:{label}")
        self.stage = stage
        self.label = label
