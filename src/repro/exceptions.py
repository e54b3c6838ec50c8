"""Exception hierarchy for the Poseidon reproduction library.

Every error raised by this package derives from :class:`ReproError` so that
callers embedding the library can catch a single base class.
"""


class ReproError(Exception):
    """Base class for all errors raised by the reproduction library."""


class ConfigurationError(ReproError):
    """An invalid cluster, training or model configuration was supplied."""


class ModelSpecError(ReproError):
    """A model specification is malformed (e.g. inconsistent layer shapes)."""


class CommunicationError(ReproError):
    """A communication substrate detected a protocol violation."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class TrainingError(ReproError):
    """The functional distributed trainer failed."""


class ShapeError(ReproError):
    """A tensor with an unexpected shape was passed to a layer or loss."""


class WorkerFailure(TrainingError):
    """A worker crashed (or observed a crashed peer) during training.

    ``worker_id``/``iteration`` locate the failure; ``cascade`` is True on
    the copies raised at *surviving* workers when a peer's death is
    propagated through a sync primitive's abort path (only the original,
    non-cascade failure identifies the dead worker).
    """

    def __init__(self, message: str, worker_id: int = -1, iteration: int = -1,
                 cascade: bool = False):
        super().__init__(message)
        self.worker_id = worker_id
        self.iteration = iteration
        self.cascade = cascade


class TransientFault(WorkerFailure):
    """A retryable transient communication failure (lossy-link model).

    Raised before any state is mutated, so retrying the sync is always
    safe.  The trainer retries these with bounded exponential backoff;
    only after the retry budget is exhausted does the failure become
    fatal (re-raised as a plain :class:`WorkerFailure`).
    """


class SyncTimeout(CommunicationError, TrainingError):
    """A bounded wait on a sync path expired (suspected dead peer).

    Subclasses both :class:`CommunicationError` and :class:`TrainingError`
    because timeouts previously surfaced as either depending on the layer
    (substrate pulls vs. trainer barriers); existing callers catching
    either base keep working.
    """


class RecoveryError(TrainingError):
    """Crash recovery itself failed (no checkpoint, exhausted restarts)."""
