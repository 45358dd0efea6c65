"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so that
callers can catch library failures with a single ``except`` clause while
still distinguishing subsystems via the subclasses below.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Kernel errors
# ---------------------------------------------------------------------------


class KernelError(ReproError):
    """Base class for scheduling-kernel errors."""


class CancelledError(KernelError):
    """A task or future was cancelled before completing."""


class InvalidStateError(KernelError):
    """A future was used in a way inconsistent with its state."""


class TimeoutError(KernelError):
    """An awaited operation did not complete within its deadline."""


class SchedulerStoppedError(KernelError):
    """The scheduler was asked to run work after it stopped."""


class DeadlockError(KernelError):
    """The scheduler ran out of events while tasks were still pending."""


# ---------------------------------------------------------------------------
# Storage errors
# ---------------------------------------------------------------------------


class StorageError(ReproError):
    """Base class for storage-subsystem errors."""


class KeyNotFoundError(StorageError):
    """A requested key does not exist in the store."""


class ThrottlingError(StorageError):
    """A provisioned-capacity store rejected a request (capacity exceeded)."""


class ThrottledError(ThrottlingError):
    """A throttled request, carrying the store's suggested retry delay.

    ``retry_after`` is in (virtual) seconds; retry policies use it as a lower
    bound for their backoff so clients do not hammer a store that already
    told them when capacity will be available.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class InjectedFaultError(StorageError):
    """A chaos-harness fault injector failed this request on purpose."""


class ConditionalCheckFailedError(StorageError):
    """An optimistic-concurrency (ETag) check failed on write."""


class FencedWriteError(StorageError):
    """A write carried a fence token older than one the store has admitted.

    Raised by :meth:`KeyValueStore.put` (given a ``fence``) when a
    stale activation — typically a zombie on the minority side of a network
    partition — tries to commit state after its successor already wrote with
    a newer fence.  The rejection is what turns "split brain" into "bounded
    staleness": the minority writer fails loudly instead of clobbering the
    majority's document.
    """


# ---------------------------------------------------------------------------
# Runtime (actor) errors
# ---------------------------------------------------------------------------


class RuntimeFault(ReproError):
    """Base class for actor-runtime errors."""


class UnknownActorTypeError(RuntimeFault):
    """A reference named an actor type not registered with the runtime."""


class ActorMethodError(RuntimeFault):
    """The named method does not exist or is not callable remotely."""


class ActorDeactivatedError(RuntimeFault):
    """A message reached an activation that is shutting down."""


class SiloUnavailableError(RuntimeFault):
    """The target silo is not part of the active cluster membership."""


class QuarantinedSiloError(SiloUnavailableError):
    """The target silo lost its membership lease and self-quarantined.

    A quarantined silo parks its mailboxes instead of serving asks, so calls
    fail fast with this error rather than executing on a possibly-stale
    activation.  It subclasses :class:`SiloUnavailableError`, so default
    retry policies treat it as retryable — the retry lands on the successor
    activation once the failure detector re-places the grain.
    """


class MailboxOverflowError(RuntimeFault):
    """An actor mailbox exceeded its configured capacity."""


class ReentrancyError(RuntimeFault):
    """A non-reentrant actor was re-entered by its own call chain."""


class DeadlineExceededError(RuntimeFault):
    """An ask-style call did not produce a reply before its deadline.

    Raised in virtual time by the runtime's call-deadline machinery: queued
    and in-flight requests fail at the deadline instead of waiting forever
    on a dead or overloaded silo.
    """


# ---------------------------------------------------------------------------
# AODB feature errors
# ---------------------------------------------------------------------------


class AodbError(ReproError):
    """Base class for database-feature errors (indexes, queries, txns)."""


class IndexError_(AodbError):
    """An index was declared or used inconsistently."""


class QueryError(AodbError):
    """A declarative query was malformed."""


class TransactionError(AodbError):
    """Base class for transaction failures."""


class TransactionAbortedError(TransactionError):
    """The transaction was aborted and rolled back."""


class TransactionConflictError(TransactionAbortedError):
    """Lock acquisition failed (conflict or timeout); transaction aborted."""


# ---------------------------------------------------------------------------
# Application-level errors (case studies)
# ---------------------------------------------------------------------------


class PlatformError(ReproError):
    """Base class for case-study platform errors."""


class UnknownEntityError(PlatformError):
    """An operation referenced an entity the platform does not know."""


class AuthorizationError(PlatformError):
    """Access control rejected the operation for the given principal."""


class LifecycleError(PlatformError):
    """An entity was used in a state that forbids the operation.

    Example: slaughtering the same cow twice, or delivering a meat cut
    that has already been transformed into products.
    """
