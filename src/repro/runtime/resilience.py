"""Fault-tolerance policy: call deadlines and retries.

The paper's pitch (§5) is that an actor-oriented database gives IoT
platforms Orleans-style resilience: virtual actors re-place after a silo
failure and callers see a transient error, not lost state.  This module
holds the *policy* half of that story — the mechanism (failure detection,
directory repair, re-activation) lives in :mod:`repro.runtime.runtime`.

:class:`RetryPolicy` is declarative retry behaviour applied transparently
by :class:`~repro.runtime.reference.ActorRef` to ask-style calls.  One-way
tells are never retried: a tell acknowledges *enqueue*, so the caller
observes no failure to react to, and blind re-sends would break at-most-once
expectations for non-idempotent handlers.  It is deterministic: backoff
jitter is drawn from a seeded RNG stream and all clocks are the virtual
scheduler clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import DeadlineExceededError, SiloUnavailableError, ThrottledError

#: Error classes a retry policy treats as transient unless told otherwise.
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    SiloUnavailableError,
    ThrottledError,
    DeadlineExceededError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Declarative retry behaviour for ask-style actor calls.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retries.  Backoff for attempt *n* (1-based) is
    ``min(max_delay, base_delay * multiplier ** (n - 1))``, spread by
    ``jitter`` (a fraction: 0.5 means ±50%) drawn from a seeded stream, and
    never below the ``retry_after`` hint carried by a
    :class:`~repro.errors.ThrottledError`.

    ``attempt_timeout`` bounds each individual attempt in virtual seconds so
    a *silently lost* message (chaos harness, dead silo) turns into a
    retryable :class:`~repro.errors.DeadlineExceededError` instead of
    consuming the whole call deadline.  Retrying after an attempt timeout
    gives at-least-once delivery — the timed-out invocation may still
    execute later — which is the standard trade the caller opts into.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    attempt_timeout: float | None = None
    retryable: tuple[type[BaseException], ...] = DEFAULT_RETRYABLE

    def validate(self) -> None:
        """Raise ValueError on nonsensical settings."""
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.attempt_timeout is not None and self.attempt_timeout <= 0:
            raise ValueError("attempt_timeout must be positive")

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) may be retried."""
        if attempt >= self.max_attempts:
            return False
        return isinstance(error, self.retryable)

    def delay_for(
        self, attempt: int, rng: random.Random, error: BaseException | None = None
    ) -> float:
        """Backoff before the attempt *after* ``attempt`` (1-based)."""
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        retry_after = getattr(error, "retry_after", 0.0) or 0.0
        return max(delay, retry_after)


#: A conservative default for interactive callers: a few quick retries.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Explicit "never retry" policy, clearer at call sites than None.
NO_RETRY = RetryPolicy(max_attempts=1)

