"""Match outcome types shared by all matchers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["NO_MATCH", "MatchOutcome"]

#: Sentinel in the request->message vector for "no match found".
NO_MATCH = -1


@dataclass
class MatchOutcome:
    """Result of running a matcher over a message queue and a request queue.

    Attributes
    ----------
    request_to_message:
        Array of length ``n_requests``; entry *j* is the message index
        matched to request *j*, or :data:`NO_MATCH`.  This is the paper's
        "vector that indicates the position of the matched message for
        every receive request".
    n_messages, n_requests:
        Queue sizes the matcher saw.
    seconds:
        Predicted wall time on the simulated device (0 for the pure
        reference oracle).
    cycles:
        Predicted device cycles.
    iterations:
        Algorithm iterations (multi-block matrix passes, hash retry
        rounds, ...).
    replicas:
        Number of identical concurrent instances of this workload the
        timing covers (Figure 6(b)'s 32-CTA launches run 32 independent
        matching engines; ``seconds`` is then the makespan of all of
        them and rates aggregate accordingly).
    meta:
        Free-form per-matcher diagnostics (phase timings, collision
        counts, queue fan-out, ...).
    """

    request_to_message: np.ndarray
    n_messages: int
    n_requests: int
    seconds: float = 0.0
    cycles: float = 0.0
    iterations: int = 1
    replicas: int = 1
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.request_to_message = np.asarray(self.request_to_message,
                                             dtype=np.int64)
        if self.request_to_message.shape != (self.n_requests,):
            raise ValueError("request_to_message must have one entry per request")
        matched = np.sort(
            self.request_to_message[self.request_to_message != NO_MATCH])
        if matched.size:
            # one sort serves both checks: a duplicate sits next to its
            # twin, and the extremes bound the range
            if (matched[1:] == matched[:-1]).any():
                raise ValueError("a message was matched to multiple requests")
            if matched[0] < 0 or matched[-1] >= self.n_messages:
                raise ValueError("matched message index out of range")
        # the sort counted the matches; the count is kept with the vector
        # it counts, so a rebound vector is recounted
        self._counted = (self.request_to_message, int(matched.size))

    @property
    def matched_count(self) -> int:
        """Number of requests that found a message."""
        vector, count = self._counted
        if vector is not self.request_to_message:
            count = int(np.count_nonzero(self.request_to_message != NO_MATCH))
            self._counted = (self.request_to_message, count)
        return count

    @property
    def match_fraction(self) -> float:
        """Matched requests / total requests (1.0 when everything matched)."""
        return self.matched_count / self.n_requests if self.n_requests else 1.0

    def matches_per_second(self) -> float:
        """Predicted matching rate (the paper's matches/s metric).

        Aggregates across replicated concurrent engines.
        """
        if self.seconds <= 0:
            raise ValueError("no timing attached to this outcome")
        return self.matched_count * self.replicas / self.seconds

    def matched_message_indices(self) -> np.ndarray:
        """Sorted indices of messages that were consumed."""
        m = self.request_to_message[self.request_to_message != NO_MATCH]
        return np.sort(m)

    def unmatched_message_indices(self) -> np.ndarray:
        """Indices of messages left in the queue (for compaction)."""
        consumed = np.zeros(self.n_messages, dtype=bool)
        consumed[self.matched_message_indices()] = True
        return np.nonzero(~consumed)[0]

    def unmatched_request_indices(self) -> np.ndarray:
        """Indices of requests left posted (go to the PRQ)."""
        return np.nonzero(self.request_to_message == NO_MATCH)[0]

    def pairs(self) -> list[tuple[int, int]]:
        """(request, message) pairs, request-ordered."""
        return [(j, int(m)) for j, m in enumerate(self.request_to_message)
                if m != NO_MATCH]
