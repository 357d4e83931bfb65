"""Error-recovery policy for REESE.

On a comparison mismatch the pipeline is flushed, the R-stream Queue is
cleared, and fetch restarts at the instruction where the error was
detected (paper §4.3).  If the *same* instruction fails its comparison
repeatedly, the fault is not transient (or the comparator itself is
broken) and "the pipeline will have to stop and notify the user";
:class:`RetryTracker` implements that policy and the pipeline raises
:class:`UnrecoverableFaultError` when the retry budget is exhausted.
"""

from __future__ import annotations


class UnrecoverableFaultError(Exception):
    """The same instruction failed verification ``max_retry`` times."""

    def __init__(self, seq: int, attempts: int) -> None:
        super().__init__(
            f"instruction #{seq} failed P/R comparison {attempts} times; "
            "fault is not transient — machine stopped"
        )
        self.seq = seq
        self.attempts = attempts

    def __reduce__(self):
        return type(self), (self.seq, self.attempts)


class RetryTracker:
    """Counts consecutive comparison failures of one instruction."""

    def __init__(self, max_retry: int = 2) -> None:
        if max_retry < 1:
            raise ValueError("max_retry must be >= 1")
        self.max_retry = max_retry
        #: The instruction with a live failure streak, or -1.
        self.seq = -1
        self._failures = 0

    def record_failure(self, seq: int) -> bool:
        """Record a failed comparison; True if the machine must stop."""
        if seq == self.seq:
            self._failures += 1
        else:
            self.seq = seq
            self._failures = 1
        return self._failures > self.max_retry

    def record_success(self, seq: int) -> None:
        """A successful commit of ``seq`` clears its failure streak."""
        if seq == self.seq:
            self.seq = -1
            self._failures = 0

    @property
    def failures(self) -> int:
        return self._failures
