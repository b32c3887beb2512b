"""Per-tenant circuit breakers: closed -> open -> half-open.

A tenant whose jobs keep failing (poison specs, fault plans that
always stall, a hot loop of doomed retries) would otherwise burn
executor slots and retry budget forever - starving well-behaved
tenants of exactly the capacity admission control granted them.  The
breaker cuts that off at the submission door:

* **closed** - normal operation; consecutive failures are counted,
  any success resets the count;
* **open**   - after ``threshold`` consecutive failures, submissions
  are rejected outright (``BREAKER_OPEN``, ``retry_after`` = time to
  half-open) for ``open_for`` virtual seconds; already-admitted jobs
  keep running - the breaker sheds *new* load, it never cancels work;
* **half-open** - after the cool-down, one submission is admitted as
  a canary; its success closes the breaker, its failure re-opens it
  for another full ``open_for`` window.

All transitions are driven by the service's virtual clock and the
job outcome stream - no randomness, no wall time - so breaker behavior
replays bit-for-bit with the rest of the service.
"""

from __future__ import annotations

from .._util import ReproError, check_count

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-rate gate for one tenant."""

    def __init__(self, threshold: int = 3, open_for: float = 10e-3):
        check_count("breaker_threshold", threshold, "breaker threshold")
        # ``not > 0`` also refuses NaN, which would never half-open.
        if not open_for > 0:
            raise ReproError(
                f"breaker open_for must be positive; got "
                f"breaker_open_for={open_for!r}"
            )
        self.threshold = threshold
        self.open_for = open_for
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0  # virtual time the breaker last opened
        self.probe_out = False  # the half-open canary is admitted
        self.trips = 0  # times the breaker opened (observability)

    # -- queries ----------------------------------------------------------------

    def _refresh(self, now: float) -> None:
        """Lazy open -> half-open transition on the virtual clock."""
        if self.state == OPEN and now >= self.opened_at + self.open_for:
            self.state = HALF_OPEN
            self.probe_out = False

    def allow(self, now: float) -> bool:
        """May a new submission from this tenant be admitted at ``now``?

        Half-open admits one canary until it reaches a terminal outcome.
        """
        self._refresh(now)
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN and not self.probe_out:
            self.probe_out = True
            return True
        return False

    def retry_after(self, now: float) -> float:
        """Time until the breaker half-opens (the rejection's hint)."""
        self._refresh(now)
        if self.state == OPEN:
            return max(self.opened_at + self.open_for - now, 0.0)
        # Half-open with the probe out: retry after one probe's worth
        # of estimated turnaround; the caller may substitute better.
        return self.open_for / 2.0

    # -- outcome feed -----------------------------------------------------------

    def on_success(self, now: float) -> None:
        self._refresh(now)
        self.consecutive_failures = 0
        if self.state == HALF_OPEN:
            self.state = CLOSED  # the canary came back alive

    def on_failure(self, now: float) -> None:
        self._refresh(now)
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.state = OPEN
            self.opened_at = now
            self.trips += 1
