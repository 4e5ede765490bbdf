"""Transmit rate adaptation.

The paper sidesteps rate adaptation ("In lieu of simulating bit rate
adaptation explicitly, at each particular distance we simulate a
download at a rate selected from a range...") and reports the envelope
an *ideal* algorithm would achieve.  This module provides real
adapters so the envelope can be compared against something achievable:

* :class:`FixedRate` — the paper's per-run fixed rate.
* :class:`Aarf` — Adaptive ARF (Lacage et al.): step the rate up after
  a run of consecutive successes, step down after two consecutive
  failures; a failed probe doubles the success threshold required
  before the next probe (up to a cap), which stops ARF's pathological
  up/down oscillation on stable channels.

For aggregate exchanges, the MAC reports a per-batch delivery ratio;
ratios above :data:`SUCCESS_RATIO` count as success, below
:data:`FAILURE_RATIO` as failure, and the band in between is neutral
(one lost MPDU out of 40 should not trigger a downshift).
"""

from __future__ import annotations

from typing import Sequence

SUCCESS_RATIO = 0.9
FAILURE_RATIO = 0.5


class RateController:
    """Interface: per-(station, destination) transmit rate policy."""

    def current_rate(self) -> float:
        raise NotImplementedError

    def on_success(self) -> None:
        """One exchange delivered cleanly."""

    def on_failure(self) -> None:
        """One exchange failed (no response / most MPDUs lost)."""

    def on_ratio(self, delivered: int, total: int) -> None:
        """Aggregate exchange outcome as a delivery ratio."""
        if total <= 0:
            return
        ratio = delivered / total
        if ratio >= SUCCESS_RATIO:
            self.on_success()
        elif ratio < FAILURE_RATIO:
            self.on_failure()


class FixedRate(RateController):
    """No adaptation: always the configured rate."""

    def __init__(self, rate_mbps: float):
        self.rate_mbps = rate_mbps

    def current_rate(self) -> float:
        return self.rate_mbps


class Aarf(RateController):
    """Adaptive Auto Rate Fallback."""

    def __init__(self, rates: Sequence[float],
                 initial_rate: float = None,
                 min_success_threshold: int = 10,
                 max_success_threshold: int = 160):
        if not rates:
            raise ValueError("rate ladder must not be empty")
        self.rates = sorted(rates)
        if initial_rate is None:
            self._index = len(self.rates) - 1
        else:
            if initial_rate not in self.rates:
                raise ValueError(f"{initial_rate} not in ladder")
            self._index = self.rates.index(initial_rate)
        self.min_success_threshold = min_success_threshold
        self.max_success_threshold = max_success_threshold
        self._success_threshold = min_success_threshold
        self._successes = 0
        self._failures = 0
        self._just_probed = False
        # Counters for analysis.
        self.upshifts = 0
        self.downshifts = 0
        self.probe_failures = 0

    def current_rate(self) -> float:
        return self.rates[self._index]

    def on_success(self) -> None:
        self._failures = 0
        self._successes += 1
        self._just_probed = False
        if (self._successes >= self._success_threshold
                and self._index < len(self.rates) - 1):
            self._index += 1
            self.upshifts += 1
            self._successes = 0
            self._just_probed = True

    def on_failure(self) -> None:
        self._successes = 0
        self._failures += 1
        if self._just_probed:
            # The probe rate failed immediately: back off and demand a
            # longer success run before probing again (the "adaptive"
            # part of AARF).
            self._success_threshold = min(
                2 * self._success_threshold, self.max_success_threshold)
            self.probe_failures += 1
            self._index -= 1
            self.downshifts += 1
            self._failures = 0
            self._just_probed = False
            return
        if self._failures >= 2 and self._index > 0:
            self._index -= 1
            self.downshifts += 1
            self._failures = 0
            self._success_threshold = self.min_success_threshold


#: The adaptive controllers a scenario can name
#: (``ScenarioConfig.rate_adaptation``; None = :class:`FixedRate`).
RATE_CONTROLS = {"aarf": Aarf}
