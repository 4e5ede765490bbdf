"""Arrival processes and flow-size distributions.

The paper evaluates long-lived bulk transfers; this module supplies the
other half of the workload space — *churn*: flows that arrive, transfer
a finite object, and leave.  Four arrival shapes are provided:

* :class:`PoissonArrivals` — open-loop memoryless flow arrivals at a
  fixed rate, spread across clients (the classic FCT-benchmark load).
* :class:`OnOffSource` — per-client bursts: exponentially distributed
  ON periods (mean :data:`MEAN_ON_MS`) during which flows arrive at the
  peak rate, separated by silent OFF periods (mean :data:`MEAN_OFF_MS`;
  bursty/heavy-tailed aggregate load).
* :class:`WebWorkload` — closed-loop request/response users: each user
  thinks for an exponential time, requests one object (log-normal
  size), waits for it to complete, and thinks again.
* :class:`TraceArrivals` — a deterministic, declarative list of
  (time, client, size) arrivals for exactly reproducible micro-tests.

Determinism contract: every process draws from its **own** named RNG
stream (per client, and per user for the closed-loop workload), so the
sequence of sizes/interarrivals a process sees depends only on the
master seed — never on how flow completions from *other* processes
interleave with its events.  This is what makes churn rows bit-identical
across repeated runs and across serial vs. multi-process sweeps.

Everything a scenario needs is described declaratively by
:class:`ArrivalSpec` / :class:`SizeSpec` (plain dataclasses, so
:class:`~repro.workloads.scenarios.ScenarioConfig` stays picklable and
content-hashable for the sweep cache); :func:`build_processes` turns a
spec into live processes wired to a
:class:`~repro.traffic.manager.FlowManager`.  A spec holds only what
some workload varies; the burst timing, the bimodal mix and the size
clamp are this module's constants.  A process starts when the
scenario builder schedules its ``start`` (at time 0) and generates
arrivals for the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim.engine import Simulator
from ..sim.units import MS, SEC

#: Spawn callback signature: (size_bytes, client_name, on_done) ->
#: an opaque flow handle.  ``on_done`` (may be None) is invoked after
#: the flow completes and its state has been reclaimed.
SpawnFn = Callable[[int, str, Optional[Callable[[], None]]], object]

#: onoff: mean burst / silence durations (ms).
MEAN_ON_MS = 150.0
MEAN_OFF_MS = 250.0
#: bimodal: mice / elephant sizes and the share of mice.
SMALL_BYTES = 15_000
LARGE_BYTES = 1_000_000
P_SMALL = 0.9
#: Every sampled size is clamped to [MIN_BYTES, MAX_BYTES], so a heavy
#: tail cannot produce a flow that outlives any plausible run.
MIN_BYTES = 1_460
MAX_BYTES = 20_000_000


# ----------------------------------------------------------------------
# Declarative descriptions (picklable, asdict-able, JSON-canonical)
# ----------------------------------------------------------------------
@dataclass
class SizeSpec:
    """Flow/object size distribution.

    ``kind``:
      * ``fixed`` — every flow transfers ``bytes``.
      * ``lognormal`` — log-normal around ``median_bytes`` with shape
        ``sigma`` (the paper-adjacent web-object model).
      * ``bimodal`` — mice/elephants: :data:`P_SMALL` of flows
        transfer :data:`SMALL_BYTES`, the rest :data:`LARGE_BYTES`.

    Samples are clamped to ``[MIN_BYTES, MAX_BYTES]``.
    """

    kind: str = "lognormal"        # fixed | lognormal | bimodal
    bytes: int = 100_000
    median_bytes: int = 50_000
    sigma: float = 1.0

    #: kind -> the size fields it draws from.
    SIZES = {"fixed": ("bytes",), "lognormal": ("median_bytes",),
             "bimodal": ()}

    def validate(self) -> None:
        if self.kind not in self.SIZES:
            raise ValueError(f"unknown size kind {self.kind!r} "
                             f"(valid: {', '.join(self.SIZES)})")
        bad = [f"{name}={getattr(self, name)}"
               for name in self.SIZES[self.kind]
               if getattr(self, name) < 1]
        if self.sigma < 0:
            bad.append(f"sigma={self.sigma}")
        if bad:
            raise ValueError(f"bad size spec: {', '.join(bad)} (sizes "
                             f">= 1, sigma >= 0)")

    def sample(self, rng) -> int:
        if self.kind == "fixed":
            size = self.bytes
        elif self.kind == "lognormal":
            size = int(rng.lognormvariate(
                math.log(self.median_bytes), self.sigma))
        elif self.kind == "bimodal":
            size = SMALL_BYTES if rng.random() < P_SMALL else LARGE_BYTES
        else:
            raise ValueError(f"unknown size kind {self.kind!r}")
        return max(MIN_BYTES, min(size, MAX_BYTES))


@dataclass
class ArrivalSpec:
    """Declarative description of one scenario's flow-churn workload."""

    kind: str = "poisson"          # poisson | onoff | web | trace
    direction: str = "download"    # download | upload
    #: poisson: aggregate flow arrivals/s; onoff: arrivals/s while ON.
    rate_per_s: float = 40.0
    size: SizeSpec = field(default_factory=SizeSpec)
    #: web: closed-loop users per client and mean think time.
    users_per_client: int = 2
    think_time_ms: float = 150.0
    #: trace: ((start_ms, client_index, size_bytes), ...).
    trace: Tuple[Tuple[float, int, int], ...] = ()

    def validate(self, n_clients: int) -> None:
        self.size.validate()
        if self.kind not in ("poisson", "onoff", "web", "trace"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        if self.direction not in ("download", "upload"):
            raise ValueError(
                f"unknown arrival direction {self.direction!r}")
        if self.kind in ("poisson", "onoff") and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if self.kind == "web":
            if self.users_per_client < 1:
                raise ValueError("users_per_client must be >= 1")
            if self.think_time_ms <= 0:
                raise ValueError("think_time_ms must be positive")
        if self.kind == "trace":
            for entry in self.trace:
                _, client_index, size = entry
                if not 0 <= client_index < n_clients:
                    raise ValueError(
                        f"trace client index {client_index} out of "
                        f"range for {n_clients} clients")
                if size <= 0:
                    raise ValueError("trace sizes must be positive")


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class ArrivalProcess:
    """Base: a source of flow arrivals driven by simulator events."""

    def __init__(self, sim: Simulator, spec: ArrivalSpec,
                 spawn: SpawnFn):
        self.sim = sim
        self.spec = spec
        self.spawn = spawn
        self.flows_spawned = 0

    def start(self) -> None:
        """Begin generating arrivals; they run until the run ends."""
        raise NotImplementedError

    def _emit(self, size: int, client: str,
              on_done: Optional[Callable[[], None]] = None) -> object:
        self.flows_spawned += 1
        return self.spawn(size, client, on_done)


class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson flow arrivals, spread uniformly over clients."""

    def __init__(self, sim: Simulator, spec: ArrivalSpec,
                 spawn: SpawnFn, clients: Sequence[str], rng):
        super().__init__(sim, spec, spawn)
        self.clients = list(clients)
        self.rng = rng

    def start(self) -> None:
        self._schedule_next()

    def _interarrival_ns(self) -> int:
        return max(1, int(self.rng.expovariate(self.spec.rate_per_s)
                          * SEC))

    def _schedule_next(self) -> None:
        self.sim.schedule(self._interarrival_ns(), self._arrive)

    def _arrive(self) -> None:
        client = self.clients[self.rng.randrange(len(self.clients))]
        size = self.spec.size.sample(self.rng)
        self._emit(size, client)
        self._schedule_next()


class OnOffSource(ArrivalProcess):
    """One client's bursty source: Poisson arrivals during ON periods.

    ON/OFF durations are exponential; the aggregate over clients
    approximates the heavy-tailed burstiness real access links show.
    """

    def __init__(self, sim: Simulator, spec: ArrivalSpec,
                 spawn: SpawnFn, client: str, rng):
        super().__init__(sim, spec, spawn)
        self.client = client
        self.rng = rng
        self._on = False
        self.bursts = 0

    def start(self) -> None:
        # Desynchronise clients: start with an OFF tail.
        self.sim.schedule(self._duration_ns(MEAN_OFF_MS), self._turn_on)

    def _duration_ns(self, mean_ms: float) -> int:
        return max(1, int(self.rng.expovariate(1.0 / mean_ms) * MS))

    def _turn_on(self) -> None:
        self._on = True
        self.bursts += 1
        self.sim.schedule(self._duration_ns(MEAN_ON_MS), self._turn_off)
        self._schedule_arrival(self.bursts)

    def _turn_off(self) -> None:
        self._on = False
        self.sim.schedule(self._duration_ns(MEAN_OFF_MS), self._turn_on)

    def _schedule_arrival(self, burst: int) -> None:
        gap = max(1, int(self.rng.expovariate(self.spec.rate_per_s)
                         * SEC))
        self.sim.schedule(gap, self._arrive, burst)

    def _arrive(self, burst: int) -> None:
        # The burst tag kills stale chains: an arrival scheduled in
        # burst N that lands after burst N+1 began must not spawn a
        # second concurrent arrival chain (rate creep).
        if not self._on or burst != self.bursts:
            return
        self._emit(self.spec.size.sample(self.rng), self.client)
        self._schedule_arrival(burst)


class WebWorkload(ArrivalProcess):
    """Closed-loop request/response users with log-normal objects.

    Each user is pinned to one client and loops think → request →
    wait-for-completion → think.  Users draw from their own RNG
    streams, so one user's completion timing cannot perturb another
    user's (or run-to-run) randomness.
    """

    def __init__(self, sim: Simulator, spec: ArrivalSpec,
                 spawn: SpawnFn, client: str, user_rngs: Sequence):
        super().__init__(sim, spec, spawn)
        self.client = client
        self.user_rngs = list(user_rngs)
        self.requests_completed = 0

    def start(self) -> None:
        for index in range(len(self.user_rngs)):
            self._think(index)

    def _think_ns(self, rng) -> int:
        return max(1, int(rng.expovariate(
            1.0 / self.spec.think_time_ms) * MS))

    def _think(self, user: int) -> None:
        self.sim.schedule(self._think_ns(self.user_rngs[user]),
                          self._request, user)

    def _request(self, user: int) -> None:
        size = self.spec.size.sample(self.user_rngs[user])
        self._emit(size, self.client, lambda u=user: self._done(u))

    def _done(self, user: int) -> None:
        self.requests_completed += 1
        self._think(user)


class TraceArrivals(ArrivalProcess):
    """Deterministic scripted arrivals: ((start_ms, client, size), ...)."""

    def __init__(self, sim: Simulator, spec: ArrivalSpec,
                 spawn: SpawnFn, clients: Sequence[str]):
        super().__init__(sim, spec, spawn)
        self.clients = list(clients)

    def start(self) -> None:
        for start_ms, client_index, size in self.spec.trace:
            delay = max(0, int(start_ms * MS) - self.sim.now)
            self.sim.schedule(delay, self._emit, size,
                              self.clients[client_index])


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
def build_processes(sim: Simulator, spec: ArrivalSpec,
                    spawn: SpawnFn, clients: Sequence[str],
                    rngs) -> List[ArrivalProcess]:
    """Instantiate the processes a validated :class:`ArrivalSpec` describes.

    ``rngs`` is the scenario's :class:`~repro.sim.rng.RngRegistry`;
    every process receives dedicated streams named after its identity
    inside the ``traffic`` namespace, so no arrival process can
    perturb (or be perturbed by) MAC/PHY randomness or other
    processes' draws.
    """
    ns = rngs.namespace("traffic")
    if spec.kind == "poisson":
        return [PoissonArrivals(sim, spec, spawn, clients,
                                ns.stream("poisson"))]
    if spec.kind == "onoff":
        return [OnOffSource(sim, spec, spawn, client,
                            ns.stream(f"onoff-{client}"))
                for client in clients]
    if spec.kind == "web":
        return [WebWorkload(
            sim, spec, spawn, client,
            [ns.stream(f"web-{client}-u{user}")
             for user in range(spec.users_per_client)])
            for client in clients]
    if spec.kind == "trace":
        return [TraceArrivals(sim, spec, spawn, clients)]
    raise ValueError(f"unknown arrival kind {spec.kind!r}")
