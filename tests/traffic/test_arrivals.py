"""Arrival processes: shapes, determinism, and spec validation."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.units import MS, SEC
from repro.traffic.arrivals import LARGE_BYTES, MAX_BYTES, \
    MIN_BYTES, SMALL_BYTES, ArrivalSpec, OnOffSource, PoissonArrivals, \
    SizeSpec, TraceArrivals, WebWorkload, build_processes


class SpawnLog:
    """Records (time, size, client) and optionally completes flows."""

    def __init__(self, sim, complete_after_ns=None):
        self.sim = sim
        self.complete_after_ns = complete_after_ns
        self.calls = []

    def __call__(self, size, client, on_done=None):
        self.calls.append((self.sim.now, size, client))
        if on_done is not None and self.complete_after_ns is not None:
            self.sim.schedule(self.complete_after_ns, on_done)
        return object()


class TestSizeSpec:
    def test_fixed(self):
        spec = SizeSpec(kind="fixed", bytes=5000)
        assert spec.sample(random.Random(1)) == 5000

    def test_lognormal_clamped(self):
        spec = SizeSpec(kind="lognormal", median_bytes=50_000,
                        sigma=4.0)
        rng = random.Random(7)
        samples = [spec.sample(rng) for _ in range(500)]
        assert all(MIN_BYTES <= s <= MAX_BYTES for s in samples)
        # sigma 4 reaches past both ends of the clamp.
        assert MIN_BYTES in samples and MAX_BYTES in samples
        assert len(set(samples)) > 100  # actually random

    def test_bimodal_mixes(self):
        spec = SizeSpec(kind="bimodal")
        rng = random.Random(3)
        samples = [spec.sample(rng) for _ in range(200)]
        assert set(samples) == {SMALL_BYTES, LARGE_BYTES}
        small = samples.count(SMALL_BYTES)
        assert 160 < small < 200      # P_SMALL = 0.9

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown size kind"):
            SizeSpec(kind="zipf").sample(random.Random(1))


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            ArrivalSpec(kind="fractal").validate(1)

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            ArrivalSpec(direction="sideways").validate(1)

    def test_nonpositive_rate(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            ArrivalSpec(kind="poisson", rate_per_s=0).validate(1)

    def test_web_nonpositive_think_time(self):
        with pytest.raises(ValueError, match="think_time_ms"):
            ArrivalSpec(kind="web", think_time_ms=0.0).validate(1)

    def test_trace_client_out_of_range(self):
        spec = ArrivalSpec(kind="trace", trace=((0.0, 5, 1000),))
        with pytest.raises(ValueError, match="client index"):
            spec.validate(2)

    def test_trace_bad_size(self):
        spec = ArrivalSpec(kind="trace", trace=((0.0, 0, 0),))
        with pytest.raises(ValueError, match="sizes must be positive"):
            spec.validate(1)


class TestPoisson:
    def test_rate_roughly_respected(self):
        sim = Simulator()
        log = SpawnLog(sim)
        spec = ArrivalSpec(kind="poisson", rate_per_s=100.0,
                           size=SizeSpec(kind="fixed", bytes=1000))
        proc = PoissonArrivals(sim, spec, log, ["C1", "C2"],
                               random.Random(11))
        proc.start()
        sim.run(until=2 * SEC)
        assert 140 < len(log.calls) < 260      # ~200 expected
        assert {c for _, _, c in log.calls} == {"C1", "C2"}


class TestOnOff:
    def test_bursty_gaps(self):
        sim = Simulator()
        log = SpawnLog(sim)
        spec = ArrivalSpec(kind="onoff", rate_per_s=500.0,
                           size=SizeSpec(kind="fixed", bytes=1000))
        proc = OnOffSource(sim, spec, log, "C1", random.Random(9))
        proc.start()
        sim.run(until=3 * SEC)
        assert proc.bursts >= 2
        assert log.calls
        # Bursty: at least one inter-arrival gap far exceeds the
        # in-burst spacing (1/500 s = 2 ms).
        times = [t for t, _, _ in log.calls]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) > 50 * MS


class TestWeb:
    def test_closed_loop_waits_for_completion(self):
        sim = Simulator()
        # Completion takes 300 ms; think time is tiny, so the request
        # rate is completion-bound: ~1 per 300 ms per user.
        log = SpawnLog(sim, complete_after_ns=300 * MS)
        spec = ArrivalSpec(kind="web", users_per_client=1,
                           think_time_ms=1.0,
                           size=SizeSpec(kind="fixed", bytes=1000))
        proc = WebWorkload(sim, spec, log, "C1", [random.Random(2)])
        proc.start()
        sim.run(until=3 * SEC)
        assert 5 <= len(log.calls) <= 11
        assert proc.requests_completed >= 5

    def test_users_are_independent_streams(self):
        # Two users with identical seeds would collide; the registry
        # derives distinct streams per user name.
        sim = Simulator()
        log = SpawnLog(sim, complete_after_ns=10 * MS)
        rngs = RngRegistry(1)
        spec = ArrivalSpec(kind="web", users_per_client=2,
                           think_time_ms=50.0)
        procs = build_processes(sim, spec, log, ["C1"], rngs)
        assert len(procs) == 1
        u0, u1 = procs[0].user_rngs
        assert u0.random() != u1.random()


class TestTrace:
    def test_exact_times_and_sizes(self):
        sim = Simulator()
        log = SpawnLog(sim)
        spec = ArrivalSpec(
            kind="trace",
            trace=((0.0, 0, 1000), (10.5, 1, 2000), (300.0, 0, 3000)))
        proc = TraceArrivals(sim, spec, log, ["C1", "C2"])
        proc.start()
        sim.run(until=1 * SEC)
        assert log.calls == [
            (0, 1000, "C1"),
            (int(10.5 * MS), 2000, "C2"),
            (300 * MS, 3000, "C1"),
        ]


class TestFactory:
    def test_one_process_per_client_kinds(self):
        sim = Simulator()
        rngs = RngRegistry(1)
        clients = ["C1", "C2", "C3"]
        spawn = SpawnLog(sim)
        assert len(build_processes(
            sim, ArrivalSpec(kind="poisson"), spawn, clients,
            rngs)) == 1
        assert len(build_processes(
            sim, ArrivalSpec(kind="onoff"), spawn, clients,
            rngs)) == 3
        assert len(build_processes(
            sim, ArrivalSpec(kind="web"), spawn, clients, rngs)) == 3
        assert len(build_processes(
            sim, ArrivalSpec(kind="trace"), spawn, clients,
            rngs)) == 1

    def test_streams_do_not_depend_on_creation_order(self):
        sim = Simulator()
        spawn = SpawnLog(sim)
        a = build_processes(sim, ArrivalSpec(kind="onoff"), spawn,
                            ["C1", "C2"], RngRegistry(4))
        b = build_processes(sim, ArrivalSpec(kind="onoff"), spawn,
                            ["C2", "C1"], RngRegistry(4))
        by_client_a = {p.client: p.rng.random() for p in a}
        by_client_b = {p.client: p.rng.random() for p in b}
        assert by_client_a == by_client_b
