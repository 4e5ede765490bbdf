"""Seeded RNG streams: determinism and independence."""

from repro.sim.rng import RngRegistry, _stable_hash

from tests.helpers import stream_names


class TestStreams:
    def test_same_seed_same_sequence(self):
        a = RngRegistry(7).stream("mac")
        b = RngRegistry(7).stream("mac")
        assert [a.random() for _ in range(10)] == \
            [b.random() for _ in range(10)]

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("mac")
        b = RngRegistry(2).stream("mac")
        assert [a.random() for _ in range(5)] != \
            [b.random() for _ in range(5)]

    def test_streams_independent_of_creation_order(self):
        r1 = RngRegistry(3)
        r2 = RngRegistry(3)
        first_a = r1.stream("a").random()
        r2.stream("b")  # create b first in the other registry
        assert r2.stream("a").random() == first_a

    def test_stream_identity_cached(self):
        reg = RngRegistry(1)
        assert reg.stream("x") is reg.stream("x")

    def test_named_streams_differ(self):
        reg = RngRegistry(1)
        assert reg.stream("a").random() != reg.stream("b").random()


class TestNamespace:
    def test_prefixes_the_underlying_stream(self):
        reg = RngRegistry(5)
        ns = reg.namespace("traffic")
        assert ns.stream("poisson") is reg.stream("traffic:poisson")

    def test_isolated_from_bare_names(self):
        reg = RngRegistry(5)
        assert reg.namespace("traffic").stream("x") is not \
            reg.stream("x")

    def test_nested_namespaces(self):
        reg = RngRegistry(5)
        nested = reg.namespace("a").namespace("b")
        assert nested.stream("c") is reg.stream("a:b:c")

    def test_deterministic_across_registries(self):
        a = RngRegistry(9).namespace("traffic").stream("web-C1-u0")
        b = RngRegistry(9).namespace("traffic").stream("web-C1-u0")
        assert a.random() == b.random()

    def test_stream_names_lists_created(self):
        reg = RngRegistry(1)
        reg.stream("mac-AP")
        reg.namespace("traffic").stream("poisson")
        assert stream_names(reg) == ["mac-AP", "traffic:poisson"]


class TestStableHash:
    def test_deterministic(self):
        assert _stable_hash("phy-loss") == _stable_hash("phy-loss")

    def test_distinct(self):
        assert _stable_hash("a") != _stable_hash("b")

    def test_empty(self):
        assert isinstance(_stable_hash(""), int)
