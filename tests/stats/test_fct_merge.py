"""FctCollector merge across cells.

Multi-AP runs keep one collector per cell and merge them into the
combined ``fct`` block; these tests pin the contract: merged
collectors summarise exactly like one collector fed everything, and a
merge leaves its source untouched.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.units import MS
from repro.stats.fct import FctCollector

#: (size_bytes, fct_ms or None for censored, delivered_bytes)
FLOW = st.tuples(
    st.integers(1_000, 2_000_000),
    st.one_of(st.none(),
              st.floats(0.05, 50_000.0, allow_nan=False)),
    st.integers(0, 2_000_000))

#: A "cell" is a list of flow lives; cells may be empty.
CELLS = st.lists(st.lists(FLOW, max_size=40), min_size=1, max_size=4)


def feed(collector, flows, base_id=0):
    for index, (size, fct_ms, delivered) in enumerate(flows):
        record = collector.open(base_id + index, f"C{index % 3}",
                                "download", size, now=0)
        if fct_ms is not None:
            record.end_ns = int(fct_ms * MS)
            record.bytes_delivered = size
        else:
            record.bytes_delivered = min(delivered, size)


def merged(cls, cells):
    """Per-cell collectors of ``cls``, merged into a fresh one."""
    combined = cls()
    for index, flows in enumerate(cells):
        per_cell = cls()
        feed(per_cell, flows, base_id=1000 * index)
        combined.merge(per_cell)
    return combined


class TestExactMerge:
    @settings(max_examples=80, deadline=None)
    @given(cells=CELLS)
    def test_merged_collectors_equal_single_collector(self, cells):
        everything = FctCollector()
        for index, flows in enumerate(cells):
            feed(everything, flows, base_id=1000 * index)
        assert merged(FctCollector, cells).summary(10 ** 9) == \
            everything.summary(10 ** 9)

    def test_merge_leaves_source_untouched(self):
        source = FctCollector()
        feed(source, [(10_000, 5.0, 10_000)])
        target = FctCollector()
        target.merge(source)
        assert len(source.records) == 1
        assert target.records == source.records
