"""Property tests: Medium utilisation / busy-window bookkeeping under
interleaved multi-cell transmissions.

The invariants every scaling PR leans on:

* ``utilisation()`` is always in [0, 1], whatever window it is asked
  about;
* ``busy_until`` is monotone non-decreasing within one busy period
  (new transmissions can only extend it, never shrink it);
* ``busy_time`` equals the length of the *union* of transmission
  intervals — concurrent transmissions (same cell or not) are never
  double-counted;
* per-cell clean airtime equals the summed durations of that cell's
  non-collided transmissions, and summed across cells it can never
  exceed the busy union (clean transmissions are disjoint by the
  definition of a collision).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.sim.engine import Simulator
from repro.sim.medium import Medium

from tests.helpers import FakeFrame, RecordingListener

#: One scheduled transmission: (cell, start_ns, duration_ns).
TX = st.tuples(st.integers(0, 2), st.integers(0, 2000),
               st.integers(1, 600))

#: A channel-tagged transmission: (channel, cell, start_ns, dur_ns).
CH_TX = st.tuples(st.integers(0, 2), st.integers(0, 2),
                  st.integers(0, 2000), st.integers(1, 600))


def interval_union(intervals):
    total, last_end = 0, None
    for start, end in sorted(intervals):
        if last_end is None or start >= last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def build_and_run(txs):
    """Run every (cell, start, duration) transmission; sample
    ``busy_until`` at each start/end instant."""
    sim = Simulator()
    medium = Medium(sim)
    senders = {cell: RecordingListener(sim, f"s{cell}")
               for cell in sorted({cell for cell, _, _ in txs})}
    for cell, sender in senders.items():
        medium.attach(sender, cell=cell)

    samples = []        # (now, busy_until) at every start and end

    def sample():
        samples.append((sim.now, medium.busy_until))

    def start_tx(cell, duration):
        medium.transmit(senders[cell], FakeFrame(), duration)
        sample()

    for cell, start, duration in txs:
        sim.schedule(start, start_tx, cell, duration)
        # Priority above the end event's -1 so the end-of-busy sample
        # sees the post-removal state.
        sim.schedule(start + duration, sample, priority=0)
    sim.run()
    return medium, samples


class TestBusyWindowProperties:
    @settings(max_examples=120, deadline=None)
    @given(txs=st.lists(TX, min_size=1, max_size=14))
    def test_busy_time_is_interval_union(self, txs):
        medium, _ = build_and_run(txs)
        expected = interval_union(
            (start, start + duration) for _, start, duration in txs)
        assert medium.busy_time == expected

    @settings(max_examples=120, deadline=None)
    @given(txs=st.lists(TX, min_size=1, max_size=14),
           window=st.integers(0, 4000))
    def test_utilisation_always_in_unit_interval(self, txs, window):
        medium, _ = build_and_run(txs)
        assert 0.0 <= medium.utilisation() <= 1.0
        assert 0.0 <= medium.utilisation(window) <= 1.0

    @settings(max_examples=120, deadline=None)
    @given(txs=st.lists(TX, min_size=1, max_size=14))
    def test_busy_until_monotone_within_busy_period(self, txs):
        _, samples = build_and_run(txs)
        high = None
        for _, busy_until in samples:
            if busy_until is None:      # idle: the period ended
                high = None
                continue
            if high is not None:
                assert busy_until >= high
            high = busy_until

    @settings(max_examples=120, deadline=None)
    @given(txs=st.lists(TX, min_size=1, max_size=14))
    def test_per_cell_airtime_no_double_count(self, txs):
        medium, _ = build_and_run(txs)
        intervals = [(start, start + duration)
                     for _, start, duration in txs]

        def overlaps_another(i):
            s_i, e_i = intervals[i]
            return any(j != i and s_j < e_i and s_i < e_j
                       for j, (s_j, e_j) in enumerate(intervals))

        expected = {}
        for i, (cell, start, duration) in enumerate(txs):
            if not overlaps_another(i):
                expected[cell] = expected.get(cell, 0) + duration
        for cell in medium.cell_keys():
            assert medium.cell_stats(cell)["airtime_ns"] == \
                expected.get(cell, 0)
        # Clean airtime is globally disjoint: cells can never jointly
        # claim more than the busy union.
        assert sum(medium.cell_stats(c)["airtime_ns"]
                   for c in medium.cell_keys()) <= medium.busy_time

    @settings(max_examples=80, deadline=None)
    @given(txs=st.lists(TX, min_size=1, max_size=14),
           window=st.integers(1, 4000))
    def test_cell_shares_sum_below_one(self, txs, window):
        medium, _ = build_and_run(txs)
        shares = [medium.cell_airtime_share(c, window)
                  for c in medium.cell_keys()]
        assert all(0.0 <= share <= 1.0 for share in shares)
        # Shares are exact (un-clamped) whenever the window covers the
        # run, so the disjointness argument bounds their sum by 1.
        if window >= max(s + d for _, s, d in txs):
            assert sum(shares) <= 1.0


def build_channelized(txs):
    """Drive a ``{channel: Medium}`` map over one simulator with
    channel-tagged transmissions."""
    sim = Simulator()
    media = {}
    senders = {}
    for channel, cell, _, _ in txs:
        if channel not in media:
            media[channel] = Medium(sim)
        key = (channel, cell)
        if key not in senders:
            senders[key] = RecordingListener(sim,
                                             f"s{channel}-{cell}")
            media[channel].attach(senders[key], cell=cell)

    def start_tx(channel, cell, duration):
        media[channel].transmit(senders[(channel, cell)],
                                FakeFrame(), duration)

    for channel, cell, start, duration in txs:
        sim.schedule(start, start_tx, channel, cell, duration)
    sim.run()
    return media


class TestMultiChannelProperties:
    """The per-channel scoping of every single-medium invariant.

    Channels are separate ``Medium`` instances, so cross-channel
    transmissions must be mutually invisible: each channel's busy
    union and airtime-share bound depend only on that channel's
    transmissions, while the *city-wide* share sum may exceed 1 (one
    fully-busy medium per channel)."""

    @settings(max_examples=100, deadline=None)
    @given(txs=st.lists(CH_TX, min_size=1, max_size=14))
    def test_per_channel_busy_union_ignores_other_channels(self, txs):
        media = build_channelized(txs)
        for channel, medium in media.items():
            expected = interval_union(
                (start, start + duration)
                for ch, _, start, duration in txs if ch == channel)
            assert medium.busy_time == expected

    @settings(max_examples=100, deadline=None)
    @given(txs=st.lists(CH_TX, min_size=1, max_size=14))
    def test_airtime_share_sums_bounded_per_channel(self, txs):
        """The <= 1 disjointness bound holds *within* each channel;
        summed across channels it is bounded by the channel count."""
        media = build_channelized(txs)
        window = max(s + d for _, _, s, d in txs)
        total = 0.0
        for medium in media.values():
            shares = sum(medium.cell_airtime_share(c, window)
                         for c in medium.cell_keys())
            assert 0.0 <= shares <= 1.0
            total += shares
        assert total <= len(media)

    @settings(max_examples=100, deadline=None)
    @given(txs=st.lists(CH_TX, min_size=1, max_size=14))
    def test_per_channel_counters(self, txs):
        """Each medium counts exactly the frames sent on its channel,
        and its busy fraction stays in [0, 1]."""
        media = build_channelized(txs)
        window = max(s + d for _, _, s, d in txs)
        for channel, medium in media.items():
            assert medium.frames_sent == \
                sum(1 for ch, _, _, _ in txs if ch == channel)
            assert 0.0 <= medium.utilisation(window) <= 1.0
