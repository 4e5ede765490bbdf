"""Multi-cell Medium semantics: per-cell dispatch groups sharing one
collision domain (carrier sense and collisions are global; decoding —
and its cost — stays inside the transmitter's cell)."""

import pytest

from repro.sim.medium import DEFAULT_CELL, Medium
from repro.sim.units import usec

from tests.helpers import FakeFrame, RecordingListener


class AddressedListener(RecordingListener):
    """Listener with a MAC address that tells received from overheard."""

    def __init__(self, sim, address):
        super().__init__(sim, address)
        self.address = address

    def on_frame_overheard(self, frame, sender) -> None:
        self.events.append(("oh", self.sim.now, frame, sender))


def two_cells(sim, loss_model=None):
    """Two 2-station cells; addresses deliberately duplicated across
    cells ('AP' in both) to prove dispatch resolves per cell."""
    medium = Medium(sim, loss_model=loss_model)
    cell_a = [AddressedListener(sim, "AP"),
              AddressedListener(sim, "C1")]
    cell_b = [AddressedListener(sim, "AP"),
              AddressedListener(sim, "C1")]
    for node in cell_a:
        medium.attach(node, cell=0)
    for node in cell_b:
        medium.attach(node, cell=1)
    return medium, cell_a, cell_b


class TestCellDispatch:
    def test_intact_frame_stays_in_sender_cell(self, sim):
        medium, (ap_a, c1_a), (ap_b, c1_b) = two_cells(sim)
        medium.transmit(ap_a, FakeFrame(dst="C1"), usec(100))
        sim.run()
        assert len(c1_a.of_kind("rx")) == 1      # addressed, own cell
        assert len(ap_a.of_kind("rx")) == 0      # the sender
        # The other cell senses energy only: busy/idle, no decode.
        for node in (ap_b, c1_b):
            assert node.of_kind("rx") == []
            assert node.of_kind("oh") == []
            assert node.of_kind("err") == []
            assert len(node.of_kind("busy")) == 1
            assert len(node.of_kind("idle")) == 1

    def test_duplicate_addresses_resolve_per_cell(self, sim):
        medium, (ap_a, c1_a), (ap_b, c1_b) = two_cells(sim)
        medium.transmit(c1_b, FakeFrame(dst="AP"), usec(50))
        sim.run()
        assert len(ap_b.of_kind("rx")) == 1      # cell B's AP, not A's
        assert ap_a.of_kind("rx") == []
        assert ap_a.of_kind("oh") == []

    def test_overheard_within_cell_only(self, sim):
        medium, (ap_a, c1_a), (ap_b, c1_b) = two_cells(sim)
        third = AddressedListener(sim, "C2")
        medium.attach(third, cell=0)
        medium.transmit(ap_a, FakeFrame(dst="C1"), usec(10))
        sim.run()
        assert len(third.of_kind("oh")) == 1     # same cell, other dst
        assert c1_b.of_kind("oh") == []          # other cell: nothing

    def test_cross_cell_collision_corrupts_both_everywhere(self, sim):
        medium, (ap_a, c1_a), (ap_b, c1_b) = two_cells(sim)
        medium.transmit(ap_a, FakeFrame("fa", dst="C1"), usec(100))
        sim.schedule(usec(40), medium.transmit, ap_b,
                     FakeFrame("fb", dst="C1"), usec(100))
        sim.run()
        # Both frames are garbage for every station on the channel.
        assert len(c1_a.of_kind("err")) == 2
        assert len(c1_b.of_kind("err")) == 2
        assert c1_a.of_kind("rx") == []
        assert c1_b.of_kind("rx") == []
        assert medium.frames_collided == 2

    def test_busy_idle_broadcast_across_cells(self, sim):
        medium, cell_a, cell_b = two_cells(sim)
        medium.transmit(cell_a[0], FakeFrame(dst="C1"), usec(100))
        sim.run()
        for node in cell_a[1:] + cell_b:
            assert node.of_kind("busy") == [("busy", 0)]
            assert node.of_kind("idle") == [("idle", usec(100))]

    def test_unattached_sender_transmits_in_default_cell(self, sim):
        medium, (ap_a, c1_a), (ap_b, c1_b) = two_cells(sim)
        stranger = object()
        medium.transmit(stranger, FakeFrame(dst="C1"), usec(10))
        sim.run()
        assert len(c1_a.of_kind("rx")) == 1
        assert c1_b.of_kind("rx") == []
        assert medium.cell_stats(DEFAULT_CELL)["frames_sent"] == 1


class TestCellAccounting:
    def test_attaching_a_listener_twice_is_refused(self, sim):
        # A second attach used to double every callback and silently
        # move the listener to the new cell.
        medium, (ap_a, _), _ = two_cells(sim)
        with pytest.raises(ValueError, match="already attached"):
            medium.attach(ap_a, cell=1)
        with pytest.raises(ValueError, match=repr(ap_a)):
            medium.attach(ap_a, cell=0)
        assert medium.cell_of(ap_a) == 0
        assert medium.listeners.count(ap_a) == 1
        medium.transmit(object(), FakeFrame(dst="nobody"), usec(10))
        sim.run()
        assert len(ap_a.of_kind("busy")) == 1
        assert len(ap_a.of_kind("idle")) == 1

    def test_cell_keys_and_cell_of(self, sim):
        medium, (ap_a, _), (ap_b, _) = two_cells(sim)
        assert medium.cell_keys() == [0, 1]
        assert medium.cell_of(ap_a) == 0
        assert medium.cell_of(ap_b) == 1
        assert medium.cell_of(object()) == DEFAULT_CELL

    def test_clean_airtime_credited_to_sender_cell(self, sim):
        medium, (ap_a, _), (ap_b, _) = two_cells(sim)
        medium.transmit(ap_a, FakeFrame(dst="C1"), usec(100))
        sim.schedule(usec(200), medium.transmit, ap_b,
                     FakeFrame(dst="C1"), usec(50))
        sim.run()
        assert medium.cell_stats(0)["airtime_ns"] == usec(100)
        assert medium.cell_stats(1)["airtime_ns"] == usec(50)
        assert medium.cell_stats(0)["frames_sent"] == 1
        assert medium.cell_stats(0)["frames_collided"] == 0

    def test_collided_airtime_not_credited(self, sim):
        medium, (ap_a, _), (ap_b, _) = two_cells(sim)
        medium.transmit(ap_a, FakeFrame(dst="C1"), usec(100))
        sim.schedule(usec(40), medium.transmit, ap_b,
                     FakeFrame(dst="C1"), usec(100))
        sim.run()
        assert medium.cell_stats(0)["airtime_ns"] == 0
        assert medium.cell_stats(1)["airtime_ns"] == 0
        assert medium.cell_stats(0)["frames_collided"] == 1
        assert medium.cell_stats(1)["frames_collided"] == 1
        # The channel was still busy for the overlap's span.
        assert medium.busy_time == usec(140)

    def test_airtime_share_window(self, sim):
        medium, (ap_a, _), _ = two_cells(sim)
        medium.transmit(ap_a, FakeFrame(dst="C1"), usec(100))
        sim.run()
        assert medium.cell_airtime_share(0, usec(200)) == \
            pytest.approx(0.5)
        assert medium.cell_airtime_share(1, usec(200)) == 0.0
        # Shorter-than-busy windows clamp, like utilisation().
        assert medium.cell_airtime_share(0, usec(10)) == 1.0
        with pytest.raises(ValueError):
            medium.cell_airtime_share(0, -1)

    def test_unknown_cell_reads_as_empty(self, sim):
        medium = Medium(sim)
        assert medium.cell_stats("nope") == {
            "airtime_ns": 0, "frames_sent": 0, "frames_collided": 0}
        assert medium.cell_airtime_share("nope", usec(1)) == 0.0
