"""Per-Simulator frame ids: identical runs yield identical ids.

Frame ids used to come from a process-global ``itertools.count``, so
the ids one simulation observed depended on every simulation the
process had executed before it — test order, sweep order, even an
unrelated benchmark in the same interpreter.  ``Simulator.new_frame_id``
scopes the counter to the run: back-to-back identical scenarios now
produce identical id sequences regardless of interleaved work.
"""

from repro.mac.dcf import DcfMac, MacUpper
from repro.mac.frames import Mpdu
from repro.mac.params import MacParams
from repro.phy.params import PHY_11N
from repro.sim.engine import Simulator
from repro.sim.medium import Medium

from tests.helpers import FakePayload


class _IdRecorder(MacUpper):
    def __init__(self):
        self.frame_ids = []

    def on_mpdus_delivered(self, mpdus, sender):
        self.frame_ids += [mpdu.frame_id for mpdu in mpdus]


class _Rng:
    def randint(self, lo, hi):
        return 0


def _run_cell(n_payloads: int, payload_bytes: int = 1500):
    """One tiny AP -> client download; returns delivered frame ids."""
    sim = Simulator()
    medium = Medium(sim)
    params = MacParams(data_rate_mbps=150.0, aggregation=True,
                       queue_limit=None)
    recorder = _IdRecorder()
    ap = DcfMac(sim, medium, PHY_11N, "AP", params, _Rng())
    DcfMac(sim, medium, PHY_11N, "C1", params, _Rng(),
           upper=recorder)
    for _ in range(n_payloads):
        ap.enqueue(FakePayload(byte_length=payload_bytes), "C1")
    sim.run(until=20_000_000)
    return recorder.frame_ids


def test_new_frame_id_counts_from_one():
    sim = Simulator()
    assert [sim.new_frame_id() for _ in range(3)] == [1, 2, 3]


def test_back_to_back_runs_produce_identical_ids():
    first = _run_cell(8)
    second = _run_cell(8)
    assert first, "expected delivered MPDUs"
    assert first == second


def test_ids_survive_interleaved_unrelated_work():
    reference = _run_cell(6)
    # Unrelated simulations and direct (fallback-counter) Mpdu
    # construction in between must not shift the next run's ids.
    _run_cell(3, payload_bytes=400)
    for seq in range(25):
        Mpdu(src="X", dst="Y", seq=seq, payload=FakePayload())
    assert _run_cell(6) == reference


def test_ids_are_contiguous_per_run():
    ids = _run_cell(10)
    # Every transmitted MPDU draws from the same per-run counter, so
    # a single-destination run sees 1..n in order.
    assert ids == sorted(ids)
    assert ids[0] == 1
