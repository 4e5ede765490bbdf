"""Loss models: uniform, SNR waterfall, path loss."""

import random

import pytest

from repro.phy.errors import HT40_SNR_MIDPOINT_DB, LEGACY_SNR_MIDPOINT_DB, \
    NoLoss, SnrLossModel, UniformLossModel, per_from_snr

from tests.helpers import FakeFrame, snr_from_distance


class Receiver:
    def __init__(self, address):
        self.address = address


class TestNoLoss:
    def test_never_loses(self):
        model = NoLoss()
        assert not model.is_lost(None, None, FakeFrame())
        assert not model.mpdu_lost(None, None, FakeFrame(), 54.0)


class TestUniform:
    def test_mpdu_loss_rate(self, rng):
        model = UniformLossModel(rng, data_loss=0.25)
        n = 20_000
        lost = sum(model.mpdu_lost(None, Receiver("C1"), FakeFrame(), 54.0)
                   for _ in range(n))
        assert lost / n == pytest.approx(0.25, abs=0.02)

    def test_per_receiver_override(self, rng):
        model = UniformLossModel(rng, data_loss=0.0,
                                 per_receiver={"C1": 1.0})
        assert model.mpdu_lost(None, Receiver("C1"), FakeFrame(), 54.0)
        assert not model.mpdu_lost(None, Receiver("C2"), FakeFrame(), 54.0)

    def test_control_loss_defaults_to_quarter(self, rng):
        model = UniformLossModel(rng, data_loss=0.2)
        assert model.control_loss == pytest.approx(0.05)

    def test_control_loss_only_for_control_frames(self, rng):
        model = UniformLossModel(rng, data_loss=0.0, control_loss=1.0)
        ctrl = FakeFrame(is_control=True)
        data = FakeFrame(is_control=False)
        assert model.ppdu_lost(None, Receiver("C1"), ctrl)
        assert not model.ppdu_lost(None, Receiver("C1"), data)

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            UniformLossModel(rng, data_loss=1.5)


class TestPerFromSnr:
    def test_waterfall_monotone_in_snr(self):
        pers = [per_from_snr(snr, 150.0, 1500)
                for snr in (10, 15, 20, 24, 28, 32)]
        assert all(a >= b for a, b in zip(pers, pers[1:]))

    def test_midpoint_gives_ten_percent(self):
        mid = HT40_SNR_MIDPOINT_DB[150.0]
        assert per_from_snr(mid, 150.0, 1500) == pytest.approx(0.1,
                                                               rel=0.05)

    def test_high_snr_lossless(self):
        assert per_from_snr(40.0, 150.0, 1500) < 1e-4

    def test_low_snr_hopeless(self):
        assert per_from_snr(0.0, 150.0, 1500) > 0.99

    def test_shorter_frames_more_robust(self):
        mid = HT40_SNR_MIDPOINT_DB[150.0]
        assert per_from_snr(mid, 150.0, 100) < \
            per_from_snr(mid, 150.0, 1500)

    def test_lower_rates_more_robust(self):
        snr = 10.0
        assert per_from_snr(snr, 15.0, 1500) < \
            per_from_snr(snr, 150.0, 1500)

    def test_unknown_rate_rejected(self):
        with pytest.raises(ValueError):
            per_from_snr(20.0, 33.0, 1500)


class TestPathLoss:
    def test_reference_point(self):
        assert snr_from_distance(1.0) == 40.0

    def test_log_distance(self):
        assert snr_from_distance(10.0, 40.0, 3.0) == pytest.approx(10.0)

    def test_monotone_decreasing(self):
        snrs = [snr_from_distance(d) for d in (1, 2, 5, 10, 20)]
        assert all(a > b for a, b in zip(snrs, snrs[1:]))

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            snr_from_distance(0.0)


class TestSnrLossModel:
    def test_high_snr_reliable(self, rng):
        model = SnrLossModel(rng, snr_db=35.0)
        lost = sum(model.mpdu_lost(None, Receiver("C1"),
                                   FakeFrame(byte_length=1500), 150.0)
                   for _ in range(1000))
        assert lost == 0

    def test_low_snr_lossy(self, rng):
        model = SnrLossModel(rng, snr_db=10.0)
        lost = sum(model.mpdu_lost(None, Receiver("C1"),
                                   FakeFrame(byte_length=1500), 150.0)
                   for _ in range(1000))
        assert lost > 900

    def test_per_receiver_snr(self, rng):
        model = SnrLossModel(rng, snr_db=35.0,
                             per_receiver_snr={"C2": 0.0})
        assert model.mpdu_lost(None, Receiver("C2"),
                               FakeFrame(byte_length=1500), 150.0)

    def test_control_frames_use_basic_rate_robustness(self, rng):
        # At 12 dB a 150 Mbps data MPDU is hopeless but a 24 Mbps
        # control frame is fine.
        model = SnrLossModel(rng, snr_db=12.0)
        ctrl = FakeFrame(byte_length=32, is_control=True)
        ctrl.rate_mbps = 24.0
        lost = sum(model.ppdu_lost(None, Receiver("C1"), ctrl)
                   for _ in range(1000))
        assert lost < 50

    def test_memoised_per_draws_as_the_formula_does(self):
        """Each (SNR, rate, length) PER is computed once per model, for
        MPDUs and control PPDUs apart; every draw must still be the
        one ``per_from_snr`` gives.  The SNRs and rates sit on the
        waterfall, where a stale or crossed entry flips draws."""
        model = SnrLossModel(random.Random(7), snr_db=22.0,
                             per_receiver_snr={"C2": 6.0})
        reference = random.Random(7)
        pick = random.Random(1)
        draws = []
        for step in range(1000):
            receiver = Receiver(pick.choice(("C1", "C2")))
            snr = model._snr_for(receiver)
            length = pick.choice((1500, 800, 120))
            if pick.random() < 0.2:
                frame = FakeFrame(byte_length=length, is_control=True)
                frame.rate_mbps = pick.choice((12.0, 24.0))
                per = per_from_snr(snr, frame.rate_mbps, length,
                                   midpoints=LEGACY_SNR_MIDPOINT_DB)
                lost = model.ppdu_lost(None, receiver, frame)
            else:
                rate = pick.choice((120.0, 135.0, 150.0))
                per = per_from_snr(snr, rate, length)
                lost = model.mpdu_lost(None, receiver,
                                       FakeFrame(byte_length=length),
                                       rate)
            assert lost == (reference.random() < per), step
            draws.append(lost)
        assert 0 < sum(draws) < len(draws)
