"""Channel error models.

Two layers of loss exist in the simulator:

* **PPDU loss** — the whole physical frame is undecodable (collision
  corruption is handled by the medium itself; these models add
  noise-induced loss, e.g. a control frame that fails).
* **Per-MPDU loss** — inside an intact A-MPDU, individual MPDUs carry
  their own FCS and fail independently; the receiving MAC consults
  :meth:`LossModel.mpdu_lost` per subframe.  This is what makes Block
  ACK bitmaps meaningful.

Provided models:

* :class:`NoLoss` — lossless runs (Fig 10 baseline, analytic checks).
* :class:`UniformLossModel` — fixed per-MPDU loss probability, used for
  the SoRa cross-validation runs (the paper injects the measured 12% /
  2% loss rates into ns-3, §4.2).
* :class:`SnrLossModel` — SNR-driven per-rate PER with frame-length
  scaling, used for the Fig 11 SNR sweep (one SNR for every station).
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Optional, Tuple


class LossModel:
    """Base: lossless."""

    def ppdu_lost(self, sender: Any, receiver: Any, frame: Any) -> bool:
        """Whole-PPDU noise loss (control frames, preamble failures)."""
        return False

    def mpdu_lost(self, sender: Any, receiver: Any, mpdu: Any,
                  rate_mbps: float) -> bool:
        """Loss of one MPDU inside an otherwise-decodable PPDU."""
        return False

    # Medium-compatible adapter: the medium only asks about whole PPDUs.
    def is_lost(self, sender: Any, receiver: Any, frame: Any) -> bool:
        return self.ppdu_lost(sender, receiver, frame)


class NoLoss(LossModel):
    """Explicitly lossless (alias of the base, for readable configs)."""


def _keeps_base(model: Any, name: str) -> bool:
    """Whether ``model``'s class keeps :class:`LossModel`'s lossless
    ``name`` method, so a call to it can only answer False.  A class
    that is no ``LossModel`` (a test double) keeps nothing."""
    return getattr(type(model), name, None) is getattr(LossModel, name)


def loses_ppdus(model: Optional[Any]) -> bool:
    """Whether ``model`` can lose a whole PPDU: False for None and for
    a model keeping the base ``is_lost`` and ``ppdu_lost`` (``NoLoss``,
    ``UniformLossModel`` and ``SnrLossModel`` override ``ppdu_lost``)."""
    return model is not None and not (_keeps_base(model, "is_lost")
                                      and _keeps_base(model, "ppdu_lost"))


def loses_mpdus(model: Optional[Any]) -> bool:
    """Whether ``model`` can lose an MPDU inside a decodable PPDU."""
    return model is not None and not _keeps_base(model, "mpdu_lost")


class UniformLossModel(LossModel):
    """Independent uniform per-MPDU loss.

    ``data_loss`` applies to each data MPDU.  Control frames (LL ACKs,
    Block ACKs, BARs) are far more robust in practice (short, sent at a
    basic rate); ``control_loss`` defaults to a quarter of the data rate
    but can be pinned, including to zero.

    Per-receiver overrides support the Fig 9 testbed observation that
    "Client 1 suffers a greater packet loss rate".
    """

    def __init__(self, rng: random.Random, data_loss: float,
                 control_loss: Optional[float] = None,
                 per_receiver: Optional[Dict[Any, float]] = None):
        if not 0.0 <= data_loss < 1.0:
            raise ValueError("data_loss must be in [0, 1)")
        self.rng = rng
        self.data_loss = data_loss
        self.control_loss = (control_loss if control_loss is not None
                             else data_loss / 4.0)
        self.per_receiver = per_receiver or {}

    def _data_rate_for(self, receiver: Any) -> float:
        key = getattr(receiver, "address", receiver)
        return self.per_receiver.get(key, self.data_loss)

    def ppdu_lost(self, sender: Any, receiver: Any, frame: Any) -> bool:
        if getattr(frame, "is_control", False):
            return self.rng.random() < self.control_loss
        return False

    def mpdu_lost(self, sender: Any, receiver: Any, mpdu: Any,
                  rate_mbps: float) -> bool:
        return self.rng.random() < self._data_rate_for(receiver)


#: Minimum SNR (dB) at which each HT40-SGI single-stream rate achieves
#: roughly 10% PER on a 1500-byte frame.  Values follow the usual
#: receiver-sensitivity ladder (about 3 dB per modulation step).
HT40_SNR_MIDPOINT_DB = {
    15.0: 5.0,    # MCS0  BPSK 1/2
    30.0: 8.0,    # MCS1  QPSK 1/2
    45.0: 10.5,   # MCS2  QPSK 3/4
    60.0: 13.5,   # MCS3  16QAM 1/2
    90.0: 17.0,   # MCS4  16QAM 3/4
    120.0: 21.0,  # MCS5  64QAM 2/3
    135.0: 22.5,  # MCS6  64QAM 3/4
    150.0: 24.0,  # MCS7  64QAM 5/6
}

#: Legacy OFDM rates used for control frames.
LEGACY_SNR_MIDPOINT_DB = {
    6.0: 2.0, 9.0: 3.0, 12.0: 4.5, 18.0: 6.5,
    24.0: 8.0, 36.0: 12.0, 48.0: 16.0, 54.0: 18.0,
}

_REFERENCE_FRAME_BYTES = 1500
#: Width of the logistic PER waterfall (dB per e-fold of the odds).
WATERFALL_WIDTH_DB = 1.2


def per_from_snr(snr_db: float, rate_mbps: float, frame_bytes: int,
                 midpoints: Optional[Dict[float, float]] = None
                 ) -> float:
    """Packet error rate from SNR via a logistic waterfall per rate.

    The reference curve gives 10% PER for a 1500-byte frame at the
    rate's midpoint SNR; shorter frames see proportionally fewer bit
    errors (PER scales as ``1-(1-p)^(L/1500)``).
    """
    table = midpoints if midpoints is not None else HT40_SNR_MIDPOINT_DB
    if rate_mbps in table:
        mid = table[rate_mbps]
    elif rate_mbps in LEGACY_SNR_MIDPOINT_DB:
        mid = LEGACY_SNR_MIDPOINT_DB[rate_mbps]
    else:
        raise ValueError(f"no SNR midpoint known for {rate_mbps} Mbps")
    # Logistic waterfall positioned so PER(mid) = 0.1 at reference length:
    # PER(s) = 1 / (1 + exp((s - mid)/width + ln 9)).
    exponent = (snr_db - mid) / WATERFALL_WIDTH_DB + math.log(9.0)
    if exponent > 60:
        per_ref = 0.0
    elif exponent < -60:
        per_ref = 1.0
    else:
        per_ref = 1.0 / (1.0 + math.exp(exponent))
    if per_ref >= 1.0:
        return 1.0
    if frame_bytes == _REFERENCE_FRAME_BYTES:
        return per_ref
    scale = frame_bytes / _REFERENCE_FRAME_BYTES
    return 1.0 - (1.0 - per_ref) ** scale



class SnrLossModel(LossModel):
    """SNR-parameterised loss: per-MPDU PER at the data rate, control
    frames evaluated at their (robust) basic rate.

    One SNR applies to every station.  A run meets few distinct (rate,
    frame length) pairs, so each PER is computed once, for data MPDUs
    and for control PPDUs separately.
    """

    def __init__(self, rng: random.Random, snr_db: float):
        self.rng = rng
        self.snr_db = snr_db
        self._mpdu_per: Dict[Tuple[float, int], float] = {}
        self._control_per: Dict[Tuple[float, int], float] = {}

    def ppdu_lost(self, sender: Any, receiver: Any, frame: Any) -> bool:
        if not getattr(frame, "is_control", False):
            return False
        key = (getattr(frame, "rate_mbps", 24.0),
               getattr(frame, "byte_length", 32))
        per = self._control_per.get(key)
        if per is None:
            per = self._control_per[key] = per_from_snr(
                self.snr_db, *key, midpoints=LEGACY_SNR_MIDPOINT_DB)
        return self.rng.random() < per

    def mpdu_lost(self, sender: Any, receiver: Any, mpdu: Any,
                  rate_mbps: float) -> bool:
        key = (rate_mbps,
               getattr(mpdu, "byte_length", _REFERENCE_FRAME_BYTES))
        per = self._mpdu_per.get(key)
        if per is None:
            per = self._mpdu_per[key] = per_from_snr(self.snr_db, *key)
        return self.rng.random() < per
