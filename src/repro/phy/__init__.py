"""Physical layer: OFDM timings, rate tables, channel error models."""

from .errors import LossModel, NoLoss, SnrLossModel, UniformLossModel, \
    per_from_snr
from .params import HT40_SGI_RATES_1SS, PHY_11A, PHY_11N, PhyParams, \
    ht_rates_for_streams, phy_11n_with_rates

__all__ = [
    "PhyParams", "PHY_11A", "PHY_11N", "HT40_SGI_RATES_1SS",
    "ht_rates_for_streams", "phy_11n_with_rates",
    "LossModel", "NoLoss", "UniformLossModel", "SnrLossModel",
    "per_from_snr",
]
