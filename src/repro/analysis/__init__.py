"""Analytical capacity models (paper Fig 1 / Fig 12)."""

from .capacity import CapacityPoint, hack_goodput_11a, hack_goodput_11n, \
    tcp_goodput_11a, tcp_goodput_11n

__all__ = ["CapacityPoint", "tcp_goodput_11a", "hack_goodput_11a",
           "tcp_goodput_11n", "hack_goodput_11n"]
