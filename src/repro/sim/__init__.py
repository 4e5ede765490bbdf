"""Discrete-event simulation substrate: engine, medium, wired links."""

from .engine import Event, Simulator, Timer, Train
from .medium import Medium, MediumListener, Transmission
from .rng import RngRegistry
from .units import MS, NS, SEC, US, msec, sec, throughput_mbps, to_msec, \
    to_sec, to_usec, transmission_time_ns, usec
from .wired import WiredLink, WiredPipe

__all__ = [
    "Event", "Simulator", "Timer", "Train", "Medium", "MediumListener",
    "Transmission",
    "RngRegistry", "WiredLink", "WiredPipe",
    "NS", "US", "MS", "SEC", "usec", "msec", "sec",
    "to_usec", "to_msec", "to_sec", "transmission_time_ns",
    "throughput_mbps",
]
