"""Discrete-event simulation substrate: engine, medium, wired links."""

from .engine import Event, Simulator, Timer, Train
from .medium import Medium, MediumListener, Transmission
from .rng import RngRegistry
from .units import MS, NS, SEC, US, msec, throughput_mbps, \
    transmission_time_ns, usec
from .wired import WiredLink, WiredPipe

__all__ = [
    "Event", "Simulator", "Timer", "Train", "Medium", "MediumListener",
    "Transmission",
    "RngRegistry", "WiredLink", "WiredPipe",
    "NS", "US", "MS", "SEC", "usec", "msec", "transmission_time_ns",
    "throughput_mbps",
]
