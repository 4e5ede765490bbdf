"""Time and data-size units for the simulator.

All simulation timestamps and durations are integer nanoseconds.  Using
integers makes event ordering exact and reproducible across platforms;
floating-point microseconds would accumulate rounding error over the
millions of SIFS/slot additions a long run performs.

The 802.11 standard specifies intervals in microseconds, so most call
sites use the ``usec`` helper or the ``US`` multiplier.
"""

from __future__ import annotations

#: One nanosecond (the base unit).
NS = 1
#: Nanoseconds per microsecond.
US = 1_000
#: Nanoseconds per millisecond.
MS = 1_000_000
#: Nanoseconds per second.
SEC = 1_000_000_000


def usec(value: float) -> int:
    """Convert a value in microseconds to integer nanoseconds."""
    return round(value * US)


def msec(value: float) -> int:
    """Convert a value in milliseconds to integer nanoseconds."""
    return round(value * MS)


def transmission_time_ns(num_bytes: int, rate_mbps: float) -> int:
    """Serialisation delay for ``num_bytes`` at ``rate_mbps`` (exact, ceil)."""
    if rate_mbps <= 0:
        raise ValueError("rate must be positive")
    bits = num_bytes * 8
    # bits / (Mbit/s) = microseconds; scale to ns and round up.
    ns = (bits * 1_000) / rate_mbps
    return int(-(-ns // 1))  # ceil for floats that are whole numbers too


def throughput_mbps(num_bytes: int, duration_ns: int) -> float:
    """Application-level throughput in Mbit/s for bytes moved in a duration."""
    if duration_ns <= 0:
        return 0.0
    # bits / ns * 1000 == Mbit/s
    return (num_bytes * 8 * 1_000.0) / duration_ns
