"""TCP/HACK ACK-deferral policies (paper §3.2).

The paper considers three designs for deciding when the client may
withhold vanilla TCP ACKs in the hope of piggybacking them on a
link-layer ACK:

* **Explicit Timer** — buffer and compress every ACK, flush to vanilla
  after a fixed delay.  The strawman: "there is no good delay value".
* **Opportunistic** — never delay ACKs: they queue for normal
  transmission, but if a data frame's LL ACK departs first, the still-
  queued ACKs are yanked from the transmit queue and ride compressed.
* **MORE DATA** — the design the paper adopts: the AP sets the 802.11
  MORE DATA bit whenever more packets for the client remain queued
  after forming a batch; the client latches the bit and withholds ACKs
  (compressed) exactly while it is safe to expect another LL ACK
  opportunity.

``VANILLA`` disables HACK entirely (the stock-802.11 baselines).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..sim.units import msec


class HackPolicy(enum.Enum):
    """Which ACK-deferral scheme a driver runs.

    ``TS_ECHO`` is the paper's §5 future-work design: instead of the
    MORE DATA bit, the client defers TCP ACKs while a timestamp echo
    is outstanding (the sender reflects the last ACK's ts_val in its
    data segments; no echo yet => the pipe still has data the sender
    queued before seeing our ACK, so another LL ACK opportunity is
    coming).  It needs no AP cooperation, but it is a heuristic — the
    driver pairs it with a stall-guard timer because a window-limited
    sender may be waiting for exactly the ACKs being withheld.
    """

    VANILLA = "vanilla"
    EXPLICIT_TIMER = "explicit_timer"
    OPPORTUNISTIC = "opportunistic"
    MORE_DATA = "more_data"
    TS_ECHO = "ts_echo"


@dataclass
class HackConfig:
    """Driver configuration derived from a policy choice."""

    policy: HackPolicy = HackPolicy.MORE_DATA
    #: Vanilla ACKs required before a flow's ACKs may be compressed
    #: (context establishment; paper §3.3.2 item 1).
    init_vanilla_acks: int = 1
    #: EXPLICIT_TIMER: flush buffered ACKs to vanilla after this delay.
    flush_after_ns: Optional[int] = None
    #: Defensive stall guard for MORE_DATA (None = trust the bit, as
    #: the paper does).  When set, buffered ACKs older than this are
    #: flushed vanilla; flushes are counted so fidelity is checkable.
    stall_guard_ns: Optional[int] = None
    #: Hard cap on buffered compressed ACK entries (a HACK frame also
    #: cannot exceed 255 entries); overflow flushes vanilla.
    max_buffered: int = 120

    @property
    def enabled(self) -> bool:
        return self.policy is not HackPolicy.VANILLA

    @classmethod
    def for_policy(cls, policy: HackPolicy) -> "HackConfig":
        if policy is HackPolicy.EXPLICIT_TIMER:
            return cls(policy=policy, flush_after_ns=msec(5))
        if policy is HackPolicy.TS_ECHO:
            # The echo heuristic can deadlock a window-limited sender;
            # the stall guard is its mandatory safety net (§5).
            return cls(policy=policy, stall_guard_ns=msec(50))
        return cls(policy=policy)
