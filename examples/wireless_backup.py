#!/usr/bin/env python3
"""Wireless backup (upload): the paper's Time Capsule scenario.

§3.1: "we envisage TCP/HACK as especially useful for wireless backup to
LAN-attached storage, such as a Time Capsule."  Here the client pushes
a finite backup to the server; since the design is symmetric, it is the
**AP** that compresses the server's TCP ACKs into the LL ACKs it sends
for the client's data A-MPDUs.

    python examples/wireless_backup.py [backup_megabytes]
"""

import sys

from repro import HackPolicy, ScenarioConfig, run_scenario
from repro.sim.units import MS, SEC


def main() -> None:
    megabytes = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    for label, policy in (("stock 802.11n", HackPolicy.VANILLA),
                          ("TCP/HACK", HackPolicy.MORE_DATA)):
        res = run_scenario(ScenarioConfig(
            phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
            traffic="tcp_upload", policy=policy,
            file_bytes=megabytes * 1_000_000,
            duration_ns=60 * SEC, warmup_ns=100 * MS, stagger_ns=0))
        completion = res.completion_times_ns[1]
        ap_driver = res.world.drivers["AP"].stats
        print(f"{label}: {megabytes} MB backup")
        if completion is None:
            print("  did not complete within 60 s of simulated time")
            continue
        print(f"  completed in        {completion / 1e9:6.2f} s "
              f"({res.per_flow_goodput_mbps[1]:.1f} Mbps)")
        print(f"  AP HACK frames      {ap_driver.hack_frames_attached:6d} "
              f"(server ACKs compressed by the AP)")
        print(f"  AP vanilla ACKs     {ap_driver.vanilla_acks_sent:6d}")
        print()


if __name__ == "__main__":
    main()
