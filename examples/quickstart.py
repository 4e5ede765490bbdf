#!/usr/bin/env python3
"""Quickstart: does TCP/HACK help? (one client, 802.11n at 150 Mbps)

Runs the same bulk download twice — stock 802.11n and TCP/HACK with the
MORE DATA bit — and prints goodput plus where the ACK traffic went.

    python examples/quickstart.py
"""

from repro import HackPolicy, ScenarioConfig, run_scenario
from repro.sim.units import MS, SEC


def main() -> None:
    results = {}
    for label, policy in (("stock TCP/802.11n", HackPolicy.VANILLA),
                          ("TCP/HACK", HackPolicy.MORE_DATA)):
        config = ScenarioConfig(
            phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
            traffic="tcp_download", policy=policy,
            duration_ns=3 * SEC, warmup_ns=1 * SEC, stagger_ns=0)
        results[label] = run_scenario(config)

    for label, res in results.items():
        print(f"{label}:")
        print(f"  goodput            {res.aggregate_goodput_mbps:7.1f} Mbps")
        print(f"  collisions         {res.medium_frames_collided:7d}")
        driver = res.world.drivers["C1"].stats
        print(f"  vanilla TCP ACKs   {driver.vanilla_acks_sent:7d}")
        print(f"  HACK frames        {driver.hack_frames_attached:7d} "
              f"({driver.hack_frame_bytes} bytes on LL ACKs)")
        print(f"  ACKs reconstituted {res.decomp_counters['acks_reconstructed']:7d} "
              f"(CRC failures: {res.decomp_counters['crc_failures']})")
        print()

    vanilla = results["stock TCP/802.11n"].aggregate_goodput_mbps
    hack = results["TCP/HACK"].aggregate_goodput_mbps
    print(f"TCP/HACK improvement: +{100 * (hack / vanilla - 1):.1f}% "
          f"(paper reports ~15% for one client at 150 Mbps)")


if __name__ == "__main__":
    main()
