#!/usr/bin/env python3
"""Recreate the SoRa software-radio testbed (Fig 9) in simulation.

Three nodes: an AP and two clients on 802.11a at 54 Mbps, with SoRa's
late-LL-ACK quirk (~37 us extra, ACK timeout extended to match) and
client 1 on a slightly worse channel.  Prints the Fig 9 bars and the
Table 1 retry percentages.

    python examples/sora_testbed.py
"""

from repro.experiments import common, fig09


def main() -> None:
    rows = common.run(fig09, quick=True)
    print(fig09.format_rows(rows))
    print()
    one = {r["protocol"]: r["goodput_mbps"] for r in rows
           if r["clients"] == "one client"}
    print(f"TCP/HACK vs stock TCP (one client): "
          f"+{100 * (one['H'] / one['T'] - 1):.1f}% "
          f"(paper: +29%)")


if __name__ == "__main__":
    main()
