#!/usr/bin/env python3
"""Print the paper's Figure 1 capacity curves (no simulation).

Shows why HACK matters more as PHY rates climb: the fixed medium-
acquisition overhead (110.5 us mean on 802.11n) dwarfs ever-shorter
payload transmissions, and TCP ACK packets pay it for nothing.

    python examples/analytic_capacity.py
"""

from repro.experiments import common, fig01


def main() -> None:
    print(fig01.format_rows(common.run(fig01)))
    print()
    print("Reading guide: at 600 Mbps PHY, stock TCP reaches barely")
    print("2/3 of what the channel could carry; removing TCP-ACK")
    print("medium acquisitions recovers ~20% (paper §3.2).")


if __name__ == "__main__":
    main()
