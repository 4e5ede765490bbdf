"""Figure 9 + Table 1: the SoRa 802.11a testbed, reproduced in simulation.

Setup mirrors §4.1-4.2: 802.11a at 54 Mbps, iperf-style bulk downloads
with 1500-byte MTU, the SoRa device quirk (LL ACKs returned ~37 us
late, with the ACK timeout extended to compensate), and Client 1
suffering a slightly higher frame-loss rate than Client 2.  Protocols:
unidirectional UDP (U), TCP with HACK (H), stock TCP (T); each with
one client and with both clients.

Table 1 (frames delivered with no retries vs one-or-more) falls out of
the same runs.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.policies import HackPolicy
from ..sim.units import MS, SEC
from ..workloads.scenarios import LossSpec, ScenarioConfig
from .batch import SweepResult, SweepSpec, mean_stdev
from .common import format_table, require, seeds_for

TITLE = "Figure 9 + Table 1 — SoRa testbed"
PAPER_SAYS = (
    "One client: UDP 26.5, TCP/HACK 25.0, TCP 19.4 Mbps (HACK "
    "+29%; +32% with two clients).  Table 1: ~99% (UDP) / 97-98% "
    "(HACK) / 86-88% (TCP) of frames delivered with no retries — "
    "stock TCP's extra retries are data/ACK collisions.")

#: Per-client frame loss: "Client 1's throughput is slightly less than
#: Client 2's because it suffers a greater packet loss rate".
CLIENT_LOSS = {"C1": 0.02, "C2": 0.01}

SETUPS = ((1, "one client"), (2, "both clients"))
PROTOCOLS = ("U", "H", "T")


def _config(protocol: str, n_clients: int, seed: int,
            quick: bool) -> ScenarioConfig:
    duration = (2 * SEC) if quick else (6 * SEC)
    warmup = (800 * MS) if quick else (2 * SEC)
    per_client = {name: CLIENT_LOSS[name]
                  for name in list(CLIENT_LOSS)[:n_clients]}
    common = dict(
        phy_mode="11a", data_rate_mbps=54.0, n_clients=n_clients,
        seed=seed, duration_ns=duration, warmup_ns=warmup,
        stagger_ns=100 * MS,
        loss=LossSpec(kind="uniform", data_loss=0.01,
                      control_loss=0.002, per_client=per_client),
        sora=True)
    if protocol == "U":
        return ScenarioConfig(traffic="udp_download",
                              udp_rate_mbps=40.0, **common)
    policy = HackPolicy.MORE_DATA if protocol == "H" else \
        HackPolicy.VANILLA
    return ScenarioConfig(traffic="tcp_download", policy=policy,
                          **common)


def sweep_spec(quick: bool = False, seeds=None) -> SweepSpec:
    spec = SweepSpec("fig09")
    for n_clients, _ in SETUPS:
        for protocol in PROTOCOLS:
            for seed in seeds or seeds_for(quick):
                spec.add_scenario(
                    (n_clients, protocol),
                    _config(protocol, n_clients, seed, quick))
    return spec


def rows_from_sweep(result: SweepResult) -> List[Dict]:
    labels = dict(SETUPS)
    rows: List[Dict] = []
    for n_clients, protocol in result.keys():
        per_client_runs: Dict[str, List[float]] = {}
        retry_rows: Dict[str, List[float]] = {}
        for metrics in result.metrics_for((n_clients, protocol)):
            for flow_id, goodput in \
                    metrics["per_flow_goodput_mbps"].items():
                name = f"C{abs(int(flow_id))}"
                per_client_runs.setdefault(name, []).append(goodput)
            for dst, data in metrics["retry_table"].items():
                if dst.startswith("C"):
                    retry_rows.setdefault(dst, []).append(
                        data["no_retries"])
        for name in sorted(per_client_runs):
            stats = mean_stdev(per_client_runs[name])
            rows.append({
                "figure": "9", "clients": labels[n_clients],
                "protocol": protocol, "client": name,
                "goodput_mbps": stats["mean"],
                "stdev": stats["stdev"],
                "no_retry_frac": mean_stdev(retry_rows[name])["mean"]
                if name in retry_rows else None,
            })
    return rows


def check_rows(rows: List[Dict]) -> str:
    """Fig 9's one-client ordering and rough magnitudes (paper: UDP
    26.5, HACK 25.0, TCP 19.4 Mbps) and Table 1's first-attempt
    shares for Client 1 (UDP ~99%, HACK ~97-98%, TCP ~86-88%)."""
    clauses = 0
    for _, setup in SETUPS:
        c1 = {r["protocol"]: r for r in rows
              if r["clients"] == setup and r["client"] == "C1"}
        udp, hack, tcp = c1["U"], c1["H"], c1["T"]
        if setup == "one client":
            gain = hack["goodput_mbps"] / tcp["goodput_mbps"]
            clauses += require(
                (udp, hack, tcp),
                (udp["goodput_mbps"] > hack["goodput_mbps"]
                 > tcp["goodput_mbps"], "goodput is not UDP > HACK > TCP"),
                (24 < udp["goodput_mbps"] < 29,
                 "UDP goodput outside 24-29 Mbps"),
                (gain > 1.15, "HACK is not >15% above TCP"))
        clauses += require(
            (udp, hack, tcp),
            (udp["no_retry_frac"] > 0.95, "UDP first-attempt share <= 95%"),
            (hack["no_retry_frac"] > 0.93,
             "HACK first-attempt share <= 93%"),
            (tcp["no_retry_frac"] < min(0.92, hack["no_retry_frac"]),
             "TCP first-attempt share not below 92% and HACK's"))
    return (f"fig09: {clauses} clause(s) hold; one client HACK "
            f"+{100 * (gain - 1):.0f}% over TCP")


def format_rows(rows: List[Dict]) -> str:
    fig = format_table(
        ["setup", "proto", "client", "goodput (Mbps)", "stdev"],
        [[r["clients"], r["protocol"], r["client"],
          f"{r['goodput_mbps']:.2f}", f"{r['stdev']:.2f}"]
         for r in rows],
        title="Figure 9: SoRa testbed goodput "
              "(U=UDP, H=TCP/HACK, T=TCP/802.11a)")
    table1 = format_table(
        ["setup", "proto", "client", "no retries", ">=1 retry"],
        [[r["clients"], r["protocol"], r["client"],
          f"{100 * r['no_retry_frac']:.0f}%",
          f"{100 * (1 - r['no_retry_frac']):.0f}%"]
         for r in rows if r["no_retry_frac"] is not None],
        title="Table 1: frames delivered on the first attempt")
    return fig + "\n\n" + table1
