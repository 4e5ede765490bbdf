"""The trimmed scopes tier-1 runs the pinned experiments at.

``QUICK_SCOPES`` maps each golden-pinned experiment to the
``sweep_spec`` keyword arguments that cut its ``--quick`` grid down to
the smallest slice worth pinning; ``ROW_SCHEMAS`` holds the row keys
that slice must produce.  ``test_golden`` (schema + determinism),
``test_golden_rows`` (bit-identity with ``golden/quick_rows.json``) and
``test_check`` (the ``check_rows`` contracts) all read these two
tables, and share the session-scoped ``sweep_cache_runner`` so each
cell is simulated once between them.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import common
from repro.experiments.runner import EXPERIMENTS

QUICK_SCOPES = {
    "fig01": {},
    "fig09": {},
    "fig10": {"client_counts": (1,)},
    "fig11": {"snrs": (18.0,), "rates": (60.0, 150.0)},
    "fig12": {"rates": (150.0,)},
    "table2": {},
    "table3": {},
    "crossval": {},
    "ablations": {"groups": ("delack",)},
}

ROW_SCHEMAS = {
    "fig01": {"figure", "phy", "rate_mbps", "tcp_mbps", "hack_mbps",
              "improvement_pct"},
    "fig09": {"figure", "clients", "protocol", "client", "goodput_mbps",
              "stdev", "no_retry_frac"},
    "fig10": {"figure", "clients", "scheme", "goodput_mbps", "stdev",
              "hack_fit_fraction"},
    "fig11": {"figure", "snr_db", "tcp_envelope_mbps",
              "hack_envelope_mbps", "improvement_pct", "tcp_per_rate",
              "hack_per_rate", "crc_failures", "hack_timeouts"},
    "fig12": {"figure", "rate_mbps", "theory_tcp_mbps",
              "theory_hack_mbps", "sim_tcp_mbps", "sim_hack_mbps",
              "sim_improvement_pct", "theory_improvement_pct"},
    "table2": {"table", "protocol", "ack_count", "ack_bytes",
               "compressed_count", "compressed_bytes",
               "compression_ratio", "transfer_bytes", "completed"},
    "table3": {"table", "protocol", "tcp_ack_airtime", "rohc_airtime",
               "channel_acquisition", "ll_ack_overhead"},
    "crossval": {"figure", "protocol", "loss_rate", "ideal_mbps",
                 "sora_mbps"},
    "ablations": {"ablation", "variant", "tcp_mbps", "hack_mbps",
                  "improvement_pct"},
}


@pytest.fixture(scope="session")
def golden():
    """``golden/quick_rows.json``: the pinned rows of every scope."""
    with open(Path(__file__).parent / "golden" / "quick_rows.json") \
            as handle:
        return json.load(handle)


def pinned_rows(name, runner=None):
    """One pinned experiment's rows at its trimmed quick scope."""
    return common.run(EXPERIMENTS[name], quick=True, runner=runner,
                      **QUICK_SCOPES[name])
