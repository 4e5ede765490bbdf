"""The ``src/repro`` defs no production surface reaches, each with the
reason it stays.  ``python scripts/reach.py`` drives every production
surface under a profile hook and holds what it did not reach against
this table: an unreached def missing here fails, and so does an entry
whose def was reached or is gone.  A def only tests call does not
belong here: it goes, or moves to ``tests/helpers.py``.
"""

from typing import Dict

ERROR = "error or interrupt path: no surface here fails or is killed"
GIVE_UP = ("robustness path no grid reaches; unit tests drive it, and an "
           "in-run check is where it would show in a real scenario")
ORACLE = "reference implementation the fast path is tested against"
DEBUG = "debugging __repr__"
NO_OP = "interface default or no-op hook; implementations override it"
LOSSLESS = ("LossModel's lossless default: the MAC asks loses_ppdus / "
            "loses_mpdus, which compare against it by identity, and "
            "skips the call")
QDISC = ("qdisc interface: the MAC's general path uses it on the other "
         "disciplines; no grid pairs this discipline with that path")

#: Defs no production surface reaches, kept on purpose: ``module:qualname``
#: -> why it stays.
ALLOWED: Dict[str, str] = {
    "repro.adversary.jammer:Jammer._reactive_fire":
        "`simulate --adversary-mode reactive`, a mode no grid runs; "
        "TestJammer::test_reactive_jam_forces_collisions checks it",
    "repro.adversary.jammer:Jammer.on_frame_overheard": NO_OP,
    "repro.adversary.jammer:Jammer.on_frame_received": NO_OP,
    "repro.core.driver:_ignore": NO_OP,
    "repro.experiments.batch:SweepCache.store_failure": ERROR,
    "repro.experiments.batch:SweepInterrupted.__init__": ERROR,
    "repro.experiments.batch:SweepInterrupted.result": ERROR,
    "repro.experiments.batch:SweepResult.failures": ERROR,
    "repro.experiments.batch:SweepRunner._note_failure": ERROR,
    "repro.experiments.batch:SweepRunner._request_stop": ERROR,
    "repro.experiments.batch:_RunState.started": ERROR,
    "repro.experiments.runner:handle_interrupt": ERROR,
    "repro.experiments.runner:report_failures": ERROR,
    "repro.mac.blockack:BlockAckOriginator.on_give_up": GIVE_UP,
    "repro.mac.dcf:DcfMac._give_up_bar": GIVE_UP,
    "repro.mac.dcf:MacUpper.hack_payload_for": NO_OP,
    "repro.mac.dcf:MacUpper.on_bar_rx": NO_OP,
    "repro.mac.dcf:MacUpper.on_data_ppdu": NO_OP,
    "repro.mac.dcf:MacUpper.on_ll_ack_rx": NO_OP,
    "repro.mac.dcf:MacUpper.on_ll_response_tx": NO_OP,
    "repro.mac.dcf:MacUpper.on_mpdu_outcome": NO_OP,
    "repro.mac.dcf:MacUpper.on_mpdus_delivered": NO_OP,
    "repro.mac.frames:Mpdu.__repr__": DEBUG,
    "repro.mac.qdisc:DropTailQueue.__getitem__":
        QDISC + " (drop-tail batches through drain_batch)",
    "repro.mac.qdisc:FqCodelQueue.__iter__": QDISC,
    "repro.mac.qdisc:FqCodelQueue.filter_out":
        QDISC + " (opportunistic HACK's ACK withdrawal)",
    "repro.phy.errors:LossModel.mpdu_lost": LOSSLESS,
    "repro.phy.errors:LossModel.ppdu_lost": LOSSLESS,
    "repro.rohc.context:DynamicState.__eq__": ORACLE,
    "repro.rohc.context:DynamicState.__repr__": DEBUG,
    "repro.rohc.context:DynamicState.crc_input": ORACLE,
    "repro.rohc.crc:_crc3_u64x5_bytewise": ORACLE,
    "repro.rohc.crc:_crc_bitwise": ORACLE,
    "repro.rohc.crc:crc3": ORACLE,
    "repro.rohc.crc:crc7": ORACLE,
    "repro.rohc.crc:crc8": ORACLE,
    "repro.rohc.wlsb:interpretation_interval": ORACLE,
    "repro.rohc.wlsb:lsb_encode": ORACLE,
    "repro.sim.engine:Event.__repr__": DEBUG,
    "repro.sim.engine:SimStats.__repr__": DEBUG,
    "repro.sim.engine:Simulator.__repr__": DEBUG,
    "repro.sim.engine:Timer.__repr__": DEBUG,
    "repro.sim.engine:Train.__repr__": DEBUG,
    "repro.sim.medium:MediumListener.on_channel_busy": NO_OP,
    "repro.sim.medium:MediumListener.on_channel_idle": NO_OP,
    "repro.sim.medium:MediumListener.on_frame_error": NO_OP,
    "repro.sim.medium:MediumListener.on_frame_overheard": NO_OP,
    "repro.sim.medium:MediumListener.on_frame_received": NO_OP,
    "repro.sim.medium:Transmission.__repr__": DEBUG,
    "repro.stats.trace:TraceRecord.__repr__": DEBUG,
    "repro.tcp.segment:FiveTuple.__repr__": DEBUG,
    "repro.tcp.segment:TcpSegment.__repr__": DEBUG,
    "repro.tcp.sender:TcpSender._arm_persist": GIVE_UP,
    "repro.tcp.sender:TcpSender._on_persist": GIVE_UP,
    "repro.traffic.arrivals:ArrivalProcess.start": NO_OP,
    "repro.traffic.arrivals:TraceArrivals.__init__":
        "trace-replay arrivals: ArrivalSpec(kind='trace'), which no "
        "grid or registry scenario names; tests/traffic checks it",
    "repro.traffic.arrivals:TraceArrivals.start":
        "trace-replay arrivals (see TraceArrivals.__init__)",
    "repro.workloads.registry:UnknownScenarioError.__init__": ERROR,
    "repro.workloads.scenarios:ScenarioConfig.udp_sink_count":
        "udp_index_base sums it over the cells before a udp_download "
        "sink's own; every run of udp_download here is one cell",
    "repro.workloads.sharding:ShardExecutionError.__init__": ERROR,
    "repro.workloads.sharding:ShardExecutionError.__str__": ERROR,
}
