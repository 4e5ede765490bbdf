"""The seeded mutants: one-edit changes of the program its tests must
catch.  ``python scripts/mutants.py`` applies each to a copy of the
tree and runs only its tests; every mutant must be caught.

A mutant is ``(id, path, old, new, tests)``: ``path`` is relative to
the repository root, ``old`` must occur in it exactly once and is
replaced by ``new``, and each of ``tests`` (pytest node ids) runs with
``-x``, so the first failure catches it.  A refactor that moves a
snippet or renames a test makes its mutant *stale*; re-anchor it in
the same change.  A new oracle, fast path, book or contract adds its
mutant here.
"""

from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    id: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


SENDER = "tests/tcp/test_sender.py::TestPlainAckAgainstTheGeneralPath"
RECOVERY = "tests/tcp/test_sender.py::TestFastRetransmit::"
GOLDEN = "tests/experiments/test_golden_rows.py::" \
         "test_rows_bit_identical_to_seed_kernel"
SEEDED = "tests/experiments/test_check.py::TestContractsOnGoldenRows::" \
         "test_seeded_mutation_names_the_row"
TRIMMED = "tests/experiments/test_check.py::" \
          "TestContractsOnTrimmedExtensionGrids"
DOCUMENT = "tests/experiments/test_check.py::TestCommittedDocument::" \
           "test_region_is_the_render_of_the_pinned_rows"
MERGE = "tests/obs/test_merge_law.py::" \
        "test_sharded_merge_renders_the_unsharded_block"
BOOKS = "tests/workloads/test_books.py::"
PINS = "tests/workloads/test_kernel_counts.py::"
WORKER_DEATH = "tests/experiments/test_resumable.py::TestRetries::"
SHARDS = "tests/workloads/test_sharding.py::"

MUTANTS = (
    # -- Reference oracles kept in tests/ ------------------------------
    Mutant("train-push-takes-no-sequence-number",
           "src/repro/sim/engine.py",
           "        sim._seq = seq = sim._seq + 1\n"
           "        items = self._items\n",
           "        seq = sim._seq + 1\n"
           "        items = self._items\n",
           ("tests/sim/test_train.py::"
            "test_train_delivers_exactly_like_one_event_per_item",)),
    Mutant("lazy-backoff-credits-a-partial-slot",
           "src/repro/mac/dcf.py",
           "elapsed = (now - self._backoff_anchor) // self.phy.slot_ns",
           "elapsed = (now - self._backoff_anchor + self.phy.slot_ns - 1)"
           " // self.phy.slot_ns",
           ("tests/mac/test_backoff_lazy.py::TestFreezeResume::"
            "test_busy_mid_slot_discards_partial_slot",)),
    Mutant("eifs-change-does-not-rebase-the-defer",
           "src/repro/mac/dcf.py",
           "        if self._deferring():\n"
           "            self.medium.cancel_defer(self)\n",
           "        if False:\n"
           "            self.medium.cancel_defer(self)\n",
           ("tests/mac/test_carrier_sense.py::"
            "test_same_air_as_an_all_eager_world",)),
    Mutant("scoreboard-prunes-one-too-many",
           "src/repro/mac/blockack.py",
           "cut = self.max_seq - self.history - self._base",
           "cut = self.max_seq - self.history - self._base + 1",
           ("tests/mac/test_blockack.py::TestScoreboardAgainstTheSet::"
            "test_same_answers",)),
    Mutant("fq-codel-append-keeps-a-stale-head",
           "src/repro/mac/qdisc.py",
           "        self._len += 1\n"
           "        self._head = None\n"
           "\n"
           "    def popleft(self) -> Any:\n",
           "        self._len += 1\n"
           "\n"
           "    def popleft(self) -> Any:\n",
           ("tests/mac/test_qdisc.py::TestFqCodelAgainstTheUncachedQueue",)),

    # -- Fast paths held to the general path they replace --------------
    Mutant("drain-batch-takes-one-past-the-room",
           "src/repro/mac/aggregation.py",
           "            if count == room:\n",
           "            if count > room:\n",
           ("tests/mac/test_aggregation.py::"
            "TestDrainBatchAgainstBuildBatch",)),
    Mutant("encode-update-8-bit-delta-boundary",
           "src/repro/rohc/packets.py",
           "    elif d_ack <= 0xFF:\n"
           "        ack_mode = ACK_D8\n"
           "        out.append(d_ack)\n",
           "    elif d_ack < 0xFF:\n"
           "        ack_mode = ACK_D8\n"
           "        out.append(d_ack)\n",
           ("tests/rohc/test_packets.py::"
            "TestEncodeUpdateAgainstEncodeEntry",)),
    Mutant("plain-ack-grows-slow-start-by-a-full-mss",
           "src/repro/tcp/sender.py",
           "            self.cwnd = cwnd + (newly_acked if newly_acked"
           " < self.mss\n",
           "            self.cwnd = cwnd + (self.mss if newly_acked"
           " < self.mss\n",
           (SENDER,)),
    Mutant("plain-ack-rto-skips-its-ceiling",
           "src/repro/tcp/sender.py",
           "                self.rto_ns = rto if rto < self.max_rto_ns \\\n"
           "                    else self.max_rto_ns\n"
           "        self._backoff = 1\n",
           "                self.rto_ns = rto\n"
           "        self._backoff = 1\n",
           (SENDER,)),
    Mutant("fast-recovery-enters-without-inflation",
           "src/repro/tcp/sender.py",
           "        self.cwnd = self.ssthresh + 3 * self.mss\n",
           "        self.cwnd = self.ssthresh\n",
           (RECOVERY + "test_ssthresh_halves_flight",)),
    Mutant("partial-ack-skips-deflation",
           "src/repro/tcp/sender.py",
           "                self.cwnd = max(self.cwnd - newly_acked"
           " + self.mss,\n"
           "                                self.mss)\n",
           "",
           (RECOVERY + "test_partial_ack_retransmits_next_hole",)),
    Mutant("fast-recovery-ssthresh-floor-one-segment",
           "src/repro/tcp/sender.py",
           "            self.ssthresh = max(self.flight_size // 2,"
           " 2 * self.mss)\n"
           "        self.recover = self.snd_nxt\n",
           "            self.ssthresh = max(self.flight_size // 2,"
           " self.mss)\n"
           "        self.recover = self.snd_nxt\n",
           (RECOVERY + "test_ssthresh_floor_is_two_segments",)),
    Mutant("initial-rto-above-its-ceiling",
           "src/repro/tcp/sender.py",
           "        self.rto_ns = min(1 * SEC, max_rto_ns)\n",
           "        self.rto_ns = 1 * SEC\n",
           ("tests/properties/test_tcp_properties.py::"
            "TestSenderInvariants",)),
    Mutant("crc3-skips-the-high-bytes-of-ts-ecr",
           "src/repro/rohc/crc.py",
           "        if (b | c) >> 16:\n",
           "        if b >> 16:\n",
           ("tests/properties/test_rohc_properties.py::TestCrcProperties",)),
    Mutant("ppdu-flags-more-data-needs-sync",
           "src/repro/core/driver.py",
           "        if mpdu.more_data:\n"
           "            more = True\n",
           "        if mpdu.more_data and mpdu.sync:\n"
           "            more = True\n",
           ("tests/core/test_driver.py::TestPpduFlags",)),
    Mutant("lossless-medium-overhears-the-target",
           "src/repro/sim/medium.py",
           "                    if listener is target:\n"
           "                        listener.on_frame_received(frame, "
           "sender)\n"
           "                    else:\n"
           "                        listener.on_frame_overheard(frame, "
           "sender)\n"
           "        for observer in self.observers:\n",
           "                    if listener is not target:\n"
           "                        listener.on_frame_received(frame, "
           "sender)\n"
           "                    else:\n"
           "                        listener.on_frame_overheard(frame, "
           "sender)\n"
           "        for observer in self.observers:\n",
           (PINS + "test_lossless_fast_paths_match_the_general_paths",)),
    Mutant("lossless-mac-reads-one-mpdu-short",
           "src/repro/mac/dcf.py",
           "        readable = frame.mpdus\n",
           "        readable = frame.mpdus[1:] or frame.mpdus\n",
           (PINS + "test_lossless_fast_paths_match_the_general_paths",)),
    Mutant("loses-ppdus-ignores-ppdu-lost",
           "src/repro/phy/errors.py",
           "not (_keeps_base(model, \"is_lost\")\n"
           "                                      and _keeps_base(model, "
           "\"ppdu_lost\"))\n",
           "not (_keeps_base(model, \"is_lost\"))\n",
           (GOLDEN + "[fig09]",)),
    Mutant("loses-mpdus-inverted",
           "src/repro/phy/errors.py",
           "and not _keeps_base(model, \"mpdu_lost\")\n",
           "and _keeps_base(model, \"mpdu_lost\")\n",
           (BOOKS + "test_queue_and_mpdu_books_balance[lossy-11n]",)),

    # -- Merge laws ----------------------------------------------------
    Mutant("merge-counts-takes-the-max",
           "src/repro/obs/metrics.py",
           "        into[key] = into.get(key, 0) + value\n",
           "        into[key] = max(into.get(key, 0), value)\n",
           (MERGE + "[merge_counts]", MERGE + "[Histogram]")),
    Mutant("qdisc-stats-merge-drops-the-sojourns",
           "src/repro/mac/qdisc.py",
           "        self.sojourn.merge(other.sojourn)\n",
           "        pass\n",
           (MERGE + "[QdiscStats]",)),

    # -- Books ---------------------------------------------------------
    Mutant("queue-book-withdrawn-counted-once-too-often",
           "src/repro/mac/dcf.py",
           "        self.qdisc_stats.withdrawn += len(withdrawn)\n",
           "        self.qdisc_stats.withdrawn += len(withdrawn) + 1\n",
           (BOOKS + "test_queue_and_mpdu_books_balance[opportunistic]",)),
    Mutant("mpdu-book-drop-counted-twice",
           "src/repro/stats/collectors.py",
           "            self.mpdus_dropped[mpdu.dst] += 1\n",
           "            self.mpdus_dropped[mpdu.dst] += 2\n",
           (BOOKS + "test_queue_and_mpdu_books_balance[lossy-11a]",)),
    Mutant("desync-book-recovery-counted-twice",
           "src/repro/rohc/decompressor.py",
           "        self.recoveries += 1\n",
           "        self.recoveries += 2\n",
           (BOOKS + "test_desync_book_balances_on_the_quick_mutator_cells"
            "[1.0-1]",)),

    # -- The sweep engine: a point runs once, its failure its record ---
    Mutant("failed-point-drops-its-followers",
           "src/repro/experiments/batch.py",
           "        return self._followers.pop((state, index), [])\n",
           "        self._followers.pop((state, index), [])\n"
           "        return []\n",
           ("tests/experiments/test_batch.py::TestSchedule::"
            "test_failed_points_duplicate_runs_on_its_own",)),
    Mutant("pooled-failure-lets-a-worker-death-escape",
           "src/repro/experiments/batch.py",
           "                    except Exception as exc:\n"
           "                        pending.extend(",
           "                    except ValueError as exc:\n"
           "                        pending.extend(",
           (WORKER_DEATH
            + "test_worker_death_fails_point_without_aborting",)),
    Mutant("dead-pool-submit-escapes",
           "src/repro/experiments/batch.py",
           "except Exception as exc:    # raised, or the pool is broken\n",
           "except ValueError as exc:\n",
           (WORKER_DEATH
            + "test_follower_handed_to_the_dead_pool_is_recorded",)),
    Mutant("stop-checked-before-noting",
           "src/repro/experiments/batch.py",
           "                               return_when=FIRST_COMPLETED)\n",
           "                               return_when=FIRST_COMPLETED)\n"
           "                if self._stop_signal is not None:\n"
           "                    return\n",
           ("tests/experiments/test_resumable.py::TestGracefulInterrupt::"
            "test_sigint_during_an_in_process_point_records_it",)),
    Mutant("a-sweep-of-analytic-points-starts-a-pool",
           "src/repro/experiments/batch.py",
           "index].kind == \"scenario\")\n",
           "index].kind)\n",
           ("tests/experiments/test_batch.py::TestWorkerRule::"
            "test_default_runs_in_process",)),

    # -- The shard layer: one plan, one walk, one merge ----------------
    Mutant("shards-ordered-by-channel-number",
           "src/repro/workloads/scenarios.py",
           "        return tuple(seen)\n",
           "        return tuple(sorted(seen))\n",
           (SHARDS + "TestShardPlan::"
            "test_explicit_map_first_appearance_order",)),
    Mutant("failing-shard-named-wrong",
           "src/repro/workloads/sharding.py",
           "                    channel, cells, f\"{type(exc).__name__}: {exc}\"\n",
           "                    *shards[0], f\"{type(exc).__name__}: {exc}\"\n",
           (SHARDS + "TestDefaultExecution::"
            "test_failing_shard_is_named_under_the_default",)),
    Mutant("merge-skips-the-last-shard",
           "src/repro/workloads/sharding.py",
           "    for shard, _ in done[1:]:\n",
           "    for shard, _ in done[1:-1]:\n",
           (SHARDS + "TestDefaultExecution::"
            "test_a_sweep_record_is_the_whole_simulators_record",)),
    # -- Consumers of a world's {channel: Medium} map ------------------
    Mutant("tracer-observes-only-the-first-channel",
           "src/repro/stats/trace.py",
           "        for channel, medium in media.items():\n",
           "        for channel, medium in list(media.items())[:1]:\n",
           (SHARDS + "TestFrameRecord::"
            "test_frame_record_merges_across_shards",)),
    Mutant("adversary-jams-only-the-first-channel",
           "src/repro/adversary/runtime.py",
           "        for channel, medium in media.items():\n"
           "            jammer = Jammer(\n",
           "        for channel, medium in list(media.items())[:1]:\n"
           "            jammer = Jammer(\n",
           ("tests/adversary/test_attacks.py::TestShardedAttacks::"
            "test_sharded_jammer_merges_identically",)),

    # -- Pinned digests and golden rows --------------------------------
    Mutant("pinned-digest-cubic-decrease",
           "src/repro/tcp/cubic.py",
           "    BETA = 0.7 ",
           "    BETA = 0.69",
           (PINS + "test_whole_result_is_pinned[churn-city]",)),
    Mutant("golden-rows-acquisition-from-sifs",
           "src/repro/analysis/capacity.py",
           "    return phy.difs_ns + phy.mean_backoff_ns()\n",
           "    return phy.sifs_ns + phy.mean_backoff_ns()\n",
           (GOLDEN + "[fig01]",)),
    Mutant("golden-rows-hack-misses-aifs",
           "src/repro/stats/collectors.py",
           "            if extra <= phy.difs_ns:\n",
           "            if extra <= 0:\n",
           (GOLDEN + "[fig10]",)),
    Mutant("sora-switch-drops-the-timeout-extension",
           "src/repro/workloads/scenarios.py",
           "            params.ack_timeout_extra_ns = "
           "SORA_ACK_TIMEOUT_EXTRA_NS\n",
           "",
           (GOLDEN + "[crossval]",)),

    # -- Each experiment's check_rows, against its seeded mutation ------
    Mutant("contract-fig01",
           "src/repro/experiments/fig01.py",
           "(at_600[\"improvement_pct\"] > 14.0,",
           "(at_600[\"improvement_pct\"] > 4.0,",
           (SEEDED + "[fig01]",)),
    Mutant("contract-fig09",
           "src/repro/experiments/fig09.py",
           "(gain > 1.15, ",
           "(gain > 0.15, ",
           (SEEDED + "[fig09]",)),
    Mutant("contract-fig10",
           "src/repro/experiments/fig10.py",
           "(hack > 1.05 * tcp, ",
           "(hack > 0.05 * tcp, ",
           (SEEDED + "[fig10]",)),
    Mutant("contract-fig11",
           "src/repro/experiments/fig11.py",
           "(row[\"crc_failures\"] == 0, ",
           "(row[\"crc_failures\"] <= 1, ",
           (SEEDED + "[fig11]",)),
    Mutant("contract-fig12",
           "src/repro/experiments/fig12.py",
           "(row[\"sim_tcp_mbps\"] <= 1.02 * row[\"theory_tcp_mbps\"],",
           "(row[\"sim_tcp_mbps\"] <= 1.2 * row[\"theory_tcp_mbps\"],",
           (SEEDED + "[fig12]",)),
    Mutant("contract-table2",
           "src/repro/experiments/table2.py",
           "(8 < hack[\"compression_ratio\"] < 26,",
           "(8 < hack[\"compression_ratio\"] < 36,",
           (SEEDED + "[table2]",)),
    Mutant("contract-table3",
           "src/repro/experiments/table3.py",
           "(stock[\"channel_acquisition\"] > stock[\"tcp_ack_airtime\"],",
           "(stock[\"channel_acquisition\"] >= 0,",
           (SEEDED + "[table3]",)),
    Mutant("contract-crossval",
           "src/repro/experiments/crossval.py",
           "(hack[\"sora_mbps\"] < hack[\"ideal_mbps\"],",
           "(hack[\"sora_mbps\"] < hack[\"ideal_mbps\"] + 2,",
           (SEEDED + "[crossval]",)),
    Mutant("contract-ablations",
           "src/repro/experiments/ablations.py",
           "(low[\"improvement_pct\"] < high[\"improvement_pct\"],",
           "(low[\"improvement_pct\"] < high[\"improvement_pct\"] + 100,",
           (SEEDED + "[ablations]",)),
    Mutant("contract-fct-churn",
           "src/repro/experiments/fct_churn.py",
           "(row[\"flows_completed\"] > 0, ",
           "(row[\"flows_completed\"] >= 0, ",
           ("tests/experiments/test_fct_churn.py::TestHarness::"
            "test_acceptance_cells",)),
    Mutant("contract-aqm-pacing",
           "src/repro/experiments/aqm_pacing.py",
           "        (codel[\"sojourn_p99_ms\"] < tail[\"sojourn_p99_ms\"]\n"
           "         and codel[\"aqm_drops\"] > 0,\n",
           "        (codel[\"aqm_drops\"] > 0,\n",
           ("tests/experiments/test_aqm_pacing.py::TestHarness::"
            "test_codel_beats_droptail_sojourn_tail",)),
    Mutant("contract-multi-ap",
           "src/repro/experiments/multi_ap.py",
           "(0 < row[\"per_cell_mbps\"] < isolated[\"per_cell_mbps\"],",
           "(0 < row[\"per_cell_mbps\"] <= isolated[\"per_cell_mbps\"],",
           ("tests/experiments/test_multi_ap.py::TestHarness::"
            "test_contended_cells_below_isolated_baseline",)),
    Mutant("contract-city-scale",
           "src/repro/experiments/city_scale.py",
           "(0 < row[\"max_channel_airtime_sum\"] <= 1.0,",
           "(0 < row[\"max_channel_airtime_sum\"] <= 1.5,",
           (TRIMMED + "::test_city_scale",)),
    Mutant("contract-adversarial",
           "src/repro/experiments/adversarial.py",
           "row[\"open_desync_ms\"] <= OPEN_DESYNC_BOUND_MS,\n",
           "row[\"open_desync_ms\"] <= 10 * OPEN_DESYNC_BOUND_MS,\n",
           (TRIMMED + "::test_adversarial",)),

    # -- Every layer option is set by production -----------------------
    Mutant("test-only-knob-comes-back",
           "src/repro/nodes/server.py",
           "    def __init__(self, sim: Simulator):\n"
           "        self.sim = sim\n"
           "        self.name = \"SRV\"\n",
           "    def __init__(self, sim: Simulator, name: str = \"SRV\"):\n"
           "        self.sim = sim\n"
           "        self.name = name\n",
           ("tests/test_layer_options.py::"
            "test_every_option_is_set_by_production_or_listed",)),

    # -- EXPERIMENTS.md is the render of the pinned rows ----------------
    Mutant("document-table-digit",
           "EXPERIMENTS.md",
           "6            4.85        5.18             +6.7% ",
           "6            4.85        5.19             +6.7% ",
           (DOCUMENT,)),
    Mutant("document-docstring-word",
           "src/repro/experiments/fig12.py",
           "HACK's *relative* improvement exceeds",
           "HACK's *absolute* improvement exceeds",
           (DOCUMENT,)),
)
