"""HackConfig presets."""

from repro.core.policies import HackConfig, HackPolicy
from repro.rohc.compressor import Compressor
from repro.sim.units import msec


class TestPresets:
    def test_vanilla_disabled(self):
        config = HackConfig.for_policy(HackPolicy.VANILLA)
        assert not config.enabled

    def test_more_data_enabled_no_timer(self):
        config = HackConfig.for_policy(HackPolicy.MORE_DATA)
        assert config.enabled
        assert config.flush_after_ns is None
        assert config.stall_guard_ns is None

    def test_explicit_timer_has_default_delay(self):
        config = HackConfig.for_policy(HackPolicy.EXPLICIT_TIMER)
        assert config.flush_after_ns == msec(5)

    def test_opportunistic(self):
        config = HackConfig.for_policy(HackPolicy.OPPORTUNISTIC)
        assert config.enabled
        assert config.policy is HackPolicy.OPPORTUNISTIC

    def test_init_vanilla_default(self):
        """One vanilla ACK establishes a flow's context (§3.3.2)."""
        assert Compressor().init_threshold == 1

    def test_max_buffered_within_frame_limit(self):
        # HACK frames carry at most 255 entries.
        for policy in HackPolicy:
            assert HackConfig.for_policy(policy).max_buffered <= 255
