"""Unit tests for machine configuration (Table 1 and variants)."""

import pytest

from repro.uarch import (
    LatencyConfig,
    MachineConfig,
    ReeseConfig,
    bigger_window_config,
    large_machine_config,
    more_mem_ports_config,
    starting_config,
    wide_datapath_config,
)


class TestTable1Preset:
    """The starting configuration must equal the paper's Table 1."""

    def test_fetch_queue(self):
        assert starting_config().fetch_queue_size == 16

    def test_widths(self):
        config = starting_config()
        assert config.fetch_width == 8
        assert config.decode_width == 8
        assert config.issue_width == 8
        assert config.commit_width == 8

    def test_window(self):
        config = starting_config()
        assert config.ruu_size == 16
        assert config.lsq_size == 8

    def test_functional_units(self):
        config = starting_config()
        assert config.int_alu == 4       # "4 IntAdd"
        assert config.int_mult == 1      # "1 IntM/D"
        assert config.fp_alu == 4        # "Same for FP"
        assert config.fp_mult == 1
        assert config.mem_ports == 2

    def test_predictor_is_gshare(self):
        assert starting_config().predictor == "gshare"

    def test_caches(self):
        mem = starting_config().mem
        assert mem.l1d.size == 32 * 1024 and mem.l1d.assoc == 2
        assert mem.l1d.hit_latency == 2
        assert mem.l2.size == 512 * 1024 and mem.l2.assoc == 4
        assert mem.l2.hit_latency == 12

    def test_reese_disabled_by_default(self):
        assert not starting_config().reese.enabled


class TestFigureVariants:
    def test_fig3_doubles_window(self):
        config = bigger_window_config()
        assert config.ruu_size == 32 and config.lsq_size == 16
        assert config.issue_width == 8  # widths unchanged

    def test_fig4_doubles_datapath(self):
        config = wide_datapath_config()
        assert config.issue_width == 16 and config.commit_width == 16
        assert config.ruu_size == 32  # keeps fig3's window

    def test_fig5_doubles_mem_ports(self):
        config = more_mem_ports_config()
        assert config.mem_ports == 4
        assert config.issue_width == 16

    def test_fig7_large_machines_grow_window_only(self):
        config = large_machine_config(256)
        assert config.ruu_size == 256 and config.lsq_size == 128
        assert config.issue_width == 8      # widths stay at Table 1
        assert config.int_alu == 4

    def test_fig7_extra_fus(self):
        config = large_machine_config(64, extra_fus=True)
        assert config.int_alu == 8
        assert config.int_mult == 2
        assert config.mem_ports == 4
        assert "fus" in config.name


class TestTransformations:
    def test_with_spares_adds_units(self):
        config = starting_config().with_spares(alu=2, mult=1)
        assert config.int_alu == 6
        assert config.int_mult == 2
        assert "+2alu" in config.name and "+1mult" in config.name

    def test_with_spares_zero_is_identity_counts(self):
        config = starting_config().with_spares()
        assert config.int_alu == 4

    def test_with_spares_rejects_negative(self):
        with pytest.raises(ValueError):
            starting_config().with_spares(alu=-1)

    def test_with_reese_enables(self):
        config = starting_config().with_reese()
        assert config.reese.enabled
        assert config.name.endswith("+reese")

    def test_with_reese_overrides(self):
        config = starting_config().with_reese(rqueue_size=64, r_duty_cycle=0.5)
        assert config.reese.rqueue_size == 64
        assert config.reese.r_duty_cycle == 0.5

    def test_without_reese(self):
        config = starting_config().with_reese().without_reese()
        assert not config.reese.enabled
        assert config.name == "starting"

    def test_replace(self):
        config = starting_config().replace(ruu_size=64, lsq_size=32)
        assert config.ruu_size == 64

    def test_configs_are_immutable(self):
        with pytest.raises(Exception):
            starting_config().ruu_size = 5


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(ruu_size=0),
            dict(issue_width=0),
            dict(mem_ports=0),
            dict(lsq_size=32),    # > ruu_size 16
            dict(int_mult=-1),
        ],
    )
    def test_machine_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            MachineConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rqueue_size=-1),
            dict(r_duty_cycle=0.0),
            dict(r_duty_cycle=1.5),
            dict(rqueue_size=8, high_water_margin=8),
            dict(r_issue_width=-1),
        ],
    )
    def test_reese_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ReeseConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(int_alu=0),
            dict(int_div_issue=-100),
            dict(fp_div=0),
        ],
    )
    def test_latency_config_rejects_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            LatencyConfig(**kwargs)

    def test_reese_auto_defaults(self):
        reese = ReeseConfig()
        assert reese.rqueue_size == 0       # auto: max(32, ruu)
        assert reese.r_issue_width == 0     # auto: issue width
        assert reese.r_duty_cycle == 1.0
        assert not reese.early_remove


class TestLatencies:
    def test_simplescalar_defaults(self):
        lat = LatencyConfig()
        assert lat.int_alu == 1
        assert (lat.int_mult, lat.int_mult_issue) == (3, 1)
        assert (lat.int_div, lat.int_div_issue) == (20, 19)
        assert (lat.fp_mult, lat.fp_div) == (4, 12)
