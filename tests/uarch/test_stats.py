"""Unit tests for the statistics container."""

import pytest

from repro.uarch import (
    Observability,
    Pipeline,
    StageMetrics,
    Stats,
    starting_config,
)
from repro.uarch.accounting import hist_mean


class TestDerivedMetrics:
    def test_ipc(self):
        stats = Stats()
        stats.cycles = 100
        stats.committed = 250
        assert stats.ipc == pytest.approx(2.5)

    def test_ipc_zero_cycles(self):
        assert Stats().ipc == 0.0

    def test_misprediction_rate(self):
        stats = Stats()
        stats.cond_branches = 10
        stats.mispredictions = 3
        assert stats.misprediction_rate == pytest.approx(0.3)

    def test_rqueue_mean_occupancy(self, mixed_trace):
        """Derived from the observed R-queue occupancy histogram, the
        one occupancy record."""
        program, trace = mixed_trace
        stats = Pipeline(
            program, trace, starting_config().with_reese(),
            observer=Observability(metrics=StageMetrics()),
        ).run()
        hist = stats.stage_metrics["occupancy"]["rqueue"]
        assert sum(hist.values()) == stats.cycles
        assert 0 < hist_mean(hist) <= max(int(occ) for occ in hist)

    def test_mean_pr_separation_is_the_detect_latency_mean(self):
        stats = Stats()
        assert stats.mean_pr_separation == 0.0
        stats.detect_latency = {"2": 3, "6": 1}
        assert stats.mean_pr_separation == pytest.approx(3.0)
        assert stats.detection_latency()["detect_latency"]["max"] == 6


class TestReporting:
    def test_to_dict_contains_counters_and_derived(self):
        stats = Stats()
        stats.cycles = 10
        stats.committed = 15
        data = stats.to_dict()
        assert data["cycles"] == 10
        assert data["ipc"] == pytest.approx(1.5)
        assert "misprediction_rate" in data

    def test_summary_mentions_ipc(self):
        stats = Stats()
        stats.cycles = 10
        stats.committed = 20
        assert "IPC=2.000" in stats.summary()

    def test_summary_shows_detection_when_present(self):
        stats = Stats()
        stats.cycles = 1
        stats.errors_detected = 2
        assert "detected=2" in stats.summary()

    def test_summary_shows_r_issues_when_present(self):
        stats = Stats()
        stats.cycles = 1
        stats.issued_r = 9
        assert "R-issued=9" in stats.summary()

    def test_repr_embeds_summary(self):
        stats = Stats()
        stats.cycles = 10
        stats.committed = 20
        assert repr(stats) == f"<Stats {stats.summary()}>"


class TestRoundTrip:
    def _populated(self):
        stats = Stats()
        stats.cycles = 123
        stats.committed = 456
        stats.issued_r = 78
        stats.fu_issues = {"ialu": 5}
        stats.detect_latency = {"3": 2, "7": 1}
        stats.rqueue_residency = {"5": 3}
        stats.cache_stats = {"il1": {"hit_rate": 0.9}}
        stats.stage_metrics = {
            "schema": 1,
            "cycles_sampled": 123,
            "occupancy": {"ruu": {"0": 3, "16": 120}},
            "fu_issued": {"P": {"ialu": 5}, "R": {"ialu": 2}},
        }
        return stats

    def test_state_dict_covers_every_slot(self):
        state = Stats().state_dict()
        assert set(state) == set(Stats.__slots__)
        assert "stage_metrics" in state

    def test_from_dict_state_dict_round_trip(self):
        original = self._populated()
        rebuilt = Stats.from_state_dict(original.state_dict())
        assert rebuilt.state_dict() == original.state_dict()
        assert rebuilt.stage_metrics == original.stage_metrics

    def test_from_dict_accepts_to_dict(self):
        """Derived-metric keys from to_dict() are ignored on load."""
        original = self._populated()
        rebuilt = Stats.from_state_dict(original.to_dict())
        assert rebuilt.state_dict() == original.state_dict()

    def test_from_dict_tolerates_missing_new_fields(self):
        """Cache entries written before stage_metrics existed still load."""
        state = self._populated().state_dict()
        del state["stage_metrics"]
        rebuilt = Stats.from_state_dict(state)
        assert rebuilt.stage_metrics == {}
        assert rebuilt.cycles == 123

    def test_from_state_dict_is_the_canonical_name(self):
        """``from_state_dict`` is the only loader (no alias)."""
        assert not hasattr(Stats, "from_dict")
        state = self._populated().state_dict()
        assert Stats.from_state_dict(state).state_dict() == state

    def test_from_dict_ignores_unknown_keys(self):
        """Entries from newer code versions load on older ones."""
        state = self._populated().state_dict()
        state["counter_from_the_future"] = 99
        rebuilt = Stats.from_state_dict(state)
        assert not hasattr(rebuilt, "counter_from_the_future")
        assert rebuilt.cycles == 123

    def test_from_dict_null_registries_load_empty_and_merge(self):
        """A ``None`` registry (older writer) must not poison merge()."""
        state = self._populated().state_dict()
        state["fu_issues"] = None
        state["cache_stats"] = None
        state["stage_metrics"] = None
        state["detect_latency"] = None
        rebuilt = Stats.from_state_dict(state)
        assert rebuilt.fu_issues == {}
        assert rebuilt.cache_stats == {}
        assert rebuilt.stage_metrics == {}
        assert rebuilt.detect_latency == {}
        merged = Stats.merged([rebuilt, self._populated()])
        assert merged.cycles == 2 * 123
        assert merged.fu_issues == {"ialu": 5}
        assert merged.detect_latency == {"3": 2, "7": 1}

    def test_merged_interval_stats_sum_counters(self):
        """The sampling engine's merge path: counters add up."""
        parts = [self._populated(), self._populated(), self._populated()]
        for part in parts:
            part.halted = True
        merged = Stats.merged(parts)
        assert merged.cycles == 3 * 123
        assert merged.committed == 3 * 456
        assert merged.fu_issues == {"ialu": 15}
        # Histograms merge key-wise; the parts are left untouched.
        assert merged.detect_latency == {"3": 6, "7": 3}
        assert merged.rqueue_residency == {"5": 9}
        assert parts[0].detect_latency == {"3": 2, "7": 1}
        # halted is an AND fold: all parts completed => merged did.
        assert merged.halted
