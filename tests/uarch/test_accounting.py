"""Unit tests for the cycle-accounting profiler.

The cascade is tested against a stub pipeline whose Stats counters a
test bumps the way the stage code would (so each priority rung can be
exercised in isolation), the FU blame rule against a real FUPool, and
the account arithmetic (merge, identities, R-share, histogram
summaries) as pure functions over state_dict payloads.
"""

import pytest

from repro.isa.instructions import FUClass
from repro.uarch.accounting import (
    ACCOUNTING_SCHEMA_VERSION,
    CYCLE_CAUSES,
    CycleAccountant,
    R_CAUSES,
    SLOT_CAUSES,
    accounting_identity_errors,
    r_share_of_delta,
)
from repro.uarch.config import starting_config
from repro.uarch.funits import FUPool
from repro.uarch.stats import (
    Stats,
    hist_count,
    hist_max,
    hist_mean,
    hist_percentile,
    merge_accounting,
)


class _Entry:
    def __init__(self, issued=False, squashed=False, wrong_path=False):
        self.issued = issued
        self.squashed = squashed
        self.wrong_path = wrong_path


class _Config:
    issue_width = 4
    dispatch_dup = False


class _Pipe:
    """Just enough pipeline surface for on_cycle/_residual_cause."""

    def __init__(self):
        self.config = _Config()
        self.stats = Stats()
        self.fupool = FUPool(starting_config())
        self.ruu = []
        self.wp_active = False
        self.fetch_blocked_until = 0
        self.cycle = 0
        self.ifq = []
        self.fetch_cursor = 0
        self.trace = []
        self.rqueue = None


@pytest.fixture
def acct():
    accountant = CycleAccountant()
    accountant.bind(_Pipe())
    return accountant


def _issue(pipe, p=0, wp=0, r=0):
    """Bump the issue counters the way the stage code does."""
    pipe.stats.issued += p + wp
    pipe.stats.issued_wrong_path += wp
    pipe.stats.issued_r += r


class TestCascade:
    def test_issued_slots_charge_first(self, acct):
        pipe = _Pipe()
        _issue(pipe, p=2, r=1)
        acct.on_cycle(pipe)
        assert acct.slots["issued_p"] == 2
        assert acct.slots["issued_r"] == 1
        assert sum(acct.slots.values()) == 4  # one residual slot charged

    def test_recovery_wins_over_everything(self, acct):
        pipe = _Pipe()
        pipe.stats.recoveries += 1
        acct.cyc_fu_block_r = 4
        pipe.stats.rqueue_full_events += 1
        acct.on_cycle(pipe)
        assert acct.slots["recovery"] == 4
        assert acct.slots["fu_busy_r"] == 0

    def test_recovery_shadow_is_sticky_until_p_issue(self, acct):
        pipe = _Pipe()
        pipe.stats.recoveries += 1
        acct.on_cycle(pipe)
        acct.on_cycle(pipe)  # still refilling
        assert acct.slots["recovery"] == 8
        _issue(pipe, p=4)
        acct.on_cycle(pipe)  # P work issued: shadow ends
        acct.on_cycle(pipe)
        assert acct.slots["recovery"] == 8
        assert acct.slots["issued_p"] == 4

    def test_mispredict_does_not_downgrade_recovery(self, acct):
        pipe = _Pipe()
        pipe.stats.recoveries += 1
        acct.on_mispredict(0, None)
        acct.on_cycle(pipe)
        assert acct._refill == "recovery"
        acct.on_mispredict(0, None)
        assert acct._refill == "recovery"

    def test_fu_busy_split_caps_at_unused(self, acct):
        pipe = _Pipe()
        _issue(pipe, p=2)
        acct.cyc_fu_block_r = 5
        acct.cyc_fu_block_p = 5
        acct.on_cycle(pipe)
        # Only 2 unused slots exist; R blame has priority.
        assert acct.slots["fu_busy_r"] == 2
        assert acct.slots["fu_busy_p"] == 0

    def test_rqueue_backpressure_beats_operands(self, acct):
        pipe = _Pipe()
        pipe.ruu = [_Entry()]  # unready P work present
        pipe.stats.rqueue_full_events += 1
        acct.on_cycle(pipe)
        assert acct.slots["rqueue_backpressure"] == 4
        acct.on_cycle(pipe)  # counter unchanged: no backpressure now
        assert acct.slots["operands_not_ready"] == 4

    def test_dispatch_blocks(self, acct):
        pipe = _Pipe()
        pipe.stats.ruu_full_events += 1
        acct.on_cycle(pipe)
        pipe.stats.lsq_full_events += 1
        acct.on_cycle(pipe)
        assert acct.slots["ruu_full"] == 4
        assert acct.slots["lsq_full"] == 4

    def test_dispatch_dup_shadow_issues_charge_r(self):
        pipe = _Pipe()
        pipe.config.dispatch_dup = True
        accountant = CycleAccountant()
        accountant.bind(pipe)
        # Two originals and their two shadows: ``issued`` counts all
        # four, ``issued_r`` the shadows.
        _issue(pipe, p=4, r=2)
        accountant.on_cycle(pipe)
        assert accountant.slots["issued_p"] == 2
        assert accountant.slots["issued_r"] == 2

    def test_operands_not_ready_needs_true_path_work(self, acct):
        pipe = _Pipe()
        pipe.ruu = [_Entry(wrong_path=True), _Entry(issued=True)]
        acct.on_cycle(pipe)
        # Only wrong-path work unready -> mispredict shadow, not operands.
        assert acct.slots["ifq_empty_mispredict"] == 4
        pipe.ruu.append(_Entry())
        acct.on_cycle(pipe)
        assert acct.slots["operands_not_ready"] == 4

    def test_fetch_starved_and_drain_and_idle(self, acct):
        pipe = _Pipe()
        pipe.fetch_blocked_until = 5  # I-cache miss outstanding
        acct.on_cycle(pipe)
        assert acct.slots["fetch_starved"] == 4
        pipe.fetch_blocked_until = 0
        pipe.rqueue = [object()]
        acct.on_cycle(pipe)
        assert acct.slots["r_drain"] == 4
        pipe.rqueue = []
        acct.on_cycle(pipe)
        assert acct.slots["idle"] == 4

    def test_cycle_account_active_on_commit_only_cycles(self, acct):
        pipe = _Pipe()
        pipe.stats.committed = 3  # commits without issue this cycle
        acct.on_cycle(pipe)
        assert acct.cycles["active"] == 1
        acct.on_cycle(pipe)  # no new commits, nothing issued
        assert acct.cycles["idle"] == 1

    def test_reset_keeps_sticky_refill(self, acct):
        pipe = _Pipe()
        pipe.stats.recoveries += 1
        acct.on_cycle(pipe)
        acct.reset()
        pipe.stats = Stats()  # the pipeline zeroes its counters too
        assert acct.cycles_total == 0
        assert sum(acct.slots.values()) == 0
        acct.on_cycle(pipe)
        # Flush straddling the measurement boundary still shadows.
        assert acct.slots["recovery"] == 4

    def test_reset_restarts_the_counter_deltas(self, acct):
        pipe = _Pipe()
        _issue(pipe, p=3)
        acct.on_cycle(pipe)
        acct.reset()
        pipe.stats = Stats()
        _issue(pipe, p=1)
        acct.on_cycle(pipe)
        assert acct.slots["issued_p"] == 1


class TestFUBlame:
    def test_blame_r_when_r_holds_unit(self):
        config = starting_config()
        pool = FUPool(config)
        pool.track_streams = True
        for _ in range(config.int_alu):
            assert pool.acquire(FUClass.INT_ALU, 0, r_stream=True) is not None
        assert pool.acquire(FUClass.INT_ALU, 0) is None
        assert pool.blame(FUClass.INT_ALU, 0) == "R"

    def test_blame_p_when_p_holds_unit(self):
        config = starting_config()
        pool = FUPool(config)
        pool.track_streams = True
        for _ in range(config.int_mult):
            assert pool.acquire(FUClass.INT_DIV, 0) is not None
        assert pool.blame(FUClass.INT_DIV, 0) == "P"

    def test_note_fu_block_charges_the_blamed_stream(self):
        pipe = _Pipe()
        accountant = CycleAccountant()
        accountant.bind(pipe)
        assert pipe.fupool.track_streams  # bind turns it on
        for _ in range(starting_config().int_alu):
            pipe.fupool.acquire(FUClass.INT_ALU, 0, r_stream=True)
        pipe.fupool.acquire(FUClass.INT_DIV, 0)
        accountant.on_fu_block(0, FUClass.INT_ALU, False)  # R holds
        accountant.on_fu_block(0, FUClass.INT_DIV, False)  # P holds
        accountant.on_fu_block(0, FUClass.INT_DIV, True)  # R work
        assert (accountant.cyc_fu_block_r, accountant.cyc_fu_block_p) == (2, 1)

    def test_blame_untracked_defaults_to_p(self):
        config = starting_config()
        pool = FUPool(config)  # track_streams off
        for _ in range(config.int_alu):
            pool.acquire(FUClass.INT_ALU, 0, r_stream=True)
        assert pool.blame(FUClass.INT_ALU, 0) == "P"


class TestStateDictAndMerge:
    def _account(self, acct_cycles=2):
        accountant = CycleAccountant()
        accountant.bind(_Pipe())
        pipe = _Pipe()
        for _ in range(acct_cycles):
            _issue(pipe, p=4)
            accountant.on_cycle(pipe)
        return accountant.state_dict()

    def test_state_dict_shape(self):
        account = self._account()
        assert account["schema"] == ACCOUNTING_SCHEMA_VERSION
        assert account["width"] == 4
        assert account["slots_total"] == account["width"] * account["cycles_total"]
        assert account["slots"] == {"issued_p": 8}  # zero causes elided
        assert "detect_latency" not in account  # a Stats field now
        assert not accounting_identity_errors(account)

    def test_merge_preserves_identities(self):
        merged = merge_accounting(self._account(2), self._account(3))
        assert merged["cycles_total"] == 5
        assert merged["slots_total"] == 20
        assert merged["slots"] == {"issued_p": 20}
        assert not accounting_identity_errors(merged)

    def test_merge_tolerates_empty_sides(self):
        account = self._account()
        assert merge_accounting({}, account) == account
        assert merge_accounting(account, {}) is account
        # Copy, not alias: mutating the merge must not corrupt source.
        copied = merge_accounting({}, account)
        copied["slots"]["issued_p"] = 0
        assert account["slots"]["issued_p"] == 8

    def test_identity_errors_detect_corruption(self):
        account = self._account()
        account["slots"]["issued_p"] += 1
        errors = accounting_identity_errors(account)
        assert len(errors) == 1 and "slot account" in errors[0]
        assert accounting_identity_errors({}) == ["empty accounting payload"]


class TestRShare:
    def test_only_positive_deltas_count(self):
        base = {"slots": {"issued_p": 100, "ruu_full": 50, "idle": 30}}
        reese = {"slots": {"issued_p": 100, "issued_r": 100,
                           "fu_busy_r": 40, "ruu_full": 10, "idle": 0}}
        r_delta, total = r_share_of_delta(base, reese)
        # issued_p excluded; ruu_full/idle shrank (ignored); the growth
        # is issued_r+fu_busy_r = 140, all R-attributable.
        assert (r_delta, total) == (140, 140)

    def test_r_causes_subset_of_slot_causes(self):
        assert R_CAUSES <= set(SLOT_CAUSES)
        assert set(CYCLE_CAUSES) == {"active"} | set(SLOT_CAUSES[3:])


class TestHistograms:
    def test_summaries(self):
        hist = {1: 2, 10: 1, "3": 1}  # str keys as after JSON round-trip
        assert hist_count(hist) == 4
        assert hist_mean(hist) == pytest.approx(15 / 4)
        assert hist_percentile(hist, 0.5) == 1
        assert hist_percentile(hist, 0.99) == 10
        assert hist_max(hist) == 10

    def test_empty_histograms(self):
        assert hist_mean({}) == 0.0
        assert hist_percentile({}, 0.99) == 0
        assert hist_max({}) == 0
        summary = Stats().detection_latency()
        assert summary["detect_latency"]["count"] == 0
        assert summary["rqueue_residency"]["mean"] == 0.0
