"""Channel timing-model tests: FR-FCFS-Cap selection, row hits/misses,
write recovery, idle close, bus serialization, swap blocking.

Every test class runs on the python backend; its ``...Compiled`` twin at
the bottom of the file runs the same tests on the compiled channel core.
"""

import pytest

from repro.common.config import MemTimings
from repro.common.events import EventQueue
from repro.mem.channel import Channel
from repro.mem.power import EnergyMeter
from repro.common.config import EnergyConfig
from repro.mem.backend import compiled_available
from repro.mem.request import DeviceAddress, MemRequest, Module, RequestKind

M1 = MemTimings.dram()
M2 = MemTimings.nvm_from_dram()


def make_channel(
    idle_close=0, swap_latency=2548, energy=None, backend="python", cap=4
):
    events = EventQueue()
    channel = Channel(
        events=events,
        m1_timings=M1,
        m2_timings=M2,
        banks_per_rank=16,
        frfcfs_cap=cap,
        energy=energy,
        swap_latency=swap_latency,
        row_idle_close=idle_close,
        backend=backend,
    )
    return events, channel


class ChannelCase:
    """Base of the test classes: the channel backend under test."""

    backend = "python"

    def make_channel(self, **kwargs):
        return make_channel(backend=self.backend, **kwargs)


def read(module, bank, row, done):
    return MemRequest(
        core_id=0,
        address=DeviceAddress(module, bank, row),
        is_write=False,
        arrival=0,
        on_complete=done,
    )


def run_one(events, channel, request):
    done = []
    request.on_complete = lambda c: done.append(c)
    channel.enqueue(request)
    events.run()
    assert len(done) == 1
    return done[0]


def issue_order(events, channel, rows):
    """Queue one M1 bank-0 read per row at once; return their indices in
    completion order.  Reads to one bank complete in the order the
    scheduler issued them, so this is the FR-FCFS-Cap selection order."""
    done = []
    for index, row in enumerate(rows):
        channel.enqueue(
            read(Module.M1, 0, row, lambda c, index=index: done.append(index))
        )
    events.run()
    return done


class TestScheduling(ChannelCase):
    def test_prefers_row_hit_over_older_miss(self):
        events, channel = self.make_channel()
        run_one(events, channel, read(Module.M1, 0, 2, None))
        assert issue_order(events, channel, [1, 2]) == [1, 0]

    def test_oldest_when_no_hits(self):
        events, channel = self.make_channel()
        run_one(events, channel, read(Module.M1, 0, 0, None))
        assert issue_order(events, channel, [1, 2]) == [0, 1]

    def test_oldest_hit_chosen_first(self):
        events, channel = self.make_channel()
        run_one(events, channel, read(Module.M1, 0, 9, None))
        assert issue_order(events, channel, [5, 9, 9]) == [1, 2, 0]

    def test_cap_limits_consecutive_hits(self):
        # Two hits allowed, then the oldest request (a miss) must issue;
        # it opens row 1, so the last row-9 read is a miss too.
        events, channel = self.make_channel(cap=2)
        run_one(events, channel, read(Module.M1, 0, 9, None))  # cold miss
        assert issue_order(events, channel, [1, 9, 9, 9]) == [1, 2, 0, 3]

    def test_miss_resets_streak(self):
        # After the capped-out miss (row 1) the row-1 hit may again pass
        # the older row-9 miss.
        events, channel = self.make_channel(cap=2)
        run_one(events, channel, read(Module.M1, 0, 9, None))
        order = issue_order(events, channel, [1, 9, 9, 9, 1])
        assert order == [1, 2, 0, 4, 3]

    def test_swap_resets_streak(self):
        events, channel = self.make_channel(cap=1)
        run_one(events, channel, read(Module.M1, 0, 9, None))  # miss
        run_one(events, channel, read(Module.M1, 0, 9, None))  # hit: capped
        channel.schedule_swap(0, 9, 0, 0)  # row 9 stays open on M1 bank 0
        assert issue_order(events, channel, [5, 9]) == [1, 0]

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            self.make_channel(cap=0)


class TestSingleRequestLatency(ChannelCase):
    def test_m1_cold_miss(self):
        events, channel = self.make_channel()
        latency = run_one(events, channel, read(Module.M1, 0, 0, None))
        # No precharge on a closed bank: tRCD + CL + burst.
        assert latency == M1.t_rcd + M1.cl + M1.line_burst

    def test_m2_cold_miss_is_ten_x_trcd(self):
        events, channel = self.make_channel()
        latency = run_one(events, channel, read(Module.M2, 0, 0, None))
        assert latency == M2.t_rcd + M2.cl + M2.line_burst
        assert M2.t_rcd == 10 * M1.t_rcd

    def test_row_hit_is_cas_plus_burst(self):
        events, channel = self.make_channel()
        run_one(events, channel, read(Module.M1, 0, 0, None))
        start = events.now
        latency = run_one(events, channel, read(Module.M1, 0, 0, None)) - start
        assert latency == M1.cl + M1.line_burst

    def test_row_conflict_pays_precharge(self):
        events, channel = self.make_channel()
        run_one(events, channel, read(Module.M1, 0, 0, None))
        start = events.now
        latency = run_one(events, channel, read(Module.M1, 0, 1, None)) - start
        assert latency == M1.t_rp + M1.t_rcd + M1.cl + M1.line_burst

    def test_dirty_row_conflict_pays_write_recovery(self):
        events, channel = self.make_channel()
        req = read(Module.M2, 0, 0, None)
        req.is_write = True
        run_one(events, channel, req)
        # Sync past the drained write's burst (it ends by 500 cycles).
        events.schedule(600, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, read(Module.M2, 0, 1, None)) - start
        expected = M2.t_wr + M2.t_rp + M2.t_rcd + M2.cl + M2.line_burst
        assert latency == expected

    def test_write_hit_does_not_pay_recovery_inline(self):
        # Writes into an open row buffer are cheap; tWR is deferred.
        events, channel = self.make_channel()
        w1 = read(Module.M2, 0, 0, None)
        w1.is_write = True
        run_one(events, channel, w1)
        events.schedule(600, lambda c: None)
        events.run()
        # The second write drains as a row hit: bank busy only CAS + burst
        # beyond the first write's burst end (500).
        w2 = read(Module.M2, 0, 0, None)
        w2.is_write = True
        run_one(events, channel, w2)
        bank = channel.bank(Module.M2, 0)
        assert bank.ready_at == 600 + M2.cl + M2.line_burst


class TestIdleClose(ChannelCase):
    def test_idle_row_closes(self):
        events, channel = self.make_channel(idle_close=480)  # 150 ns
        run_one(events, channel, read(Module.M1, 0, 0, None))
        # Wait out the idle window.
        events.schedule(events.now + 10_000, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, read(Module.M1, 0, 0, None)) - start
        # Same row, but it was closed: full activate, no precharge stall
        # (precharge happened in the background long ago).
        assert latency == M1.t_rcd + M1.cl + M1.line_burst

    def test_prompt_reuse_still_hits(self):
        events, channel = self.make_channel(idle_close=480)
        run_one(events, channel, read(Module.M1, 0, 0, None))
        start = events.now
        latency = run_one(events, channel, read(Module.M1, 0, 0, None)) - start
        assert latency == M1.cl + M1.line_burst

    def test_dirty_idle_close_can_delay_reactivation(self):
        events, channel = self.make_channel(idle_close=480)
        w = read(Module.M2, 0, 0, None)
        w.is_write = True
        run_one(events, channel, w)
        # The write drains by cycle 500; arrive just after its row's
        # idle-close begins, while the tWR tail is still draining.
        events.schedule(500 + 481, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, read(Module.M2, 0, 0, None)) - start
        assert latency > M2.t_rcd + M2.cl + M2.line_burst


class TestBusSerialization(ChannelCase):
    def test_two_hits_same_cycle_serialize_on_bus(self):
        events, channel = self.make_channel()
        # Open two rows on different banks first.
        run_one(events, channel, read(Module.M1, 0, 0, None))
        run_one(events, channel, read(Module.M1, 1, 0, None))
        done = []
        a = read(Module.M1, 0, 0, lambda c: done.append(c))
        b = read(Module.M1, 1, 0, lambda c: done.append(c))
        channel.enqueue(a)
        channel.enqueue(b)
        events.run()
        assert len(done) == 2
        assert abs(done[1] - done[0]) >= M1.line_burst

    def test_bank_prep_overlaps_burst(self):
        events, channel = self.make_channel()
        done = []
        # Two cold misses on different banks: the second's activation
        # overlaps the first's, so completion gap is far below a full
        # serial miss latency.
        a = read(Module.M2, 0, 0, lambda c: done.append(c))
        b = read(Module.M2, 1, 0, lambda c: done.append(c))
        channel.enqueue(a)
        channel.enqueue(b)
        events.run()
        serial = 2 * (M2.t_rcd + M2.cl + M2.line_burst)
        assert max(done) < serial


class TestSwaps(ChannelCase):
    def test_swap_blocks_channel(self):
        events, channel = self.make_channel()
        end = channel.schedule_swap(0, 0, 0, 0)
        assert end == 2548
        latency = run_one(events, channel, read(Module.M1, 1, 0, None))
        assert latency >= 2548

    def test_swap_leaves_rows_open_dirty(self):
        events, channel = self.make_channel()
        end = channel.schedule_swap(2, 7, 3, 9)
        events.schedule(end, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, read(Module.M1, 2, 7, None)) - start
        assert latency == M1.cl + M1.line_burst

    def test_swap_completion_callback(self):
        events, channel = self.make_channel()
        fired = []
        channel.schedule_swap(0, 0, 0, 0, on_complete=lambda c: fired.append(c))
        events.run()
        assert fired == [2548]

    def test_swaps_serialize(self):
        events, channel = self.make_channel()
        channel.schedule_swap(0, 0, 0, 0)
        end = channel.schedule_swap(1, 0, 1, 0)
        assert end == 2 * 2548

    def test_swap_counted(self):
        events, channel = self.make_channel()
        channel.schedule_swap(0, 0, 0, 0)
        assert channel.stats.swaps == 1


class TestStats(ChannelCase):
    def test_read_latency_tracks_data_reads_only(self):
        events, channel = self.make_channel()
        st = MemRequest(
            core_id=0,
            address=DeviceAddress(Module.M1, 0, -1),
            is_write=False,
            arrival=0,
            kind=RequestKind.ST_READ,
        )
        channel.enqueue(st)
        events.run()
        assert channel.stats.read_count == 0
        assert channel.stats.st_reads == 1
        run_one(events, channel, read(Module.M1, 0, 0, None))
        assert channel.stats.read_count == 1

    def test_row_hit_counter(self):
        events, channel = self.make_channel()
        run_one(events, channel, read(Module.M1, 0, 0, None))
        run_one(events, channel, read(Module.M1, 0, 0, None))
        assert channel.stats.row_hits == 1

    def test_energy_recording(self):
        meter = EnergyMeter(EnergyConfig(), num_channels=1)
        events, channel = self.make_channel(energy=meter)
        run_one(events, channel, read(Module.M2, 0, 0, None))
        assert meter.activates[Module.M2] == 1
        assert meter.line_reads[Module.M2] == 1

    def test_swap_energy(self):
        meter = EnergyMeter(EnergyConfig(), num_channels=1)
        events, channel = self.make_channel(energy=meter)
        channel.schedule_swap(0, 0, 0, 0)
        assert meter.line_reads[Module.M1] == 32
        assert meter.line_writes[Module.M2] == 32


class TestRefresh(ChannelCase):
    def test_m1_refresh_closes_rows(self):
        events, channel = self.make_channel()
        run_one(events, channel, read(Module.M1, 0, 0, None))
        # Jump past several refresh intervals.
        events.schedule(events.now + 3 * M1.t_refi, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, read(Module.M1, 0, 0, None)) - start
        # Row was closed by refresh: the access re-activates.
        assert latency >= M1.t_rcd + M1.cl + M1.line_burst
        assert channel.stats.refreshes >= 3

    def test_m2_never_refreshes(self):
        events, channel = self.make_channel()
        run_one(events, channel, read(Module.M2, 0, 0, None))
        events.schedule(events.now + 10 * M1.t_refi, lambda c: None)
        events.run()
        before = channel.stats.refreshes
        run_one(events, channel, read(Module.M2, 1, 0, None))
        assert channel.stats.refreshes == before
        assert M2.t_refi == 0

    def test_refresh_delays_prompt_request(self):
        events, channel = self.make_channel()
        # Arrive exactly at the refresh boundary: bank busy for tRFC.
        events.schedule(M1.t_refi, lambda c: None)
        events.run()
        start = events.now
        latency = run_one(events, channel, read(Module.M1, 0, 0, None)) - start
        assert latency >= M1.t_rfc


class TestWriteQueue(ChannelCase):
    def test_write_acceptance_is_immediate(self):
        events, channel = self.make_channel()
        accepted = []
        w = read(Module.M1, 0, 0, None)
        w.is_write = True
        w.on_complete = lambda c: accepted.append(c)
        channel.enqueue(w)
        events.step()  # acceptance event only
        assert accepted and accepted[0] == 0

    def test_reads_prioritized_over_buffered_writes(self):
        events, channel = self.make_channel()
        order = []
        w = read(Module.M2, 0, 5, None)
        w.is_write = True
        channel.enqueue(w)
        r = read(Module.M1, 1, 0, lambda c: order.append("read"))
        channel.enqueue(r)
        events.run()
        # The read completes long before the slow M2 write would have.
        assert channel.stats.reads == 1
        assert channel.stats.writes == 1
        assert order == ["read"]

    def test_writes_drain_when_idle(self):
        events, channel = self.make_channel()
        for row in range(3):
            w = read(Module.M1, 0, row, None)
            w.is_write = True
            channel.enqueue(w)
        events.run()
        assert channel.stats.writes == 3
        assert channel.queue_depth() == 0

    def test_backpressure_beyond_cap(self):
        events, channel = self.make_channel()
        accepted = []
        total = Channel.WRITE_QUEUE_CAP + 8
        for index in range(total):
            w = read(Module.M2, index % 16, index, None)
            w.is_write = True
            w.on_complete = lambda c, i=index: accepted.append(i)
            channel.enqueue(w)
        # Before any draining, only the first CAP writes are accepted.
        assert len(accepted) <= Channel.WRITE_QUEUE_CAP
        events.run()
        assert len(accepted) == total

    def test_high_watermark_forces_drain_despite_reads(self):
        events, channel = self.make_channel()
        for index in range(Channel.WRITE_QUEUE_HIGH):
            w = read(Module.M1, index % 16, index, None)
            w.is_write = True
            channel.enqueue(w)
        # A steady read stream would otherwise starve the writes.
        for index in range(4):
            channel.enqueue(read(Module.M1, index % 16, 100 + index, None))
        events.run()
        assert channel.stats.writes == Channel.WRITE_QUEUE_HIGH


needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled channel core unavailable"
)


@needs_compiled
class TestSchedulingCompiled(TestScheduling):
    backend = "compiled"


@needs_compiled
class TestSingleRequestLatencyCompiled(TestSingleRequestLatency):
    backend = "compiled"


@needs_compiled
class TestIdleCloseCompiled(TestIdleClose):
    backend = "compiled"


@needs_compiled
class TestBusSerializationCompiled(TestBusSerialization):
    backend = "compiled"


@needs_compiled
class TestSwapsCompiled(TestSwaps):
    backend = "compiled"


@needs_compiled
class TestStatsCompiled(TestStats):
    backend = "compiled"


@needs_compiled
class TestRefreshCompiled(TestRefresh):
    backend = "compiled"


@needs_compiled
class TestWriteQueueCompiled(TestWriteQueue):
    backend = "compiled"
