"""Linux 2.4-like scheduler tests."""

import numpy as np
import pytest

from repro.config import LinuxSchedConfig, MachineConfig
from repro.hw.machine import Machine
from repro.sched.linux import LinuxScheduler
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.workloads.patterns import ConstantPattern


def _setup(n_threads, n_cpus=2, config=None, work=50_000.0, seed=0):
    engine = Engine()
    machine = Machine(MachineConfig(n_cpus=n_cpus), engine, TraceRecorder())
    threads = [
        machine.add_thread(
            f"t{i}",
            ConstantPattern(1.0).bind(np.random.default_rng(i)),
            work,
            footprint_lines=512.0,
        )
        for i in range(n_threads)
    ]
    sched = LinuxScheduler(config or LinuxSchedConfig(rebalance_prob=0.0))
    sched.attach(machine, engine, np.random.default_rng(seed))
    return engine, machine, threads, sched


class TestBasicDispatch:
    def test_fills_cpus_at_start(self):
        engine, machine, threads, sched = _setup(4, n_cpus=2)
        sched.start()
        assert all(not c.idle for c in machine.cpus)

    def test_fewer_threads_than_cpus(self):
        engine, machine, threads, sched = _setup(1, n_cpus=2)
        sched.start()
        busy = [c for c in machine.cpus if not c.idle]
        assert len(busy) == 1

    def test_all_threads_complete(self):
        engine, machine, threads, sched = _setup(4, n_cpus=2)
        sched.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
        assert machine.all_finished()


class TestTimeSharing:
    def test_cpu_time_roughly_fair(self):
        # 4 equal threads on 2 CPUs: each should get ~50% of the wall time.
        engine, machine, threads, sched = _setup(4, n_cpus=2, work=200_000.0)
        sched.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
        runtimes = [t.run_time_us for t in threads]
        assert max(runtimes) / min(runtimes) < 1.35

    def test_context_switches_happen(self):
        engine, machine, threads, sched = _setup(4, n_cpus=2)
        sched.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
        assert sum(c.context_switches for c in machine.cpus) > 0

    def test_epochs_advance(self):
        engine, machine, threads, sched = _setup(4, n_cpus=2, work=300_000.0)
        sched.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
        assert sched.epochs > 0

    def test_no_thread_starves(self):
        engine, machine, threads, sched = _setup(6, n_cpus=2, work=100_000.0)
        sched.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
        assert all(t.finished for t in threads)


class TestGoodness:
    def test_affinity_bonus(self):
        engine, machine, threads, sched = _setup(2, n_cpus=2)
        sched.start()
        t = threads[0]
        assert t.cpu is not None
        home = t.cpu
        away = 1 - home
        g_home = sched.goodness(t, home)
        g_away = sched.goodness(t, away)
        assert g_home == g_away + sched.config.affinity_bonus

    def test_exhausted_counter_zero_goodness(self):
        engine, machine, threads, sched = _setup(1, n_cpus=1)
        sched.start()
        sched._counters[threads[0].tid] = 0
        assert sched.goodness(threads[0], 0) == 0.0


class TestBlockIntegration:
    def test_blocked_thread_descheduled_and_replaced(self):
        engine, machine, threads, sched = _setup(3, n_cpus=2)
        sched.start()
        running = machine.running_tids()
        waiting = [t.tid for t in threads if t.tid not in running]
        victim = running[0]
        machine.set_blocked(victim, True)
        sched.on_block_change(victim, True)
        assert victim not in machine.running_tids()
        assert waiting[0] in machine.running_tids()

    def test_unblocked_thread_takes_idle_cpu(self):
        engine, machine, threads, sched = _setup(2, n_cpus=2)
        sched.start()
        victim = machine.running_tids()[0]
        machine.set_blocked(victim, True)
        sched.on_block_change(victim, True)
        machine.set_blocked(victim, False)
        sched.on_block_change(victim, False)
        assert victim in machine.running_tids()

    def test_wakeup_prefers_last_cpu(self):
        engine, machine, threads, sched = _setup(2, n_cpus=2)
        sched.start()
        t = threads[0]
        last = t.cpu
        machine.set_blocked(t.tid, True)
        sched.on_block_change(t.tid, True)
        machine.set_blocked(t.tid, False)
        sched.on_block_change(t.tid, False)
        assert t.cpu == last


class TestDesynchronization:
    def test_initial_counters_randomized(self):
        engine, machine, threads, sched = _setup(8, n_cpus=4, seed=3)
        sched.start()
        counters = {sched.counter(t.tid) for t in threads}
        assert len(counters) > 1  # not all identical

    def test_rebalance_produces_migrations(self):
        cfg = LinuxSchedConfig(rebalance_prob=0.2)
        engine, machine, threads, sched = _setup(4, n_cpus=4, config=cfg, work=200_000.0)
        sched.start()
        engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
        assert sum(t.migration_count for t in threads) > 0

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            cfg = LinuxSchedConfig(rebalance_prob=0.1)
            engine, machine, threads, sched = _setup(6, n_cpus=2, config=cfg, seed=11)
            sched.start()
            engine.run(advancer=machine, stop=machine.all_finished, max_time=1e9)
            results.append([t.finished_at for t in threads])
        assert results[0] == results[1]


class _ThreadWalkRecharge(LinuxScheduler):
    """The recharge as a walk over every registered thread: the oracle."""

    def _recharge_counters(self):
        machine = self.machine
        for t in machine.threads():
            if not t.finished:
                jitter = int(self.rng.integers(0, 2))
                self._counters[t.tid] = (
                    self._counters.get(t.tid, 0) // 2 + self.config.default_ticks + jitter
                )
        self._epochs += 1
        machine.trace.record(machine.now, "sched.epoch", number=self._epochs)


def _churn(sched_cls):
    """Jobs arrive, finish and are killed while epochs recharge counters."""
    engine = Engine()
    machine = Machine(MachineConfig(n_cpus=2), engine, TraceRecorder())
    sched = sched_cls(LinuxSchedConfig(default_ticks=2, rebalance_prob=0.1))
    sched.attach(machine, engine, np.random.default_rng(7))
    rnd = np.random.default_rng(99)

    def arrive(i):
        t = machine.add_thread(
            f"j{i}",
            ConstantPattern(1.0).bind(np.random.default_rng(i)),
            float(rnd.integers(20_000, 200_000)),
            footprint_lines=512.0,
        )
        sched.on_new_threads()
        if i % 7 == 3:
            engine.schedule_after(20_000.0, lambda: machine.kill_thread(t.tid))

    for i in range(40):
        engine.schedule_at(i * 8_000.0, lambda i=i: arrive(i))
    sched.start()
    engine.run(advancer=machine, stop=None, max_time=1e9)
    return machine, sched


def test_recharge_matches_thread_walk_after_churn():
    machine, sched = _churn(LinuxScheduler)
    ref_machine, ref_sched = _churn(_ThreadWalkRecharge)
    assert machine.all_finished() and len(machine.threads()) == 40
    assert sched.epochs > 5
    # Some epochs start after threads left, so the mask skips finished rows.
    first_exit = min(r.time for r in machine.trace if r.category in ("thread.exit", "thread.kill"))
    assert max(r.time for r in machine.trace if r.category == "sched.epoch") > first_exit
    assert sched.epochs == ref_sched.epochs
    assert sched._counters == ref_sched._counters
    assert sched.rng.bit_generator.state == ref_sched.rng.bit_generator.state
    assert [t.finished_at for t in machine.threads()] == [
        t.finished_at for t in ref_machine.threads()
    ]
    assert [(r.time, r.category, r.data) for r in machine.trace] == [
        (r.time, r.category, r.data) for r in ref_machine.trace
    ]
