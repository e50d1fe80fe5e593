"""Failure-injection tests for the signal protocol.

The paper's inversion-protection counters guard against *reordered*
deliveries; these tests quantify that guarantee and its limits under
injected drops, duplicates and jitter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.core.signals import SignalDispatcher
from repro.errors import ArenaError
from repro.hw.machine import Machine
from repro.sim.engine import Engine
from repro.workloads.patterns import ConstantPattern


def _setup(**kw):
    engine = Engine()
    machine = Machine(MachineConfig(), engine)
    tids = [
        machine.add_thread(
            f"t{i}", ConstantPattern(1.0).bind(np.random.default_rng(i)), 1e9
        ).tid
        for i in range(2)
    ]
    disp = SignalDispatcher(machine, engine, **kw)
    return engine, machine, tids, disp


class TestValidation:
    def test_bad_probabilities_rejected(self):
        engine = Engine()
        machine = Machine(MachineConfig(), engine)
        with pytest.raises(ArenaError):
            SignalDispatcher(machine, engine, drop_prob=1.5, rng=np.random.default_rng(0))
        with pytest.raises(ArenaError):
            SignalDispatcher(machine, engine, jitter_us=-1.0, rng=np.random.default_rng(0))

    def test_injection_requires_rng(self):
        engine = Engine()
        machine = Machine(MachineConfig(), engine)
        with pytest.raises(ArenaError):
            SignalDispatcher(machine, engine, drop_prob=0.1)


class TestDuplicatesAndJitter:
    def test_duplicates_do_not_break_convergence(self):
        # Duplicated deliveries increment both counters symmetrically over
        # a block/unblock pair? No — a duplicated block adds +1 block only.
        # The guarantee that *does* hold: with every signal duplicated, a
        # block/unblock sequence still ends unblocked, because duplicates
        # preserve the send order statistics (2 blocks, 2 unblocks).
        engine, machine, tids, disp = _setup(
            duplicate_prob=1.0, rng=np.random.default_rng(3)
        )
        disp.send_block(tids)
        disp.send_unblock(tids)
        engine.run_until(10_000.0, advancer=machine)
        assert disp.duplicated > 0
        for tid in tids:
            blocks, unblocks = disp.received_counts(tid)
            assert blocks == unblocks == 2
            assert not machine.thread(tid).blocked

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_jitter_reordering_converges_to_last_intent(self, seed, rounds):
        # Arbitrary jitter reorders deliveries across quanta; the counter
        # protocol must still converge to the last *sent* intent as long as
        # nothing is dropped.
        engine, machine, tids, disp = _setup(
            jitter_us=500.0, rng=np.random.default_rng(seed)
        )
        last = None
        for i in range(rounds):
            if i % 2 == 0:
                disp.send_block(tids)
                last = True
            else:
                disp.send_unblock(tids)
                last = False
        engine.run_until(100_000.0, advancer=machine)
        for tid in tids:
            assert machine.thread(tid).blocked == last

    def test_drop_counting(self):
        engine, machine, tids, disp = _setup(drop_prob=1.0, rng=np.random.default_rng(0))
        disp.send_block(tids)
        engine.run_until(5_000.0, advancer=machine)
        assert disp.dropped == 2
        # nothing delivered: threads stay runnable
        assert not any(machine.thread(t).blocked for t in tids)

    def test_drops_break_convergence_documented_limit(self):
        # The counters protect against reordering, NOT loss: dropping the
        # unblock leaves the thread blocked. This is the protocol's known
        # limit (the paper's manager resends intents every quantum, which
        # is the actual recovery mechanism).
        engine, machine, tids, disp = _setup()
        disp.send_block(tids)
        engine.run_until(1_000.0, advancer=machine)
        assert all(machine.thread(t).blocked for t in tids)
        # (no unblock ever delivered)


def _lossy_manager_run(protocol: str, resend: bool, max_time: float = 1e10):
    from repro.config import LinuxSchedConfig, ManagerConfig
    from repro.core.manager import CpuManager
    from repro.core.policies import QuantaWindowPolicy
    from repro.sched.linux import LinuxScheduler
    from repro.sim.trace import TraceRecorder
    from repro.workloads.base import Application, ApplicationSpec

    engine = Engine()
    machine = Machine(MachineConfig(), engine, TraceRecorder())
    apps = []
    for i in range(3):
        spec = ApplicationSpec(
            name=f"app{i}",
            n_threads=2,
            work_per_thread_us=150_000.0,
            pattern=ConstantPattern(4.0),
            footprint_lines=256.0,
        )
        apps.append(Application.launch(spec, machine, np.random.default_rng(i)))
    kernel = LinuxScheduler(LinuxSchedConfig(rebalance_prob=0.0))
    kernel.attach(machine, engine, np.random.default_rng(5))
    manager = CpuManager(
        ManagerConfig(
            quantum_us=20_000.0,
            signal_protocol=protocol,
            resend_intent=resend,
        ),
        QuantaWindowPolicy(),
        kernel,
    )
    manager.attach(machine, engine)
    # swap in a lossy dispatcher (keeps the kernel wiring and protocol)
    manager._signals = SignalDispatcher(
        machine,
        engine,
        on_block_change=kernel.on_block_change,
        drop_prob=0.15,
        jitter_us=200.0,
        rng=np.random.default_rng(7),
        protocol=protocol,
    )
    manager.register_apps(apps)
    kernel.start()
    manager.start()
    engine.run(advancer=machine, stop=machine.all_finished, max_time=max_time)
    return machine, manager, apps


class TestManagerRecoveryUnderLoss:
    def test_sequence_protocol_with_resend_survives_loss(self):
        """Sequence numbering + per-quantum intent resends recover from
        dropped signals: every job completes despite 15% loss."""
        machine, manager, apps = _lossy_manager_run("sequence", resend=True)
        assert all(a.finished for a in apps)
        assert manager.signals.dropped > 0

    def test_counter_protocol_wedges_under_loss(self):
        """The paper's counter protocol assumes a lossless channel (true
        for UNIX signals between live processes): with injected drops and
        transition-only sends, a lost unblock can wedge a job forever.
        This pins the documented limitation."""
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            _lossy_manager_run("counter", resend=False, max_time=2e7)

    def test_resend_requires_sequence_protocol(self):
        from repro.config import ManagerConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ManagerConfig(resend_intent=True, signal_protocol="counter")


class TestSequenceProtocol:
    def test_stale_delivery_ignored(self):
        engine, machine, tids, disp = _setup(
            jitter_us=1_000.0, rng=np.random.default_rng(5)
        )
        # rebuild with sequence protocol
        disp = SignalDispatcher(
            machine, engine, jitter_us=1_000.0, rng=np.random.default_rng(5),
            protocol="sequence",
        )
        # heavy jitter reorders; last-sent intent must win
        for _ in range(5):
            disp.send_block(tids)
            disp.send_unblock(tids)
        engine.run_until(60_000.0, advancer=machine)
        assert not any(machine.thread(t).blocked for t in tids)

    def test_duplicates_inert(self):
        engine, machine, tids, disp = _setup()
        disp = SignalDispatcher(
            machine, engine, duplicate_prob=1.0, rng=np.random.default_rng(1),
            protocol="sequence",
        )
        disp.send_block(tids)
        disp.send_unblock(tids)
        engine.run_until(10_000.0, advancer=machine)
        assert not any(machine.thread(t).blocked for t in tids)

    def test_unknown_protocol_rejected(self):
        engine = Engine()
        machine = Machine(MachineConfig(), engine)
        with pytest.raises(ArenaError):
            SignalDispatcher(machine, engine, protocol="udp")
