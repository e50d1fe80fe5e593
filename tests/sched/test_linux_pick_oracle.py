"""The ranked scheduling pass against the per-CPU O(n) scan it replaces.

``LinuxScheduler._pick_for_cpus`` computes a whole pass's picks from one
ranking of the ready set. The reference below is the per-CPU goodness
scan the scheduler used to run once per CPU, kept verbatim as the oracle:
on random ready sets, counters (missing, zero, positive), affinity
histories (``last_cpu`` unset or any CPU), incumbents (expired or not) and
all-exhausted sets that force the recharge path, a pass must dispatch the
same threads in the same order and leave the same counters, epoch count
and rng position as the scan run CPU by CPU.
"""

import bisect

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LinuxSchedConfig, MachineConfig
from repro.hw.machine import Machine
from repro.sched.linux import LinuxScheduler
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.workloads.patterns import ConstantPattern


def _reference_pick(sched: LinuxScheduler, cpu_id: int) -> None:
    """The O(n) per-CPU scan: dispatch the highest-goodness candidate."""
    machine = sched.machine
    current = machine.cpus[cpu_id].tid
    thread = machine.thread
    for attempt in range(2):
        best_tid = None
        best_g = 0.0
        ready = machine.ready_tids()
        waiters = bool(ready)
        if current is not None:
            candidates = list(ready)
            bisect.insort(candidates, current)
        else:
            candidates = ready
        for tid in candidates:
            g = sched.goodness(thread(tid), cpu_id)
            if g > best_g:
                best_g = g
                best_tid = tid
        if best_tid is not None:
            if best_tid != current:
                machine.dispatch(cpu_id, best_tid)
            return
        if not waiters and current is not None:
            return  # keep the incumbent; nobody else to run
        if attempt == 0 and waiters:
            # recalculate_counters: all candidates exhausted
            cfg = sched.config
            for t in machine.threads():
                if not t.finished:
                    jitter = int(sched.rng.integers(0, 2))
                    sched._counters[t.tid] = (
                        sched._counters.get(t.tid, 0) // 2 + cfg.default_ticks + jitter
                    )
            sched._epochs += 1
            machine.trace.record(machine.now, "sched.epoch", number=sched._epochs)
            continue
        return


#: Per-thread lifecycle before the pass.
_KINDS = ("ready", "ready", "ready", "blocked", "finished")


@st.composite
def _worlds(draw):
    n_cpus = draw(st.integers(1, 6))
    n_threads = draw(st.integers(0, 12))
    threads = []
    for _ in range(n_threads):
        threads.append(
            {
                "kind": draw(st.sampled_from(_KINDS)),
                # None: never ran; otherwise the CPU it last ran on.
                "last_cpu": draw(st.none() | st.integers(0, n_cpus - 1)),
                # None: no counter yet (lazy init), else the counter.
                "counter": draw(st.none() | st.integers(0, 8)),
            }
        )
    ready = [i for i, t in enumerate(threads) if t["kind"] == "ready"]
    # Incumbents: distinct ready threads on distinct CPUs.
    n_inc = draw(st.integers(0, min(n_cpus, len(ready))))
    inc_threads = draw(st.permutations(ready))[:n_inc]
    inc_cpus = draw(st.permutations(range(n_cpus)))[:n_inc]
    incumbents = dict(zip(inc_cpus, inc_threads))
    inc_counters = {
        cpu: draw(st.integers(0, 8)) for cpu in incumbents
    }
    if draw(st.booleans()):
        # Every waiter exhausted: the pass must take the recharge path.
        for t in threads:
            if t["counter"] is not None:
                t["counter"] = 0
        inc_counters = {cpu: 0 for cpu in incumbents}
    # The CPUs that pick: every idle CPU plus any subset of busy ones
    # (a tick re-picks the CPUs whose incumbent expired), ascending.
    busy = sorted(incumbents)
    picking = draw(st.lists(st.sampled_from(busy), unique=True)) if busy else []
    cpu_ids = sorted(set(range(n_cpus)) - set(busy) | set(picking))
    config = LinuxSchedConfig(
        default_ticks=draw(st.sampled_from((1, 2, 6))),
        affinity_bonus=draw(st.sampled_from((0, 1, 2, 15))),
        rebalance_prob=0.0,
    )
    return {
        "n_cpus": n_cpus,
        "threads": threads,
        "incumbents": incumbents,
        "inc_counters": inc_counters,
        "cpu_ids": cpu_ids,
        "config": config,
        "seed": draw(st.integers(0, 2**16)),
    }


def _build(world):
    engine = Engine()
    machine = Machine(MachineConfig(n_cpus=world["n_cpus"]), engine, TraceRecorder())
    states = [
        machine.add_thread(
            f"t{i}", ConstantPattern(1.0).bind(np.random.default_rng(i)), 50_000.0,
            footprint_lines=512.0,
        )
        for i in range(len(world["threads"]))
    ]
    for st_, spec in zip(states, world["threads"]):
        if spec["last_cpu"] is not None:
            machine.dispatch(spec["last_cpu"], st_.tid)
            machine.dispatch(spec["last_cpu"], None)
    for cpu, i in world["incumbents"].items():
        machine.dispatch(cpu, states[i].tid)
    for st_, spec in zip(states, world["threads"]):
        if spec["kind"] == "blocked":
            machine.set_blocked(st_.tid, True)
        elif spec["kind"] == "finished":
            machine.kill_thread(st_.tid)
    sched = LinuxScheduler(world["config"])
    sched.attach(machine, engine, np.random.default_rng(world["seed"]))
    for st_, spec in zip(states, world["threads"]):
        if spec["counter"] is not None:
            sched._counters[st_.tid] = spec["counter"]
    for cpu, i in world["incumbents"].items():
        sched._counters[states[i].tid] = world["inc_counters"][cpu]
    machine.trace.clear()
    return machine, sched


def _outcome(machine, sched):
    return {
        "occupancy": machine.cpu_tids.tolist(),
        "ready": list(machine.ready_tids()),
        "trace": [(r.category, r.data) for r in machine.trace],
        "counters": dict(sched._counters),
        "epochs": sched.epochs,
        "rng": sched.rng.bit_generator.state,
    }


@given(_worlds())
@settings(max_examples=400, deadline=None)
def test_pass_matches_per_cpu_scan(world):
    ref_machine, ref_sched = _build(world)
    for cpu_id in world["cpu_ids"]:
        _reference_pick(ref_sched, cpu_id)
    machine, sched = _build(world)
    sched._pick_for_cpus(world["cpu_ids"])
    assert _outcome(machine, sched) == _outcome(ref_machine, ref_sched)


@given(_worlds())
@settings(max_examples=150, deadline=None)
def test_fill_idle_cpus_matches_per_cpu_scan(world):
    ref_machine, ref_sched = _build(world)
    for cpu in ref_machine.cpus:
        if cpu.tid is None:
            _reference_pick(ref_sched, cpu.cpu_id)
    machine, sched = _build(world)
    sched._fill_idle_cpus()
    assert _outcome(machine, sched) == _outcome(ref_machine, ref_sched)


def test_recharge_path_draws_in_tid_order():
    # Two exhausted waiters, one idle CPU: the pass recharges once, with
    # one jitter draw per unfinished thread, then picks.
    world = {
        "n_cpus": 1,
        "threads": [
            {"kind": "ready", "last_cpu": None, "counter": 0},
            {"kind": "finished", "last_cpu": None, "counter": 3},
            {"kind": "ready", "last_cpu": 0, "counter": 0},
        ],
        "incumbents": {},
        "inc_counters": {},
        "cpu_ids": [0],
        "config": LinuxSchedConfig(rebalance_prob=0.0),
        "seed": 7,
    }
    ref_machine, ref_sched = _build(world)
    _reference_pick(ref_sched, 0)
    machine, sched = _build(world)
    sched._pick_for_cpus([0])
    assert sched.epochs == 1
    assert machine.cpu_tids.tolist() == ref_machine.cpu_tids.tolist()
    assert _outcome(machine, sched) == _outcome(ref_machine, ref_sched)


def test_no_pick_leaves_late_threads_uninitialized():
    # With no CPU to pick for, no scan runs, so a late thread gets no
    # lazy counter (a later recharge treats it as counter 0).
    world = {
        "n_cpus": 2,
        "threads": [{"kind": "ready", "last_cpu": None, "counter": None}],
        "incumbents": {},
        "inc_counters": {},
        "cpu_ids": [],
        "config": LinuxSchedConfig(rebalance_prob=0.0),
        "seed": 1,
    }
    machine, sched = _build(world)
    sched._pick_for_cpus([])
    assert sched._counters == {}
    sched._pick_for_cpus([1])
    assert sched._counters == {1: sched.config.default_ticks}
    assert machine.cpu_tids.tolist() == [-1, 1]
