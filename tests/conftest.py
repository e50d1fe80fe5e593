"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import sys
from typing import Iterator

import numpy as np
import pytest

from repro.config import BusConfig, CacheConfig, LinuxSchedConfig, MachineConfig, ManagerConfig
import repro.hw.bus as bus_module
import repro.hw.machine as machine_module
from repro.hw.machine import Machine
from repro.sim.engine import Engine
from repro.sim.trace import TraceRecorder
from repro.workloads.patterns import ConstantPattern


@pytest.fixture
def engine() -> Engine:
    """A fresh engine at t=0."""
    return Engine()


@pytest.fixture
def machine(engine: Engine) -> Machine:
    """A default 4-CPU paper machine with tracing enabled."""
    return Machine(MachineConfig(), engine, TraceRecorder())


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(12345)


def make_thread(machine: Machine, rate: float = 5.0, work: float = 10_000.0, **kw):
    """Convenience: add a constant-rate thread."""
    pattern = ConstantPattern(rate).bind(np.random.default_rng(0))
    return machine.add_thread(f"t{rate}", pattern, work, **kw)


@pytest.fixture
def quick_manager_config() -> ManagerConfig:
    """A small manager quantum for fast multi-quantum tests."""
    return ManagerConfig(quantum_us=20_000.0)


@pytest.fixture
def quick_linux_config() -> LinuxSchedConfig:
    """A fast-ticking kernel config for unit tests."""
    return LinuxSchedConfig(tick_us=1_000.0)


@pytest.fixture
def tiny_machine_config() -> MachineConfig:
    """A 2-CPU machine for compact scheduling tests."""
    return MachineConfig(n_cpus=2)


#: SMT ways per core: the scalar and SoA machine paths must agree bit for
#: bit with and without SMT.
PATH_CASES = [1, 2]


@contextlib.contextmanager
def machine_path(soa: bool) -> Iterator[None]:
    """Force every Machine built inside the block onto one hot path.

    ``soa=True`` selects the struct-of-arrays pipeline and ``soa=False``
    the scalar lane loops, whatever the machine size. Forked ``run_many``
    workers started inside the block inherit the choice.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine_module, "_SOA_MIN_CPUS", 1 if soa else sys.maxsize)
        yield


def thread_speed(machine, tid: int) -> float:
    """Current execution speed of a running thread (0 if not running).

    Reads the lane arrays of whichever hot path the machine runs, so the
    scalar and SoA paths can be compared lane for lane.
    """
    machine._ensure_solution()
    if machine._soa:
        hit = np.nonzero(machine._lane_rows == tid - 1)[0]
        return float(machine._lane_speed[hit[0]]) if hit.size else 0.0
    for lane in machine._lanes:
        if lane[0] == tid:
            return lane[2]
    return 0.0


@contextlib.contextmanager
def bus_finder(batched: bool) -> Iterator[None]:
    """Force every bus solve inside the block onto one root finder.

    ``batched=True`` selects the batched guarded-Newton kernel and
    ``batched=False`` bisection, whatever the lane count. Forked
    ``run_many`` workers started inside the block inherit the choice.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bus_module, "_BATCH_MIN_LANES", 1 if batched else sys.maxsize)
        yield
