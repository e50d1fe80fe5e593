"""Configuration dataclasses for machines, schedulers and experiments.

All configuration objects are frozen dataclasses validated eagerly in
``__post_init__`` — an invalid configuration raises
:class:`repro.errors.ConfigError` before any simulation starts. Objects are
plain data: they can be compared, hashed, copied with
:func:`dataclasses.replace` and serialized with :meth:`to_dict`.

The default values model the paper's experimental platform: a dedicated
4-processor SMP of 1.4 GHz Intel Xeon processors with 256 KB L2 caches and a
400 MHz front-side bus whose sustained capacity — measured with STREAM — is
29.5 bus transactions per microsecond (≈1797 MB/s at 64 B/transaction).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from .codec import plain
from .errors import ConfigError
from .units import STREAM_CAPACITY_TXUS, XEON_L2_BYTES, ms

__all__ = [
    "BusConfig",
    "CacheConfig",
    "MachineConfig",
    "LinuxSchedConfig",
    "ManagerConfig",
    "canonical_json",
    "canonical_hash",
]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def canonical_json(payload: Any) -> str:
    """Serialize a JSON-able payload to its canonical text form.

    Canonical means: keys sorted, no whitespace, ``repr``-exact floats
    (Python's ``json`` emits the shortest round-tripping decimal for a
    binary64), and non-finite floats rejected. Two payloads produce the
    same canonical text iff they are the same JSON value, so the text is
    a stable hashing substrate across processes and interpreter runs —
    unlike ``pickle`` (protocol-dependent) or ``hash()`` (salted).

    Integers and floats canonicalize distinctly (``1`` vs ``1.0``). The
    decoder of :mod:`repro.codec` widens an int arriving for a ``float``
    field, so a decoded spec hashes the same whichever form was sent.
    """
    try:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"payload is not canonically serializable: {exc}") from exc


def canonical_hash(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of ``payload``.

    This is the stable identity used by :meth:`repro.experiments.base.
    SimulationSpec.spec_hash` and the service result cache: equal
    payloads hash equal in every process; any field change produces a
    new digest.
    """
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class BusConfig:
    """Parameters of the shared front-side bus contention model.

    The model (see :mod:`repro.hw.bus`) treats the bus as a shared server
    whose per-transaction stall latency is ``lam0`` when unloaded. Below
    saturation, arbitration inflates it mildly with offered load; when the
    offered demand exceeds the sustained capacity, the latency rises to
    exactly the value at which aggregate actual throughput equals capacity
    (the bus always delivers its full sustained bandwidth under saturation,
    as STREAM demonstrates on the real platform). ``lam0`` is calibrated so
    that a pure streaming thread (the BBMA microbenchmark, ~0% cache hit
    rate) issues the paper's 23.6 transactions/µs: ``lam0 = 1 / 23.6``.

    Attributes
    ----------
    capacity_txus:
        Sustained bus capacity in transactions per microsecond. The paper
        measures 29.5 with STREAM.
    lam0_us:
        Unloaded per-transaction stall latency in µs.
    contention_coeff:
        Sub-saturation arbitration term: ``lam = lam0·(1 + c·rho²)`` where
        ``rho`` is offered demand over capacity. Dimensionless, small.
    mem_exponent:
        Exponent of the demand→stall-fraction map,
        ``m = min(1, (r·lam0)^mem_exponent)``. Values below 1 make
        moderate-rate codes more latency-sensitive than a linear stall
        budget would suggest (pointer-chasing misses don't overlap), which
        is what Figure 1B shows.
    unfairness:
        Arbitration unfairness ``beta``: a thread with stall fraction ``m``
        observes effective latency ``lam·(1 + beta·(1 - m))``. Back-to-back
        streaming requesters (m → 1) hold the bus and pay the base
        latency; sparse requesters re-arbitrate per transaction and pay
        more. Zero restores perfectly fair shared latency.
    arbitration:
        ``"shared-latency"`` — every thread sees the same per-transaction
        latency (saturated bandwidth shares end up roughly proportional to
        demand), or ``"max-min"`` — saturated bandwidth is divided max-min
        fairly (ablation ABL-A).
    fixed_point_tol:
        Convergence tolerance of the latency equilibrium search.
    solver_mode:
        Accepted and ignored. One of ``"bisect"``, ``"newton"`` or
        ``"vector"``; any other value is rejected. The field stays so that
        stored specs and the service's JSON bodies still decode and hash
        as before, but it selects nothing: :class:`repro.hw.bus.BusModel`
        picks its root finder from the number of lanes it solves
        (bisection below ``repro.hw.bus._BATCH_MIN_LANES``, batched
        guarded Newton from there on), and
        :class:`repro.hw.machine.Machine` picks its settle loop from its
        logical CPU count.
    solve_cache_size:
        Capacity (entries) of the LRU memo cache inside
        :meth:`repro.hw.bus.BusModel.solve`, keyed on the canonicalized
        multiset of quantized requests. Running-thread sets recur every
        scheduling cycle, so a small cache removes most bisection work.
        ``0`` disables memoization (every solve recomputes).
    """

    capacity_txus: float = STREAM_CAPACITY_TXUS
    lam0_us: float = 1.0 / 23.6
    contention_coeff: float = 0.05
    mem_exponent: float = 0.65
    unfairness: float = 1.1
    arbitration: str = "shared-latency"
    fixed_point_tol: float = 1e-10
    solver_mode: str = "bisect"
    solve_cache_size: int = 1024

    def __post_init__(self) -> None:
        _require(self.capacity_txus > 0, "bus capacity must be positive")
        _require(self.lam0_us > 0, "lam0 must be positive")
        _require(self.contention_coeff >= 0, "contention_coeff must be >= 0")
        _require(0 < self.mem_exponent <= 1.0, "mem_exponent must be in (0, 1]")
        _require(self.unfairness >= 0, "unfairness must be >= 0")
        _require(
            self.arbitration in ("shared-latency", "max-min"),
            f"unknown arbitration model {self.arbitration!r}",
        )
        _require(0 < self.fixed_point_tol < 1e-2, "fixed_point_tol out of range")
        _require(
            self.solver_mode in ("bisect", "newton", "vector"),
            f"unknown solver mode {self.solver_mode!r}",
        )
        _require(self.solve_cache_size >= 0, "solve_cache_size must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary."""
        return plain.to_json(self)


@dataclass(frozen=True)
class CacheConfig:
    """Parameters of the per-CPU L2 cache warmth model.

    The simulator does not model individual cache lines; it tracks, per CPU,
    how much of each thread's working set is resident ("warmth"). A thread
    dispatched with cold cache owes a *rebuild debt* of compulsory refill
    transactions, during which its bus demand is elevated and its progress
    reduced. This reproduces (a) the benefit of cache-affinity scheduling,
    (b) the migration sensitivity of high-hit-ratio codes (LU CB,
    Water-nsqr) and (c) the demand bursts that destabilize the Latest
    Quantum policy.

    Attributes
    ----------
    size_bytes:
        L2 capacity per processor (the paper's Xeons: 256 KB).
    line_bytes:
        Cache line (= bus transaction) size.
    rebuild_fill_rate_txus:
        Peak rate at which a thread refills its working set, tx/µs, before
        bus contention is applied.
    rebuild_progress_factor:
        Multiplier (< 1) applied to a thread's progress while it is
        rebuilding cache state; cold threads mostly stall.
    """

    size_bytes: int = XEON_L2_BYTES
    line_bytes: int = 64
    rebuild_fill_rate_txus: float = 20.0
    rebuild_progress_factor: float = 0.35

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "cache size must be positive")
        _require(self.line_bytes > 0, "line size must be positive")
        _require(self.size_bytes % self.line_bytes == 0, "cache size must be a multiple of line size")
        _require(self.rebuild_fill_rate_txus > 0, "rebuild fill rate must be positive")
        _require(
            0 < self.rebuild_progress_factor <= 1.0,
            "rebuild_progress_factor must be in (0, 1]",
        )

    @property
    def total_lines(self) -> int:
        """Number of cache lines in the L2."""
        return self.size_bytes // self.line_bytes

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary."""
        return plain.to_json(self)


@dataclass(frozen=True)
class MachineConfig:
    """A complete SMP machine description.

    Attributes
    ----------
    n_cpus:
        Number of physical processors/cores (paper: 4).
    smt_ways:
        Logical CPUs per physical core. The paper's Xeons are 2-way
        hyperthreaded but the authors had to *disable* HT (the perfctr
        driver could not virtualize counters for sibling threads) and name
        SMT as future work; the default of 1 reproduces their setup, 2
        enables the extension. Logical siblings share their core's
        execution resources and its L2 cache.
    smt_efficiency:
        Per-thread execution efficiency when both siblings of a core are
        busy (early Xeon HT: two threads each ran at ~0.6–0.65 of solo
        core speed). Has no effect with ``smt_ways == 1``.
    bus:
        Front-side bus model parameters.
    cache:
        Per-core L2 cache model parameters (shared by SMT siblings).
    """

    n_cpus: int = 4
    smt_ways: int = 1
    smt_efficiency: float = 0.62
    bus: BusConfig = field(default_factory=BusConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)

    def __post_init__(self) -> None:
        _require(self.n_cpus >= 1, "a machine needs at least one CPU")
        _require(self.smt_ways >= 1, "smt_ways must be >= 1")
        _require(0 < self.smt_efficiency <= 1.0, "smt_efficiency must be in (0, 1]")
        _require(isinstance(self.bus, BusConfig), "bus must be a BusConfig")
        _require(isinstance(self.cache, CacheConfig), "cache must be a CacheConfig")

    @property
    def n_logical_cpus(self) -> int:
        """Logical CPUs visible to schedulers (cores × SMT ways)."""
        return self.n_cpus * self.smt_ways

    def core_of(self, logical_cpu: int) -> int:
        """The physical core a logical CPU belongs to."""
        if not 0 <= logical_cpu < self.n_logical_cpus:
            raise ConfigError(f"no such logical cpu {logical_cpu}")
        return logical_cpu // self.smt_ways

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain (nested) dictionary."""
        return plain.to_json(self)


@dataclass(frozen=True)
class LinuxSchedConfig:
    """Parameters of the Linux 2.4-like O(n) epoch scheduler baseline.

    Modeled after the 2.4.20 kernel the paper uses: each runnable thread
    holds a ``counter`` of remaining ticks this epoch; when every runnable
    thread's counter is exhausted a new epoch recharges them; CPUs pick the
    runnable thread with the highest ``goodness`` (counter plus a
    cache-affinity bonus for the CPU the thread last ran on).

    Attributes
    ----------
    tick_us:
        Scheduler tick period (Linux 2.4 on x86: 10 ms).
    default_ticks:
        Time-slice ticks granted per epoch at default priority
        (2.4's ~60 ms slice at nice 0 ≈ 6 ticks).
    affinity_bonus:
        Goodness bonus for staying on the last CPU (PROC_CHANGE_PENALTY).
    rebalance_prob:
        Per-tick probability of a random pairwise swap of running threads,
        modelling the residual migration noise of a real 2.4 kernel
        (wakeups, interrupts). Zero disables.
    """

    tick_us: float = ms(10)
    default_ticks: int = 6
    affinity_bonus: int = 15
    rebalance_prob: float = 0.004

    def __post_init__(self) -> None:
        _require(self.tick_us > 0, "tick must be positive")
        _require(self.default_ticks >= 1, "default_ticks must be >= 1")
        _require(self.affinity_bonus >= 0, "affinity_bonus must be >= 0")
        _require(0 <= self.rebalance_prob <= 1, "rebalance_prob must be a probability")

    @property
    def timeslice_us(self) -> float:
        """Nominal time slice per epoch, in µs."""
        return self.tick_us * self.default_ticks

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary."""
        return plain.to_json(self)


@dataclass(frozen=True)
class ManagerConfig:
    """Parameters of the user-level CPU manager (Section 4 of the paper).

    Attributes
    ----------
    quantum_us:
        CPU-manager scheduling quantum. The paper uses 200 ms — twice the
        Linux quantum — after finding that 100 ms causes an excessive number
        of context switches due to conflicting user/kernel-level decisions.
    samples_per_quantum:
        How many times per quantum each application publishes its
        accumulated bus-transaction counts to the shared arena ("the bus
        transaction rate is updated twice per scheduling quantum").
    window_length:
        Number of samples in the Quanta Window moving average (paper: 5).
    fitness_scale:
        Numerator of the fitness metric (Equation 1: 1000).
    signal_first_hop_us:
        Latency of a manager → application signal (first thread).
    signal_forward_us:
        Per-thread latency of the in-application signal forwarding chain.
    signal_cost_lines:
        Cache disturbance (lines of rebuild debt) charged to a thread for
        handling a delivered signal — the mechanism behind the manager's
        measured overhead (paper: at most 4.5 % in the worst case).
    saturation_aware:
        Enable saturation-aware estimation: a bandwidth measurement taken
        while the whole workload consumed ≥ ``saturation_threshold`` of
        the bus capacity is only a *lower bound* on the job's demand, so
        it never lowers the job's estimate. Without this, four streaming
        jobs measured under saturation each report ≈ capacity/4 and the
        fitness metric packs them together as a "perfect" match — a
        self-reinforcing limit cycle that starves the applications (see
        DESIGN.md §6 and the ABL-S ablation). The paper notes its
        scheduler was "tuned for robustness" without detailing how; this
        is our tuning.
    saturation_threshold:
        Fraction of the believed bus capacity above which a measurement
        interval counts as saturated.
    signal_protocol:
        ``"counter"`` — the paper's inversion-protection counting, or
        ``"sequence"`` — last-writer-wins sequence numbers (loss-tolerant
        when combined with ``resend_intent``).
    resend_intent:
        Re-send every application's current block/unblock intent at each
        quantum boundary instead of only on transitions. Recovers from
        lost signals; requires the ``"sequence"`` protocol (asymmetric
        resends poison the counter protocol's counts).
    hardening:
        Enable the graceful-degradation machinery when (and only when) a
        fault plan is active on the run: signal acknowledgement deadline
        with targeted retry, sample-staleness fallback and the hung-app
        watchdog. The knobs below are inert in fault-free runs — the
        manager schedules no extra events, so fault-free trajectories are
        bit-identical with hardening on or off.
    signal_ack_deadline_us:
        How long after a quantum boundary's signals the manager waits
        before verifying that every thread's realised blocked state
        matches its intent. ``None`` derives a deadline from the signal
        settle time (first hop + per-thread forwarding) plus the fault
        plan's injected delay bound.
    signal_max_retries:
        Verification rounds per quantum boundary. Each round re-sends
        only the mismatched threads' intents and doubles the wait
        (exponential backoff); after the last round the manager gives up
        until the next boundary restates intent afresh.
    staleness_quanta:
        Number of consecutive quanta an application may run without a
        fresh counter sample before its estimate is considered stale and
        the policy falls back to the last trusted average. When *every*
        connected application is stale the manager abandons fitness
        packing entirely for bandwidth-agnostic head-first selection.
    watchdog_quanta:
        Number of consecutive quanta a selected, unblocked application
        may make zero progress before the watchdog declares it hung and
        quarantines it (releases its arena slot and stops scheduling it)
        rather than letting it pin processors.
    """

    quantum_us: float = ms(200)
    samples_per_quantum: int = 2
    window_length: int = 5
    fitness_scale: float = 1000.0
    signal_first_hop_us: float = 30.0
    signal_forward_us: float = 15.0
    signal_cost_lines: float = 64.0
    saturation_aware: bool = True
    saturation_threshold: float = 0.9
    signal_protocol: str = "counter"
    resend_intent: bool = False
    hardening: bool = True
    signal_ack_deadline_us: float | None = None
    signal_max_retries: int = 6
    staleness_quanta: int = 2
    watchdog_quanta: int = 3

    def __post_init__(self) -> None:
        _require(self.quantum_us > 0, "quantum must be positive")
        _require(self.samples_per_quantum >= 1, "need at least one sample per quantum")
        _require(self.window_length >= 1, "window_length must be >= 1")
        _require(self.fitness_scale > 0, "fitness_scale must be positive")
        _require(self.signal_first_hop_us >= 0, "signal latency must be >= 0")
        _require(self.signal_forward_us >= 0, "signal latency must be >= 0")
        _require(self.signal_cost_lines >= 0, "signal cost must be >= 0")
        _require(0 < self.saturation_threshold <= 1.0, "saturation_threshold must be in (0, 1]")
        _require(
            self.signal_protocol in ("counter", "sequence"),
            f"unknown signal protocol {self.signal_protocol!r}",
        )
        _require(
            not self.resend_intent or self.signal_protocol == "sequence",
            "resend_intent requires the sequence signal protocol "
            "(asymmetric resends poison the counter protocol)",
        )
        _require(
            self.signal_ack_deadline_us is None or self.signal_ack_deadline_us > 0,
            "signal_ack_deadline_us must be positive (or None to derive)",
        )
        _require(self.signal_max_retries >= 0, "signal_max_retries must be >= 0")
        _require(self.staleness_quanta >= 1, "staleness_quanta must be >= 1")
        _require(self.watchdog_quanta >= 1, "watchdog_quanta must be >= 1")

    @property
    def sample_period_us(self) -> float:
        """Interval between consecutive counter samples, in µs."""
        return self.quantum_us / self.samples_per_quantum

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a plain dictionary."""
        return plain.to_json(self)
