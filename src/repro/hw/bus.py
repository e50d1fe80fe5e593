"""The shared front-side bus: analytic contention model.

This module is the physical heart of the reproduction. It answers one
question: *given the set of threads currently running on the SMP's
processors, how fast does each one execute and how many bus transactions
does each actually issue?*

Model
-----
Each running thread ``i`` is described by a :class:`BusRequest`:

* ``rate_txus`` (``r``) — the bus-transaction rate the thread sustains when
  running alone on an unloaded machine (transactions per µs). This is the
  quantity the paper reports in Figure 1A (divided by the thread count).
* ``mem_fraction`` (``m``) — the fraction of the thread's standalone
  execution time that is sensitive to bus latency. By default it is derived
  as ``m = min(1, (r·lam0)^alpha)`` (:func:`derive_mem_fraction`), where
  ``lam0`` is the unloaded per-transaction stall cost and ``alpha ≤ 1`` the
  configured ``mem_exponent``. ``lam0`` is calibrated so a pure streaming
  thread (the BBMA microbenchmark, ~0 % cache hit rate) issues the paper's
  23.6 tx/µs: ``lam0 = 1/23.6 µs``; the sublinear exponent models the
  latency-bound (non-overlapped) misses of moderate-rate codes.

Under load, every transaction's stall cost inflates from ``lam0`` to a
common equilibrium latency ``lam``. A thread's wall-clock time per
standalone-µs is ``(1-m) + m·lam/lam0``, so its execution *speed*
(standalone-µs per wall-µs) is::

    s(lam) = 1 / ((1 - m) + m * lam / lam0)          (0 < s <= 1)

and its actual transaction rate is ``a = r·s(lam)``. The equilibrium
latency is determined by two regimes:

* **Below saturation** — arbitration inflates latency mildly with offered
  load: ``lam_c = lam0 · (1 + c·rho²)`` where ``rho = Σr / C`` is the
  offered-demand ratio and ``c`` the configured ``contention_coeff``. If the
  resulting aggregate throughput fits, ``lam = lam_c``.
* **Saturation** — when demand at ``lam_c`` would exceed the sustained
  capacity ``C`` (29.5 tx/µs, the STREAM measurement), the latency rises to
  exactly the value at which ``Σ a_i(lam) = C``: under saturation the bus
  delivers its full sustained bandwidth, as STREAM demonstrates on the real
  platform. ``Σ a_i(lam)`` is strictly decreasing (and convex: every term
  is ``r_i / (A_i + B_i·lam)`` with ``B_i >= 0``) in ``lam``, so this
  equilibrium is unique. The lane count (the number of requests) picks
  the root finder; no option does:

  * below :data:`_BATCH_MIN_LANES` lanes — grow a bracket from ``lam_c``
    by doubling, then bisect. On the few lanes of the paper's 4-CPU
    machine this beats the batched kernel's array set-up cost.
  * at :data:`_BATCH_MIN_LANES` lanes or more — guarded Newton with the
    analytic derivative, warm-started from this model's *previous*
    saturated equilibrium (the running set changes little between
    adjacent scheduling quanta, so the previous root is an excellent
    seed). Convexity makes every Newton iterate a lower bound on the
    root, so the iteration converges monotonically; any step that leaves
    the known bracket falls back to a bisection step. Every per-lane
    evaluation runs as one numpy kernel over the lane arrays. The kernels
    compute the *identical* IEEE-754 expression sequence as the scalar
    loop :meth:`BusModel._throughput_grad_hoisted` (elementwise
    ``+ - × ÷`` round once, exactly like CPython floats) and reduce with
    ``cumsum`` (a strictly left-to-right scan, unlike ``np.sum``'s
    pairwise tree), so a batched solve is **bitwise identical** to scalar
    guarded Newton; the tests keep that scalar loop as the oracle. Lanes
    processed through the kernels are counted on
    :attr:`BusModel.batched_lanes`.

  Both finders agree within ``fixed_point_tol``.
  :attr:`repro.config.BusConfig.solver_mode` is still accepted and
  hashed, for the wire format, but selects nothing.

Consequences (all matching Section 3 of the paper by construction):

* a solo application runs at speed ≈ 1 and issues its Figure 1A rate;
* four streaming threads sustain exactly the STREAM capacity;
* doubling a high-demand application drives everyone to the
  bandwidth-limited ceiling ``C/Σr`` (41–61 % degradation band);
* a low-demand thread sharing a saturated bus slows only by its
  latency-sensitive fraction (the 2–55 % band), while memory-intensive
  threads suffer 2–3×.

A second arbitration model, ``"max-min"``, divides saturated capacity
max-min fairly among demands instead; it exists for the ABL-A ablation.

All rates are piecewise constant between machine reconfigurations, so one
``solve`` call per reconfiguration suffices; still, a long run reconfigures
thousands of times and the same running-thread sets recur every scheduling
cycle, so ``solve`` keeps an LRU memo cache. ``solve`` takes the lanes'
rates and derives every request's memory fraction from its rate, so the
canonicalized (sorted) tuple of exact rates is an exact key: a plain
float sort, with no per-lane pair. Requests are built only on a miss. A
hit skips the root search entirely and returns the stored equilibrium; a
hit in another lane order permutes the stored speed and actual columns
back to the caller's order (equal rates receive identical grants under
both arbitration models, so the match is exact).
Hit/miss accounting is surfaced via :attr:`BusModel.solve_calls`,
:attr:`BusModel.cache_hits` and :attr:`BusModel.bisection_steps` (which
counts throughput evaluations of *both* root finders) for the performance
harness (``benchmarks/bench_perf.py``). The memo belongs to one model, so
a run's solves never depend on what other runs in the same process did.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..config import BusConfig
from ..errors import WorkloadError

__all__ = [
    "BusRequest",
    "ThreadGrant",
    "BusSolution",
    "BusModel",
    "derive_mem_fraction",
]

#: Lane count at which the saturation search switches from bisection to
#: batched guarded Newton. Below it, building the lane arrays costs more
#: than the bisection loop saves. A machine with fewer logical CPUs
#: never solves this many lanes, so its results do not depend on this
#: constant.
_BATCH_MIN_LANES = 16


def derive_mem_fraction(rate_txus: float, lam0_us: float, mem_exponent: float = 0.65) -> float:
    """Default latency-sensitive fraction for a thread issuing ``rate_txus``.

    ``m = min(1, (r·lam0)^alpha)``: a thread demanding the streaming
    ceiling ``1/lam0`` or more is fully memory-bound; below it, sensitivity
    falls off sublinearly (``alpha < 1``) because sparse misses overlap
    less with computation. The default exponent matches
    :attr:`repro.config.BusConfig.mem_exponent` (α = 0.65, DESIGN.md §4);
    a config test asserts the two stay in lockstep.

    >>> derive_mem_fraction(23.6, 1 / 23.6)
    1.0
    >>> round(derive_mem_fraction(11.8, 1 / 23.6, 1.0), 2)
    0.5
    >>> derive_mem_fraction(0.0, 1 / 23.6)
    0.0
    """
    if rate_txus < 0:
        raise WorkloadError(f"negative transaction rate {rate_txus}")
    if rate_txus == 0.0:
        return 0.0
    x = rate_txus * lam0_us
    if x >= 1.0:
        return 1.0
    return x**mem_exponent


@dataclass(frozen=True)
class BusRequest:
    """Demand of one running thread.

    Attributes
    ----------
    rate_txus:
        Standalone (unloaded) transaction rate, tx/µs. May exceed the
        streaming ceiling ``1/lam0`` during bursts; the model caps actual
        throughput naturally.
    mem_fraction:
        Latency-sensitive fraction of standalone time, in ``[0, 1]``.
        Use :meth:`BusModel.request_for_rate` unless modelling something
        unusual.
    """

    rate_txus: float
    mem_fraction: float

    def __post_init__(self) -> None:
        if self.rate_txus < 0:
            raise WorkloadError(f"negative transaction rate {self.rate_txus}")
        if not 0.0 <= self.mem_fraction <= 1.0:
            raise WorkloadError(f"mem_fraction {self.mem_fraction} outside [0, 1]")
        if self.rate_txus == 0.0 and self.mem_fraction > 0.0:
            raise WorkloadError("a thread with zero demand cannot have memory stalls")


@dataclass(frozen=True)
class ThreadGrant:
    """Per-thread outcome of a bus solution.

    Attributes
    ----------
    speed:
        Execution speed in standalone-µs per wall-µs, in ``(0, 1]``.
    actual_txus:
        Transaction rate actually issued under contention.
    """

    speed: float
    actual_txus: float


def _column(values) -> np.ndarray:
    """``values`` as a read-only float64 column, without copying an array.

    Memoized solutions hand the same columns to every hit, so no caller
    may write to them.
    """
    col = np.asarray(values, dtype=np.float64)
    col.flags.writeable = False
    return col


@dataclass(frozen=True, eq=False)
class BusSolution:
    """Outcome of one contention solve.

    Attributes
    ----------
    speeds:
        Per-request execution speed, a read-only float64 column in
        request order.
    actuals:
        Per-request actual transaction rate, same order.
    utilisation:
        Bus utilisation ``Σ actual / capacity`` in ``[0, 1]`` (equals 1.0
        exactly when saturated).
    latency_us:
        The per-transaction stall latency all threads observe (``lam0`` at
        zero load). For ``max-min`` arbitration this reports ``lam0``.
    total_txus:
        Aggregate actual transaction rate, ``Σ actual``.
    saturated:
        Whether the saturation regime was in effect.

    Two solutions are equal when every field is, columns elementwise.
    """

    speeds: np.ndarray
    actuals: np.ndarray
    utilisation: float
    latency_us: float
    total_txus: float
    saturated: bool = False

    @property
    def grants(self) -> tuple[ThreadGrant, ...]:
        """One :class:`ThreadGrant` per request, in request order.

        Built on access from the columns; no solve builds them.
        """
        return tuple(
            ThreadGrant(speed=s, actual_txus=a)
            for s, a in zip(self.speeds.tolist(), self.actuals.tolist())
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BusSolution):
            return NotImplemented
        return (
            self.utilisation == other.utilisation
            and self.latency_us == other.latency_us
            and self.total_txus == other.total_txus
            and self.saturated == other.saturated
            and np.array_equal(self.speeds, other.speeds)
            and np.array_equal(self.actuals, other.actuals)
        )


class BusModel:
    """Solver turning thread demands into speeds and actual rates.

    Parameters
    ----------
    config:
        Bus parameters (capacity, ``lam0``, contention coefficient,
        arbitration model). See :class:`repro.config.BusConfig`.

    Examples
    --------
    A single low-demand thread runs at full speed:

    >>> from repro.config import BusConfig
    >>> bus = BusModel(BusConfig())
    >>> sol = bus.solve([0.5])
    >>> sol.grants[0].speed > 0.99
    True

    Four streaming threads saturate the bus and sustain exactly its
    capacity (the STREAM experiment):

    >>> sol = bus.solve([23.6] * 4)
    >>> sol.saturated
    True
    >>> abs(sol.total_txus - bus.capacity) < 1e-6
    True
    """

    def __init__(self, config: BusConfig) -> None:
        self._cfg = config
        self._capacity = config.capacity_txus
        self._lam0 = config.lam0_us
        self._c = config.contention_coeff
        self._alpha = config.mem_exponent
        self._tol = config.fixed_point_tol
        # Warm-start slot: the previous *saturated* equilibrium latency of
        # this model (per machine, distinct from the LRU memo below). The
        # running set drifts little between adjacent quanta, so it seeds
        # the Newton search within a few ulps of the next root.
        self._last_lam: float | None = None
        self._solve_calls = 0
        self._cache_hits = 0
        self._warm_starts = 0
        self._bisection_steps = 0
        self._batched_lanes = 0
        self._solve_time_s = 0.0
        self._profiling = False
        # solve() memo: sorted rate tuple -> [rates in the miss's lane
        # order, solution, rate -> column index]. The index map is built
        # on the entry's first reordered hit.
        self._cache: OrderedDict[tuple, list] = OrderedDict()
        self._cache_size = config.solve_cache_size
        # request_for_rate memo: the same handful of demand rates recur on
        # every reconfiguration; m = (r·lam0)^alpha is the pow() hot spot.
        self._request_cache: dict[float, BusRequest] = {}

    @property
    def capacity(self) -> float:
        """Sustained capacity in tx/µs."""
        return self._capacity

    @property
    def lam0(self) -> float:
        """Unloaded per-transaction latency in µs."""
        return self._lam0

    @property
    def config(self) -> BusConfig:
        """The configuration this model was built from."""
        return self._cfg

    @property
    def solve_calls(self) -> int:
        """Number of ``solve`` invocations (profiling aid)."""
        return self._solve_calls

    @property
    def cache_hits(self) -> int:
        """``solve`` invocations answered from the memo cache."""
        return self._cache_hits

    @property
    def cache_len(self) -> int:
        """Number of solutions currently memoized."""
        return len(self._cache)

    @property
    def warm_starts(self) -> int:
        """Newton searches seeded from this model's previous equilibrium."""
        return self._warm_starts

    @property
    def bisection_steps(self) -> int:
        """Aggregate throughput evaluations spent in saturation searches.

        Counts evaluations of both root finders (the name is historical);
        it is the work the memo cache and the Newton finder exist to cut.
        """
        return self._bisection_steps

    @property
    def batched_lanes(self) -> int:
        """Lanes evaluated through the batched Newton kernels.

        Incremented by the lane count of every shared-latency solve of at
        least :data:`_BATCH_MIN_LANES` requests; zero while every solve
        is narrower.
        """
        return self._batched_lanes

    @property
    def solve_time_s(self) -> float:
        """Wall-clock seconds spent inside ``solve`` (profiling mode only)."""
        return self._solve_time_s

    def enable_profiling(self) -> None:
        """Start accumulating wall-clock solve time (small per-call cost)."""
        self._profiling = True

    # ------------------------------------------------------------------

    def request_for_rate(self, rate_txus: float) -> BusRequest:
        """Build a request with the default derived memory fraction."""
        return self.requests_for_rates([rate_txus])[0]

    def requests_for_rates(self, rates: Sequence[float]) -> list[BusRequest]:
        """Requests with the derived memory fraction, one per rate.

        Memoized per rate, up to 65,536 rates: a hit returns the same
        ``BusRequest`` object. :meth:`solve` calls it once per memo miss.
        """
        cache = self._request_cache
        out: list[BusRequest] = []
        for rate in rates:
            req = cache.get(rate)
            if req is None:
                req = BusRequest(rate, derive_mem_fraction(rate, self._lam0, self._alpha))
                if len(cache) < 65536:
                    cache[rate] = req
            out.append(req)
        return out

    def contention_latency(self, rho: float) -> float:
        """Sub-saturation arbitration latency at offered-demand ratio ``rho``.

        ``lam_c = lam0 · (1 + c · rho²)``, a mild monotone inflation.
        """
        if rho < 0:
            raise ValueError(f"negative offered-demand ratio {rho}")
        return self._lam0 * (1.0 + self._c * rho * rho)

    def solve(self, rates: list[float]) -> BusSolution:
        """Contention equilibrium for running threads with these rates.

        ``rates`` lists each lane's unloaded rate (tx/µs); every request
        gets the derived memory fraction (:meth:`requests_for_rates`).
        Results are memoized on the multiset of exact rates: two calls
        whose rates differ only in order observe the same equilibrium,
        and the speed and actual columns are permuted back to the
        caller's order by value.
        """
        if not self._profiling:
            return self._solve(rates)
        t0 = time.perf_counter()
        try:
            return self._solve(rates)
        finally:
            self._solve_time_s += time.perf_counter() - t0

    def _solve(self, rates: list[float]) -> BusSolution:
        self._solve_calls += 1
        if not rates:
            empty = _column(())
            return BusSolution(empty, empty, 0.0, self._lam0, 0.0)
        if self._cache_size <= 0:
            return self._solve_uncached(self.requests_for_rates(rates))
        # The derived memory fraction is a function of the rate, so the
        # sorted rates are an exact key for the sorted request pairs.
        key = tuple(sorted(rates))
        entry = self._cache.get(key)
        if entry is not None:
            self._cache_hits += 1
            self._cache.move_to_end(key)
            if entry[0] == rates:
                return entry[1]
            return self._permuted_hit(entry, rates)
        solution = self._solve_uncached(self.requests_for_rates(rates))
        self._cache[key] = [list(rates), solution, None]
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return solution

    def _solve_uncached(self, requests: Sequence[BusRequest]) -> BusSolution:
        if self._cfg.arbitration == "max-min":
            return self._solve_max_min(requests)
        return self._solve_shared_latency(requests)

    @staticmethod
    def _permuted_hit(entry: list, rates: list[float]) -> BusSolution:
        """The memoized solution with its columns in ``rates``' order.

        Same multiset, different lane order: each lane takes the column
        slot of the first stored lane with its rate (equal rates have
        identical grants, so any such slot is exact).
        """
        stored, solution, index = entry
        if index is None:
            index = {}
            for i, rate in enumerate(stored):
                index.setdefault(rate, i)
            entry[2] = index
        order = np.array([index[rate] for rate in rates], dtype=np.intp)
        return BusSolution(
            _column(solution.speeds[order]), _column(solution.actuals[order]),
            solution.utilisation, solution.latency_us, solution.total_txus,
            solution.saturated,
        )

    # ------------------------------------------------------------------

    def _speed_params(
        self, requests: Sequence[BusRequest]
    ) -> list[tuple[float, float, float, float]]:
        """Hoist the per-request constants of the speed formula.

        A thread's *effective* latency includes the arbitration
        unfairness term: ``lam_eff = lam0 + (lam - lam0)·(1 + beta·(1-m))``
        — streaming requesters (m → 1) pay the base contention penalty;
        sparse requesters re-arbitrate per transaction and pay up to
        ``(1 + beta)`` times more of it. Its speed is
        ``1 / ((1-m) + m·lam_eff/lam0)``, so at ``lam = lam0`` every thread
        runs at its solo speed regardless of ``beta``.

        Returns ``(rate, m, 1-m, 1 + beta·(1-m))`` per request — everything
        the root finders need that does not depend on ``lam``.
        """
        beta = self._cfg.unfairness
        return [
            (req.rate_txus, req.mem_fraction, 1.0 - req.mem_fraction,
             1.0 + beta * (1.0 - req.mem_fraction))
            for req in requests
        ]

    def _throughput_hoisted(
        self, params: list[tuple[float, float, float, float]], lam: float
    ) -> float:
        """Aggregate actual rate at ``lam`` using pre-hoisted constants."""
        lam0 = self._lam0
        total = 0.0
        for r, m, one_minus_m, unfair in params:
            if m == 0.0:
                total += r
                continue
            lam_eff = lam0 + (lam - lam0) * unfair
            s = 1.0 / (one_minus_m + m * (lam_eff / lam0))
            total += r * s
        return total

    def _throughput_grad_hoisted(
        self, params: list[tuple[float, float, float, float]], lam: float
    ) -> tuple[float, float]:
        """Aggregate actual rate at ``lam`` and its derivative d/dlam.

        Each thread's actual rate is ``r / D(lam)`` with
        ``D = 1 + (m·unfair/lam0)·(lam - lam0)`` linear in ``lam`` (the
        algebraic collapse of the speed formula in :meth:`_speed_params`), so
        the derivative is ``-r·D'/D²`` — one extra multiply per thread on
        top of the plain evaluation.

        No solve calls this: it is the scalar oracle that the tests drive
        :meth:`_saturation_root_newton` with, to check that the batched
        kernel matches it bit for bit.
        """
        lam0 = self._lam0
        total = 0.0
        grad = 0.0
        for r, m, one_minus_m, unfair in params:
            if m == 0.0:
                total += r
                continue
            lam_eff = lam0 + (lam - lam0) * unfair
            d = one_minus_m + m * (lam_eff / lam0)
            s = 1.0 / d
            total += r * s
            grad -= r * (m * unfair / lam0) * s * s
        return total, grad

    def _saturation_root_newton(
        self,
        grad_eval: Callable[[float], tuple[float, float]],
        lam_c: float,
        cap: float,
    ) -> tuple[float, int]:
        """Solve ``throughput(lam) = cap`` by warm-started guarded Newton.

        The caller guarantees ``throughput(lam_c) > cap``, so the root lies
        in ``(lam_c, ∞)``. Throughput is convex and strictly decreasing in
        ``lam`` (see :meth:`_throughput_grad_hoisted`), hence every Newton
        iterate is a *lower bound* on the root: the iteration climbs
        monotonically and terminates when a step falls below the solver
        tolerance — the same ``fixed_point_tol·lam0`` resolution the
        bisection stops at. A guard keeps every iterate inside the known
        ``(lo, hi)`` bracket, falling back to a bisection step (or bracket
        doubling while ``hi`` is unknown) whenever Newton would leave it.

        ``grad_eval(lam)`` returns the aggregate throughput and its
        derivative: the batched numpy kernel in production, or the scalar
        :meth:`_throughput_grad_hoisted` loop, which returns bitwise the
        same values, so both give the same iterate sequence.

        Returns ``(root, evaluations)``.
        """
        tol = self._tol * self._lam0
        lo = lam_c
        hi = math.inf
        x = self._last_lam
        if x is not None and x > lo:
            self._warm_starts += 1
        else:
            x = lo
        steps = 0
        for _ in range(200):
            steps += 1
            g, dg = grad_eval(x)
            g -= cap
            if g > 0.0:
                lo = max(lo, x)
            elif g < 0.0:
                hi = min(hi, x)
            else:
                return x, steps  # exact root
            if hi - lo < tol:
                break
            x_new = x - g / dg if dg < 0.0 else math.inf
            if not lo < x_new < hi:
                # Newton left the bracket (warm start far off, or the
                # pathological all-m==0 demand set where dg == 0): take a
                # plain bisection step, doubling while hi is unknown.
                x_new = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * max(x, lo)
            if abs(x_new - x) < tol:
                return x_new, steps
            x = x_new
        return 0.5 * (lo + hi) if math.isfinite(hi) else x, steps

    def _solution_at_hoisted(
        self,
        params: list[tuple[float, float, float, float]],
        lam: float,
        saturated: bool,
    ) -> BusSolution:
        """Speed and actual columns at ``lam`` (the scalar lane loop)."""
        lam0 = self._lam0
        speeds = []
        actuals = []
        total = 0.0
        for r, m, one_minus_m, unfair in params:
            if m == 0.0:
                s = 1.0
            else:
                lam_eff = lam0 + (lam - lam0) * unfair
                s = 1.0 / (one_minus_m + m * (lam_eff / lam0))
            a = r * s
            speeds.append(s)
            actuals.append(a)
            total += a
        util = 1.0 if saturated else total / self._capacity
        return BusSolution(_column(speeds), _column(actuals), util, lam, total, saturated)

    # ------------------------------------------------- batched lane kernels

    def _lane_arrays(
        self, requests: Sequence[BusRequest]
    ) -> tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
        """Hoist per-request constants into lane arrays (batched Newton).

        Array analogue of :meth:`_speed_params`: one float64 slot per lane
        for ``r``, ``m``, ``1-m`` and ``1 + beta·(1-m)``, built with the
        same expressions, plus the pre-collapsed gradient coefficient
        ``r·((m·unfair)/lam0)`` (the lam-independent prefix of the grad
        term — the same product sequence the scalar loop evaluates).
        """
        r = np.array([req.rate_txus for req in requests])
        m = np.array([req.mem_fraction for req in requests])
        one_minus_m = 1.0 - m
        unfair = 1.0 + self._cfg.unfairness * one_minus_m
        gcoef = r * ((m * unfair) / self._lam0)
        return r, m, one_minus_m, unfair, gcoef

    def _solve_shared_latency_batched(self, requests: Sequence[BusRequest]) -> BusSolution:
        """Shared-latency equilibrium by guarded Newton over lane arrays.

        Sub-saturation check, guarded-Newton saturation search and grant
        fold, each as one elementwise kernel over the lane arrays instead
        of a Python loop over lanes. Reductions use ``cumsum`` (strictly
        left-to-right, the accumulation order of the scalar loops;
        ``np.sum``'s pairwise tree would round differently), and
        the returned columns carry the exact float64 bit patterns, so the
        :class:`BusSolution` is bitwise identical to the same search
        driven by the scalar :meth:`_throughput_grad_hoisted`.
        """
        self._batched_lanes += len(requests)
        cap = self._capacity
        lam0 = self._lam0
        r, m, one_minus_m, unfair, gcoef = self._lane_arrays(requests)

        def speeds_at(lam: float) -> "np.ndarray":
            # The speed formula, elementwise: lanes with m == 0 fall out
            # exactly (denominator (1-0) + 0·x == 1.0 → s == 1.0), so no
            # branch is needed to match the scalar shortcut bitwise.
            lam_eff = lam0 + (lam - lam0) * unfair
            d = one_minus_m + m * (lam_eff / lam0)
            return 1.0 / d

        def thr_grad(lam: float) -> tuple[float, float]:
            s = speeds_at(lam)
            total = float((r * s).cumsum()[-1])
            # Scalar loop: grad -= term, term >= 0 — a running negation,
            # and IEEE rounding is sign-symmetric, so negating the
            # positive cumsum reproduces it bitwise. `0.0 - x` (not `-x`)
            # keeps the all-zero-demand case at +0.0 like the scalar loop.
            grad = 0.0 - float(((gcoef * s) * s).cumsum()[-1])
            return total, grad

        def solution_at(lam: float, saturated: bool) -> BusSolution:
            s = speeds_at(lam)
            a = r * s
            total = float(a.cumsum()[-1])
            util = 1.0 if saturated else total / cap
            return BusSolution(_column(s), _column(a), util, lam, total, saturated)

        offered = float(r.cumsum()[-1])
        rho = offered / cap
        lam_c = self.contention_latency(rho)
        throughput_c, _ = thr_grad(lam_c)
        if throughput_c <= cap:
            return solution_at(lam_c, saturated=False)
        lam, steps = self._saturation_root_newton(thr_grad, lam_c, cap)
        self._bisection_steps += steps
        self._last_lam = lam
        return solution_at(lam, saturated=True)

    # ------------------------------------------------------------------

    def _solve_shared_latency(self, requests: Sequence[BusRequest]) -> BusSolution:
        if len(requests) >= _BATCH_MIN_LANES:
            return self._solve_shared_latency_batched(requests)
        cap = self._capacity
        offered = 0.0
        for req in requests:
            offered += req.rate_txus
        rho = offered / cap
        lam_c = self.contention_latency(rho)
        params = self._speed_params(requests)
        throughput_c = self._throughput_hoisted(params, lam_c)
        if throughput_c <= cap:
            return self._solution_at_hoisted(params, lam_c, saturated=False)
        # Saturation: find lam with throughput(lam) = capacity. Throughput
        # is strictly decreasing in lam (every request here has m > 0,
        # otherwise throughput could not exceed capacity ... a thread with
        # m == 0 contributes a constant term, which is fine: the remaining
        # threads absorb the slowdown).
        steps = 0
        lo = lam_c
        hi = lam_c * 2.0
        for _ in range(200):
            steps += 1
            if self._throughput_hoisted(params, hi) < cap:
                break
            hi *= 2.0
        else:  # pragma: no cover - pathological (all m == 0)
            self._bisection_steps += steps
            return self._solution_at_hoisted(params, hi, saturated=True)
        for _ in range(200):
            steps += 1
            mid = 0.5 * (lo + hi)
            if self._throughput_hoisted(params, mid) > cap:
                lo = mid
            else:
                hi = mid
            if hi - lo < self._tol * self._lam0:
                break
        self._bisection_steps += steps
        lam = 0.5 * (lo + hi)
        self._last_lam = lam
        return self._solution_at_hoisted(params, lam, saturated=True)

    def _solve_max_min(self, requests: Sequence[BusRequest]) -> BusSolution:
        """Max-min fair division of capacity among demands (ablation ABL-A).

        Each thread *wants* ``r_i`` tx/µs. Bandwidth is allocated max-min
        fairly; a thread whose demand is not fully granted is
        bandwidth-limited: its progress scales with its grant ratio,
        ``s = alloc / r`` (its issue rate then exactly equals its
        allocation). Fully-granted threads run at solo speed. There is no
        sub-saturation arbitration term in this variant — the idealized
        fair bus the real platform is *not*.
        """
        cap = self._capacity
        rates = [req.rate_txus for req in requests]
        allocs = self._max_min_allocation(rates, cap)
        speeds = []
        actuals = []
        total = 0.0
        for req, alloc in zip(requests, allocs):
            if req.rate_txus <= 0.0:
                speeds.append(1.0)
                actuals.append(0.0)
                continue
            g = min(1.0, alloc / req.rate_txus)
            a = req.rate_txus * g
            speeds.append(g)
            actuals.append(a)
            total += a
        saturated = sum(rates) > cap
        return BusSolution(
            _column(speeds), _column(actuals), min(total / cap, 1.0), self._lam0, total, saturated
        )

    @staticmethod
    def _max_min_allocation(demands: Sequence[float], capacity: float) -> list[float]:
        """Classic water-filling max-min fair allocation.

        >>> BusModel._max_min_allocation([1.0, 2.0, 10.0], 6.0)
        [1.0, 2.0, 3.0]
        """
        n = len(demands)
        alloc = [0.0] * n
        remaining = capacity
        active = sorted(range(n), key=lambda i: demands[i])
        while active and remaining > 1e-15:
            share = remaining / len(active)
            smallest = active[0]
            need = demands[smallest] - alloc[smallest]
            if need <= share:
                alloc[smallest] = demands[smallest]
                remaining -= need
                active.pop(0)
            else:
                for i in active:
                    alloc[i] += share
                remaining = 0.0
        return alloc
