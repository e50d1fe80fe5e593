"""Lightweight per-phase profiling for the simulation hot loop.

The simulator's cheap event counters (solve calls, cache hits, bisection
steps, settle calls) are always maintained — they are plain integer
increments. The *wall-clock* phase timers (solve / settle / dispatch
seconds) cost a ``perf_counter`` pair per call, so they are off by default
and activated per run.

Two activation paths exist:

* per-spec — ``SimulationSpec(profile=True)`` profiles that run only;
* process-global — :func:`enable` (the CLI's ``--profile`` flag) profiles
  every subsequent run in this process. Fork-based workers inherit the
  switch at fork time, so ``run_many`` fan-outs are covered too.

Profiled runs carry their snapshot on ``RunResult.profile`` (a plain
picklable dict, one entry per counter — see
``Machine.profile_snapshot``). Because the snapshot rides on the result,
worker-side profiles survive the trip back to the parent, where harnesses
can fold them into one report with :func:`record` / :func:`aggregate`.

Counter semantics under the struct-of-arrays machine (PR 7):
``dirty_mask_hits`` counts lane entries whose demand segment was served
from the thread store's per-row ``seg_rate``/``seg_end`` cache during an
entry rebuild — i.e. the ``demand.segment()`` Python calls the batched
build avoided. (Before the SoA store it counted whole entries reused from
a per-CPU dirty-mask cache; the new count measures the same reuse at finer
grain.) ``batched_lanes``, ``solve_skips``, ``lane_rebuilds`` and the
``sel_*`` selection counters are unchanged. Machines small enough to run
the scalar lane loops report ``dirty_mask_hits == 0``.

All profile data is observability, never physics: profiling on or off,
the simulated trajectories are bit-identical, and profile fields are
excluded from ``RunResult`` equality.
"""

from __future__ import annotations

__all__ = [
    "enable",
    "disable",
    "enabled",
    "record",
    "aggregate",
    "reset_aggregate",
    "merge",
]

_enabled = False
_aggregate: dict[str, float] = {}


def enable() -> None:
    """Turn on wall-clock phase timers for every run in this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn the process-global profiling switch back off."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether the process-global profiling switch is on."""
    return _enabled


def merge(into: dict[str, float], snapshot: dict[str, float]) -> dict[str, float]:
    """Sum a profile snapshot into an accumulator dict (in place)."""
    for key, value in snapshot.items():
        into[key] = into.get(key, 0.0) + value
    return into


def record(snapshot: dict[str, float] | None) -> None:
    """Fold one run's profile snapshot into the process aggregate."""
    if snapshot:
        merge(_aggregate, snapshot)


def aggregate() -> dict[str, float]:
    """A copy of the process-wide aggregated profile."""
    return dict(_aggregate)


def reset_aggregate() -> None:
    """Clear the process-wide aggregate (harness setup/teardown)."""
    _aggregate.clear()
