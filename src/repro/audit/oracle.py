"""Differential oracle for the paper's quantum-boundary selection.

:func:`reference_selection` is an independent re-implementation of the
Section 4 allocation algorithm — head of the circular list first, then
fitness-driven traversals over the remaining jobs (Equation 1) — written
against the *paper's prose* rather than against :mod:`repro.core.policies`.
The audit layer replays every quantum's decision through it and flags any
divergence from the selection the simulated policy actually produced.

The replay deliberately reuses the live policy's ``effective_estimate``
and ``fitness`` callables (both pure functions of their arguments): the
oracle differentiates the *traversal and allocation logic*, which is where
regressions from refactors land, while holding the estimator inputs fixed.
Tie-breaking matches the paper's list traversal: the first job attaining
the maximal fitness in circular-list order wins each round.

A policy whose selection is legitimately different from the greedy
algorithm — the whole-set optimizer of :mod:`repro.core.policies_model`
(stateful deficit weights) — declares ``oracle_replayable = False`` and
receives structural checks only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from ..core.policies import JobView

__all__ = ["reference_selection"]


def reference_selection(
    jobs: Sequence["JobView"],
    n_cpus: int,
    bus_capacity_txus: float,
    estimate: Callable[[int], float],
    fitness: Callable[[float, float], float],
) -> tuple[int, ...]:
    """The paper's selection algorithm, re-derived from the prose.

    Parameters
    ----------
    jobs:
        Schedulable applications in circular-list order (head first),
        zero-width jobs already filtered out.
    n_cpus:
        Processors to allocate.
    bus_capacity_txus:
        The manager's believed total bus bandwidth.
    estimate:
        ``estimate(app_id) -> BBW/thread`` (unknown apps mapped to 0.0).
    fitness:
        ``fitness(abbw_per_proc, bbw_per_thread) -> score`` (Equation 1).

    Returns
    -------
    tuple[int, ...]
        Selected app ids in allocation order.
    """
    remaining = list(jobs)
    picked: list["JobView"] = []
    free = n_cpus

    # Step 1 — the head job runs unconditionally (the no-starvation rule).
    # "Allocated unconditionally" in the paper presumes it fits; the first
    # fitting job in list order is the head of the schedulable list.
    for i, job in enumerate(remaining):
        if job.width <= free:
            picked.append(job)
            free -= job.width
            del remaining[i]
            break

    # Step 2 — repeated fitness traversals until nothing fits.
    while free > 0 and remaining:
        allocated_bbw = sum(estimate(j.app_id) * j.width for j in picked)
        abbw_per_proc = (bus_capacity_txus - allocated_bbw) / free
        best_i = -1
        best_score = -float("inf")
        for i, job in enumerate(remaining):
            if job.width > free:
                continue
            score = fitness(abbw_per_proc, estimate(job.app_id))
            if score > best_score:
                best_score = score
                best_i = i
        if best_i < 0:
            break
        job = remaining.pop(best_i)
        picked.append(job)
        free -= job.width

    return tuple(j.app_id for j in picked)
