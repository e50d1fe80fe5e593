"""Differential-oracle tests: the replay matches the live greedy policies."""

import numpy as np
import pytest

from repro.audit import reference_selection
from repro.core.policies import (
    EwmaPolicy,
    JobView,
    LatestQuantumPolicy,
    QuantaWindowPolicy,
)
from repro.core.policies_model import ModelDrivenPolicy


def _replay(policy, jobs, n_cpus):
    return reference_selection(
        jobs,
        n_cpus,
        policy.bus_capacity_txus,
        policy.effective_estimate,
        policy.fitness,
    )


class TestReferenceSelection:
    def test_head_runs_unconditionally(self):
        jobs = [JobView(1, 2), JobView(2, 2), JobView(3, 2)]
        picked = reference_selection(jobs, 4, 29.5, lambda a: 0.0, lambda x, y: 1.0)
        assert picked[0] == 1

    def test_oversized_head_skipped_for_first_fitting(self):
        # A job wider than the machine can never run; the first *fitting*
        # job in list order is the effective head.
        jobs = [JobView(1, 3), JobView(2, 2), JobView(3, 2)]
        picked = reference_selection(jobs, 4, 29.5, lambda a: 0.0, lambda x, y: 1.0)
        assert picked[0] == 1  # width 3 fits on 4 CPUs
        jobs = [JobView(1, 4), JobView(2, 2), JobView(3, 2)]
        picked = reference_selection(jobs, 3, 29.5, lambda a: 0.0, lambda x, y: 1.0)
        assert picked[0] == 2

    def test_ties_break_in_list_order(self):
        jobs = [JobView(1, 1), JobView(2, 1), JobView(3, 1), JobView(4, 1)]
        picked = reference_selection(jobs, 4, 29.5, lambda a: 0.0, lambda x, y: 1.0)
        assert picked == (1, 2, 3, 4)

    def test_fitness_drives_fill_order(self):
        # Two one-wide candidates after the head; the one whose rate is
        # closest to the available bandwidth per processor wins the slot.
        rates = {1: 0.0, 2: 9.0, 3: 5.0}
        jobs = [JobView(1, 2), JobView(2, 1), JobView(3, 1)]
        picked = reference_selection(
            jobs, 4, 10.0, rates.get, lambda abbw, bbw: -abs(abbw - bbw)
        )
        # After the head (est 0, width 2), abbw/proc = (10-0)/2 = 5.0:
        # job 3 (rate 5.0) scores better than job 2 (rate 9.0).
        assert picked == (1, 3, 2)

    def test_nothing_fits_stops(self):
        jobs = [JobView(1, 3), JobView(2, 3)]
        picked = reference_selection(jobs, 4, 29.5, lambda a: 0.0, lambda x, y: 1.0)
        assert picked == (1,)

    def test_empty_jobs(self):
        assert reference_selection([], 4, 29.5, lambda a: 0.0, lambda x, y: 1.0) == ()


class TestReplayMatchesPolicies:
    """The oracle agrees with every replayable policy on randomized inputs."""

    @pytest.mark.parametrize(
        "make_policy",
        [LatestQuantumPolicy, QuantaWindowPolicy, EwmaPolicy],
        ids=lambda p: p.__name__,
    )
    def test_randomized_agreement(self, make_policy):
        rng = np.random.default_rng(1234)
        for trial in range(200):
            policy = make_policy()
            assert policy.oracle_replayable
            n_jobs = int(rng.integers(1, 7))
            jobs = [
                JobView(app_id=i + 1, width=int(rng.integers(1, 5)))
                for i in range(n_jobs)
            ]
            # Feed each policy a few measured rates (some apps unmeasured).
            for job in jobs:
                for _ in range(int(rng.integers(0, 4))):
                    rate = float(rng.uniform(0.0, 12.0))
                    policy.on_sample(job.app_id, rate)
                    policy.on_quantum(job.app_id, rate)
            selection = policy.select(jobs, 4)
            assert selection.app_ids == _replay(policy, jobs, 4)

    def test_non_replayable_policies_flagged(self):
        assert ModelDrivenPolicy.oracle_replayable is False
        for cls in (LatestQuantumPolicy, QuantaWindowPolicy, EwmaPolicy):
            assert cls.oracle_replayable is True

    def test_model_driven_legitimately_diverges(self):
        # The whole-set optimizer is *supposed* to disagree with the greedy
        # replay in some states; the flag is what keeps the audit honest.
        policy = ModelDrivenPolicy()
        jobs = [JobView(1, 2), JobView(2, 2), JobView(3, 2)]
        for app_id, rate in ((1, 11.0), (2, 11.0), (3, 0.5)):
            for _ in range(5):
                policy.on_sample(app_id, rate)
                policy.on_quantum(app_id, rate)
        selection = policy.select(jobs, 4)  # must not raise
        assert len(selection.app_ids) >= 1
