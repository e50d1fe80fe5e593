"""The L2 no-op mask against the per-call memo test.

The SoA advance skips ``CacheL2.account_run`` for every lane whose call
:meth:`L2Memo.noop` says would return at the memo test, and calls the
rest in lane order; lanes that share a cache with a busy SMT sibling
always call. After random ``account_run`` / ``forget`` histories, the mask
must agree lane by lane with the method's own memo test, evaluated when
the call is made (the scalar reference below), a skipped call must leave
the cache and its memo untouched, and the masked pass must leave every
cache exactly as calling every lane in order does.
"""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, MachineConfig
from repro.hw.cache import CacheL2, L2Memo
from repro.hw.machine import Machine
from repro.sim.engine import Engine
from tests.conftest import machine_path, make_thread

_CFG = CacheConfig()  # 4096 lines
_TOTAL = float(_CFG.total_lines)
_TIDS = st.integers(1, 4)
_FOOTPRINTS = st.sampled_from([0.0, 100.0, 1000.0, 2048.0, 4096.0, 8192.0])
_INFLOWS = st.one_of(
    st.sampled_from([0.0, 1.0, 10.0, 100.0, 1000.0, 4096.0]),
    st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
)


def _caches(n: int) -> tuple[list[CacheL2], L2Memo]:
    memo = L2Memo(n)
    return [CacheL2(_CFG, memo, k) for k in range(n)], memo


def _state(caches: list[CacheL2], memo: L2Memo):
    return (
        [dict(c._resident) for c in caches],
        memo.tid.tolist(),
        memo.mine.tolist(),
        memo.limit.tolist(),
    )


@st.composite
def _histories(draw, n_caches):
    ops = []
    for _ in range(draw(st.integers(0, 25))):
        k = draw(st.integers(0, n_caches - 1))
        if draw(st.integers(0, 9)) == 0:
            ops.append(("forget", k, draw(_TIDS)))
        else:
            ops.append(("run", k, draw(_TIDS), draw(_FOOTPRINTS), draw(_INFLOWS)))
    return ops


def _replay(caches, ops):
    for op in ops:
        if op[0] == "forget":
            caches[op[1]].forget(op[2])
        else:
            caches[op[1]].account_run(op[2], op[3], op[4])


@st.composite
def _lane_sets(draw, n_caches, unique):
    n = draw(st.integers(1, n_caches if unique else 2 * n_caches))
    if unique:
        slots = draw(st.permutations(range(n_caches)))[:n]
    else:
        slots = [draw(st.integers(0, n_caches - 1)) for _ in range(n)]
    return [(k, draw(_TIDS), draw(_FOOTPRINTS), draw(_INFLOWS)) for k in slots]


def _per_call_test(memo, k, tid, fp, tx) -> bool:
    """``account_run``'s early returns, read from the memo columns now."""
    if tx <= 0.0:
        return True
    if memo.tid[k] == tid and tx <= memo.limit[k]:
        mine = memo.mine[k]
        return bool(fp <= mine or _TOTAL <= mine)
    return False


def _mask(memo, lanes):
    slots = np.array([k for k, _, _, _ in lanes], dtype=np.int64)
    tids = np.array([t for _, t, _, _ in lanes], dtype=np.int64)
    fps = np.array([fp for _, _, fp, _ in lanes])
    tx = np.array([x for _, _, _, x in lanes])
    return memo.noop(slots, tids, np.minimum(fps, _TOTAL), tx).tolist()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mask_equals_the_per_call_test_one_lane_per_cache(data):
    caches, memo = _caches(4)
    _replay(caches, data.draw(_histories(4)))
    lanes = data.draw(_lane_sets(4, unique=True))
    mask = _mask(memo, lanes)
    for (k, tid, fp, tx), skip in zip(lanes, mask):
        # One lane per cache: the earlier lanes' calls cannot move this
        # lane's memo, so the pre-pass mask is the test at call time.
        assert skip == _per_call_test(memo, k, tid, fp, tx)
        before = _state(caches, memo)
        caches[k].account_run(tid, fp, tx)
        if skip:
            assert _state(caches, memo) == before


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_masked_pass_equals_calling_every_lane_with_smt_siblings(data):
    caches, memo = _caches(3)
    ops = data.draw(_histories(3))
    _replay(caches, ops)
    lanes = data.draw(_lane_sets(3, unique=False))
    ref_caches, ref_memo = _caches(3)
    _replay(ref_caches, ops)
    for k, tid, fp, tx in lanes:
        ref_caches[k].account_run(tid, fp, tx)
    # The SoA advance's decision: lanes sharing a cache always call.
    slots = [k for k, _, _, _ in lanes]
    shared = [slots.count(k) > 1 for k in slots]
    mask = _mask(memo, lanes)
    for (k, tid, fp, tx), skip, sib in zip(lanes, mask, shared):
        if sib or not skip:
            caches[k].account_run(tid, fp, tx)
        else:
            assert _per_call_test(memo, k, tid, fp, tx)
    assert _state(caches, memo) == _state(ref_caches, ref_memo)


def test_cleared_memo_never_matches():
    caches, memo = _caches(2)
    caches[0].account_run(1, 100.0, 100.0)  # growth: memo cleared
    assert memo.tid.tolist() == [-1, -1]
    assert _mask(memo, [(0, 1, 100.0, 1.0)]) == [False]
    caches[0].account_run(1, 100.0, 1.0)  # no growth, no displacement: memo set
    assert memo.tid.tolist() == [1, -1]
    assert _mask(memo, [(0, 1, 100.0, 1.0), (1, 1, 100.0, 1.0)]) == [True, False]
    caches[0].forget(2)
    assert _mask(memo, [(0, 1, 100.0, 1.0)]) == [False]


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))])
def test_copied_caches_share_a_copied_memo(copy_of):
    caches, memo = _caches(2)
    caches[0].account_run(1, 100.0, 100.0)
    caches[0].account_run(1, 100.0, 1.0)  # memo set in slot 0
    copies = copy_of(caches)
    new_memo = copies[0]._memo
    assert new_memo is copies[1]._memo and new_memo is not memo
    assert _state(copies, new_memo) == _state(caches, memo)
    copies[1].account_run(2, 100.0, 100.0)
    copies[1].account_run(2, 100.0, 1.0)  # writes the copy's slot 1 only
    assert new_memo.tid.tolist() == [1, 2]
    assert memo.tid.tolist() == [1, -1]


def _sibling_run(soa: bool) -> list[dict[int, float]]:
    """Two SMT siblings sharing one L2: a growing streamer and a small set."""
    with machine_path(soa):
        machine = Machine(MachineConfig(n_cpus=1, smt_ways=2), Engine())
    grower = make_thread(machine, rate=5.0, work=1e9, footprint_lines=_TOTAL)
    small = make_thread(machine, rate=0.5, work=1e9, footprint_lines=100.0)
    machine.dispatch(0, grower.tid)
    machine.dispatch(1, small.tid)
    states = []
    for step in range(1, 400):
        machine.advance_to(10.0 * step)
        states.append(dict(machine.caches[0]._resident))
    return states


def test_soa_siblings_mutate_their_shared_l2_in_scalar_order():
    # The small thread's memo survives each pass in which it is the last
    # writer, while its sibling grows the cache under it: a pre-pass mask
    # would skip calls that displace lines. Both paths must agree step by
    # step.
    assert _sibling_run(soa=True) == _sibling_run(soa=False)
