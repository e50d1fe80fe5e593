"""Block/unblock signalling between the CPU manager and applications.

The paper's mechanism, reproduced step by step:

* "The CPU manager sends a signal to an application thread which, in turn,
  is responsible to forward the signal to the rest of the application
  threads" — so delivery is a two-hop chain with real latency; the manager
  pays one signal, the application fans it out internally.
* "In order to avoid side-effects from possible inversion in the order
  block / unblock signals are sent and received, a thread blocks only if
  the number of received block signals exceeds the corresponding number of
  unblock signals. Such an inversion is quite probable, especially if the
  time interval between consecutive blocks and unblocks is narrow."

The inversion-protection counter is implemented exactly as described:
per-thread monotone counts of *received* block and unblock signals; the
thread's blocked state is ``received_blocks > received_unblocks``. Because
deliveries are engine events with per-hop latency, rapid quantum turnover
really does reorder deliveries in this simulator — the property tests
verify that the counter protocol converges to the last *sent* intent
regardless of delivery interleaving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from ..errors import ArenaError
from ..sim.events import EventPriority

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.machine import Machine
    from ..sim.engine import Engine

__all__ = ["SignalDispatcher"]


class SignalDispatcher:
    """Delivers block/unblock signals to application thread groups.

    Parameters
    ----------
    machine:
        The machine whose threads receive signals.
    engine:
        Event engine used for delayed deliveries.
    first_hop_latency_us:
        Manager → first application thread delivery latency.
    forward_latency_us:
        Per-thread forwarding latency within the application.
    on_block_change:
        Callback ``(tid, blocked)`` invoked whenever a thread's effective
        blocked state changes (wired to the kernel scheduler).
    drop_prob / duplicate_prob / jitter_us:
        Failure injection for robustness testing: each delivery is
        independently dropped, duplicated, or delayed by up to
        ``jitter_us`` extra microseconds. Requires ``rng`` when non-zero.
        The inversion-protection counters were designed for exactly this
        kind of misbehaviour; the property tests quantify what they do
        and do not survive (a *dropped* signal is unrecoverable until the
        next quantum's signals — the counters protect against reordering,
        not loss).
    rng:
        Random stream for failure injection.
    protocol:
        ``"counter"`` — the paper's inversion-protection counters (blocked
        iff received blocks exceed received unblocks): immune to
        reordering and duplicates, but a *lost* signal wedges the thread
        until an opposite-direction transition, and asymmetric resends
        poison the counts.
        ``"sequence"`` — last-writer-wins with per-send sequence numbers:
        a delivery applies its absolute state only if its sequence exceeds
        the last applied one. Immune to reordering, duplicates *and* — in
        combination with per-quantum intent resends
        (``ManagerConfig.resend_intent``) — loss.
    """

    def __init__(
        self,
        machine: "Machine",
        engine: "Engine",
        first_hop_latency_us: float = 30.0,
        forward_latency_us: float = 15.0,
        on_block_change: Callable[[int, bool], None] | None = None,
        handling_cost_lines: float = 0.0,
        drop_prob: float = 0.0,
        duplicate_prob: float = 0.0,
        jitter_us: float = 0.0,
        rng: "np.random.Generator | None" = None,
        protocol: str = "counter",
    ) -> None:
        if first_hop_latency_us < 0 or forward_latency_us < 0:
            raise ArenaError("signal latencies must be non-negative")
        if handling_cost_lines < 0:
            raise ArenaError("signal handling cost must be non-negative")
        if not 0.0 <= drop_prob <= 1.0 or not 0.0 <= duplicate_prob <= 1.0:
            raise ArenaError("failure probabilities must be in [0, 1]")
        if jitter_us < 0:
            raise ArenaError("jitter must be non-negative")
        if (drop_prob > 0 or duplicate_prob > 0 or jitter_us > 0) and rng is None:
            raise ArenaError("failure injection needs an rng")
        if protocol not in ("counter", "sequence"):
            raise ArenaError(f"unknown signal protocol {protocol!r}")
        self.protocol = protocol
        self._machine = machine
        self._engine = engine
        self._first_hop = first_hop_latency_us
        self._forward = forward_latency_us
        self._on_block_change = on_block_change
        self._cost_lines = handling_cost_lines
        self._drop_prob = drop_prob
        self._duplicate_prob = duplicate_prob
        self._jitter = jitter_us
        self._rng = rng
        self._dropped = 0
        self._duplicated = 0
        # Per-thread received-signal counters (the paper's inversion guard).
        self._received_blocks: dict[int, int] = {}
        self._received_unblocks: dict[int, int] = {}
        # Sequence-protocol state: send counter + last applied per thread.
        self._send_seq = 0
        self._applied_seq: dict[int, int] = {}
        self._sent = 0
        # Threads whose application disconnected: in-flight deliveries to
        # them are inert until a fresh send addresses them again.
        self._departed: set[int] = set()
        # Optional audit hook invoked with each *applied* delivery's tid
        # (after the departed/finished guards) — see repro.audit.
        self._audit_deliver: Callable[[int], None] | None = None

    def set_audit_hook(self, hook: Callable[[int], None] | None) -> None:
        """Install (or clear) the audit callback for applied deliveries."""
        self._audit_deliver = hook

    @property
    def signals_sent(self) -> int:
        """Total signals the manager has sent (one per application per change)."""
        return self._sent

    def received_counts(self, tid: int) -> tuple[int, int]:
        """(blocks, unblocks) received so far by thread ``tid``."""
        return (self._received_blocks.get(tid, 0), self._received_unblocks.get(tid, 0))

    def forget_thread(self, tid: int) -> None:
        """Drop all per-thread protocol state for a departed thread.

        Without this, the inversion-protection and sequence counters grow
        with every application that ever connected — and a reconnecting
        thread id would inherit a stale block/unblock balance from its
        previous life, wedging the protocol. Deliveries already in flight
        to the thread become inert (a stale block must not re-freeze a
        thread nobody manages any more); a later fresh send to the same
        tid re-enables delivery. Called on disconnect.
        """
        self._received_blocks.pop(tid, None)
        self._received_unblocks.pop(tid, None)
        self._applied_seq.pop(tid, None)
        self._departed.add(tid)

    # ------------------------------------------------------------------

    def send_block(self, tids: list[int]) -> None:
        """Send a block signal to an application (its thread group)."""
        self._send(tids, blocked=True)

    def send_unblock(self, tids: list[int]) -> None:
        """Send an unblock signal to an application (its thread group)."""
        self._send(tids, blocked=False)

    def _send(self, tids: list[int], blocked: bool) -> None:
        if not tids:
            raise ArenaError("signal sent to an empty thread group")
        self._sent += 1
        self._send_seq += 1
        seq = self._send_seq
        self._departed.difference_update(tids)
        # First hop: manager → tids[0]; then tids[0] forwards down the
        # chain, one forwarding latency per remaining thread.
        delay = self._first_hop
        for tid in tids:
            self._schedule_delivery(tid, blocked, delay, seq)
            delay += self._forward

    @property
    def dropped(self) -> int:
        """Deliveries lost to failure injection."""
        return self._dropped

    @property
    def duplicated(self) -> int:
        """Deliveries duplicated by failure injection."""
        return self._duplicated

    def _schedule_delivery(self, tid: int, blocked: bool, delay: float, seq: int) -> None:
        if self._rng is not None:
            if self._drop_prob > 0 and float(self._rng.random()) < self._drop_prob:
                self._dropped += 1
                return
            if self._jitter > 0:
                delay += float(self._rng.uniform(0.0, self._jitter))
            if self._duplicate_prob > 0 and float(self._rng.random()) < self._duplicate_prob:
                self._duplicated += 1
                extra = delay + float(self._rng.uniform(0.0, max(self._jitter, 1.0)))
                self._engine.schedule_after(
                    extra, lambda: self._deliver(tid, blocked, seq), priority=EventPriority.SIGNAL
                )
        self._engine.schedule_after(
            delay,
            lambda: self._deliver(tid, blocked, seq),
            priority=EventPriority.SIGNAL,
        )

    def _deliver(self, tid: int, blocked: bool, seq: int = 0) -> None:
        if tid in self._departed:
            return  # stale delivery to a disconnected application
        thread = self._machine.thread(tid)
        if thread.finished:
            return  # signal raced with exit; harmless
        if self._audit_deliver is not None:
            self._audit_deliver(tid)
        if self._cost_lines > 0.0:
            # Handling the signal disturbs the thread's cache state a bit.
            self._machine.add_rebuild_debt(tid, self._cost_lines)
        if blocked:
            self._received_blocks[tid] = self._received_blocks.get(tid, 0) + 1
        else:
            self._received_unblocks[tid] = self._received_unblocks.get(tid, 0) + 1
        if self.protocol == "sequence":
            # Last-writer-wins: stale (or duplicated) deliveries are inert.
            if seq <= self._applied_seq.get(tid, 0):
                return
            self._applied_seq[tid] = seq
            should_block = blocked
        else:
            # The paper's rule: block iff received blocks exceed unblocks.
            should_block = (
                self._received_blocks.get(tid, 0) > self._received_unblocks.get(tid, 0)
            )
        was_blocked = thread.blocked
        if should_block != was_blocked:
            self._machine.set_blocked(tid, should_block)
            self._machine.trace.record(
                self._machine.now,
                "signal.deliver",
                tid=tid,
                blocked=should_block,
            )
            if self._on_block_change is not None:
                self._on_block_change(tid, should_block)
