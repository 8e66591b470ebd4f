"""Closed-form advancement of uniform shift-multiply supersteps.

The event engine normally drains one heap event per hop: a Cannon-style
inner loop of ``K`` multiply steps on ``p`` ranks costs ``O(K·p)`` events
(four handles, two single-hop transfers and a resume per rank per step).
Programs instead yield one resident :class:`~repro.sim.ops.ShiftPhaseOp`
per phase, and the engine parks it.  The first time the event queues
drain with every active rank inside the phase, this module advances all
remaining rounds of every rank at once with a handful of numpy
recurrences — *bit-identically* to what the event path would have
produced.  Until then — a foreign hop about to reserve a parked rank's
channel or port, see the hazard maps in ``Engine._start_hop`` — the engine
runs the parked ranks' next round itself, through the ordinary hop events
(``Engine._shift_multiply`` and the steps after it), so irregular prefixes
such as Cannon's contended multi-hop skew stay exact and everything from
the first quiet point on is batched.

The frontier need not be level
------------------------------
A contended prefix leaves ranks rounds apart.  At a quiet point a rank is
either *parked* at a round boundary — any boundary, with the blocks its
neighbours have already sent queued in its mailbox, FIFO per ``(src,
tag)`` — or *mid-round*: its own two hops are done and it waits for an
inbound block whose sender has not reached that round.  Rounds are indexed
by rounds left, ``k``.  The recurrence iterates ``k`` downwards from the
rank furthest behind; in iteration ``k`` the ranks parked with ``k`` rounds
left send, they and the mid-round ranks of round ``k`` receive, and
everyone else waits.  A block's arrival time is the sender's ``endA`` /
``endB`` of the same iteration, or — when the sender ran that round
earlier, on the event path — the queued delivery's (or completed
handle's) time.

Why the closed form is exact
----------------------------
With the network quiet and every active rank in the phase, every
directional channel ``r -> a_to[r]`` (and ``r -> b_to[r]``) is reserved by
exactly one rank, and each rank reserves its A-hop strictly before its
B-hop (they are issued in that order at one virtual time; the one-port
send engagement additionally serializes them).  Inter-rank event
interleaving therefore cannot change any reservation's start time, so the
per-rank recurrence

* ``startA = max(T, chanA_free, port_free)``, ``endA = startA + dA``
* ``startB = max(T, chanB_free, endA)``, ``endB = startB + dB``  (one-port)
* ``T' = max(endA, endB, endA[a_from], endB[b_from]) + t_c·flops``

— seeded from the live :class:`~repro.sim.ports.ContentionTracker` state,
so contention left over from a preceding event-driven phase (e.g. Cannon's
multi-hop skew) carries in exactly — reproduces the event path's times to
the last bit: ``max`` is exact, and every addition replays the same IEEE
operations in the same per-rank order the event path folds them in.

Eligibility
-----------
Runs whose per-hop behaviour could differ from the recurrence never park
at all: with an active fault plan or heterogeneous scenario, per-hop trace
records, a ``max_virtual_time`` watchdog or ``superstep=False``
(:func:`superstep_ineligibility_reason`), and for ``ctx.parallel``
sub-tasks, the engine answers the op :data:`~repro.sim.ops.SHIFT_FALLBACK`
once and the program runs the whole per-message loop.  A parked phase is
refused — and every parked rank runs one more round through the events —
when anything but the phase is in flight (other blocked tasks, sub-tasks,
barriers, mailbox entries or posted receives that are not the phase's
own), when block shapes or tags differ between ranks or ``tag_a ==
tag_b``, when the shifts are not neighbour permutations whose receivers
expect exactly their senders, or when queued blocks do not pair up with
the rounds their receivers have left.  Refusing is always safe: the
engine-run round schedules the events the per-message loop would.

Per-channel busy times are bitwise identical between the two paths even
though the fast path may *create* a phase's channels in rank order rather
than event order: every aggregate over them
(``NetworkStats.total_channel_busy``) folds in sorted channel-key order,
never creation order, so non-dyadic parameter sets are exact too.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.machine import PortModel
from repro.sim.message import copy_payload, payload_words
from repro.sim.ops import ShiftPhaseOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = [
    "superstep_ineligibility_reason",
    "try_advance_superstep",
    "try_advance_collective",
]


def superstep_ineligibility_reason(engine: "Engine") -> str | None:
    """Name the feature forcing the event path, or None when eligible.

    Checked once at engine construction: fault plans, heterogeneous
    scenarios and per-hop tracing all need real events, and a
    ``max_virtual_time`` watchdog must observe every intermediate event
    time.  The name is for diagnostics: a sim-backed figure run that
    silently takes the slow path can say why (``repro figure --backend
    sim`` prints this).
    """
    if not engine.superstep_enabled:
        return "superstep disabled"
    if engine.faults is not None:
        return "fault plan"
    if engine.scenario is not None:
        return "heterogeneous scenario"
    if engine.trace_enabled:
        return "per-hop tracing"
    if engine.max_virtual_time is not None:
        return "max_virtual_time watchdog"
    return None


def _all_parked_and_quiet(engine: "Engine", parked: dict) -> bool:
    """Whether ``parked`` is every active rank's main program (sub-tasks
    share ports unpredictably) with nothing else in flight in the engine."""
    if engine._blocked or engine._parallel or engine._barrier_waiting:
        return False
    active = engine.config.num_nodes - len(engine.done) - len(engine.failed)
    if len(parked) != active:
        return False
    for task in parked:
        if isinstance(task, tuple):
            return False
    return not (
        any(engine._mailbox.values()) or any(engine._pending_recvs.values())
    )


def _frontier(engine: "Engine", parked: dict) -> dict | None:
    """Validate a quiet frontier of resident shift phases; returns the
    vector spec or ``None``.

    ``parked`` maps task -> (op, park time); the mid-round ranks are the
    ``"shift"`` waiters in ``engine._blocked``.  Nothing is mutated, and
    all checks are conservative: any doubt means another round through the
    event machinery, never a wrong fast answer.
    """
    if engine._parallel or engine._barrier_waiting:
        return None
    waiting = engine._blocked
    active = engine.config.num_nodes - len(engine.done) - len(engine.failed)
    if len(parked) + len(waiting) != active:
        return None
    # Sub-tasks never park (the engine answers them SHIFT_FALLBACK), so
    # every key below is a rank.
    ops = {task: op for task, (op, _at) in parked.items()}
    for task, waiter in waiting.items():
        if waiter.mode != "shift":
            return None
        ops[task] = waiter.op
    ranks = sorted(ops)
    n_ranks = len(ranks)
    first: ShiftPhaseOp = ops[ranks[0]]
    tag_a, tag_b = first.tag_a, first.tag_b
    a_shape, b_shape = first.a_block.shape, first.b_block.shape
    if a_shape[1] != b_shape[0]:
        return None
    c_shape = (a_shape[0], b_shape[1])
    for r in ranks:
        op = ops[r]
        if (
            op.tag_a != tag_a
            or op.tag_b != tag_b
            or op.a_block.shape != a_shape
            or op.b_block.shape != b_shape
            or not (op.c_block is None or op.c_block.shape == c_shape)
        ):
            return None
    left = [ops[r].steps for r in ranks]
    # Per rank: has it already sent the round it is in (mid-round), the
    # time that round cannot complete before, and the inbound blocks that
    # have already arrived, oldest first, as (arrival, block) — at the
    # front the one a mid-round rank's receive handle has already matched
    # (and counted): ``taken_*``.
    sent = [False] * n_ranks
    at = [0.0] * n_ranks
    taken_a = [False] * n_ranks
    taken_b = [False] * n_ranks
    queue_a: list[list] = [[] for _ in ranks]
    queue_b: list[list] = [[] for _ in ranks]
    a_from_idx = b_from_idx = None
    if max(left) > 1:
        if tag_a == tag_b:
            return None
        cube = engine.config.cube
        index = {r: i for i, r in enumerate(ranks)}
        seen_a: set[int] = set()
        seen_b: set[int] = set()
        for r in ranks:
            op = ops[r]
            ta, tb = op.a_to, op.b_to
            if ta == r or tb == r or ta == tb:
                return None
            if ta not in index or tb not in index:
                return None
            if not cube.are_neighbors(r, ta) or not cube.are_neighbors(r, tb):
                return None
            # The receiver must expect exactly this sender on this tag.
            if ops[ta].a_from != r or ops[tb].b_from != r:
                return None
            seen_a.add(ta)
            seen_b.add(tb)
        if len(seen_a) != n_ranks or len(seen_b) != n_ranks:
            return None  # not a permutation
        a_from_idx = [index[ops[r].a_from] for r in ranks]
        b_from_idx = [index[ops[r].b_from] for r in ranks]
    for i, r in enumerate(ranks):
        op = ops[r]
        qa, qb = queue_a[i], queue_b[i]
        pending = []
        if r in parked:
            at[i] = parked[r][1]
        else:
            send_a, recv_a, send_b, recv_b = waiting[r].handles
            if not (send_a.done and send_b.done):
                return None
            at[i] = max(
                engine._task_time[r],
                send_a.completion_time, send_b.completion_time,
            )
            sent[i] = True
            taken_a[i], taken_b[i] = recv_a.done, recv_b.done
            for h, queue in ((recv_a, qa), (recv_b, qb)):
                if h.done:
                    queue.append((h.completion_time, h.value))
                else:
                    pending.append(h)
        posted = engine._pending_recvs[r]
        if len(posted) != len(pending) or any(
            entry[2] is not h for entry, h in zip(posted, pending)
        ):
            return None
        for arrival, msg in engine._mailbox[r]:
            if msg.src == op.a_from and msg.tag == tag_a:
                qa.append((arrival, msg.data))
            elif msg.src == op.b_from and msg.tag == tag_b:
                qb.append((arrival, msg.data))
            else:
                return None
        for queue, shape in ((qa, a_shape), (qb, b_shape)):
            for _arrival, block in queue:
                if np.shape(block) != shape:
                    return None
    if a_from_idx is not None:
        # Every block a rank still has to receive is either queued at it
        # or still to be sent by its neighbour, FIFO per (src, tag): the
        # pairing by rounds-left that the recurrence relies on.
        for i in range(n_ranks):
            for queue, frm in ((queue_a, a_from_idx), (queue_b, b_from_idx)):
                j = frm[i]
                if left[i] - len(queue[i]) != left[j] - sent[j]:
                    return None
    return {
        "ranks": ranks, "ops": [ops[r] for r in ranks],
        "left": left, "sent": sent, "at": at,
        "taken_a": taken_a, "taken_b": taken_b,
        "queue_a": queue_a, "queue_b": queue_b,
        "a_from_idx": a_from_idx, "b_from_idx": b_from_idx,
        "a_shape": a_shape, "b_shape": b_shape,
    }


def _rotate_blocks(spec: dict) -> tuple[list, list, list]:
    """The data plane of :func:`try_advance_superstep`: rotate the blocks
    and accumulate the same products in the same per-rank order the event
    path would have, so ``C`` comes out bitwise equal."""
    ops = spec["ops"]
    n_ranks = len(ops)
    left, sent = list(spec["left"]), list(spec["sent"])
    queue_a = [[block for _, block in q] for q in spec["queue_a"]]
    queue_b = [[block for _, block in q] for q in spec["queue_b"]]
    a_from_idx, b_from_idx = spec["a_from_idx"], spec["b_from_idx"]
    a_blocks = [op.a_block for op in ops]
    b_blocks = [op.b_block for op in ops]
    # Each rank keeps adding into the accumulator its event-path rounds
    # left it, so the float accumulation order is bitwise unchanged.
    c_blocks = [op.c_block for op in ops]

    for k in range(max(left), 0, -1):
        # Round k: the ranks with k rounds left that have not sent yet
        # multiply (at k = 1 that is everyone, and the phase is over) ...
        send = [left[i] == k and not sent[i] for i in range(n_ranks)]
        for i in range(n_ranks):
            if send[i]:
                if c_blocks[i] is None:
                    c_blocks[i] = a_blocks[i] @ b_blocks[i]
                else:
                    c_blocks[i] += a_blocks[i] @ b_blocks[i]
        if k == 1:
            break
        # ... and every rank in round k takes its next blocks: the ones
        # its neighbours hold now, or the oldest queued ones if a
        # neighbour is ahead.
        nxt_a, nxt_b = list(a_blocks), list(b_blocks)
        for i in range(n_ranks):
            if left[i] == k:
                ja, jb = a_from_idx[i], b_from_idx[i]
                nxt_a[i] = a_blocks[ja] if send[ja] else queue_a[i].pop(0)
                nxt_b[i] = b_blocks[jb] if send[jb] else queue_b[i].pop(0)
                left[i] = k - 1
                sent[i] = False
        a_blocks, b_blocks = nxt_a, nxt_b
    return a_blocks, b_blocks, c_blocks


def try_advance_superstep(engine: "Engine", parked: dict) -> dict | None:
    """Advance the resident shift phases from a quiet frontier, in closed form.

    ``parked`` is ``engine._parked``.  Returns ``{task: (finish_time,
    (a, b, c))}`` for every rank of the phase on success — and then the
    engine's mailboxes, posted receives and mid-round waiters of the phase
    are consumed — or ``None``, with nothing touched, when the frontier is
    not eligible (the caller then runs one more round through the events).
    """
    spec = _frontier(engine, parked)
    if spec is None:
        return None
    ranks: list[int] = spec["ranks"]
    n_ranks = len(ranks)
    params = engine.config.params
    one_port = engine.config.port_model is PortModel.ONE_PORT

    a_rows, a_cols = spec["a_shape"]
    b_rows, b_cols = spec["b_shape"]
    m_a = a_rows * a_cols
    m_b = b_rows * b_cols
    flops = 2.0 * a_rows * a_cols * b_cols
    d_c = params.flops_time(flops)
    # Exactly the engine's healthy single-hop cost (t_s + t_w·nwords).
    d_a = engine._t_s + engine._t_w * m_a
    d_b = engine._t_s + engine._t_w * m_b

    left = np.array(spec["left"], dtype=np.int64)
    sent = np.array(spec["sent"], dtype=bool)
    # Multiplies and shift rounds each rank runs here (a mid-round rank has
    # already done its current round's multiply and sends).
    multiplies = left - sent
    shifts = multiplies - 1
    T = np.array(spec["at"], dtype=np.float64)
    stats = engine.stats
    # Per-step stat folds replicate the event path's float accumulation
    # order: each rank adds the same scalar once per multiply step.
    flops_acc = np.array([stats[r].flops for r in ranks], dtype=np.float64)
    compute_acc = np.array(
        [stats[r].compute_time for r in ranks], dtype=np.float64
    )
    for k in range(int(multiplies.max()), 0, -1):
        todo = multiplies >= k
        np.add(flops_acc, flops, out=flops_acc, where=todo)
        np.add(compute_acc, d_c, out=compute_acc, where=todo)

    top = int(left.max())
    if top > 1:
        a_from_idx = np.array(spec["a_from_idx"], dtype=np.intp)
        b_from_idx = np.array(spec["b_from_idx"], dtype=np.intp)
        arrivals_a = [[arrival for arrival, _ in q] for q in spec["queue_a"]]
        arrivals_b = [[arrival for arrival, _ in q] for q in spec["queue_b"]]
        queued = sum(map(len, arrivals_a)) + sum(map(len, arrivals_b))
        tracker = engine.tracker
        # Planning creates no channel: one a rank has yet to use seeds as
        # idle (id -1) and gets its slot when the plan is written back.
        ids = tracker._channel_ids
        a_to = [op.a_to for op in spec["ops"]]
        b_to = [op.b_to for op in spec["ops"]]
        cid_a = np.array(
            [ids.get(hop, -1) for hop in zip(ranks, a_to)], dtype=np.intp
        )
        cid_b = np.array(
            [ids.get(hop, -1) for hop in zip(ranks, b_to)], dtype=np.intp
        )
        chan_a_free = np.where(cid_a >= 0, tracker._free[cid_a], 0.0)
        chan_b_free = np.where(cid_b >= 0, tracker._free[cid_b], 0.0)
        chan_a_busy = np.where(cid_a >= 0, tracker._busy[cid_a], 0.0)
        chan_b_busy = np.where(cid_b >= 0, tracker._busy[cid_b], 0.0)
        if one_port:
            pid = np.array(
                [tracker._send_port[r]._i for r in ranks], dtype=np.intp
            )
            port_free, port_busy = tracker._free[pid], tracker._busy[pid]
        # Round k is the one a rank runs with k rounds left.  Ranks behind
        # the frontier run it while the others wait; a block whose sender
        # is ahead is already queued at its receiver.
        for k in range(top, 1, -1):
            recv = left == k
            send = recv & ~sent
            ready = T + d_c  # this round's multiply, then both injections
            if one_port:
                eA = np.maximum(ready, np.maximum(chan_a_free, port_free)) + d_a
                eB = np.maximum(ready, np.maximum(chan_b_free, eA)) + d_b
                port_free = np.where(send, eB, port_free)
                np.add(port_busy, d_a, out=port_busy, where=send)
                np.add(port_busy, d_b, out=port_busy, where=send)
            else:
                eA = np.maximum(ready, chan_a_free) + d_a
                eB = np.maximum(ready, chan_b_free) + d_b
            chan_a_free = np.where(send, eA, chan_a_free)
            chan_b_free = np.where(send, eB, chan_b_free)
            np.add(chan_a_busy, d_a, out=chan_a_busy, where=send)
            np.add(chan_b_busy, d_b, out=chan_b_busy, where=send)
            # The round completes when the rank's own first (only) hops and
            # both inbound deliveries are done.
            arr_a, arr_b = eA[a_from_idx], eB[b_from_idx]
            if queued:
                for i in np.nonzero(recv & ~send[a_from_idx])[0].tolist():
                    arr_a[i] = arrivals_a[i].pop(0)
                    queued -= 1
                for i in np.nonzero(recv & ~send[b_from_idx])[0].tolist():
                    arr_b[i] = arrivals_b[i].pop(0)
                    queued -= 1
            done = np.maximum(
                np.where(send, np.maximum(eA, eB), T),
                np.maximum(arr_a, arr_b),
            )
            T = np.where(recv, done, T)
            left = np.where(recv, k - 1, left)
            sent &= ~recv
    T = T + d_c  # the last multiply

    # -- data plane
    if not engine.timing_only:
        a_blocks, b_blocks, c_blocks = _rotate_blocks(spec)
    else:
        # Timing-only runs never read block *values* and shapes are
        # uniform, so the rotation is a no-op: keep the entry references.
        # C becomes a zero-cost broadcast view with the product's shape,
        # mirroring what ctx.local_matmul returns in timing-only mode, so
        # downstream communication phases still see correctly-sized blocks.
        a_blocks = [op.a_block for op in spec["ops"]]
        b_blocks = [op.b_block for op in spec["ops"]]
        c_blocks = [np.broadcast_to(0.0, (a_rows, b_cols))] * n_ranks

    # -- write back: tracker, statistics, and the phase's engine state
    if top > 1:
        senders = np.nonzero(shifts)[0]
        for cid, to in ((cid_a, a_to), (cid_b, b_to)):
            for i in senders[cid[senders] < 0].tolist():
                cid[i] = tracker._channel_slot(ranks[i], to[i])
        rows_a, rows_b = cid_a[senders], cid_b[senders]
        tracker._free[rows_a] = chan_a_free[senders]
        tracker._busy[rows_a] = chan_a_busy[senders]
        tracker._nres[rows_a] += shifts[senders]
        tracker._free[rows_b] = chan_b_free[senders]
        tracker._busy[rows_b] = chan_b_busy[senders]
        tracker._nres[rows_b] += shifts[senders]
        if one_port:
            tracker._free[pid] = port_free
            tracker._busy[pid] = port_busy
            tracker._nres[pid] += 2 * shifts
    # A receive is counted when it is matched: every block still queued or
    # yet to be sent, but not one a mid-round handle already took.
    for r, fl, ct, sends, rounds, got_a, got_b in zip(
        ranks, flops_acc.tolist(), compute_acc.tolist(), shifts.tolist(),
        spec["left"], spec["taken_a"], spec["taken_b"],
    ):
        st = stats[r]
        st.flops = fl
        st.compute_time = ct
        st.messages_sent += 2 * sends
        st.words_sent += (m_a + m_b) * sends
        st.messages_received += 2 * (rounds - 1) - got_a - got_b
        st.words_received += m_a * (rounds - 1 - got_a) + m_b * (rounds - 1 - got_b)
    # The phase's queued blocks, posted receives and mid-round waiters are
    # all consumed (the frontier check saw nothing else in them).
    for r in ranks:
        if engine._mailbox[r]:
            engine._mailbox[r].clear()
    waiting = engine._blocked
    for r in waiting:
        engine._pending_recvs[r].clear()
    waiting.clear()
    engine._shift_rounds_closed_form += int(multiplies.sum())

    return {
        r: (finish, blocks)
        for r, finish, blocks in zip(
            ranks, T.tolist(), zip(a_blocks, b_blocks, c_blocks)
        )
    }


# ---------------------------------------------------------------------------
# Collective phases (CollectivePhaseOp)
# ---------------------------------------------------------------------------
#
# The collectives in ``repro.collectives`` declare themselves to the engine
# before running their wire schedule (see ``repro.collectives.phase``).  When
# every active rank is parked on a CollectivePhaseOp with quiet queues, the
# phase decomposes into independent *groups* — one per (kind, schedule,
# member-tuple, tag, root, op) — whose channels are provably disjoint.
#
# Every group runs the same schedule (the paper's Table 1): ``d = log N``
# rounds of spanning binomial trees, one tree per dimension order in
# ``orders``.  A one-port machine runs the single identity-order tree and
# serializes its sends through the node's port; a multi-port machine splits
# every block into ``d`` chunks and runs the ``d`` rotated trees at once,
# tree ``j`` crossing dimension ``orders[j][t]`` in round ``t``.  What tells
# the kinds apart is their *step table* — who sends how many words at each
# (round, tree) — and ``_reserve`` folds any step table through one
# recurrence, per send across dimension ``k``:
#
#     s  = max(T, chan_free[k], port_free)        (port column: one-port only)
#     e  = s + (t_s + t_w·w)
#     T' = max(T, e of my sends, e of the sends arriving at me)
#
# A send across ``k`` arrives at the sender's ``k``-partner, and ``T'``
# takes effect when the round ends (the schedules ``waitall`` once per
# round; a rank with nothing to do in a round keeps its clock).  These are
# the IEEE operations the event path performs, in the same per-rank order,
# so makespans, per-channel busy times and message/word counters come out
# bit-identical; returned values do too, because each step-table builder
# replays its schedule's data movement with the same helpers and the same
# fold order.
#
# Adding a collective: write ``_<kind>_steps(g, orders, chunked,
# timing_only)`` returning ``(steps, values)`` — ``steps[t][j]`` is
# ``(senders, words)``, comm ranks and the word count of each one's message
# (one int when all are equal); ``values[i]`` is what comm rank ``i``'s call
# returns.  Register it in ``_STEP_TABLES`` and in ``_EXCHANGE_KINDS`` or
# ``_ROOTED_KINDS``, have the dispatch function declare ``make_spec(kind,
# ...)``, and add the kind to ``tests/collectives/test_closed_form.py``.
#
# Any doubt — schedule mismatch with the port model, malformed groups,
# foreign traffic, or any exception while planning (which the event path
# would reproduce verbatim) — refuses, and the engine releases every parked
# rank with ``COLLECTIVE_FALLBACK``.  Planning mutates nothing: tracker
# resources and stats are written only after every group has planned.

_EXCHANGE_KINDS = frozenset({"allgather", "alltoall", "reduce_scatter"})
_ROOTED_KINDS = frozenset({"broadcast", "reduce"})


class _Refuse(Exception):
    """Internal: abandon the closed form, fall back to the event path."""


class _CollGroup:
    """One collective operation instance: a member set running one schedule."""

    __slots__ = (
        "kind", "sched", "nodes", "free_dims", "tag", "root", "op",
        "n", "d", "sub", "cr_of_sub", "partners", "everyone",
        "at", "payloads", "slots",
    )

    def __init__(self, kind, sched, nodes, free_dims, tag, root, op):
        self.kind = kind
        self.sched = sched
        self.nodes = list(nodes)
        self.free_dims = list(free_dims)
        self.tag = tag
        self.root = root
        self.op = op
        self.n = len(nodes)
        self.d = len(free_dims)
        self.sub = None
        self.cr_of_sub = None
        self.partners = None
        self.everyone = None
        self.at = [0.0] * self.n
        self.payloads = [None] * self.n
        self.slots = [0] * self.n

    def build_tables(self) -> bool:
        """Recompute the subcube-index maps Comm guarantees; False if broken."""
        base = self.nodes[0]
        mask = 0
        for dim in self.free_dims:
            mask |= 1 << dim
        sub = []
        for node in self.nodes:
            if (node ^ base) & ~mask:
                return False
            s_val = 0
            for k, dim in enumerate(self.free_dims):
                if (node >> dim) & 1:
                    s_val |= 1 << k
            sub.append(s_val)
        cr_of_sub = [-1] * self.n
        for cr, s_val in enumerate(sub):
            if cr_of_sub[s_val] != -1:
                return False
            cr_of_sub[s_val] = cr
        self.sub = np.asarray(sub, dtype=np.intp)
        self.cr_of_sub = np.asarray(cr_of_sub, dtype=np.intp)
        # Comm rank of every member's neighbour across each subcube dim.
        self.partners = [
            self.cr_of_sub[self.sub ^ (1 << k)] for k in range(self.d)
        ]
        self.everyone = np.arange(self.n)
        return True


def _collective_groups(engine: "Engine", parked: dict) -> list | None:
    """Partition the parked ops into validated groups, or ``None``."""
    if not _all_parked_and_quiet(engine, parked):
        return None
    one_port = engine.config.port_model is PortModel.ONE_PORT

    groups: dict[tuple, _CollGroup] = {}
    filled: dict[tuple, int] = {}
    for task, (op, at) in parked.items():
        specs = op.specs
        if not 1 <= len(specs) <= 2:
            return None
        if len(specs) == 2:
            # Fused pairs overlap only on multi-port machines (a one-port
            # node interleaves the two schedules through its single
            # engagement — keep that contention on the event path), and
            # only when the two subcubes use disjoint physical dimensions.
            if one_port:
                return None
            if set(specs[0].free_dims) & set(specs[1].free_dims):
                return None
        for slot, spec in enumerate(specs):
            kind = spec.kind
            if kind in _EXCHANGE_KINDS:
                if spec.root is not None:
                    return None
            elif kind in _ROOTED_KINDS:
                if not isinstance(spec.root, int):
                    return None
            else:
                return None
            if spec.sched != ("sbt" if one_port else "rotated"):
                return None
            n = len(spec.members)
            if n < 2 or n != (1 << len(spec.free_dims)):
                return None
            if not 0 <= spec.rank < n or spec.members[spec.rank] != task:
                return None
            key = (
                kind, spec.sched, spec.members, spec.free_dims,
                spec.tag, spec.root, spec.op,
            )
            g = groups.get(key)
            if g is None:
                g = _CollGroup(
                    kind, spec.sched, spec.members, spec.free_dims,
                    spec.tag, spec.root, spec.op,
                )
                if not g.build_tables():
                    return None
                groups[key] = g
                filled[key] = 0
            cr = spec.rank
            if (filled[key] >> cr) & 1:
                return None
            filled[key] |= 1 << cr
            g.at[cr] = at
            g.payloads[cr] = spec.payload
            g.slots[cr] = slot
    out = []
    for key, g in groups.items():
        if filled[key] != (1 << g.n) - 1:
            return None
        if g.kind in _ROOTED_KINDS and not 0 <= g.root < g.n:
            return None
        out.append(g)
    return out


# -- trees --------------------------------------------------------------------


@lru_cache(maxsize=None)
def _trees():
    """``repro.collectives``' tree combinatorics and chunk helpers.

    Imported on first use: the collectives package imports the engine
    (through ``repro.mpi``), so a module-level import would be circular.
    """
    from repro.collectives import chunking, sbt

    return sbt, chunking


@lru_cache(maxsize=64)
def _orders(d: int, one_port: bool) -> tuple:
    """Dimension order of every tree a ``d``-dimensional group runs."""
    sbt, _ = _trees()
    if one_port:
        return (sbt.identity_order(d),)
    return tuple(sbt.rotated_order(d, j) for j in range(d))


@lru_cache(maxsize=64)
def _tree_senders(orders: tuple, combine: bool) -> tuple:
    """Relative indices sending at each ``[round][tree]`` of rooted trees.

    A distribution tree's node forwards in every round after the one it
    received in (the root in all of them); a combining tree's node sends
    once, in the round of its first set bit (the root never).  Either way
    the message crosses ``orders[j][t]``, to the child or the parent.
    The arrays are shared between callers: read-only.
    """
    sbt, _ = _trees()
    d = len(orders[0])
    step_of = sbt.combine_send_step if combine else sbt.distribute_recv_step
    steps = [[step_of(rel, order) for rel in range(1 << d)] for order in orders]
    return tuple(
        tuple(
            np.array(
                [
                    rel for rel, step in enumerate(column)
                    if (step == t if combine else (step is None or step < t))
                ],
                dtype=np.intp,
            )
            for column in steps
        )
        for t in range(d)
    )


def _rooted_senders(g: _CollGroup, orders: tuple, combine: bool) -> list:
    """:func:`_tree_senders` as comm ranks of ``g``, rooted at ``g.root``."""
    base = int(g.sub[g.root])
    return [
        [g.cr_of_sub[rel ^ base] for rel in row]
        for row in _tree_senders(orders, combine)
    ]


# -- pieces: how a block splits over the trees and comes back together -------


def _piece_words(blocks, trees: int, chunked: bool) -> list:
    """``[block][tree]`` word counts of blocks that travel inside a container.

    Whole blocks (one-port) are counted by the engine's own payload
    accounting; chunked blocks must already be arrays.
    """
    if chunked:
        chunk_sizes = _trees()[1].chunk_sizes
        return [chunk_sizes(int(b.size), trees) for b in blocks]
    return [[payload_words({0: b})] for b in blocks]


def _received(blocks, mine: int, chunked: bool) -> list:
    """What a rank ends an exchange with: ``blocks[src]`` from every source.

    Whole blocks arrive as the engine's payload copies, the rank's own
    stays the object it passed in.  Chunked blocks (arrays) — the rank's
    own too — are split into flat chunks and reassembled by the receiver,
    which reproduces the block exactly: a plain copy is bit-identical and
    skips the split-and-rebuild round trip.
    """
    if chunked:
        return [b.copy() for b in blocks]
    return [b if src == mine else copy_payload(b) for src, b in enumerate(blocks)]


def _join(pieces: list, like, chunked: bool):
    """Reassemble one reduced piece per tree into the value a call returns."""
    if not chunked:
        return pieces[0]
    _, chunking = _trees()
    return chunking.rebuild_from_header(
        pieces, chunking.chunk_header(np.asarray(like))
    )


# -- step tables ----------------------------------------------------------------


def _allgather_steps(g: _CollGroup, orders, chunked, timing_only):
    """Recursive doubling: send all you hold, then hold your partner's too."""
    blocks = [np.asarray(p) for p in g.payloads] if chunked else g.payloads
    # held[j][i]: words of the tree-j pieces rank i has gathered so far
    held = list(
        np.array(_piece_words(blocks, len(orders), chunked), dtype=np.int64).T
    )
    steps = []
    for t in range(g.d):
        row = []
        for j, order in enumerate(orders):
            w = held[j]
            row.append((g.everyone, w))
            held[j] = w + w[g.partners[order[t]]]
        steps.append(row)
    return steps, [_received(blocks, i, chunked) for i in range(g.n)]


def _alltoall_steps(g: _CollGroup, orders, chunked, timing_only):
    """Dimension exchange: across ``k``, forward every piece whose
    destination lies on the other side of ``k``."""
    n = g.n
    rows = [list(p) for p in g.payloads]
    for row in rows:
        if len(row) != n:
            raise _Refuse
    if chunked:
        rows = [[np.asarray(b) for b in row] for row in rows]
    words = np.array(
        [_piece_words(row, len(orders), chunked) for row in rows], dtype=np.int64
    )
    # held[j][i, dst]: words of the tree-j pieces at rank i bound for dst
    held = [words[:, :, j] for j in range(len(orders))]
    bit = (g.sub[:, None] >> np.arange(g.d)) & 1
    steps = []
    for t in range(g.d):
        row = []
        for j, order in enumerate(orders):
            k = order[t]
            side = bit[:, k]
            moving = np.where(side[:, None] != side[None, :], held[j], 0)
            row.append((g.everyone, moving.sum(axis=1)))
            held[j] = held[j] - moving + moving[g.partners[k]]
        steps.append(row)
    return steps, [
        _received([rows[src][i] for src in range(n)], i, chunked)
        for i in range(n)
    ]


def _reduce_scatter_steps(g: _CollGroup, orders, chunked, timing_only):
    """Recursive halving: across ``k``, hand over the partials bound for
    the other side and fold the ones handed to you (values matter)."""
    n, op, trees = g.n, g.op, len(orders)
    for blocks in g.payloads:
        if len(blocks) != n:
            raise _Refuse
    split = _trees()[1].split_chunks
    # acc[i][j][dst]: rank i's partial of the tree-j piece of block dst
    acc = [[{} for _ in orders] for _ in range(n)]
    for i, blocks in enumerate(g.payloads):
        for dst, block in enumerate(blocks):
            pieces = split(np.asarray(block), trees) if chunked else (block,)
            for j, piece in enumerate(pieces):
                acc[i][j][dst] = np.array(piece)
    bit = [[(s >> k) & 1 for k in range(g.d)] for s in g.sub.tolist()]
    steps = []
    for t in range(g.d):
        row = []
        for j, order in enumerate(orders):
            k = order[t]
            moving = []
            for i in range(n):
                mine, my_bit = acc[i][j], bit[i][k]
                moving.append({
                    dst: mine.pop(dst)
                    for dst in list(mine) if bit[dst][k] != my_bit
                })
            row.append((g.everyone, np.array(
                [payload_words(m) for m in moving], dtype=np.int64
            )))
            for i, peer in enumerate(g.partners[k].tolist()):
                mine = acc[i][j]
                for dst, arr in moving[peer].items():
                    mine[dst] = op(mine[dst], arr)
        steps.append(row)
    return steps, [
        _join([part[i] for part in acc[i]], g.payloads[i][i], chunked)
        for i in range(n)
    ]


def _broadcast_steps(g: _CollGroup, orders, chunked, timing_only):
    """Distribution trees: whoever holds tree ``j``'s piece forwards it."""
    data = g.payloads[g.root]
    if chunked:
        arr = np.asarray(data)
        sizes = _trees()[1].chunk_sizes(int(arr.size), len(orders))
    else:
        sizes = [payload_words(data)]
    steps = [
        [(senders, sizes[j]) for j, senders in enumerate(row)]
        for row in _rooted_senders(g, orders, combine=False)
    ]
    # Non-roots rebuild the array from its chunks (an exact copy, see
    # _received) or receive the engine's payload copy.
    return steps, [
        data if i == g.root else (arr.copy() if chunked else copy_payload(data))
        for i in range(g.n)
    ]


def _reduce_steps(g: _CollGroup, orders, chunked, timing_only):
    """Combining trees: fold your children's partials, send to your parent."""
    op, trees = g.op, len(orders)
    senders = _rooted_senders(g, orders, combine=True)
    arrs = [np.asarray(p) for p in g.payloads]
    shape = arrs[0].shape
    values = [None] * g.n
    if (
        timing_only
        and op is np.add
        and all(a.shape == shape and a.size and not a.any() for a in arrs)
    ):
        # Timing-only partials are zero views; np.add keeps every piece an
        # all-zero array of fixed size, so word counts follow from shapes
        # and the root's value is plain zeros — skipping the per-rank fold
        # replay that dominates at region-map scale.
        sizes = _trees()[1].chunk_sizes(int(arrs[0].size), trees)
        values[g.root] = np.zeros(shape, dtype=arrs[0].dtype)
        return [
            [(si, sizes[j]) for j, si in enumerate(row)] for row in senders
        ], values
    split = _trees()[1].split_chunks
    # acc[i][j]: rank i's accumulated tree-j piece
    acc = [
        [np.array(c) for c in (split(a, trees) if chunked else (a,))]
        for a in arrs
    ]
    steps = []
    for t, row in enumerate(senders):
        out = []
        for j, si in enumerate(row):
            sent = [acc[i][j] for i in si.tolist()]
            out.append((si, np.array(
                [payload_words(c) for c in sent], dtype=np.int64
            )))
            parents = g.partners[orders[j][t]][si]
            for parent, c in zip(parents.tolist(), sent):
                acc[parent][j] = op(acc[parent][j], c)
        steps.append(out)
    values[g.root] = _join(acc[g.root], arrs[g.root], chunked)
    return steps, values


_STEP_TABLES = {
    "allgather": _allgather_steps,
    "alltoall": _alltoall_steps,
    "reduce_scatter": _reduce_scatter_steps,
    "broadcast": _broadcast_steps,
    "reduce": _reduce_steps,
}


# -- the recurrence -------------------------------------------------------------


def _reserve(engine: "Engine", g: _CollGroup, orders, steps, one_port) -> dict:
    """Fold a step table through the reservation recurrence (see above).

    Reads the live tracker, writes nothing: the returned plan is applied by
    :func:`_commit` once every group of the phase has planned.
    """
    n, d = g.n, g.d
    tracker = engine.tracker
    t_s, t_w = engine._t_s, engine._t_w
    # Channels are created lazily and ``channels_used`` counts every created
    # one, so planning must not instantiate a channel a refused attempt
    # would not have touched: unknown channels seed as idle, id -1.
    ids = tracker._channel_ids
    keys = [(u, u ^ (1 << dim)) for u in g.nodes for dim in g.free_dims]
    cid = np.array(
        [ids[key] if key in ids else -1 for key in keys], dtype=np.intp
    ).reshape(n, d)
    chan_free = np.where(cid >= 0, tracker._free[cid], 0.0)
    chan_busy = np.where(cid >= 0, tracker._busy[cid], 0.0)
    chan_used = np.zeros((n, d), dtype=np.int64)
    pid = port_free = port_busy = None
    if one_port:
        pid = np.array(
            [tracker._send_port[u]._i for u in g.nodes], dtype=np.intp
        )
        port_free, port_busy = tracker._free[pid], tracker._busy[pid]
    msgs_out, words_out, msgs_in, words_in = np.zeros((4, n), dtype=np.int64)
    T = np.array(g.at, dtype=np.float64)
    for t in range(d):
        Tn = T.copy()
        for order, (si, w) in zip(orders, steps[t]):
            k = order[t]
            ri = g.partners[k][si]
            s = np.maximum(T[si], chan_free[si, k])
            if one_port:
                s = np.maximum(s, port_free[si])
            dur = t_s + t_w * w
            e = s + dur
            chan_free[si, k] = e
            chan_busy[si, k] += dur
            chan_used[si, k] += 1
            if one_port:
                port_free[si] = e
                port_busy[si] += dur
            Tn[si] = np.maximum(Tn[si], e)
            Tn[ri] = np.maximum(Tn[ri], e)
            msgs_out[si] += 1
            words_out[si] += w
            msgs_in[ri] += 1
            words_in[ri] += w
        T = Tn
    return {
        "finish": T.tolist(),
        "cid": cid, "chan_free": chan_free, "chan_busy": chan_busy,
        "chan_used": chan_used,
        "pid": pid, "port_free": port_free, "port_busy": port_busy,
        "stats": (msgs_out, words_out, msgs_in, words_in),
    }


def _commit(engine: "Engine", g: _CollGroup, plan: dict) -> None:
    """Write one group's planned reservations and counters to the engine."""
    tracker = engine.tracker
    cid = plan["cid"]
    ii, kk = np.nonzero(plan["chan_used"])
    # Create the channels first used here (allocation may grow the columns
    # and rebind the arrays, so resolve every slot before writing), then
    # scatter the phase's channel state in three vectorized writes.
    new = cid[ii, kk] < 0
    for i, k in zip(ii[new].tolist(), kk[new].tolist()):
        u = g.nodes[i]
        cid[i, k] = tracker._channel_slot(u, u ^ (1 << g.free_dims[k]))
    rows = cid[ii, kk]
    tracker._free[rows] = plan["chan_free"][ii, kk]
    tracker._busy[rows] = plan["chan_busy"][ii, kk]
    tracker._nres[rows] += plan["chan_used"][ii, kk]
    msgs_out, words_out, msgs_in, words_in = plan["stats"]
    pid = plan["pid"]
    if pid is not None:  # idle ports get their seeds back, unchanged
        tracker._free[pid] = plan["port_free"]
        tracker._busy[pid] = plan["port_busy"]
        tracker._nres[pid] += msgs_out
    stats = engine.stats
    for u, ms, ws, mr, wr in zip(
        g.nodes, msgs_out.tolist(), words_out.tolist(),
        msgs_in.tolist(), words_in.tolist(),
    ):
        st = stats[u]
        st.messages_sent += ms
        st.words_sent += ws
        st.messages_received += mr
        st.words_received += wr


def try_advance_collective(engine: "Engine", parked: dict) -> dict | None:
    """Advance fully-parked collective phases in closed form.

    ``parked`` maps task -> (CollectivePhaseOp, park_time).  Returns
    ``{task: (finish_time, value)}`` (fused pairs get ``[value_a, value_b]``
    at the later finish, like ``ctx.parallel``) or ``None`` when the phase
    must fall back to the event path.  Nothing — tracker state, statistics —
    is mutated unless every group plans successfully, so a refusal leaves
    the engine exactly where the event path would start.
    """
    groups = _collective_groups(engine, parked)
    if groups is None:
        return None
    one_port = engine.config.port_model is PortModel.ONE_PORT
    try:
        plans = []
        by_task: dict = {}
        for g in groups:
            orders = _orders(g.d, one_port)
            steps, values = _STEP_TABLES[g.kind](
                g, orders, not one_port, engine.timing_only
            )
            plan = _reserve(engine, g, orders, steps, one_port)
            plans.append(plan)
            # Assemble outcomes before committing anything: a malformed
            # group surfaced here still refuses cleanly.
            for i in range(g.n):
                by_task.setdefault(g.nodes[i], {})[g.slots[i]] = (
                    plan["finish"][i], values[i]
                )
        outcome = {}
        for task, (op, _at) in parked.items():
            per = by_task[task]
            if len(per) != len(op.specs):
                return None
            if len(op.specs) == 1:
                outcome[task] = per[0]
            else:
                fin = max(per[0][0], per[1][0])
                outcome[task] = (fin, [per[0][1], per[1][1]])
    except Exception:
        return None

    for g, plan in zip(groups, plans):
        _commit(engine, g, plan)
    return outcome
