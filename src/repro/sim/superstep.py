"""Closed-form advancement of declared shift and collective phases.

The event engine normally drains one heap event per hop: a Cannon-style
inner loop of ``K`` multiply steps on ``p`` ranks costs ``O(K·p)`` events.
Programs instead yield one resident :class:`~repro.sim.ops.ShiftPhaseOp`
per shift-multiply phase (and one :class:`~repro.sim.ops.CollectivePhaseOp`
per collective, see "Collective phases" below), and the engine parks it.
The first time the event queues drain with every active rank inside the
phase, this module advances all remaining rounds of every rank at once —
*bit-identically* to what the event path would have produced.  Until then
— a foreign hop about to reserve a parked rank's channel or port, see the
hazard map in ``Engine._start_hop`` — the engine runs the parked ranks'
next round itself through the ordinary hop events
(``Engine._shift_multiply``).  A phase declared with multi-hop moves
first parks before them — Cannon's contended skew with its shift rounds,
3DD's and DNS's lift with the broadcast pair it feeds — and one *hop
table* replays those moves and what they overlap in the event path's
order (see "the hop table" and "lifted pairs" below).  A *grouped* phase
(Ho-Johnsson-Edelman's) moves single hops only: :func:`_grouped` states its
alignment and rounds as rows of the recurrence below, and anything else
hands the whole phase back to the program's loop.  So does a *broadcast*
phase (Fox-Otto-Hey's): :func:`_broadcasting` states each stage's row
broadcasts (the broadcast's own step table) and B's roll as rows.

One recurrence
--------------
In the paper's cost model a shift round and one step of a Table 1
collective are the same thing: single-hop transfers of ``t_s + t_w·w``
each.  Both closed forms fold their sends a *row* at a time — sends ready
together, a sender at most once per row — through one recurrence
(:func:`_fold_row`), per send ``src -> dst`` over channel ``c``:

* ``s = max(ready, chan_free[c], port_free[src])``  (port column: one-port)
* ``e = s + (t_s + t_w·w)``, the new ``chan_free[c]`` and ``port_free[src]``
* ``T'[src] = max(T'[src], e)`` and ``T'[dst] = max(T'[dst], e)``

seeded from the live :class:`~repro.sim.ports.ContentionTracker`
(:func:`_seed`: contention left over from an event-driven stretch, e.g.
Cannon's multi-hop skew, carries in exactly) and written back once the
whole phase planned (:func:`_commit`).  A shift round is two rows, A then
B, ready at ``T + t_c·flops`` (the round's multiply); a collective round
is its step table's rows, ready at the round's ``T``.

Why it is exact: with the network quiet and every active rank in the
phase, every message is a single hop, so channel ``u -> v`` and (one-port)
``u``'s send port are reserved by ``u``'s own sends alone.  A rank's rows
are folded in the order its injection events fire — a shift's A-hop
before its B-hop (issued in that order at one virtual time), a neighbour
exchange's sends in program order — so how *different* ranks' events
interleave cannot move any reservation.  ``max`` is exact, and each row
repeats the event path's IEEE additions in its per-rank order: times,
per-channel busy times and counters come out to the last bit.

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
everyone else waits.  A block's arrival time is its sender's end of the
same iteration, or — when the sender ran that round earlier, on the event
path — the queued delivery's (or completed handle's) time.

Eligibility
-----------
Two predicates.  :func:`superstep_ineligibility_reason`: may a run's phases
park at all (not with a fault plan, a heterogeneous scenario, a
``max_virtual_time`` watchdog or ``superstep=False``; with per-hop trace
records only an aligned phase or a lifted pair, see "Traced phases")?
``Engine._resident``: may the engine run a declared round itself (a main
program, no fault plan, ``superstep=True``)?  What fails the second is
answered ``FALLBACK``, and the program's generator loop, the definition of
the round, runs it.  A parked shift phase is refused — every parked rank
runs one more round through the events — when anything but the phase is in
flight, when block shapes or tags differ between ranks or ``tag_a ==
tag_b``, when the shifts are not neighbour permutations whose receivers
expect exactly their senders, or when queued blocks do not pair up with the
rounds their receivers have left.  Refusing is always safe: the engine-run
round schedules the events the per-message loop would.  Each refusal is
counted per rank-round (a grouped or broadcast phase's: all of its rounds)
it sends to the event path.  Channels a closed form creates in plan order
rather than event order fold their busy times in channel-key order all the
same (``NetworkStats.total_channel_busy``).

Traced phases
-------------
A traced run appends a record per hop and per multiply in event order, and
numbers messages as they are sent, so a closed form must emit them where
the event path would.  Only the phases that start with multi-hop moves
park (not under cut-through routing): the aligned phase ``cannon_kernel``
declares (Cannon, Berntsen, 3DD-Cannon, DNS-Cannon, torus Cannon) and the
lifted pair 3DD and DNS (and their Cannon hybrids) declare.  Every other
phase kind is refused when it is declared.  Three rules make the hop table
exact:

* *the tracing window.*  The ranks parked at one time stay parked only
  while nothing observable happens: before an event later than that or
  not a resume, before anything is scheduled, before a message id is
  taken and before a compute record is appended, the engine releases
  them at their park time (counted under ``"per-hop tracing: traffic
  beside a parked phase"``: an aligned phase per rank-round, a lifted
  pair per rank), exactly where the event path issues their alignment
  or answers their pair ``FALLBACK``;
* *table order.*  With every rank parked (the window held) the table runs
  the whole phase, no fold: :func:`_replay` visits hops in the event
  path's ``(time, seq)`` order and appends each hop record as it reserves
  the hop, each compute record as a multiply starts, and takes each
  message's id from ``Engine._msg_seq`` as it is sent.  Every refusal is
  decided before the table runs;
* *the queue tail.*  A rank that leaves the phase (a kernel's last round,
  a lifted pair's ``_END`` with both values) runs its program next, and
  its moves contend with the phase's.  So the table is planned only up
  to the first rank that leaves and committed there; its pending events go
  on the engine's queue in table order, that rank resumes inline, and each
  later table event reserves through ``ContentionTracker.reserve_hop``
  and emits its record when it runs, each rank resuming inline as it
  leaves.  A table event that resumes a task counts as a resume for the
  window a rank that left may have opened, so the table releases that
  window before it takes a message id (what it schedules releases it
  through ``Engine._schedule``, right after a compute record).  A lifted
  pair marks its phase where each rank forks, on the tail too.  The values
  (:func:`_rotate_blocks`' over the aligned level frontier, the
  broadcasts' step tables) do not depend on timing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from functools import lru_cache
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.machine import PortModel
from repro.sim.message import copy_payload, payload_words
from repro.sim.ops import CollectivePhaseOp, ShiftPhaseOp
from repro.sim.tracing import TraceRecord
from repro.topology.hypercube import subcube_tables

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = [
    "EXCHANGE_KINDS",
    "superstep_ineligibility_reason",
    "try_advance_superstep",
    "try_advance_collective",
]


def superstep_ineligibility_reason(engine: "Engine") -> str | None:
    """Name the feature that makes every hop an event, or None (phases park).

    Checked once at engine construction; the name is for diagnostics (a
    sim-backed figure run that takes the slow path can say why).
    """
    if not engine.superstep_enabled:
        return "superstep disabled"
    if engine.faults is not None:
        return "fault plan"
    if engine.scenario is not None:
        return "heterogeneous scenario"
    if engine.max_virtual_time is not None:
        return "max_virtual_time watchdog"
    if engine.trace_enabled:  # (last: the engine parks traced aligned phases, lifted pairs)
        return "per-hop tracing"
    return None


class _Refuse(Exception):
    """Internal: abandon the closed form, fall back to the event path.
    ``args[0]`` names the reason for ``RunResult.closed_form_refusals``."""


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


# -- the recurrence ---------------------------------------------------------
#
# Both closed forms seed a plan from the tracker, fold its rows in order and
# commit it once the whole phase planned.  A plan has channel columns and
# node columns (clocks, send ports, message counts), indexed by position.


def _seed(engine: "Engine", keys: list, uses: np.ndarray, nodes) -> dict:
    """A plan for sends over the channels ``keys`` (``(u, v)``, reserved
    ``uses`` times each) from the nodes ``nodes``, seeded from the live
    tracker.  Reads only.

    Channels are created lazily and ``channels_used`` counts every created
    one, so planning must not create a channel a refused attempt would not
    have touched: one not created yet seeds as idle, id -1, and gets its
    slot in :func:`_commit`.
    """
    tracker = engine.tracker
    ids = tracker._channel_ids
    cid = np.array([ids[key] if key in ids else -1 for key in keys], dtype=np.intp)
    plan = {
        "hop": (engine._t_s, engine._t_w),
        "keys": keys, "cid": cid, "uses": uses,
        "chan_free": np.where(cid >= 0, tracker._free[cid], 0.0),
        "chan_busy": np.where(cid >= 0, tracker._busy[cid], 0.0),
        "nodes": nodes,
        # messages out, words out, messages in, words in — per node column
        "stats": np.zeros((4, len(nodes)), dtype=np.int64),
        "ports": None,
    }
    if engine.config.port_model is PortModel.ONE_PORT:
        pid = np.asarray(nodes, dtype=np.intp)  # node u's send port: slot u
        plan["ports"] = {
            "pid": pid,
            "free": tracker._free[pid],
            "busy": tracker._busy[pid],
            "sends": np.zeros(len(nodes), dtype=np.int64),
        }
    return plan


def _fold_row(plan, Tn, ready, src, dst, chan, w) -> None:
    """Fold one row of sends through the recurrence (module docstring):
    node column ``src[i]`` sends ``w`` words (an int or one per send) over
    channel column ``chan[i]`` to ``dst[i]``, ready at ``ready[i]``, and the
    clocks ``Tn`` take each send's end at both of its nodes.  No channel,
    port or receiving node twice in one row."""
    t_s, t_w = plan["hop"]
    chan_free, ports = plan["chan_free"], plan["ports"]
    s = np.maximum(ready, chan_free[chan])
    if ports is not None:
        s = np.maximum(s, ports["free"][src])
    dur = t_s + t_w * w
    e = s + dur
    chan_free[chan] = e
    plan["chan_busy"][chan] += dur
    if ports is not None:
        ports["free"][src] = e
        ports["busy"][src] += dur
        ports["sends"][src] += 1
    msgs_out, words_out, msgs_in, words_in = plan["stats"]
    Tn[src] = np.maximum(Tn[src], e)
    msgs_out[src] += 1
    words_out[src] += w
    Tn[dst] = np.maximum(Tn[dst], e)
    msgs_in[dst] += 1
    words_in[dst] += w


def _fold_steps(plan, T, steps) -> np.ndarray:
    """Fold ``steps`` one after another (a step: rows ``(src, dst, chan,
    w)``, every send ready at the clock the step starts from); returns the
    clocks after the last."""
    for step in steps:
        Tn = T.copy()
        for src, dst, chan, w in step:
            _fold_row(plan, Tn, T[src], src, dst, chan, w)
        T = Tn
    return T


def _commit(engine: "Engine", plan: dict) -> None:
    """Write a planned phase's reservations and counters to the engine."""
    tracker = engine.tracker
    cid = plan["cid"]
    # Create the channels first used here in one batch (allocation may grow
    # the columns and rebind the arrays, so resolve every slot before
    # writing), then scatter the phase's channel state in three writes.
    new = np.nonzero(cid < 0)[0]
    if len(new):
        keys = plan["keys"]
        cid[new] = tracker._new_channel_slots([keys[i] for i in new.tolist()])
    tracker._free[cid] = plan["chan_free"]
    tracker._busy[cid] = plan["chan_busy"]
    tracker._nres[cid] += plan["uses"]
    ports = plan["ports"]
    if ports is not None:  # idle ports get their seeds back, unchanged
        pid = ports["pid"]
        tracker._free[pid] = ports["free"]
        tracker._busy[pid] = ports["busy"]
        tracker._nres[pid] += ports["sends"]
    stats = engine.stats
    for u, ms, ws, mr, wr in zip(plan["nodes"], *plan["stats"].tolist()):
        st = stats[u]
        st.messages_sent += ms
        st.words_sent += ws
        st.messages_received += mr
        st.words_received += wr


_OUTSIDE = "shift phase: ranks outside the phase, or traffic in flight"
_DIFFER = "shift phase: ranks differ in tags or blocks"
_NOT_PERMUTATIONS = "shift phase: shifts are not matched permutations on two tags"


def _shift_peers(engine: "Engine", ranks: list, ops) -> tuple | None:
    """The round shifts' senders as indices into ``ranks``, or ``None``
    unless both are neighbour permutations on two tags."""
    if ops[ranks[0]].tag_a == ops[ranks[0]].tag_b:
        return None
    cube = engine.config.cube
    index = {r: i for i, r in enumerate(ranks)}
    seen_a, seen_b = set(), set()
    for r in ranks:
        ta, tb = ops[r].a_to, ops[r].b_to
        # (the receiver must expect exactly this sender on this tag)
        if (
            ta == r or tb == r or ta == tb or ta not in index or tb not in index
            or not (cube.are_neighbors(r, ta) and cube.are_neighbors(r, tb))
            or ops[ta].a_from != r or ops[tb].b_from != r
        ):
            return None
        seen_a.add(ta)
        seen_b.add(tb)
    if len(seen_a) != len(ranks) or len(seen_b) != len(ranks):
        return None  # not a permutation
    return [index[ops[r].a_from] for r in ranks], [index[ops[r].b_from] for r in ranks]


def _frontier(engine: "Engine", parked: dict) -> tuple:
    """Validate a quiet frontier of resident shift phases; returns the
    ``(spec, plan)`` :func:`_advance` finishes, or refuses.

    ``parked`` maps task -> (op, park time); the mid-round ranks are the
    ``"shift"`` waiters in ``engine._blocked``.  Nothing is mutated, and
    all checks are conservative: any doubt means another round through the
    event machinery, never a wrong fast answer.
    """
    waiting = engine._blocked
    active = engine.config.num_nodes - len(engine.done) - len(engine.failed)
    if engine._parallel or engine._barrier_waiting or len(parked) + len(waiting) != active:
        raise _Refuse(_OUTSIDE)
    # Sub-tasks never park (the engine answers them FALLBACK), so
    # every key below is a rank.
    ops = {task: op for task, (op, _at) in parked.items()}
    for task, waiter in waiting.items():
        if waiter.mode != "shift" or waiter.op.align is not None:
            raise _Refuse(_OUTSIDE)
        ops[task] = waiter.op
    ranks = sorted(ops)
    n_ranks = len(ranks)
    first: ShiftPhaseOp = ops[ranks[0]]
    tag_a, tag_b = first.tag_a, first.tag_b
    a_shape, b_shape = first.a_block.shape, first.b_block.shape
    if a_shape[1] != b_shape[0]:
        raise _Refuse(_DIFFER)
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
            raise _Refuse(_DIFFER)
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
        peers = _shift_peers(engine, ranks, ops)
        if peers is None:
            raise _Refuse(_NOT_PERMUTATIONS)
        a_from_idx, b_from_idx = peers
    for i, r in enumerate(ranks):
        op = ops[r]
        qa, qb = queue_a[i], queue_b[i]
        pending = []
        if r in parked:
            at[i] = parked[r][1]
        else:
            send_a, recv_a, send_b, recv_b = waiting[r].handles
            if not (send_a.done and send_b.done):
                raise _Refuse(_OUTSIDE)
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
            raise _Refuse(_OUTSIDE)
        for arrival, msg in engine._mailbox[r]:
            if msg.src == op.a_from and msg.tag == tag_a:
                qa.append((arrival, msg.data))
            elif msg.src == op.b_from and msg.tag == tag_b:
                qb.append((arrival, msg.data))
            else:
                raise _Refuse(_OUTSIDE)
        for queue, shape in ((qa, a_shape), (qb, b_shape)):
            for _arrival, block in queue:
                if np.shape(block) != shape:
                    raise _Refuse(_DIFFER)
    if a_from_idx is not None:
        # Every block a rank still has to receive is either queued at it
        # or still to be sent by its neighbour, FIFO per (src, tag): the
        # pairing by rounds-left that the recurrence relies on.
        for i in range(n_ranks):
            for queue, frm in ((queue_a, a_from_idx), (queue_b, b_from_idx)):
                j = frm[i]
                if left[i] - len(queue[i]) != left[j] - sent[j]:
                    raise _Refuse("shift phase: queued blocks do not pair with the rounds left")
    ops = [ops[r] for r in ranks]
    # Plan columns: the A then the B channels of the ranks that send at
    # least once (so channels_used matches the event path).
    senders = [i for i in range(n_ranks) if left[i] - sent[i] > 1]
    keys = [(ranks[i], getattr(ops[i], to)) for to in ("a_to", "b_to") for i in senders]
    return {
        "ranks": ranks, "ops": ops, "left": left, "sent": sent, "at": at,
        "rounds": [left[i] - sent[i] for i in range(n_ranks)],
        "senders": senders, "taken_a": taken_a, "taken_b": taken_b,
        "arrive_a": [[arrival for arrival, _ in q] for q in queue_a],
        "arrive_b": [[arrival for arrival, _ in q] for q in queue_b],
        "a_from_idx": a_from_idx, "b_from_idx": b_from_idx,
        "a_shape": a_shape, "b_shape": b_shape,
        "data": {  # the values (see _rotate_blocks)
            "left": left, "sent": sent,
            "queue_a": [[block for _, block in q] for q in queue_a],
            "queue_b": [[block for _, block in q] for q in queue_b],
            "blocks": [[getattr(op, k) for op in ops]
                       for k in ("a_block", "b_block", "c_block")],
        },
    }, _seed(engine, keys, np.zeros(len(keys), dtype=np.int64), ranks)


def _rank_channels(engine: "Engine", uses: np.ndarray) -> tuple:
    """A plan over the channels ``rank -> rank ^ (1 << k)`` that ``uses``
    (``[rank, k]``: reservations) names, and each one's plan column
    (``[rank, k]``, -1 unused): rank-major."""
    n, dim = uses.shape
    used = np.flatnonzero(uses)
    col = np.full(n * dim, -1, dtype=np.intp)
    col[used] = np.arange(len(used))
    nodes, dims = np.divmod(used, dim)
    plan = _seed(
        engine, list(zip(nodes.tolist(), (nodes ^ (1 << dims)).tolist())),
        uses.ravel()[used], range(n),
    )
    return col.reshape(n, dim), plan


def _grouped(engine: "Engine", parked: dict) -> tuple:
    """Validate a parked grouped phase (every rank in it, the network quiet)
    and state its rows; returns the ``(spec, plan)`` :func:`_advance` folds,
    or refuses.  Every move is one hop to a cube neighbour that moves the
    other way at the same point: an alignment step's, the same step of its
    partner's; a round's, the same round's on the same tag (every rank has
    the same ``dims``)."""
    n, dim = engine.config.num_nodes, engine.config.dimension
    if len(parked) != n or not _all_parked_and_quiet(engine, parked):
        raise _Refuse("grouped shift: ranks outside the phase, or traffic in flight")
    ops = [parked[r][0] for r in range(n)]
    first = ops[0]
    form = attrgetter("steps", "tag_a", "tag_b", "tags", "phase", "a_block.shape", "b_block.shape")
    key, rounds, n_swaps = form(first), first.dims, len(first.swaps)
    if any(
        (op.dims is not rounds and op.dims != rounds) or form(op) != key
        or len(op.swaps) != n_swaps for op in ops
    ):
        raise _Refuse("grouped shift: ranks differ in steps, rounds, tags or blocks")
    tags = first.tags
    if first.tag_a == first.tag_b or len(set(tags)) != len(tags) or any(
        len(ks) != len(tags) or not all(0 <= k < dim for k in ks) for ks in rounds
    ):
        raise _Refuse("grouped shift: rounds are not exchanges on distinct tags")
    # Per alignment step, the dimensions each rank's A and B cross (-1: none).
    moves = np.array(
        [[-1 if k is None else k for step in op.swaps for k in step] for op in ops],
        dtype=np.intp,
    ).reshape(n, 2 * n_swaps)
    if ((moves < -1) | (moves >= dim)).any():
        raise _Refuse("grouped shift: an alignment move is not an exchange")
    movers = []  # per step, A's then B's: (ranks moving, their partners, dims)
    for c, m in enumerate(moves.T):
        src = np.flatnonzero(m >= 0)
        dst = src ^ (1 << m[src])
        if (moves[dst, c] != m[src]).any():
            raise _Refuse("grouped shift: an alignment move is not an exchange")
        movers.append((src, dst, m[src]))
    # Every round's dimensions and every alignment move, that many times.
    uses = np.zeros((n, dim), dtype=np.int64)
    uses += np.bincount([k for ks in rounds for k in ks], minlength=dim)
    for src, _dst, k in movers:
        uses[src, k] += 1
    col, plan = _rank_channels(engine, uses)

    steps, a_shape, b_shape = first.steps, key[5], key[6]
    widths = _trees()[1].chunk_sizes(a_shape[1], len(tags) // 2)
    words = [w for width in widths for w in (a_shape[0] * width, width * b_shape[1])]
    peer = [np.arange(n) ^ (1 << k) for k in range(dim)]
    cols = [np.ascontiguousarray(col[:, k]) for k in range(dim)]
    whole = (a_shape[0] * a_shape[1], b_shape[0] * b_shape[1])
    return {
        "ranks": list(range(n)), "left": [steps] * n, "sent": [False] * n,
        "rounds": [steps] * n, "at": [parked[r][1] for r in range(n)],
        "a_shape": a_shape, "b_shape": b_shape, "widths": widths,
        "rows": [  # per round, every rank sending
            [(peer[k], cols[k], w) for k, w in zip(ks, words)] for ks in rounds
        ],
        "swaps": [  # per step, A's row then B's
            [(src, dst, col[src, k], w) for (src, dst, k), w in zip(pair, whole)]
            for pair in zip(movers[0::2], movers[1::2])
        ],
        "phase": first.phase,
        "data": {"rounds": rounds, "blocks": (
            [op.a_block for op in ops], [op.b_block for op in ops], [None] * n,
        )},
    }, plan


def _broadcasting(engine: "Engine", parked: dict) -> tuple:
    """Validate a parked broadcast phase (every rank in it, the network
    quiet) and state its rows; returns the ``(spec, plan)`` :func:`_advance`
    folds, or refuses.  A stage is every row's broadcast from the root its
    members name — the rounds of :func:`_broadcast_table`, each row a
    subcube over the same dimensions — then B's roll: one hop to ``b_to``,
    across a dimension no row spans, to the rank whose ``b_from`` names the
    sender."""
    n, dim = engine.config.num_nodes, engine.config.dimension
    if len(parked) != n or not _all_parked_and_quiet(engine, parked):
        raise _Refuse("broadcast shift: ranks outside the phase, or traffic in flight")
    ops = [parked[r][0] for r in range(n)]
    form = attrgetter("steps", "tag_a", "tag_b", "row.free_dims", "a_block.shape", "b_block.shape")
    key = form(ops[0])
    declared: dict = {}  # (members, roots) -> {comm rank: rank}
    for r, op in enumerate(ops):
        if op.row is None or form(op) != key:
            raise _Refuse("broadcast shift: ranks differ in steps, tags, rows or blocks")
        declared.setdefault((op.row.members, op.roots), {})[op.row.rank] = r
    steps, free_dims, a_shape, b_shape = key[0], key[3], key[4], key[5]
    sub = np.zeros(n, dtype=np.intp)  # each rank's subcube index in its row
    roots = np.zeros((steps, n), dtype=np.intp)  # per stage, each rank's root
    for (members, row_roots), ranks in declared.items():
        tables = subcube_tables(members, free_dims)
        if (
            tables is None or ranks != dict(enumerate(members))
            or len(row_roots) != steps or min(row_roots) < 0
            or max(row_roots) >= len(members)
        ):
            raise _Refuse("broadcast shift: a row is not a subcube its members declare alike")
        ids = tables[4]
        sub[ids] = tables[0]
        roots[:, ids] = ids[list(row_roots)][:, None]
    everyone = np.arange(n)
    uses = np.zeros((n, dim), dtype=np.int64)
    b_to = b_from = b_dim = None
    if steps > 1:
        b_to = np.array([op.b_to for op in ops], dtype=np.intp)
        b_from = np.array([op.b_from for op in ops], dtype=np.intp)
        hop = b_to ^ everyone
        spanned = sum(1 << k for k in free_dims)
        if (
            (hop <= 0) | (hop & (hop - 1) != 0) | (hop & spanned != 0)
            | (b_from[b_to] != everyone)
        ).any():
            raise _Refuse("broadcast shift: the roll is not a neighbour permutation across rows")
        b_dim = np.log2(hop).astype(np.intp)
        uses[everyone, b_dim] = steps - 1
    # A rank sends in a round and tree of a stage when its index relative
    # to that stage's root is one of the tree's senders (``hit``).
    rel = sub ^ sub[roots]
    table = []
    chunked = engine.config.port_model is not PortModel.ONE_PORT
    a_block = ops[0].a_block
    words = a_block.size if chunked else payload_words(a_block)
    for row in _broadcast_table(len(free_dims), chunked, words) if free_dims else ():
        table.append([])
        for senders, k, w in row:
            hit = np.zeros(1 << len(free_dims), dtype=bool)
            hit[senders] = True
            uses[:, free_dims[k]] += hit[rel].sum(axis=0)
            table[-1].append((hit, free_dims[k], w))
    col, plan = _rank_channels(engine, uses)

    def stages():  # per stage, its broadcast's rounds of rows, as folded
        for s in range(steps):
            rounds = []
            for row in table:
                rows = []
                for hit, k, w in row:
                    src = np.flatnonzero(hit[rel[s]])
                    rows.append((src, src ^ (1 << k), col[src, k], w))
                rounds.append(rows)
            yield rounds

    b_row = [] if b_to is None else [(b_to, col[everyone, b_dim], b_shape[0] * b_shape[1])]
    return {
        "ranks": list(range(n)), "left": [steps] * n, "sent": [False] * n,
        "rounds": [steps] * n, "at": [parked[r][1] for r in range(n)],
        "a_shape": a_shape, "b_shape": b_shape,
        "stages": stages(), "rows": [b_row] * (steps - 1),
        "data": {"roots": roots, "b_from": b_from, "blocks": (
            [op.a_block for op in ops], [op.b_block for op in ops], [None] * n,
        )},
    }, plan


# -- the hop table ------------------------------------------------------------
#
# A phase whose first moves are multi-hop — Cannon's skew parked before its
# shift rounds, a lift parked before the broadcast pair it feeds — contends
# for channels (and, one-port, the forwarding nodes' ports) in the event
# path's (time, seq) order.  Sequence numbers grow in scheduling order, so
# the table keeps one FIFO list per time, appends each event it schedules to
# its time's list (the time being processed included) and processes the
# earliest list front to back: that *is* (time, seq) order, and every hop is
# reserved, through the recurrence's ``max``, where the event path reserves
# it.  The parks come first, in park order (their resumes were scheduled
# first).
#
# A task runs a *script*, ops issued inline until it blocks, as the generator
# it stands for yields them: ``_SEND`` injects a message (hop 0 ready at
# once; a self-send is delivered on the spot), ``_RECV`` takes a queued
# message or posts the receive, ``_WAIT`` blocks until every handle is done,
# ``_ELAPSE`` computes, ``_FORK`` starts ``ctx.parallel``'s sub-tasks and
# ``_END`` finishes (the last sub-task to finish resumes its parent).  A
# hop's end completes its send's handle (hop 0), then readies the next hop
# or delivers.  A task whose last handle completes resumes at that event's
# time (every completion it waited on is at or before it: ``_notify``'s
# time).  Receives match by key, and a phase refuses unless ``(source,
# destination, tag)`` names one message: FIFO matching then pairs them alike.
# Cannon's shift rounds loop (``_LOOP``): ``_RSEND`` / ``_RRECV`` name the
# round by the multiplies the rank has done, and the table stops at the end
# of the time that reserved the last alignment hop — every later
# reservation is a rank's own single-hop round send, which :func:`_advance`
# folds exactly from any frontier.

_RESUME, _READY, _DONE = range(3)  # (numbered as the engine's kinds of these events)
_SEND, _RECV, _WAIT, _ELAPSE, _FORK, _END, _LOOP, _RSEND, _RRECV = range(9)


def _messages(route: list, last: list, dur: list, key: list, sender: list) -> dict:
    """A message table, one column per field: per message its route
    (``(channel column, sending node)`` per hop), its last hop's index (-1:
    a self-send), hop cost, match key and sending task; the table fills in
    the ends of its first and last hops and its issue time."""
    m = [0.0] * len(route)
    return {"route": route, "last": last, "dur": dur, "key": key,
            "sender": sender, "end0": m, "arrive": list(m), "issue": list(m)}


def _replay(plan: dict, msgs: dict, scripts: list, parks, parent: list,
            kids: list, stop: tuple = (0, -1), rounds=None, traced=None):
    """Run the table over ``plan`` (its channel and port columns, reserved
    in place); returns ``{"forked", "finished"}``: task -> time, the
    finished main tasks in finishing order.  ``parks``: ``(task, time)`` in
    park order; ``stop``: ``(m, hops)``, the table stops at the end of the
    time that reserves the last of the ``hops`` hops of messages ``0 .. m -
    1`` (``(0, -1)``: it runs to the end); ``rounds``: Cannon's ``(steps,
    ((column, from, cost, (source, destination, words)) per rank) for A
    then B)``.

    A generator, so that one step body serves both ways a table runs:
    untraced it never yields (:func:`_run_table`).  ``traced``, ``(engine,
    flops, marks)``, it emits the records the event path would, as it goes
    (see "Traced phases" in the module doc), marks each task of ``marks``
    (task -> phase) where it forks, and yields at the first rank to leave
    the phase (its last round's ``_LOOP``, or its ``_END``), the table so
    far written to ``plan``; sent every rank's value there, it puts its
    pending events on the engine's queue and becomes their handler: each
    ``_TABLE`` event is sent in, reserves on the tracker, and what it
    schedules goes on the queue.
    """
    route, dur, key, sender, last = (msgs[k] for k in ("route", "dur", "key", "sender", "last"))
    end0, arrive, issue = msgs["end0"], msgs["arrive"], msgs["issue"]
    chan_free, chan_busy = plan["chan_free"].tolist(), plan["chan_busy"].tolist()
    uses = [0] * len(chan_free)
    ports = plan["ports"]
    if ports is not None:
        port_free, port_busy = ports["free"].tolist(), ports["busy"].tolist()
        port_sends = [0] * len(port_free)
    n_tasks, n_msgs = len(scripts), len(route)
    pc, handles, blocked, done = [0] * n_tasks, [0] * n_tasks, [False] * n_tasks, [0] * n_tasks
    steps, per_rank = rounds if rounds is not None else (0, None)
    stop, todo = stop
    forked, finished, box, posted = {}, {}, {}, {}
    pending: defaultdict = defaultdict(list)
    for task, at in parks:
        pending[at] += ((_RESUME, task, 0),)
    # values: every rank's value, once the tail is on the queue
    trace = values = leaving = None
    if traced is not None:
        from repro.sim.engine import _BESIDE, _TABLE

        engine, flops, marks = traced
        trace, keys, ends, mid = engine.trace, plan["keys"], msgs["ends"], {}
        reserve, schedule = engine.tracker.reserve_hop, engine._schedule
    while True:
        if values is None and leaving is None and pending and todo:
            t = min(pending)
            level = pending.pop(t)
            batch = iter(level)
        else:
            if values is None:  # the end, or a traced table's first exit
                plan["chan_free"] = np.array(chan_free)
                plan["chan_busy"] = np.array(chan_busy)
                plan["uses"] = plan["uses"] + np.array(uses, dtype=np.int64)
                if ports is not None:
                    ports["free"], ports["busy"] = np.array(port_free), np.array(port_busy)
                    ports["sends"] = ports["sends"] + port_sends
                if leaving is None:
                    return {"forked": forked, "finished": finished}
                values = yield  # (the caller commits the plan)
                engine._now = t  # (the queue goes on from the first exit)
            for at, events in pending.items():  # what the last event scheduled ...
                for event in events:
                    schedule(at, _TABLE, event)
            pending.clear()
            if leaving is not None:  # ... then the rank that left, inline
                engine._step(leaving, t, values[leaving])
                leaving = None
            batch = ((yield),)
            t = engine._now
            level = pending[t]
        for kind, a, h in batch:
            if kind == _READY:
                c, u = route[a][h]
                d = dur[a]
                if values is None:  # planned in the table's columns
                    s = t
                    if chan_free[c] > s:
                        s = chan_free[c]
                    if ports is not None and port_free[u] > s:
                        s = port_free[u]
                    e = s + d
                    chan_free[c] = e
                    chan_busy[c] += d
                    uses[c] += 1
                    if ports is not None:
                        port_free[u] = e
                        port_busy[u] += d
                        port_sends[u] += 1
                else:  # on the queue: the tracker's
                    s = reserve(u, keys[c][1], t, d)
                    e = s + d
                if trace is not None:
                    src, dst, w = ends[a]
                    trace.append(TraceRecord("hop", s, e, u, {
                        "to": keys[c][1], "msg": mid[a], "words": w, "src": src, "dst": dst}))
                if h == 0:
                    end0[a] = e
                arrive[a] = e
                if a < stop:
                    todo -= 1
                if e == t:
                    level += ((_DONE, a, h),)
                else:
                    pending[e] += ((_DONE, a, h),)
                continue
            if kind == _DONE:
                if h == 0:  # the send's handle
                    task = sender[a]
                    handles[task] -= 1
                    if blocked[task] and not handles[task]:
                        blocked[task] = False
                        level += ((_RESUME, task, 0),)
                if h < last[a]:
                    level += ((_READY, a, h + 1),)
                    continue
                k = key[a]  # delivered: to a posted receive, or queued
                if k in posted:
                    task = posted[k]
                    del posted[k]
                    handles[task] -= 1
                    if blocked[task] and not handles[task]:
                        blocked[task] = False
                        level += ((_RESUME, task, 0),)
                else:
                    box[k] = t
                continue
            task, script, j = a, scripts[a], pc[a]
            while True:
                op, arg = script[j]
                j += 1
                if op == _SEND or op == _RSEND:
                    if op == _RSEND:  # a round block: a new single-hop message
                        col, _frm, cost, end = per_rank[arg][task]
                        route += (((col, task),),)
                        dur += (cost,)
                        key += ((task, done[task], arg),)
                        sender += (task,)
                        last += (0,)
                        end0 += (t,)
                        arrive += (t,)
                        issue += (t,)
                        if trace is not None:
                            ends += (end,)
                        arg = n_msgs
                        n_msgs += 1
                    if trace is not None:
                        if engine._window is not None:  # (a resume on the tail: see
                            engine._release(_BESIDE)  # Engine._drain_events)
                        mid[arg] = engine._msg_seq
                        engine._msg_seq += 1
                    issue[arg] = t
                    if last[arg] >= 0:
                        handles[task] += 1
                        level += ((_READY, arg, 0),)
                        continue
                    # a self-send: queued now (a script receives its own
                    # messages after sending them, so none is posted yet)
                    end0[arg] = arrive[arg] = box[key[arg]] = t
                elif op == _RECV or op == _RRECV:
                    k = arg if op == _RECV else (per_rank[arg][task][1], done[task], arg)
                    if k in box:
                        del box[k]
                    else:
                        posted[k] = task
                        handles[task] += 1
                elif op == _WAIT:
                    if handles[task]:
                        blocked[task] = True
                        break
                elif op == _ELAPSE:
                    if arg > 0:
                        if trace is not None:
                            trace.append(TraceRecord("compute", t, t + arg, task, {"flops": flops}))
                        pending[t + arg] += ((_RESUME, task, 0),)
                        break
                elif op == _LOOP and done[task] + 1 < steps:  # a multiply done
                    done[task] += 1
                    j = arg
                elif op == _FORK:
                    forked[task] = t
                    if trace is not None and task in marks:  # (no traced table refuses)
                        engine._phase_marks[task].append((marks[task], t))
                    for child in arg:
                        level += ((_RESUME, child, 0),)
                    break
                elif op == _END and parent[task] >= 0:  # the last sub-task resumes its parent
                    kids[parent[task]] -= 1
                    if not kids[parent[task]]:
                        level += ((_RESUME, parent[task], 0),)
                    break
                else:  # a main task's _END, or its last round's _LOOP: it leaves
                    finished[task] = t
                    if trace is not None:  # resumed at once
                        leaving = task
                        if values is None:  # the first to: the rest of this
                            pending[t] = list(batch)  # time goes on the queue too
                    break
            pc[task] = j


def _run_table(*args, **kwargs) -> dict:
    """:func:`_replay` run to its end; returns its ``{"forked", "finished"}``."""
    try:
        next(_replay(*args, **kwargs))
    except StopIteration as end:
        return end.value
    raise AssertionError("an untraced table never yields")  # pragma: no cover


def _hop_table(engine: "Engine", parked: dict) -> tuple:
    """Plan a parked alignment and the rounds it overlaps (reads only);
    returns the ``(spec, plan)`` :func:`_advance` finishes, or refuses."""
    n = engine.config.num_nodes
    if len(parked) != n or not _all_parked_and_quiet(engine, parked):
        raise _Refuse("aligned shift: ranks outside the phase, or traffic in flight")
    ranks = list(range(n))  # (every key is a rank: none is a sub-task)
    ops, at = [parked[r][0] for r in ranks], [parked[r][1] for r in ranks]
    first = ops[0]
    steps, a_shape, b_shape = first.steps, first.a_block.shape, first.b_block.shape
    form = attrgetter("steps", "tag_a", "tag_b", "a_block.shape", "b_block.shape")
    if any(op.align is None or form(op) != form(first) for op in ops):
        raise _Refuse("aligned shift: ranks differ in alignment, steps, tags or blocks")
    align = [op.align for op in ops]
    peers = _shift_peers(engine, ranks, ops) if steps > 1 else (None, None)
    if first.tag_a == first.tag_b or peers is None or any(
        align[a][1] != r or align[b][3] != r for r, (a, _, b, _) in enumerate(align)
    ):
        raise _Refuse("aligned shift: shifts are not matched permutations on two tags")
    m_a, m_b = first.a_block.size, first.b_block.size
    t_s, t_w = engine._t_s, engine._t_w
    if t_s + t_w * min(m_a, m_b) <= 0:
        raise _Refuse("aligned shift: zero-length hop")
    flops = 2.0 * a_shape[0] * a_shape[1] * b_shape[1]
    d_c = engine.config.params.flops_time(flops)

    # Message 2r is rank r's alignment A, 2r + 1 its B (keyed by id); round
    # blocks are added as they are sent.  Channel columns: the ranks' round
    # A channels, their round B channels, then the alignment routes' others.
    cost = (t_s + t_w * m_a, t_s + t_w * m_b)
    rounds = [(r, op.a_to) for r, op in enumerate(ops)]
    rounds += [(r, op.b_to) for r, op in enumerate(ops)]
    col = {key: c for c, key in enumerate(rounds if steps > 1 else ())}
    route, last, todo = [], [], 0
    for m in range(2 * n):
        hops, r, to = (), m >> 1, align[m >> 1][2 * (m & 1)]
        for hop in () if to == r else engine.routes.healthy(r, to):
            if hop not in col:
                col[hop] = len(col)
            hops += ((col[hop], hop[0]),)
            todo += 1
        route += (hops,)
        last += (len(hops) - 1,)
    msgs = _messages(route, last, [cost[0], cost[1]] * n, list(range(2 * n)),
                     [m >> 1 for m in range(2 * n)])
    wait = (_WAIT, 0)
    body = [(_RSEND, 0), (_RRECV, 0), (_RSEND, 1), (_RRECV, 1), wait, (_ELAPSE, d_c), (_LOOP, 7)]
    scripts = [
        [(_SEND, 2 * r), (_RECV, 2 * a), (_SEND, 2 * r + 1), (_RECV, 2 * b + 1), wait,
         (_ELAPSE, d_c), (_LOOP, 7)] + body
        for r, (_, a, _, b) in enumerate(align)
    ]
    froms = ([op.a_from for op in ops], [op.b_from for op in ops])
    tos, words = ([op.a_to for op in ops], [op.b_to for op in ops]), (m_a, m_b)
    per_rank = tuple([(ab * n + r, froms[ab][r], cost[ab], (r, tos[ab][r], words[ab]))
                      for r in ranks] for ab in (0, 1))
    plan = _seed(engine, list(col), np.zeros(len(col), dtype=np.int64), range(n))
    parks = [(task, at[task]) for task in parked]
    data = {  # the values: from the aligned level frontier
        "left": [steps] * n, "sent": [False] * n,
        "queue_a": [[] for _ in ranks], "queue_b": [[] for _ in ranks],
        "blocks": ([ops[a].a_block for _d, a, _e, _f in align],
                   [ops[b].b_block for _d, _a, _e, b in align], [None] * n),
    }
    if engine.trace_enabled:  # the whole phase through the table
        msgs["ends"] = [(m >> 1, align[m >> 1][2 * (m & 1)], words[m & 1]) for m in range(2 * n)]
        table = _replay(plan, msgs, scripts, parks, [-1] * n, [0] * n,
                        rounds=(steps, per_rank), traced=(engine, flops, {}))
        next(table)  # to the first rank that leaves it
        plan["stats"] += steps * np.array([[2], [m_a + m_b], [2], [m_a + m_b]])
        return {  # (every multiply charged, none left to fold)
            "table": table, "ranks": ranks, "left": [1] * n, "sent": [False] * n, "at": at,
            "rounds": [steps] * n, "a_from_idx": peers[0], "b_from_idx": peers[1],
            "a_shape": a_shape, "b_shape": b_shape, "data": data,
        }, plan
    _run_table(plan, msgs, scripts, parks, [-1] * n, [0] * n,
               stop=(2 * n, todo), rounds=(steps, per_rank))

    # per rank: rounds sent, the last one's issue time and A, B ends, and
    # the round blocks reserved to it, oldest first
    end0, arrive = msgs["end0"], msgs["arrive"]
    sent, issue, end = [0] * n, [0.0] * n, ([0.0] * n, [0.0] * n)
    inbound = ([[] for _ in ranks], [[] for _ in ranks])
    for m in range(2 * n, len(msgs["key"])):
        r, k, ab = msgs["key"][m]
        inbound[ab][tos[ab][r]] += (arrive[m],)
        sent[r], issue[r] = k, msgs["issue"][m]
        end[ab][r] = arrive[m]
    # Every message counted at both ends, the queued ones too ...
    sends = 1 + np.array(sent)
    got_a, got_b = (np.array([len(q) for q in box]) for box in inbound)
    plan["stats"] += [2 * sends, (m_a + m_b) * sends, 2 + got_a + got_b,
                      m_a * (1 + got_a) + m_b * (1 + got_b)]
    # ... and the frontier the round loop takes over (see _frontier)
    clock, rounds_left, mid = [0.0] * n, [steps] * n, [False] * n
    for r in ranks:
        j, qa, qb = sent[r], inbound[0][r], inbound[1][r]
        if j == 0:  # in its alignment: it completes then
            clock[r] = max(at[r], end0[2 * r], end0[2 * r + 1],
                           arrive[2 * align[r][1]], arrive[2 * align[r][3] + 1])
        else:  # round j sent: mid-round, or past it once both blocks are in
            clock[r] = max(issue[r], end[0][r], end[1][r])
            mid[r] = len(qa) < j or len(qb) < j
            if not mid[r]:
                clock[r] = max(clock[r], qa[j - 1], qb[j - 1])
            rounds_left[r] = steps - j + mid[r]
            inbound[0][r], inbound[1][r] = qa[j - mid[r]:], qb[j - mid[r]:]
    return {
        "ranks": ranks, "ops": ops, "left": rounds_left, "sent": mid, "at": clock,
        "rounds": [steps] * n, "senders": ranks if steps > 1 else [],
        "taken_a": list(map(len, inbound[0])), "taken_b": list(map(len, inbound[1])),
        "arrive_a": inbound[0], "arrive_b": inbound[1],
        "a_from_idx": peers[0], "b_from_idx": peers[1],
        "a_shape": a_shape, "b_shape": b_shape, "data": data,
    }, plan


def _rotate_blocks(spec: dict) -> tuple[list, list, list]:
    """The data plane of :func:`_advance`: rotate the blocks and accumulate
    the same products in the same per-rank order the event path would
    have, so ``C`` comes out bitwise equal."""
    if "swaps" in spec:
        return _rotate_groups(spec)
    if "stages" in spec:
        return _rotate_stages(spec)
    data, a_from_idx, b_from_idx = spec["data"], spec["a_from_idx"], spec["b_from_idx"]
    left, sent = list(data["left"]), list(data["sent"])
    queue_a = [list(q) for q in data["queue_a"]]
    queue_b = [list(q) for q in data["queue_b"]]
    # Each rank keeps adding into the accumulator its event-path rounds
    # left it, so the float accumulation order is bitwise unchanged.
    a_blocks, b_blocks, c_blocks = map(list, data["blocks"])
    n_ranks = len(left)

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


def _rotate_groups(spec: dict) -> tuple[list, list, list]:
    """:func:`_rotate_blocks` for a grouped phase: the alignment's
    exchanges, the split, then per round every rank's ``C += Aˡ·Bˡ`` in
    group order and every group's exchange."""
    data = spec["data"]
    a_blocks, b_blocks, _c = map(list, data["blocks"])
    for step in spec["swaps"]:
        for blocks, (src, dst, _col, _w) in zip((a_blocks, b_blocks), step):
            moved = [blocks[j] for j in dst.tolist()]
            for i, block in zip(src.tolist(), moved):
                blocks[i] = block
    groups = []  # per block of (A⁰, B⁰, A¹, ...), every rank's
    for cut in _trees()[1].chunk_slices(spec["a_shape"][1], len(spec["widths"])):
        groups.append([np.ascontiguousarray(a[:, cut]) for a in a_blocks])
        groups.append([np.ascontiguousarray(b[cut, :]) for b in b_blocks])
    c_blocks = [np.zeros((a.shape[0], b.shape[1])) for a, b in zip(a_blocks, b_blocks)]
    n_ranks, rounds = len(c_blocks), data["rounds"]
    for t in range(len(rounds) + 1):
        for i, c in enumerate(c_blocks):
            for a, b in zip(groups[0::2], groups[1::2]):
                c += a[i] @ b[i]
        if t < len(rounds):
            groups = [
                [blocks[i ^ (1 << k)] for i in range(n_ranks)]
                for blocks, k in zip(groups, rounds[t])
            ]
    return (
        [list(x) for x in zip(*groups[0::2])],
        [list(x) for x in zip(*groups[1::2])],
        c_blocks,
    )


def _rotate_stages(spec: dict) -> tuple[list, list, list]:
    """:func:`_rotate_blocks` for a broadcast phase: per stage every rank's
    ``C (+)= A·B`` with its stage root's resident ``A``, then B's roll."""
    data = spec["data"]
    a_blocks, b_blocks, c_blocks = map(list, data["blocks"])
    roots, b_from = data["roots"].tolist(), data["b_from"]
    b_from = None if b_from is None else b_from.tolist()
    for s, stage in enumerate(roots):
        for i, r in enumerate(stage):
            if s:
                c_blocks[i] += a_blocks[r] @ b_blocks[i]
            else:
                c_blocks[i] = a_blocks[r] @ b_blocks[i]
        if s < len(roots) - 1:
            b_blocks = [b_blocks[j] for j in b_from]
    return a_blocks, b_blocks, c_blocks


def try_advance_superstep(engine: "Engine", parked: dict) -> dict | tuple | str:
    """Advance the resident shift phases from a quiet frontier, in closed form.

    ``parked`` is ``engine._parked``.  Returns ``{task: (finish_time,
    (a, b, c))}`` (traced: ``(table, {task: (a, b, c)})``, see "Traced
    phases") for every rank of the phase on success — and then the
    engine's mailboxes, posted receives and mid-round waiters of the phase
    are consumed — or, with nothing touched, the reason the frontier is not
    eligible (the caller then runs one more round through the events,
    issues the alignment, or hands a grouped or broadcast phase back to its
    loop).
    """
    plan_from = _frontier
    for op, _at in parked.values():
        if op.dims is not None:
            plan_from = _grouped
            break
        if op.row is not None:
            plan_from = _broadcasting
            break
        if op.align is not None:
            plan_from = _hop_table
    try:
        spec, plan = plan_from(engine, parked)
    except _Refuse as refusal:
        return refusal.args[0]
    outcome = _advance(engine, spec, plan)
    if "table" in spec:  # traced: it resumes each rank as it leaves
        return spec["table"], {r: blocks for r, (_finish, blocks) in outcome.items()}
    return outcome


def _advance(engine: "Engine", spec: dict, plan: dict) -> dict:
    """Fold the rounds left from the frontier ``spec`` through ``plan`` and
    commit the phase.  One block pair on fixed peers: ``plan``'s first
    columns are the round channels of ``spec["senders"]``, A then B.  A
    grouped phase (:func:`_grouped`) states its rows itself: its alignment
    steps' (``swaps``) and each round's (``rows``); so does a broadcast
    phase (:func:`_broadcasting`): each round's (``rows``) and, before each
    multiply, its stage's broadcast steps (the next of ``stages``)."""
    ranks: list[int] = spec["ranks"]
    n_ranks = len(ranks)
    a_rows, a_cols = spec["a_shape"]
    b_rows, b_cols = spec["b_shape"]
    m_a = a_rows * a_cols
    m_b = b_rows * b_cols
    # A multiply per block group, in group order (one pair: one group).
    flops_time = engine.config.params.flops_time
    flops = [2.0 * a_rows * w * b_cols for w in spec.get("widths", (a_cols,))]
    d_c = [flops_time(f) for f in flops]
    stages = spec.get("stages")

    left = np.array(spec["left"], dtype=np.int64)
    sent = np.array(spec["sent"], dtype=bool)
    # Multiplies and shift rounds each rank runs here (a mid-round rank has
    # already done its current round's multiply and sends); the phase's
    # multiplies not yet charged (``rounds``: the hop table's too).
    multiplies = left - sent
    shifts = multiplies - 1
    charged = np.array(spec["rounds"], dtype=np.int64)
    T = np.array(spec["at"], dtype=np.float64)
    stats = engine.stats
    # Per-step stat folds replicate the event path's float accumulation
    # order: each rank adds the same scalars once per multiply step.
    flops_acc = np.array([stats[r].flops for r in ranks], dtype=np.float64)
    compute_acc = np.array([stats[r].compute_time for r in ranks], dtype=np.float64)
    for k in range(int(charged.max()), 0, -1):
        todo = charged >= k
        for f, d in zip(flops, d_c):
            np.add(flops_acc, f, out=flops_acc, where=todo)
            np.add(compute_acc, d, out=compute_acc, where=todo)

    # A grouped phase's alignment: per step A's exchanges, then B's; its
    # phase is marked where each rank's ends.
    T = _fold_steps(plan, T, spec.get("swaps", ()))
    marks = ()
    if spec.get("phase") is not None:
        marks = [(r, spec["phase"], at) for r, at in zip(ranks, T.tolist())]

    top = int(left.max())
    if top > 1:
        rows, queues = spec.get("rows"), ()
        if rows is None:
            senders = spec["senders"]
            col_a = np.zeros(n_ranks, dtype=np.intp)
            col_a[senders] = np.arange(len(senders))
            col_b = col_a + len(senders)
            plan["uses"][:2 * len(senders)] += np.concatenate([shifts[senders]] * 2)
            a_from_idx = np.array(spec["a_from_idx"], dtype=np.intp)
            b_from_idx = np.array(spec["b_from_idx"], dtype=np.intp)
            # the shifts are permutations: inverting "from" gives "to"
            a_to_idx, b_to_idx = np.argsort(a_from_idx), np.argsort(b_from_idx)
            queues = [
                (a_from_idx, [list(q) for q in spec["arrive_a"]]),
                (b_from_idx, [list(q) for q in spec["arrive_b"]]),
            ]
        # Round k is the one a rank runs with k rounds left: it sends unless
        # it has fewer left, or is mid-round in it.  Ranks behind the
        # frontier run it while the others wait.
        for k in range(top, 1, -1):
            if stages is not None:
                T = _fold_steps(plan, T, next(stages))
            send = multiplies >= k
            src = np.flatnonzero(send)
            ready = T[src]
            for d in d_c:  # this round's multiplies, then its injections
                ready = ready + d
            Tn = T.copy()
            if rows is None:
                _fold_row(plan, Tn, ready, src, a_to_idx[src], col_a[src], m_a)
                _fold_row(plan, Tn, ready, src, b_to_idx[src], col_b[src], m_b)
            else:  # (every rank of a grouped or broadcast phase is in every round)
                for dst, col, w in rows[top - k]:
                    _fold_row(plan, Tn, ready, src, dst, col, w)
            # a block whose sender ran this round earlier is queued already
            for frm, arrivals in queues:
                for i in np.flatnonzero((left >= k) & ~send[frm]).tolist():
                    Tn[i] = max(Tn[i], arrivals[i].pop(0))
            T = Tn
        if queues:
            # A receive is counted when it is matched: here the blocks
            # queued at a rank, but not those already counted (``taken``).
            msgs_in, words_in = plan["stats"][2:]
            for queue, taken, m in (
                (spec["arrive_a"], spec["taken_a"], m_a),
                (spec["arrive_b"], spec["taken_b"], m_b),
            ):
                unmatched = np.array(list(map(len, queue))) - taken
                msgs_in += unmatched
                words_in += m * unmatched
    if stages is not None:
        T = _fold_steps(plan, T, next(stages))
    for d in d_c:  # the last multiplies
        T = T + d

    # -- data plane
    if not engine.timing_only:
        a_blocks, b_blocks, c_blocks = _rotate_blocks(spec)
    else:
        # Timing-only runs never read block *values* and shapes are
        # uniform, so the rotation is a no-op: keep the entry references.
        # C becomes a zero-cost broadcast view with the product's shape,
        # mirroring what ctx.local_matmul returns in timing-only mode, so
        # downstream communication phases still see correctly-sized blocks.
        a_blocks, b_blocks, _c = spec["data"]["blocks"]
        c_blocks = [np.broadcast_to(0.0, (a_rows, b_cols))] * n_ranks

    # -- write back: tracker, statistics, and the phase's engine state
    _commit(engine, plan)
    for r, phase, at in marks:
        engine._phase_marks[r].append((phase, at))
    for r, fl, ct in zip(ranks, flops_acc.tolist(), compute_acc.tolist()):
        st = stats[r]
        st.flops = fl
        st.compute_time = ct
    # The phase's queued blocks, posted receives and mid-round waiters are
    # all consumed (the frontier check saw nothing else in them).
    for r in ranks:
        if engine._mailbox[r]:
            engine._mailbox[r].clear()
    waiting = engine._blocked
    for r in waiting:
        engine._pending_recvs[r].clear()
    waiting.clear()
    engine._shift_rounds_closed_form += int(charged.sum())

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
# before running their wire schedule (see ``repro.collectives.phase``).
# When every active rank is parked on a CollectivePhaseOp with quiet queues,
# the phase decomposes into *groups* — one per (kind, schedule,
# member-tuple, tag, root, op) — whose channels are provably disjoint.
#
# A collective group runs the paper's Table 1 schedule: ``d = log N`` rounds
# of spanning binomial trees, one tree per dimension order in ``orders``.  A
# one-port machine runs the single identity-order tree and serializes its
# sends through the node's port; a multi-port machine splits every block
# into ``d`` chunks and runs the ``d`` rotated trees at once, tree ``j``
# crossing dimension ``orders[j][t]`` in round ``t``.  What tells the kinds
# apart is their *step table* — per round, rows ``(senders, dim, words)``:
# who sends how many words across which subcube dimension — and
# ``_reserve_rounds`` folds any step table (all of a phase's, merged: see
# "merging" below) through the module's one recurrence, row by row.  A send
# across ``k`` arrives at the sender's ``k``-partner, and the new clocks
# take effect when the round ends (the schedules ``waitall`` once per
# round; a rank with nothing to do keeps its clock).
#
# The values move as stacked arrays: ``_classes`` buckets the groups whose
# block layouts agree, ``_stack`` makes a bucket one ``(groups, rows,
# length)`` array (a row: one rank's blocks back to back), and the schedule
# becomes index arithmetic over the layout, built once per layout and engine
# (``_tables``).  A round of folds, every tree of every group, is ``Y[:, R,
# C] = op(Y[:, R, C], Y[:, P, C])`` at exactly the positions ``C`` the
# schedule folds, receiver rows ``R`` first as in ``acc = op(acc,
# arrived)``, the right-hand side read before anything is written.  An
# elementwise ufunc applied at the schedule's positions, in the schedule's
# operand order, *is* the schedule's fold.  A delivery is one gather per
# rank into a buffer of its own: no returned value pins a phase buffer.
# Refused by name: a non-ufunc ``op``, blocks that are not arrays or mix
# dtypes (or an ``op`` that changes the dtype), and a destination's blocks
# that differ in shape.
#
# Fused pairs on a one-port machine.  ``parallel_pair`` runs two collectives
# as sub-tasks of one node, so both schedules' sends share that node's port.
# (A pair that declares a lift is the hop table's: "lifted pairs" below;
# its second declaration, once the lift ran on the event path, is refused on
# one port, since the lift's forwarders may still hold the pair's ports.)
# The plan folds the rounds in the order a₀ b₀ a₁ b₁ … (then the longer
# schedule's tail), the two sub-tasks keeping separate clocks, and *checks*
# that along this order each rank's ready times (the ``T`` its send is
# issued at) strictly increase after the initial a₀/b₀ tie, refusing the
# phase otherwise.  That check makes the assumed order the event path's
# order: take the earliest event time ``τ`` at which the event path could
# deviate from the plan.  Every reservation made before ``τ`` matches, and a
# send's ready time is a maximum over completions of earlier reservations
# (durations are positive), so the sends becoming ready at ``τ`` are the
# planned ones; per rank that is at most one send (strictness), or the
# a₀/b₀ pair, whose injection events fire in ``ctx.parallel`` slot order.
# It finds its port and channel exactly as the plan left them, because both
# are reserved only by this rank's own sends and the earlier ones are the
# sends with smaller ready times — so it starts when planned, and nothing
# deviates at ``τ`` either.
#
# Adding a collective: write ``_<kind>_steps(engine, groups, chunked)``
# setting every group's ``steps`` — ``steps[t]``: round ``t``'s rows
# ``(senders, dim, words)``, comm ranks, the subcube dimension each message
# crosses, word counts (an int when all senders agree, else arrays; a
# sender at most once per row, no receiver twice) — and ``values[i]``, comm
# rank ``i``'s return value, stated as a stacked array: bucket with
# ``_classes``, stack with ``_stack``, and write the schedule as fold rounds
# ``(R, C, P)`` and per-rank gathers built once through ``_tables``.
# Register it in ``_STEP_TABLES`` and ``EXCHANGE_KINDS`` / ``_ROOTED_KINDS``,
# declare ``make_spec(kind, ...)`` in its dispatch function, and add it to
# ``tests/collectives/test_closed_form.py``.
#
# Any doubt — a schedule that does not match the port model, malformed
# groups, foreign traffic, an unprovable port order, any exception while
# planning — refuses under a named reason (``closed_form_refusals``) and
# releases every parked rank with ``FALLBACK``.  Planning mutates
# nothing: the tracker and stats are written once the whole phase planned.

#: dimension-exchange kinds: every rank sends in every round
EXCHANGE_KINDS = frozenset({"allgather", "alltoall", "reduce_scatter"})
_ROOTED_KINDS = frozenset({"broadcast", "reduce"})


class _CollGroup:
    """One collective operation instance: a member set running one schedule."""

    __slots__ = (
        "kind", "nodes", "free_dims", "root", "op", "n", "d", "sub",
        "cr_of_sub", "partners", "everyone", "node_ids", "sub_key", "at",
        "payloads", "filled", "slot", "steps", "values", "tag",
    )

    def __init__(self, kind, nodes, free_dims, root, op, slot, tables):
        self.kind = kind
        self.nodes = nodes
        self.free_dims = free_dims
        self.root = root
        self.op = op
        self.n = len(nodes)
        self.d = len(free_dims)
        (
            self.sub, self.cr_of_sub, self.partners, self.everyone,
            self.node_ids, self.sub_key,
        ) = tables
        self.at = [0.0] * self.n
        self.payloads = [None] * self.n
        self.filled = 0  # bit cr: member cr has declared
        #: which entry of its members' ops this group is (fused pairs: 0 or 1)
        self.slot = slot
        self.steps = None
        self.values = None
        self.tag = None


def _collective_groups(engine: "Engine", parked: dict) -> list:
    """Partition the parked ops into validated groups, slot-0 groups first;
    raises :class:`_Refuse`."""
    if not _all_parked_and_quiet(engine, parked):
        raise _Refuse("ranks outside the phase, or traffic in flight")
    one_port = engine.config.port_model is PortModel.ONE_PORT
    sched = "sbt" if one_port else "rotated"

    groups: dict[tuple, _CollGroup] = {}
    for task, (op, at) in parked.items():
        specs = op.specs
        if op.lift is not None:
            raise _Refuse("lifted pair beside another phase")
        fused = len(specs) - 1  # 0: one collective, 1: a fused pair
        if fused not in (0, 1):
            raise _Refuse("malformed phase")
        if fused and set(specs[0].free_dims) & set(specs[1].free_dims):
            # The two subcubes of a fused pair must use disjoint physical
            # dimensions: each channel then belongs to one schedule.
            raise _Refuse("fused pair shares a dimension")
        for slot, spec in enumerate(specs):
            key = (
                spec.kind, spec.sched, spec.members, spec.free_dims,
                spec.tag, spec.root, spec.op,
            )
            cr = spec.rank
            g = groups.get(key)
            if g is None:
                g = groups[key] = _new_group(spec, slot, sched)
            if (
                not 0 <= cr < g.n
                or g.nodes[cr] != task
                or (g.filled >> cr) & 1
                or g.slot != slot
            ):
                raise _Refuse("malformed phase")
            g.filled |= 1 << cr
            g.at[cr] = at
            g.payloads[cr] = spec.payload
    for g in groups.values():
        if g.filled != (1 << g.n) - 1:
            raise _Refuse("malformed phase")
    return [g for g in groups.values() if g.slot == 0] + [
        g for g in groups.values() if g.slot == 1
    ]


def _new_group(spec, slot: int, sched: str) -> _CollGroup:
    """Validate what all members of one group share and build the group."""
    kind = spec.kind
    n = len(spec.members)
    if kind in EXCHANGE_KINDS:
        if spec.root is not None:
            raise _Refuse("malformed phase")
    elif kind in _ROOTED_KINDS:
        if not (isinstance(spec.root, int) and 0 <= spec.root < n):
            raise _Refuse("malformed phase")
    else:
        raise _Refuse(f"no step table for kind {kind!r}")
    if spec.sched != sched:
        raise _Refuse("schedule does not match the port model")
    if n < 2 or n != (1 << len(spec.free_dims)):
        raise _Refuse("malformed phase")
    tables = subcube_tables(spec.members, spec.free_dims)
    if tables is None:
        raise _Refuse("malformed phase")
    g = _CollGroup(kind, spec.members, spec.free_dims, spec.root, spec.op, slot, tables)
    g.tag = spec.tag
    return g


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
    """Relative indices sending at each ``[round][tree]`` of rooted trees
    (read-only, shared).  A distribution tree's node forwards in every round
    after the one it received in (the root in all of them); a combining
    tree's node sends once, in the round of its first set bit (the root
    never).  Either way the message crosses ``orders[j][t]``."""
    sbt, _ = _trees()
    d = len(orders[0])
    step_of = sbt.combine_send_step if combine else sbt.distribute_recv_step
    # per tree, the round each node sends (combine) or receives in; the
    # root's None becomes NaN, which compares false
    steps = np.array(
        [[step_of(rel, order) for rel in range(1 << d)] for order in orders], dtype=float
    )
    return tuple(
        tuple(np.flatnonzero(col == t if combine else ~(col >= t)) for col in steps)
        for t in range(d)
    )


def _rooted_senders(g: _CollGroup, orders: tuple) -> list:
    """:func:`_tree_senders` of combining trees as comm ranks of ``g``,
    rooted at ``g.root`` (a broadcast reads :func:`_broadcast_table`)."""
    base, senders = int(g.sub[g.root]), _tree_senders(orders, combine=True)
    return [[g.cr_of_sub[rel ^ base] for rel in row] for row in senders]


# -- the stacked data plane -----------------------------------------------------

_payloads = attrgetter("payloads")


def _classes(groups, blocks_of, folded: bool) -> dict:
    """Validate the groups' blocks (``blocks_of(g)``, in layout order) and
    bucket the groups whose layouts agree: ``{key: [(g, blocks), ...]}``
    (``folded``: every source's blocks must repeat the first's shapes)."""
    classes: dict = {}
    for g in groups:
        blocks = blocks_of(g)
        if set(map(type, blocks)) != {np.ndarray}:
            raise _Refuse("payload is not an array")
        dtypes = {b.dtype for b in blocks}
        if len(dtypes) != 1:
            raise _Refuse("blocks of mixed dtypes")
        shapes = tuple([b.shape for b in blocks])
        if folded and shapes != shapes[:len(shapes) // g.n] * g.n:
            raise _Refuse("a destination's blocks differ in shape")
        key = (g.sub_key, g.root, g.op, shapes, *dtypes)
        classes.setdefault(key, []).append((g, blocks))
    return classes


def _rows(g: _CollGroup) -> list:
    """A group's ``[source][destination]`` blocks, source-major."""
    if set(map(len, g.payloads)) != {g.n}:
        raise _Refuse("malformed phase")
    return [b for row in g.payloads for b in row]


def _tables(engine: "Engine", key: tuple, build):
    """``build()``, once per engine and layout (the tables are read-only)."""
    tables = engine._coll_tables.get(key)
    if tables is None:
        tables = engine._coll_tables[key] = build()
    return tables


def _stack(members: list, rows: int) -> np.ndarray:
    """A bucket's blocks as one ``(groups, rows, length)`` array."""
    flat = np.concatenate([b for _g, blocks in members for b in blocks], axis=None)
    return flat.reshape(len(members), rows, flat.size // (len(members) * rows))


def _piece_sizes(sizes: list, trees: int) -> np.ndarray:
    """``[block, tree]`` element counts: the whole block on one tree, its
    ``chunk_sizes`` chunks on several."""
    rule = {size: _trees()[1].chunk_sizes(size, trees) for size in set(sizes)}
    return np.array([rule[s] for s in sizes], dtype=np.int64).reshape(-1, trees)


def _exchange_steps(engine, groups, chunked):
    """Allgather and alltoall: each rank gathers what it receives into a
    buffer of its own (one port: its own block stays the object passed in)."""
    gather = groups[0].kind == "allgather"
    for key, members in _classes(groups, _payloads if gather else _rows, False).items():
        g, blocks = members[0]
        steps, delivery = _tables(
            engine, (g.kind, g.sub_key, key[3], chunked),
            lambda: _exchange_tables(
                g, [b.size for b in blocks], key[3], _orders(g.d, not chunked), gather
            ),
        )
        for row, (g, blocks) in zip(_stack(members, 1)[:, 0], members):
            mine = blocks if gather else blocks[::g.n + 1]
            g.steps, g.values = steps, []
            for r, (index, whole, pieces) in enumerate(delivery):
                buf = row[index]
                got = list(buf.reshape(whole)) if pieces is None else [
                    buf[a:b].reshape(shape) for a, b, shape in pieces]
                if not chunked:
                    got[r] = mine[r]
                g.values.append(got)


def _delivery(starts, lens, shapes: tuple) -> tuple:
    """Where a rank's received blocks (per source) lie in its group's row,
    and how they split: ``whole`` ``(sources, *shape)`` when equal and not
    0-d, else ``pieces`` of ``(begin, end, shape)``."""
    ends = np.cumsum(lens)
    index = np.repeat(starts - ends + lens, lens) + np.arange(int(ends[-1]))
    if shapes[0] != () and shapes.count(shapes[0]) == len(shapes):
        return index, (len(shapes),) + shapes[0], None
    return index, None, list(zip((ends - lens).tolist(), ends.tolist(), shapes))


def _exchange_tables(g: _CollGroup, sizes, shapes, orders, gather: bool):
    """Recursive doubling (allgather: send all you hold, then hold your
    partner's too) or dimension exchange (alltoall: across ``k``, forward
    every piece bound for the other side of ``k``)."""
    n, trees = g.n, len(orders)
    piece = _piece_sizes(sizes, trees)
    lens = np.array(sizes, dtype=np.int64)
    starts = np.cumsum(lens) - lens
    # held[j][i, b]: words of tree-j pieces at rank i from source b
    # (allgather) or bound for destination b (alltoall)
    if gather:
        held = [np.diag(piece[:, j]) for j in range(trees)]
        delivery = [_delivery(starts, lens, shapes)] * n
    else:
        held = list(piece.reshape(n, n, trees).transpose(2, 0, 1))
        starts, lens = starts.reshape(n, n), lens.reshape(n, n)
        delivery = [
            _delivery(starts[:, r], lens[:, r], shapes[r::n]) for r in range(n)
        ]
    bit = (g.sub[:, None] >> np.arange(g.d)) & 1
    steps = []
    for t in range(g.d):
        row = []
        for j, order in enumerate(orders):
            k = order[t]
            side = bit[:, k]
            moving = held[j] if gather else np.where(side[:, None] != side, held[j], 0)
            row.append((g.everyone, k, moving.sum(axis=1)))
            held[j] = held[j] - (0 if gather else moving) + moving[g.partners[k]]
        steps.append(row)
    return steps, delivery


def _folding_steps(engine, groups, chunked):
    """Reduce-scatter and reduce: row ``i`` of ``Y`` holds rank ``i``'s
    partials, folded in place; a rank returns its ``picks`` block."""
    scatter = groups[0].kind == "reduce_scatter"
    tables = _reduce_scatter_tables if scatter else _reduce_tables
    for key, members in _classes(groups, _rows if scatter else _payloads, True).items():
        op, shapes, dtype = key[2:]
        if not (isinstance(op, np.ufunc) and op.nin == 2 and op.nout == 1):
            raise _Refuse("reduction op is not a ufunc")
        g, blocks = members[0]
        row = blocks[:len(blocks) // g.n]  # rank 0's blocks: the layout
        orders = _orders(g.d, not chunked)
        steps, rounds, picks = _tables(
            engine, (g.kind, g.sub_key, g.root, shapes[:len(row)], chunked),
            lambda: tables(g, [b.size for b in row], shapes, orders, chunked),
        )
        if engine.timing_only and op is np.add and not any(
            [b.any() for _g, blocks in members for b in blocks]
        ):
            # Timing-only blocks are zero views, and zeros under np.add stay
            # zeros: no stack of p blocks at region-map scale.
            length = sum([b.size for b in row])
            Y = np.broadcast_to(np.zeros((), dtype), (len(members), g.n, length))
        else:
            Y = _stack(members, g.n)
            for R, C, P in rounds:
                folded = op(Y[:, R, C], Y[:, P, C])
                if folded.dtype != Y.dtype:  # the accumulator would mix dtypes
                    raise _Refuse("blocks of mixed dtypes")
                Y[:, R, C] = folded
        for rows, (g, _blocks) in zip(Y, members):
            g.steps = steps
            g.values = [
                None if pick is None
                else rows[i, pick[0]] if pick[1] is None
                else rows[i, pick[0]].reshape(pick[1])
                for i, pick in enumerate(picks)
            ]


def _pick(start: int, size: int, shape: tuple, chunked: bool) -> tuple:
    """A reduced block's place in its row and shape (one port: a 0-d block
    folds into the scalar ``op`` returns)."""
    if shape == () and not chunked:
        return start, None
    return np.arange(start, start + size), None if shape == (size,) else shape


def _reduce_scatter_tables(g: _CollGroup, sizes, shapes, orders, chunked):
    """Recursive halving: across ``k``, hand over the partials bound for the
    other side, fold the ones handed to you (a row: blocks, pieces by tree)."""
    n, trees = g.n, len(orders)
    piece = _piece_sizes(sizes, trees)  # [dst, tree]
    pid = np.repeat(np.arange(n * trees), piece.ravel())  # position -> piece
    # A folded 0-d partial is a numpy scalar: no words in a container.
    folded = piece * (chunked or np.array([s != () for s in shapes[:n]])[:, None])
    x = (g.sub[:, None] ^ g.sub[None, :])[:, :, None]  # [i, dst, 1]
    crossed = np.zeros(trees, dtype=np.int64)  # per tree
    steps, rounds = [], []
    for t in range(g.d):
        dims = np.array([order[t] for order in orders], dtype=np.intp)
        # rank i sends the partials it holds whose destination lies across
        # the tree's dimension, and folds the ones it keeps
        sent = ((x & crossed) == 0) & ((x & (1 << dims)) != 0)
        words = (sent * (folded if t else piece)).sum(axis=1)  # [i, tree]
        steps.append([(g.everyone, k, words[:, j]) for j, k in enumerate(dims.tolist())])
        crossed = crossed | (1 << dims)
        R, C = np.nonzero(((x & crossed) == 0).reshape(n, -1)[:, pid])
        rounds.append((R, C, g.partners[dims[pid[C] % trees], R]))
    ends = np.cumsum(sizes).tolist()
    return steps, rounds, [
        _pick(end - size, size, shape, chunked)
        for size, end, shape in zip(sizes, ends, shapes)
    ]


def _reduce_tables(g: _CollGroup, sizes, shapes, orders, chunked):
    """Combining trees: fold your children's partials, send to your parent."""
    piece = _piece_sizes(sizes, len(orders))[0].tolist()
    start = np.cumsum(piece) - piece
    steps, rounds = [], []
    for t, row in enumerate(_rooted_senders(g, orders)):
        steps.append([(si, orders[j][t], piece[j]) for j, si in enumerate(row)])
        cols = [
            (np.repeat(g.partners[orders[j][t]][si], piece[j]),
             np.tile(np.arange(start[j], start[j] + piece[j]), len(si)),
             np.repeat(si, piece[j]))
            for j, si in enumerate(row)
        ]
        rounds.append(tuple(np.concatenate(c) for c in zip(*cols)))
    picks = [None] * g.n
    picks[g.root] = _pick(0, sizes[0], shapes[0], chunked)
    return steps, rounds, picks


def _broadcast_table(d: int, chunked: bool, words: int) -> list:
    """A broadcast's step table relative to its root: per round, per tree,
    ``(senders' indices relative to the root, subcube dimension, words)``
    (multi-port: ``words`` split into one chunk per tree)."""
    orders = _orders(d, not chunked)
    sizes = _piece_sizes([words], len(orders))[0].tolist() if chunked else [words]
    return [
        [(senders, orders[j][t], sizes[j]) for j, senders in enumerate(row)]
        for t, row in enumerate(_tree_senders(orders, combine=False))
    ]


def _broadcast_steps(engine, groups, chunked):
    """Distribution trees: whoever holds tree ``j``'s piece forwards it;
    every non-root returns a copy of its own."""
    for g in groups:
        data = g.payloads[g.root]
        if chunked:
            data = np.asarray(data)
        words = data.size if chunked else payload_words(data)
        g.steps = _tables(
            engine, (g.kind, g.sub_key, g.root, chunked, words),
            lambda: [
                [(g.cr_of_sub[rel ^ g.sub[g.root]], k, w) for rel, k, w in row]
                for row in _broadcast_table(g.d, chunked, words)
            ],
        )
        g.values = [
            g.payloads[i] if i == g.root
            else data.copy() if chunked else copy_payload(data)
            for i in range(g.n)
        ]


_STEP_TABLES = {
    "allgather": _exchange_steps,
    "alltoall": _exchange_steps,
    "reduce_scatter": _folding_steps,
    "broadcast": _broadcast_steps,
    "reduce": _folding_steps,
}


# -- merging ------------------------------------------------------------------
#
# The groups of a phase are folded together, in machine-wide indices: a
# comm rank becomes its node address, subcube dimension ``k`` the physical
# dimension ``free_dims[k]`` (so the ``k``-partner is ``node ^ (1 << dim)``),
# and row ``r`` of round ``t`` of every group in one slot is one row.  Groups
# share no rank, and a row has no channel, port or receiver twice, so which
# of them a row's senders come from, and in what order, changes nothing.
#
# Groups differ only in their node addresses when they share a layout, so
# ``_reserve`` plans per *family* — the groups with the same slot, the same
# ``steps`` object and the same ``free_dims`` — not per group: it stacks a
# family's ``node_ids`` into one ``(groups, n)`` array and states each of
# its rows with one set of numpy calls.  A phase of 64 eight-node groups
# on one layout costs the numpy calls of one group.  What makes the steps
# objects shared: the step tables are built once per layout and engine
# (``_tables``, a broadcast's keyed by its root and word count too), and
# the subcube maps they index (``subcube_tables``) once per member tuple
# and process.  Shared tables are never written: the subcube maps' arrays
# are read-only (``writeable=False``), and a fold writes only into the
# plan's own columns and the stacked copies ``_reserve`` makes.

_DIM_BITS = 6  # a channel's code is (sender << _DIM_BITS) | dimension


def _concat(parts: list) -> tuple:
    """One row from several families' ``(src, dst, code, words)`` parts."""
    src, dst, code, words = zip(*parts)
    if {w.__class__ for w in words} == {int} and len(set(words)) == 1:
        words = words[0]  # (a broadcast's or reduce's groups, one per root)
    else:
        words = np.concatenate([
            w if w.__class__ is np.ndarray else np.full(s.size, w)
            for s, w in zip(src, words)
        ])
    return np.concatenate(src), np.concatenate(dst), np.concatenate(code), words


def _reserve(engine: "Engine", groups: list, at: np.ndarray) -> dict:
    """Merge the groups' step tables into a plan :func:`_seed`-ed for them.

    Reads only; :func:`_reserve_rounds` folds the rounds through the
    returned plan and :func:`_commit` applies it.  ``plan["rounds"][t]`` is
    ``(slot, rows)`` pairs, slot 0 first; a row is ``(src, dst, chan,
    words)``: node addresses, indices into the plan's channel columns, word
    counts (an int when every send agrees).
    """
    families: dict = {}
    for g in groups:
        families.setdefault((g.slot, id(g.steps), g.free_dims), []).append(g)
    buckets: dict = {}  # (t, slot, r) -> one (src, dst, code, words) per family
    for (slot, _steps, dims), family in families.items():
        g = family[0]
        ids = np.array([f.node_ids for f in family])  # [group, comm rank]
        everyone, flat = g.everyone, ids.ravel()
        lanes = np.zeros((len(family), 1), dtype=np.int64)  # tiles a word row
        for t, rows in enumerate(g.steps):
            for r, (si, k, w) in enumerate(rows):
                src = flat if si is everyone else ids[:, si].ravel()
                if w.__class__ is np.ndarray:
                    w = (lanes + w).ravel()
                buckets.setdefault((t, slot, r), []).append(
                    (src, src ^ (1 << dims[k]), (src << _DIM_BITS) | dims[k], w)
                )
    merged = [
        (t, slot) + (parts[0] if len(parts) == 1 else _concat(parts))
        for (t, slot, _r), parts in sorted(buckets.items())
    ]
    # One column per channel the phase uses, in channel-code order.
    used, chan = np.unique(
        np.concatenate([code for *_, code, _w in merged]), return_inverse=True
    )
    rounds: list[list] = []
    offset = 0
    for t, slot, src, dst, _code, w in merged:
        if t == len(rounds):
            rounds.append([])
        if not rounds[t] or rounds[t][-1][0] != slot:
            rounds[t].append((slot, []))
        rounds[t][-1][1].append((src, dst, chan[offset:offset + src.size], w))
        offset += src.size
    keys = [
        (u, u ^ (1 << k))
        for u, k in zip(
            (used >> _DIM_BITS).tolist(),
            (used & ((1 << _DIM_BITS) - 1)).tolist(),
        )
    ]
    n = len(at)
    plan = _seed(
        engine, keys, np.bincount(chan, minlength=len(used)), range(n)
    )
    plan["rounds"] = rounds
    # One clock per slot: a fused pair's sub-tasks run on their own.
    plan["T"] = [at, at.copy()] if groups[-1].slot else [at]
    if plan["ports"] is not None and groups[-1].slot:
        # fused pairs only: the ready time of each node's latest send, to
        # check that the assumed port order is the event path's
        plan["ports"]["ready"] = np.full(n, -np.inf)
    return plan


def _reserve_rounds(plan: dict) -> None:
    """Fold the phase's rounds through :func:`_fold_row`: every row of a
    round is ready at the round's ``T``; a fused pair's rounds alternate,
    slot 0 first."""
    t_s, t_w = plan["hop"]
    clocks, ports = plan["T"], plan["ports"]
    last = None if ports is None else ports.get("ready")
    for t, slot_rows in enumerate(plan["rounds"]):
        for slot, rows in slot_rows:
            T = clocks[slot]
            Tn = T.copy()
            for src, dst, chan, w in rows:
                ready = T[src]
                if last is not None:
                    # Fused pair: this row's place in each node's port
                    # order (a0 b0 a1 b1 ...) is an assumption unless the
                    # ready times strictly increase along it; b0 ties with
                    # a0 and follows it in ctx.parallel slot order.
                    before = last[src]
                    tie_ok = t == 0 and slot == 1
                    if not (ready >= before if tie_ok else ready > before).all():
                        raise _Refuse("one-port pair: port order not provable")
                    if np.min(t_s + t_w * w) <= 0:
                        raise _Refuse("one-port pair: zero-length hop")
                    last[src] = ready
                _fold_row(plan, Tn, ready, src, dst, chan, w)
            clocks[slot] = Tn


# -- lifted pairs -------------------------------------------------------------
#
# 3DD's and DNS's phase 1 moves blocks several hops (a *lift*) to the roots
# of the broadcast pair that follows.  A pair that declares its lift
# (``parallel_pair(..., lift=...)``) parks before it, and the hop table
# replays each rank's lift: its blocking sends in program order, then its
# receives, whose blocks become the payloads of the slots they name.  On a
# multi-port machine whose lift channels are none of the pair's, nothing
# the lift reserves is the pair's, so the pair folds through
# :func:`_reserve_rounds` from the frontier the lift leaves, each rank
# starting when its lift is done (a staggered park).  Otherwise — one port:
# the lift's forwarders still hold ports while the broadcasts start; traced:
# the pair's hops need their records — the table replays the pair too, to
# its end: ``ctx.parallel``'s two sub-tasks running the schedules round by
# round, a one-port tree's blocking send or receive, a multi-port round's
# sends and receives in tree order and one ``waitall``.  Traced, a rank
# leaves the pair at its ``_END``, with both values, and the table's tail
# runs on the event queue from the first to leave (see "Traced phases").
# Every refusal is decided before the table runs: a traced table emits
# records as it goes.


def _lift_table(engine: "Engine", parked: dict) -> tuple:
    """Plan parked lifts and the broadcast pairs they feed (reads only);
    returns ``(outcome, plans)`` as :func:`_plan_phase`, or refuses.
    Traced, ``outcome`` is ``(table, values)``: the table run to the first
    rank that leaves the pair, and every rank's ``[value_a, value_b]``."""
    if not _all_parked_and_quiet(engine, parked):
        raise _Refuse("ranks outside the phase, or traffic in flight")
    n = engine.config.num_nodes
    chunked = engine.config.port_model is not PortModel.ONE_PORT
    traced = engine.trace_enabled
    t_s, t_w = engine._t_s, engine._t_w
    copy = engine.config.copy_on_send
    route, last, dur, key, sender, col = [], [], [], [], [], {}
    ends, nm, received = [], 0, []  # ends: per message (source, destination, words)
    scripts: list = [None] * (3 * n)  # the ranks, then their sub-tasks (below)
    lifted: dict = {}  # (source, destination, tag) -> the block it carries
    fed, marks = {}, {}
    for task, (op, _at) in parked.items():  # the lift's messages first ...
        if op.lift is None:
            raise _Refuse("lifted pair beside another phase")
        script = scripts[task] = []
        for dst, data, tag in op.lift.sends:
            hops, h = (), -1
            for hop in () if dst == task else engine.routes.healthy(task, dst):
                if hop not in col:
                    col[hop] = len(col)
                hops += ((col[hop], hop[0]),)
                h += 1
            w = payload_words(data)
            script += ((_SEND, nm), (_WAIT, 0))
            nm += 1
            route += (hops,)
            last += (h,)
            dur += (t_s + t_w * w,)
            key += ((task, dst, tag),)
            sender += (task,)
            ends += ((task, dst, w),)
            lifted[(task, dst, tag)] = data if not copy else (
                data.copy() if data.__class__ is np.ndarray else copy_payload(data))
    for task, (op, at) in parked.items():  # ... then who receives them
        specs = list(op.specs)
        for src, tag, slot in op.lift.recvs:
            if (src, task, tag) not in lifted:
                raise _Refuse("lifted pair: a lift receive no lift send matches")
            scripts[task] += ((_RECV, (src, task, tag)), (_WAIT, 0))
            received += ((src, task, tag),)
            specs[slot] = replace(specs[slot], payload=lifted[(src, task, tag)])
        fed[task] = (CollectivePhaseOp(tuple(specs)), at)
        if op.lift.phase is not None:
            marks[task] = op.lift.phase
    if not nm == len(lifted) == len(set(received)) == len(received):
        raise _Refuse("lifted pair: a lift send no receive matches, or a repeated one")
    groups = _collective_groups(engine, fed)
    if {g.kind for g in groups} != {"broadcast"} or groups[-1].slot != 1:
        raise _Refuse("lifted pair: not a broadcast pair")
    _broadcast_steps(engine, groups, chunked)
    parks = [(task, at) for task, (_op, at) in parked.items()]
    dims = {task: op.specs[0].free_dims + op.specs[1].free_dims for task, (op, _) in parked.items()}
    apart = chunked and not traced and not any(
        (u ^ v).bit_length() - 1 in dims[u] for u, v in col if u in dims)
    if apart:  # the lift alone, then the pair from the frontier it leaves
        for task, _at in parks:
            scripts[task] += ((_END, 0),)
    else:  # the lift and the pair: sub-task n + 2r + slot runs rank r's slot
        for task, _at in parks:
            scripts[task] += ((_FORK, (n + 2 * task, n + 2 * task + 1)), (_END, 0))
        for child in range(n, 3 * n):
            scripts[child] = []
        nc = len(col)
        for g in groups:
            ids, partners, first = g.node_ids.tolist(), g.partners.tolist(), n + g.slot
            for t, row in enumerate(g.steps):
                touched = {}
                for j, (senders, k, w) in enumerate(row):
                    # (collectives.api.subtag: a tree's tag on multi-port, a round's on one)
                    tag = (g.tag << 6) | (j if chunked else t)
                    hop_cost = t_s + t_w * w
                    for i in senders.tolist():
                        src, dst = ids[i], ids[partners[k][i]]
                        if (src, dst) not in col:
                            col[(src, dst)] = nc
                            nc += 1
                        a, b = first + 2 * src, first + 2 * dst
                        scripts[a] += ((_SEND, nm),)
                        nm += 1
                        scripts[b] += ((_RECV, (src, dst, tag)),)
                        route += (((col[(src, dst)], src),),)
                        last += (0,)
                        dur += (hop_cost,)
                        key += ((src, dst, tag),)
                        sender += (a,)
                        ends += ((src, dst, w),)
                        touched[a] = touched[b] = True
                for task in touched:
                    scripts[task] += ((_WAIT, 0),)
        for child in range(n, 3 * n):
            scripts[child] += ((_END, 0),)
        if len(set(key)) != len(key):
            raise _Refuse("lifted pair: a repeated (source, destination, tag)")
    plan = _seed(engine, list(col), np.zeros(len(col), dtype=np.int64), range(n))
    if ends:
        src, dst, words = (np.array(c, dtype=np.int64) for c in zip(*ends))
        plan["stats"] += [
            np.bincount(src, minlength=n), np.bincount(src, words, n).astype(np.int64),
            np.bincount(dst, minlength=n), np.bincount(dst, words, n).astype(np.int64),
        ]
    msgs = _messages(route, last, dur, key, sender)
    if apart:
        state = _run_table(plan, msgs, scripts[:n], parks, [-1] * n, [0] * n)
        at = np.zeros(n)
        at[list(state["finished"])] = list(state["finished"].values())
        outcome, plans = _fold_groups(engine, groups, at)
        plan["marks"] = [(task, phase, state["finished"][task]) for task, phase in marks.items()]
        return outcome, [plan] + plans
    values: dict = {task: [None, None] for task in parked}
    for g in groups:
        for node, value in zip(g.nodes, g.values):
            values[node][g.slot] = value
    parent, kids = [-1] * n + [r for r in range(n) for _ in (0, 1)], [2] * n + [0] * (2 * n)
    if traced:  # (it marks each rank's phase where it forks)
        msgs["ends"] = ends
        table = _replay(plan, msgs, scripts, parks, parent, kids, traced=(engine, 0.0, marks))
        next(table)  # to the first rank that leaves the pair
        return (table, values), [plan]
    state = _run_table(plan, msgs, scripts, parks, parent, kids)
    plan["marks"] = [(task, phase, state["forked"][task]) for task, phase in marks.items()]
    return {task: (t, values[task]) for task, t in state["finished"].items()}, [plan]


def _plan_phase(engine: "Engine", parked: dict):
    """Plan a fully-parked phase; returns ``(outcome, plans)`` with nothing
    written, or raises (:class:`_Refuse` for a named refusal)."""
    if next(iter(parked.values()))[0].lift is not None:
        return _lift_table(engine, parked)
    groups = _collective_groups(engine, parked)
    at = np.zeros(engine.config.num_nodes)
    kinds: dict = {}
    for g in groups:
        kinds.setdefault(g.kind, []).append(g)
        at[g.node_ids] = g.at
    chunked = engine.config.port_model is not PortModel.ONE_PORT
    for kind, of_kind in kinds.items():
        _STEP_TABLES[kind](engine, of_kind, chunked)
    return _fold_groups(engine, groups, at)


def _fold_groups(engine: "Engine", groups: list, at: np.ndarray):
    """Fold stepped groups, entering at ``at``; returns ``(outcome, [plan])``."""
    plan = _reserve(engine, groups, at)
    _reserve_rounds(plan)
    # A fused pair resumes with [value_a, value_b] at the later finish,
    # like ctx.parallel (slot-0 groups come first, so a pair's second half
    # finds the first).
    clocks = plan["T"]
    finish = (clocks[0] if len(clocks) == 1 else np.maximum(*clocks)).tolist()
    outcome: dict = {}
    for g in groups:
        for node, value in zip(g.nodes, g.values):
            if g.slot:
                outcome[node][1].append(value)
            else:
                outcome[node] = (finish[node], [value] if len(clocks) > 1 else value)
    return outcome, [plan]


def try_advance_collective(engine: "Engine", parked: dict) -> dict | tuple | str:
    """Advance fully-parked collective phases in closed form.

    ``parked`` maps task -> (CollectivePhaseOp, park_time).  Returns
    ``{task: (finish_time, value)}`` (fused pairs get ``[value_a, value_b]``
    at the later finish, like ``ctx.parallel``); a traced lifted pair
    ``(table, {task: [value_a, value_b]})``, its hop table run to the first
    rank that leaves (see "Traced phases"); or, when the phase must fall
    back to the event path, the reason (the engine counts it once per
    parked rank).  Nothing — tracker state, statistics, trace records — is
    mutated unless the whole phase plans successfully, so a refusal leaves
    the engine exactly where the event path would start.
    """
    try:
        outcome, plans = _plan_phase(engine, parked)
    except _Refuse as refusal:
        return refusal.args[0]
    except Exception as exc:  # noqa: BLE001 — the event path raises it properly
        # A program error the generator loop will reproduce with the rank
        # attached — or a planner bug, which must not hide as "slow but
        # correct": either way it is counted under the exception's name.
        return f"planner exception: {type(exc).__name__}"
    for plan in plans:  # (a lift's and its pair's use disjoint channels)
        _commit(engine, plan)
        for task, phase, at in plan.get("marks", ()):
            engine._phase_marks[task].append((phase, at))
    engine._coll_closed_form += len(parked)
    return outcome
