"""Message envelopes and payload word accounting.

A *word* is one matrix element.  Payloads are numpy arrays (any shape) or
``None`` for timing-only messages whose size is given explicitly.  Sizes are
what drive the ``t_s + t_w·m`` hop cost, so they are computed once at send
time and carried with the envelope.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Any

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "Message",
    "payload_words",
    "copy_payload",
    "canonical_bytes",
    "message_crc",
    "CORRUPT_VERDICT",
]

_message_ids = itertools.count()

#: ack-channel payload the destination node sends instead of a plain ack
#: when a message's attached CRC fails verification at delivery (a NACK)
CORRUPT_VERDICT = "__corrupt__"

#: exact classes of the leaves that are their own copy and whose canonical
#: form is their ``repr`` (``None`` spells "N;")
_ATOMS = frozenset((int, float, str, bool, type(None)))


def _canon(data: Any, out: list[bytes]) -> None:
    if data is None:
        out.append(b"N;")
    elif isinstance(data, np.ndarray):
        out.append(f"A{data.dtype.str}{data.shape};".encode())
        out.append(np.ascontiguousarray(data).tobytes())
    elif isinstance(data, (list, tuple)):
        out.append(f"L{len(data)};".encode())
        for item in data:
            _canon(item, out)
    elif isinstance(data, dict):
        out.append(f"M{len(data)};".encode())
        for k in sorted(data, key=repr):
            out.append(repr(k).encode())
            _canon(data[k], out)
    else:
        out.append(repr(data).encode())


def canonical_bytes(data: Any) -> bytes:
    """Deterministic byte serialization of a payload (structure + array
    contents) — the substrate of end-to-end integrity checksums.  Equal
    payloads always serialize identically; a single flipped bit in any
    float64 leaf changes the bytes."""
    out: list[bytes] = []
    _canon(data, out)
    return b"".join(out)


def message_crc(src: int, dst: int, tag: int, nwords: int, data: Any) -> int:
    """CRC32 over the message header and the payload's canonical bytes.

    This is what :class:`~repro.mpi.integrity.IntegrityContext` attaches
    at send time and what the engine's delivery path re-computes at the
    destination: a mismatch means the payload was perturbed in flight.

    Equal to ``crc32(canonical_bytes(data), crc32(header))``, which stays
    the specification: the running CRC of a concatenation is the CRC of
    the whole, so the bytes are fed piece by piece (text joined up to the
    next array, array buffers as they lie) in one loop over exact classes.
    ``nodes`` grows as it is walked — a container is its header, then its
    items; anything unusual goes through :func:`canonical_bytes` itself.
    """
    text = f"{src}>{dst}/{tag}#{nwords}|"
    crc = 0
    nodes = [data]
    for at, node in enumerate(nodes, 1):
        cls = node.__class__
        if cls is np.ndarray:
            crc = zlib.crc32(f"{text}A{node.dtype.str}{node.shape};".encode(), crc)
            if not node.flags.c_contiguous:
                node = np.ascontiguousarray(node)
            crc, text = zlib.crc32(node, crc), ""
        elif node is None:
            text += "N;"
        elif cls in _ATOMS:
            text += f"{node!r}"
        elif cls is tuple or cls is list:
            text += f"L{len(node)};"
            nodes[at:at] = node
        else:
            crc = zlib.crc32(canonical_bytes(node), zlib.crc32(text.encode(), crc))
            text = ""
    return zlib.crc32(text.encode(), crc)


def payload_words(data: Any, nwords: int | None = None) -> int:
    """Word count of a payload.

    numpy arrays count their elements; containers (lists/tuples/dicts) count
    the sum over their array leaves.  Non-array leaves inside containers
    (shape tuples, keys, dtypes) ride free, the way MPI datatype headers are
    absorbed into the start-up cost — this keeps simulated word counts equal
    to the paper's matrix-element counts.  A standalone scalar counts as one
    word; ``None`` requires an explicit ``nwords``.
    """
    if nwords is not None:
        if nwords < 0:
            raise SimulationError(f"explicit nwords must be >= 0, got {nwords}")
        return nwords if nwords.__class__ is int else int(nwords)
    if data is None:
        raise SimulationError("timing-only message needs an explicit nwords")
    if isinstance(data, np.ndarray):
        return data.size
    if isinstance(data, (list, tuple, dict)):
        return _container_words(data)
    if np.isscalar(data):
        return 1
    raise SimulationError(
        f"cannot infer word count for payload of type {type(data).__name__}; "
        "pass nwords explicitly"
    )


def _container_words(data: Any) -> int:
    """Array-element count of the leaves of a nested container."""
    if isinstance(data, np.ndarray):
        return int(data.size)
    if isinstance(data, (list, tuple)):
        return sum(_container_words(item) for item in data)
    if isinstance(data, dict):
        return sum(_container_words(v) for v in data.values())
    return 0  # metadata leaf (int, str, shape tuple member, ...)


def copy_payload(data: Any) -> Any:
    """Deep-copy array payloads so senders can reuse their buffers."""
    cls = data.__class__
    if cls is np.ndarray:
        return data.copy()
    if cls in _ATOMS:
        return data
    if cls is tuple or cls is list:
        # One pass over exact classes; only a nested container, a subclass
        # or a dict recurses (and ends in the isinstance chain below).
        items = list(data)
        for i, item in enumerate(items):
            item_cls = item.__class__
            if item_cls is np.ndarray:
                items[i] = item.copy()
            elif item_cls not in _ATOMS:
                items[i] = copy_payload(item)
        return items if cls is list else tuple(items)
    if isinstance(data, np.ndarray):
        return data.copy()
    if isinstance(data, list):
        return [copy_payload(item) for item in data]
    if isinstance(data, tuple):
        return tuple(copy_payload(item) for item in data)
    if isinstance(data, dict):
        return {k: copy_payload(v) for k, v in data.items()}
    return data


class Message:
    """An in-flight message: a plain record of envelope, payload pointer,
    integrity fields and transport state.  ``nwords`` drives the
    ``t_s + t_w·m`` hop cost; ``send_time`` is the virtual time it was
    enqueued at the source.

    ``hops`` is the route the engine gives it at injection (a fault plan
    may splice a detour into it mid-flight).  ``dropped`` flips when a
    fault-plan roll loses the message (or a fail-stopped node swallows
    it): downstream hops stop and delivery never happens, but the
    sender-side handle still completes normally — the loss is silent,
    exactly like a real dropped packet.
    """

    __slots__ = (
        "src", "dst", "tag", "data", "nwords", "send_time",
        "msg_id", "ack_tag", "crc", "hops", "dropped",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        tag: int,
        data: Any,
        nwords: int,
        send_time: float,
        msg_id: int | None = None,
        ack_tag: int | None = None,
        crc: int | None = None,
    ):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.data = data
        self.nwords = nwords
        self.send_time = send_time
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        #: when set, the destination node acks delivery on this tag
        self.ack_tag = ack_tag
        #: when set, the destination node verifies this CRC32 of the
        #: canonical header+payload bytes at delivery; a mismatch is NACK'd
        #: (see :func:`message_crc` and the engine's ``_deliver``)
        self.crc = crc
        self.hops: list | tuple = ()
        self.dropped = False

    def __repr__(self) -> str:
        return (
            f"Message(#{self.msg_id} {self.src}->{self.dst} tag={self.tag} "
            f"nwords={self.nwords})"
        )
