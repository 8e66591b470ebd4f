"""Tests for payload word accounting and the message record."""

import zlib

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.faults import _float_leaves  # the words corruption can touch
from repro.sim.message import (
    Message,
    canonical_bytes,
    copy_payload,
    message_crc,
    payload_words,
)


class TestPayloadWords:
    def test_array_counts_elements(self):
        assert payload_words(np.zeros((3, 4))) == 12
        assert payload_words(np.zeros(0)) == 0

    def test_explicit_nwords_wins(self):
        assert payload_words(np.zeros(5), nwords=100) == 100

    def test_negative_explicit_rejected(self):
        with pytest.raises(SimulationError):
            payload_words(None, nwords=-1)

    def test_none_requires_explicit(self):
        with pytest.raises(SimulationError):
            payload_words(None)
        assert payload_words(None, nwords=7) == 7

    def test_standalone_scalar_is_one_word(self):
        assert payload_words(3.14) == 1
        assert payload_words(42) == 1

    def test_list_of_arrays(self):
        assert payload_words([np.zeros(3), np.zeros((2, 2))]) == 7

    def test_dict_of_arrays(self):
        assert payload_words({0: np.zeros(3), 1: np.zeros(5)}) == 8

    def test_metadata_rides_free_in_containers(self):
        """Shape tuples / keys / dtypes inside containers cost no words."""
        payload = (np.zeros(10), (10,), "float64")
        assert payload_words(payload) == 10

    def test_nested_containers(self):
        payload = {0: (np.zeros(4), (2, 2)), 1: [np.zeros(2), np.zeros(2)]}
        assert payload_words(payload) == 8

    def test_unknown_type_rejected(self):
        with pytest.raises(SimulationError):
            payload_words(object())


class TestMessage:
    def test_ids_unique(self):
        a = Message(0, 1, 0, None, 5, 0.0)
        b = Message(0, 1, 0, None, 5, 0.0)
        assert a.msg_id != b.msg_id

    def test_repr_mentions_route(self):
        msg = Message(2, 5, 7, None, 9, 0.0)
        assert "2->5" in repr(msg)
        assert "tag=7" in repr(msg)

    def test_is_a_plain_record(self):
        """No backing table: every field is an ordinary slot."""
        msg = Message(2, 5, 7, None, 9, 1.5, ack_tag=11, crc=123)
        assert not hasattr(msg, "_tab") and not hasattr(msg, "_row")
        assert not hasattr(msg, "__dict__")
        assert (msg.src, msg.dst, msg.tag, msg.nwords) == (2, 5, 7, 9)
        assert (msg.send_time, msg.ack_tag, msg.crc) == (1.5, 11, 123)

    def test_fields_are_settable(self):
        """The engine's link corruption swaps in a private perturbed copy
        of the payload (``_maybe_corrupt``)."""
        msg = Message(0, 1, 0, np.zeros(3), 3, 0.0)
        flipped = np.ones(3)
        msg.data = flipped
        assert msg.data is flipped

    def test_explicit_id_wins(self):
        assert Message(0, 1, 0, None, 0, 0.0, msg_id=41).msg_id == 41


class _Tagged(np.ndarray):
    """An ndarray subclass: takes the helpers' ``isinstance`` fallback."""


def _payloads():
    a = np.arange(12.0).reshape(3, 4)
    return {
        "none": None,
        "atoms": (3, 2.5, "x", True, None),
        "array": a,
        "transposed": a.T,
        "fortran": np.asfortranarray(a),
        "strided": a[::2, 1::2],
        "empty": np.empty((0, 3)),
        "zero_d": np.array(2.0),
        "numpy_scalars": (np.float64(1.5), np.int32(3)),
        "int_array": np.arange(5),
        "subclass": a.view(_Tagged),
        "nested": [a, (a.T, [1, None, {"k": a, "z": (1, 2)}]), "s"],
        "dict": {"b": a, "a": [a[0]], 3: None},
        "empty_containers": [(), [], [[], [()]]],
        "reliable_envelope": ("D", 7, 2, 11, a),
        "envelope_of_envelope": ("D", 0, 1, 5, ("D", 3, 1, 2, [a, a.T])),
    }


PAYLOADS = _payloads()


def _arrays(data):
    if isinstance(data, np.ndarray):
        return [data]
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, (list, tuple)):
        return [leaf for item in data for leaf in _arrays(item)]
    return []


def _same_structure(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _same_structure(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _same_structure(x, y)
    else:
        assert a is b  # atoms are returned as they are


@pytest.mark.parametrize("name", PAYLOADS)
class TestPayloadHelpers:
    def test_crc_is_the_crc_of_the_canonical_bytes(self, name):
        """``canonical_bytes`` is the specification; ``message_crc`` feeds
        the same bytes to ``crc32`` piece by piece."""
        data = PAYLOADS[name]
        for src, dst, tag, nwords in ((0, 1, 0, 0), (13, 2, 1 << 20, 4096)):
            header = f"{src}>{dst}/{tag}#{nwords}|".encode()
            assert message_crc(src, dst, tag, nwords, data) == zlib.crc32(
                canonical_bytes(data), zlib.crc32(header)
            )

    def test_one_flipped_bit_in_any_float_leaf_changes_the_crc(self, name):
        data = _payloads()[name]  # fresh arrays: strided views stay views
        before = message_crc(1, 2, 3, 4, data)
        for leaf in _float_leaves(data):
            for index in {0, leaf.size // 2, leaf.size - 1}:
                value = leaf.flat[index]
                for bit in (0, 31, 52, 63):
                    flipped = np.float64(value).view(np.uint64) ^ np.uint64(1 << bit)
                    leaf.flat[index] = flipped.view(np.float64)
                    assert message_crc(1, 2, 3, 4, data) != before
                leaf.flat[index] = value
        assert message_crc(1, 2, 3, 4, data) == before

    def test_copy_is_equal_same_types_and_shares_no_array_memory(self, name):
        data = PAYLOADS[name]
        copy = copy_payload(data)
        _same_structure(data, copy)
        for mine, theirs in zip(_arrays(data), _arrays(copy)):
            assert not np.shares_memory(mine, theirs)
        assert canonical_bytes(copy) == canonical_bytes(data)


def test_crc_header_fields_all_count():
    data = PAYLOADS["reliable_envelope"]
    base = message_crc(1, 2, 3, 4, data)
    assert len({base, message_crc(0, 2, 3, 4, data), message_crc(1, 0, 3, 4, data),
                message_crc(1, 2, 0, 4, data), message_crc(1, 2, 3, 0, data)}) == 5


def test_container_kind_is_preserved_by_copy_not_by_the_checksum():
    """Lists and tuples serialize alike (the wire does not know which);
    ``copy_payload`` still hands back the container it was given."""
    a = np.ones(3)
    assert canonical_bytes([1, a]) == canonical_bytes((1, a))
    assert type(copy_payload([1, a])) is list and type(copy_payload((1, a))) is tuple
