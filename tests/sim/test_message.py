"""Tests for payload word accounting and the message record."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.message import Message, payload_words


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
