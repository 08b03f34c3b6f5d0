import numpy as np
import pytest

from eqkd.transcript import (
    Actor,
    Event,
    EventKind,
    SessionTranscript,
    TranscriptError,
    pack_bits,
    unpack_bits,
)


@pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 16, 17, 1000])
def test_pack_unpack_roundtrip(n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, n, dtype=np.uint8)
    hex_str = pack_bits(bits)
    assert len(hex_str) == 2 * ((n + 7) // 8)
    assert np.array_equal(unpack_bits(hex_str, n), bits)


def test_unpack_bits_wants_exactly_the_bytes_n_bits_take():
    with pytest.raises(ValueError):
        unpack_bits("ff", 16)  # truncated
    with pytest.raises(ValueError):
        unpack_bits("ffff", 8)  # too long
    with pytest.raises(ValueError):
        unpack_bits("ff", -1)
    assert unpack_bits("", 0).size == 0
    assert unpack_bits("e0", 3).tolist() == [1, 1, 1]


@pytest.mark.parametrize(
    "hex_str, n",
    [("ff", 3), ("E0", 3), (" e0 ", 3), ("e0 ", 3), ("AB" * 2, 16), ("ab  ", 16)],
    ids=["pad_bits_set", "upper_case", "spaces", "trailing_space", "upper_full_bytes",
         "space_for_a_byte"],
)
def test_unpack_bits_accepts_only_the_canonical_hex(hex_str, n):
    """Set pad bits, upper case and whitespace are each a ValueError, even at the right length."""
    with pytest.raises(ValueError):
        unpack_bits(hex_str, n)


def test_pack_bits_is_msb_first():
    assert pack_bits(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)) == "80"
    assert pack_bits(np.array([1], dtype=np.uint8)) == "80"
    assert pack_bits(np.array([0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8)) == "01"


def test_event_json_roundtrip():
    ev = Event(seq=3, actor=Actor.BOB, kind=EventKind.ESTIMATE,
               payload={"r1": 2, "m1": 10, "r2": 0, "m2": 10})
    again = Event.from_json(ev.to_json())
    assert again == ev
    # canonical form: sorted keys, no whitespace
    assert ev.to_json() == ev.to_json()
    assert " " not in ev.to_json()


def test_transcript_append_assigns_sequential_numbers():
    t = SessionTranscript(meta={"x": 1})
    e0 = t.append(Actor.ALICE, EventKind.QUBITS_SENT, {"n": 1})
    e1 = t.append(Actor.CHANNEL, EventKind.QUBITS_SENT, {"n": 1})
    assert (e0.seq, e1.seq) == (0, 1)


def test_transcript_skip_burns_numbers():
    t = SessionTranscript()
    t.skip()
    ev = t.append(Actor.CHANNEL, EventKind.QUBITS_SENT, {})
    assert ev.seq == 1
    t.skip(3)
    assert t.append(Actor.BOB, EventKind.BASES_ANNOUNCED_BOB, {}).seq == 5


def test_transcript_record_rejects_regressions():
    t = SessionTranscript()
    t.record(Event(2, Actor.BOB, EventKind.BASES_ANNOUNCED_BOB, {}))
    with pytest.raises(TranscriptError):
        t.record(Event(1, Actor.ALICE, EventKind.BASES_ANNOUNCED_ALICE, {}))


def test_validate_enforces_disclosure_order():
    t = SessionTranscript()
    t.append(Actor.ALICE, EventKind.BASES_ANNOUNCED_ALICE, {})
    t.append(Actor.BOB, EventKind.BASES_ANNOUNCED_BOB, {})
    with pytest.raises(TranscriptError):
        t.validate()


def test_jsonl_roundtrip_with_meta():
    t = SessionTranscript(meta={"seed": 9, "note": "x"})
    t.append(Actor.ALICE, EventKind.QUBITS_SENT, {"n": 4, "bases": "a0", "bits": "50"})
    t.append(Actor.CHANNEL, EventKind.QUBITS_SENT, {"n": 4, "bases": "a0", "bits": "50"})
    text = t.to_jsonl()
    back = SessionTranscript.from_jsonl(text)
    assert back.meta == t.meta
    assert back.event_lines() == t.event_lines()
    assert back.find(EventKind.QUBITS_SENT).actor is Actor.ALICE
    assert len(back.find_all(EventKind.QUBITS_SENT)) == 2
