import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqkd.transcript import (
    Actor,
    Event,
    EventKind,
    SessionTranscript,
    TranscriptError,
    canonical_json,
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
    t.record(Event(1, Actor.CHANNEL, EventKind.QUBITS_SENT, {}))  # Bob's record skips seq 0
    with pytest.raises(TranscriptError, match="seq 0 follows seq 1"):
        t.record(Event(0, Actor.ALICE, EventKind.QUBITS_SENT, {}))


def test_validate_enforces_disclosure_order():
    t = SessionTranscript()
    t.append(Actor.ALICE, EventKind.BASES_ANNOUNCED_ALICE, {})
    t.append(Actor.BOB, EventKind.BASES_ANNOUNCED_BOB, {})
    with pytest.raises(TranscriptError):
        SessionTranscript.from_jsonl(t.to_jsonl())


def _starved_session(meta=None) -> SessionTranscript:
    """A whole session: Bob ends it at seq 4, a class being too small to sample."""
    t = SessionTranscript(meta=meta or {})
    t.append(Actor.ALICE, EventKind.QUBITS_SENT, {"n": 4, "bases": "a0", "bits": "50"})
    t.append(Actor.CHANNEL, EventKind.QUBITS_SENT, {"n": 4, "bases": "a0", "bits": "50"})
    t.append(Actor.BOB, EventKind.BASES_ANNOUNCED_BOB, {"n": 4, "bases": "30"})
    t.append(Actor.ALICE, EventKind.BASES_ANNOUNCED_ALICE, {"n": 4, "bases": "a0"})
    t.append(Actor.BOB, EventKind.DECISION, {"status": "abort_insufficient_sample"})
    return t


def test_jsonl_roundtrip_with_meta():
    t = _starved_session(meta={"seed": 9, "note": "x"})
    text = t.to_jsonl()
    back = SessionTranscript.from_jsonl(text)
    assert back.meta == t.meta
    assert back.event_lines() == t.event_lines()
    assert back.find(EventKind.QUBITS_SENT).actor is Actor.ALICE
    assert len(back.find_all(EventKind.QUBITS_SENT)) == 2


def test_validate_rejects_a_session_cut_short():
    t = _starved_session()
    t.events.pop()
    with pytest.raises(TranscriptError, match="cut short"):
        SessionTranscript.from_jsonl(t.to_jsonl())


def test_a_decision_ends_the_session_unless_it_says_proceed():
    t = _starved_session()
    t.events[-1] = Event(4, Actor.BOB, EventKind.DECISION, {"status": "proceed"})
    with pytest.raises(TranscriptError, match="cut short"):
        SessionTranscript.from_jsonl(t.to_jsonl())


def test_allows_reads_the_grammar_at_the_next_seq():
    t = SessionTranscript()
    assert t.allows(Actor.ALICE, EventKind.QUBITS_SENT)
    assert not t.allows(Actor.CHANNEL, EventKind.QUBITS_SENT)
    t.skip(4)
    assert t.allows(Actor.BOB, EventKind.TEST_INDICES) and t.allows(Actor.BOB, EventKind.DECISION)
    assert not t.allows(Actor.ALICE, EventKind.DECISION)
    t.append(Actor.BOB, EventKind.DECISION, {"status": "abort_insufficient_sample"})
    assert not t.allows(Actor.BOB, EventKind.TEST_DISCLOSURE)  # the session has ended


# Strings json escapes (control characters, '"', '\\', DEL, non-ASCII, lone
# surrogates) beside ones it leaves alone, hex fields among them.
_SPECIAL = '"\\\x00\x01\x1f\x7f\x80\xe9\u2028\ud800\udfff\U0001f600 _-azAZ09'
_HEX = st.binary(max_size=4096).map(bytes.hex)
_STRINGS = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.text(st.sampled_from(_SPECIAL)),
    _HEX,
    st.tuples(_HEX, st.sampled_from(_SPECIAL), _HEX).map("".join),  # one odd character in hex
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**256) | st.integers(max_value=-(2**64)),
    st.floats(),  # nan and both infinities included
    _STRINGS,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_STRINGS, inner, max_size=4),
    max_leaves=12,
)
# events and payloads: the shapes written key by key
_EVENTS = st.dictionaries(
    _STRINGS, _SCALARS | st.dictionaries(_STRINGS, _SCALARS | _VALUES, max_size=4), max_size=5
)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@settings(max_examples=400, deadline=None, database=None)
@given(_VALUES | _EVENTS)
def test_canonical_json_is_json_dumps_with_sorted_keys_and_no_spaces(value):
    assert canonical_json(value) == _dumps(value)


@pytest.mark.parametrize("char", list(_SPECIAL))
def test_canonical_json_escapes_one_odd_character_in_a_hex_field_as_json_does(char):
    payload = {"bases": "0f" * 1000 + char + "a0", "n": 8002, f"k{char}": "ab"}
    event = {"seq": 0, "actor": "alice", "kind": "qubits_sent", "payload": payload}
    assert canonical_json(payload) == _dumps(payload)
    assert canonical_json(event) == _dumps(event)


def test_canonical_json_of_a_session_event_is_json_dumps():
    ev = _starved_session().events[0]
    payload = {**ev.payload, "bases": "0f" * 50_000}
    assert Event(ev.seq, ev.actor, ev.kind, payload).to_json() == _dumps(
        {"seq": ev.seq, "actor": "alice", "kind": "qubits_sent", "payload": payload}
    )


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a":', "}")], ids=["lists", "objects"])
def test_canonical_json_encodes_or_raises_as_json_dumps_at_the_decoders_depth(opening, closing):
    def nested(depth: int) -> str:
        return '{"rect":' + opening * depth + "0" + closing * depth + "}"

    def loads(depth: int) -> bool:
        try:
            json.loads(nested(depth))
        except RecursionError:
            return False
        return True

    low, high = 1, 100_000  # the deepest payload json.loads accepts here
    while low < high:
        mid = (low + high + 1) // 2
        low, high = (mid, high) if loads(mid) else (low, mid - 1)
    payload = json.loads(nested(low))
    # both called from this frame, so both start with the same recursion budget
    try:
        expected = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except RecursionError:
        with pytest.raises(RecursionError):
            canonical_json(payload)
    else:
        assert canonical_json(payload) == expected
