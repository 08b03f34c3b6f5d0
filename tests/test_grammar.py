"""The session grammar, checked exhaustively against the golden sessions.

Every golden session at N <= 4000 loads, and so do both parties' records of
it. Every single duplication, adjacent swap, change of one event's actor or
kind, and drop of one event is rejected by ``from_jsonl``, with one
exception: dropping seq 0 or seq 1 of the canonical record leaves a valid
party record, and ``replay_verify`` rejects that instead. The mutations are
few enough to run all of them, so the check is deterministic.
"""

import pytest
from test_golden import BASE, CSS, CSS_15_11, SESSIONS, SESSIONS_15_11

from eqkd.harness.runner import replay_verify
from eqkd.protocol import ProtocolParams, run_session
from eqkd.transcript import GRAMMAR, Actor, Event, EventKind, SessionTranscript, TranscriptError

GOLDEN = [
    *((params, strategy, CSS, seed) for params, strategy, seed, _status, _v1, _sha in SESSIONS),
    *((BASE, strategy, CSS_15_11, seed) for strategy, seed, _v1, _sha in SESSIONS_15_11),
]


def _records(params, strategy, css, seed):
    """The metadata header and the event lines of the canonical, Alice's and Bob's records."""
    canonical = run_session(ProtocolParams(**params), strategy, css, seed).transcript
    header, *lines = canonical.to_jsonl().splitlines()
    seqs = [ev.seq for ev in canonical.events]
    return header, {
        "canonical": lines,
        # each party's own record lacks the QUBITS_SENT event it cannot observe
        "alice": [line for seq, line in zip(seqs, lines) if seq != 1],
        "bob": [line for seq, line in zip(seqs, lines) if seq != 0],
    }


def _mutations(lines):
    """(description, lines) for each single duplication, swap, actor or kind change, and drop."""
    events = [Event.from_json(line) for line in lines]
    for i, ev in enumerate(events):
        before, after = lines[:i], lines[i + 1 :]
        yield f"duplicate seq {ev.seq}", [*before, lines[i], lines[i], *after]
        yield f"drop seq {ev.seq}", [*before, *after]
        if after:
            yield f"swap seq {ev.seq} with the next", [*before, after[0], lines[i], *after[1:]]
        for actor in Actor:
            if actor is not ev.actor:
                changed = Event(ev.seq, actor, ev.kind, ev.payload).to_json()
                yield f"seq {ev.seq} by {actor.value}", [*before, changed, *after]
        for kind in EventKind:
            if kind is not ev.kind:
                changed = Event(ev.seq, ev.actor, kind, ev.payload).to_json()
                yield f"seq {ev.seq} as {kind.value}", [*before, changed, *after]


@pytest.mark.parametrize(
    "params, strategy, css, seed",
    GOLDEN,
    ids=[f"{type(g[1]).__name__}-seed{g[3]}-n{g[2].n}" for g in GOLDEN],
)
def test_golden_records_load_and_every_single_mutation_is_rejected(params, strategy, css, seed):
    header, records = _records(params, strategy, css, seed)
    accepted, tried = [], 0
    for name, lines in records.items():
        SessionTranscript.from_jsonl("\n".join([header, *lines]))
        for what, mutated in _mutations(lines):
            tried += 1
            text = "\n".join([header, *mutated])
            if name == "canonical" and what in ("drop seq 0", "drop seq 1"):
                ok, detail = replay_verify(SessionTranscript.from_jsonl(text))
                assert not ok and "event count differs" in detail
                continue
            try:
                SessionTranscript.from_jsonl(text)
            except TranscriptError:
                continue
            accepted.append(f"{name}: {what}")
    assert tried == sum(14 * len(lines) - 1 for lines in records.values())
    assert accepted == []


def test_one_party_speaks_at_each_seq():
    # each endpoint reads only the link of the party ``speaker`` names next
    assert all(len({actor for actor, _kind in pairs}) == 1 for pairs in GRAMMAR)


@pytest.mark.parametrize(
    "params, strategy, css, seed",
    GOLDEN,
    ids=[f"{type(g[1]).__name__}-seed{g[3]}-n{g[2].n}" for g in GOLDEN],
)
def test_a_transcript_has_ended_once_its_last_event_is_in(params, strategy, css, seed):
    events = run_session(ProtocolParams(**params), strategy, css, seed).transcript.events
    record = SessionTranscript()
    for ev in events:
        assert not record.ended
        record.record(ev)
    assert record.ended
    assert not any(record.allows(actor, kind) for actor in Actor for kind in EventKind)


@pytest.mark.parametrize(
    "params, strategy, css, seed",
    GOLDEN,
    ids=[f"{type(g[1]).__name__}-seed{g[3]}-n{g[2].n}" for g in GOLDEN],
)
def test_the_transcript_names_each_speaker_before_the_event(params, strategy, css, seed):
    _header, records = _records(params, strategy, css, seed)
    checked = 0
    for name, lines in records.items():
        record = SessionTranscript()
        for ev in map(Event.from_json, lines):
            # a party's record skips seq 0 or seq 1 only as it records the event
            # after the gap, so its speaker is checked from seq 3 on
            if name == "canonical" or ev.seq > 2:
                assert record.speaker is ev.actor, f"{name}: seq {ev.seq}"
                checked += 1
            record.record(ev)
    assert checked == sum(len(lines) for lines in records.values()) - 4
