"""Session transcripts: the ordered record of a protocol run.

Every public-channel message and both parties' relevant local data appear as
events. Sequence numbers follow the fixed protocol grammar, ``GRAMMAR``: the
(actor, kind) pairs allowed at each seq. Independently running endpoints
therefore assign identical numbers without coordination; an endpoint that
cannot observe an event (Alice never sees the post-channel symbols, Bob
never sees the pre-channel ones) skips its sequence number. The party
machines and the relay ask ``SessionTranscript`` whose turn it is and
whether an event may come next; loading a record walks the same
``allows`` check, event by event.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np


class Actor(str, enum.Enum):
    ALICE = "alice"
    BOB = "bob"
    CHANNEL = "channel"


class EventKind(str, enum.Enum):
    QUBITS_SENT = "qubits_sent"
    BASES_ANNOUNCED_BOB = "bases_announced_bob"
    BASES_ANNOUNCED_ALICE = "bases_announced_alice"
    TEST_INDICES = "test_indices"
    TEST_DISCLOSURE = "test_disclosure"
    ESTIMATE = "estimate"
    DECISION = "decision"
    SYNDROME_ANNOUNCEMENT = "syndrome_announcement"
    PERMUTATION_SEED = "permutation_seed"
    KEY_DIGEST = "key_digest"


# The session grammar: the (actor, kind) pairs allowed as event ``seq``. Bob's
# DECISION at seq 4 stands in for TEST_INDICES when a class is too small to
# sample. A DECISION ends the session unless it says PROCEED, and Bob's
# KEY_DIGEST, the last seq, ends it too. One actor speaks at each seq.
GRAMMAR: tuple[tuple[tuple[Actor, EventKind], ...], ...] = (
    ((Actor.ALICE, EventKind.QUBITS_SENT),),
    ((Actor.CHANNEL, EventKind.QUBITS_SENT),),
    ((Actor.BOB, EventKind.BASES_ANNOUNCED_BOB),),
    ((Actor.ALICE, EventKind.BASES_ANNOUNCED_ALICE),),
    ((Actor.BOB, EventKind.TEST_INDICES), (Actor.BOB, EventKind.DECISION)),
    ((Actor.BOB, EventKind.TEST_DISCLOSURE),),
    ((Actor.ALICE, EventKind.ESTIMATE),),
    ((Actor.ALICE, EventKind.DECISION),),
    ((Actor.ALICE, EventKind.PERMUTATION_SEED),),
    ((Actor.ALICE, EventKind.SYNDROME_ANNOUNCEMENT),),
    ((Actor.ALICE, EventKind.KEY_DIGEST),),
    ((Actor.BOB, EventKind.KEY_DIGEST),),
)
PROCEED = "proceed"


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(obj) -> str:
    """The one JSON form of transcript lines, wire payloads and config digests.

    Equal to ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` for
    every input, errors included: an event or a payload is written key by
    key (:func:`_write_flat`), and anything that holds a list, or dicts
    deeper than that, goes to json whole, which then recurses exactly as
    ``json.dumps`` does.
    """
    parts: list[str] = []
    return "".join(parts) if _write_flat(obj, parts, 2) else _ENCODE(obj)


def _write_flat(obj, parts: list[str], levels: int) -> bool:
    """Append ``obj``'s canonical JSON to ``parts`` key by key, if it is flat.

    Flat is a non-empty dict with string keys whose values are scalars or,
    down to ``levels`` dicts, flat dicts; returns False at the first value
    that is not. Keys go in json's order, so a value that raises here is the
    one json would raise at. A string of ASCII letters and digits, such as a hex field, is
    copied between quotes: json would escape nothing in it, and one C pass
    checks that in about a quarter of the time json's escaper takes.
    """
    if not (type(obj) is dict and obj and all(type(key) is str for key in obj)):
        return False
    sep = "{"
    for key in sorted(obj):
        value = obj[key]
        parts += (sep, _ENCODE(key), ":")
        if type(value) is str and value.isascii() and value.encode().isalnum():
            parts += ('"', value, '"')
        elif isinstance(value, (dict, list, tuple)):
            if not (levels > 1 and _write_flat(value, parts, levels - 1)):
                return False
        else:
            parts.append(_ENCODE(value))
        sep = ","
    parts.append("}")
    return True


def pack_bits(bits: np.ndarray) -> str:
    """Hex encoding of a 0/1 array, 8 bits per byte, most significant first."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return np.packbits(arr).tobytes().hex()


def packed_bits(hex_str: str, n: int) -> bytes:
    """The bytes :func:`pack_bits` packed ``n`` bits into, read back from its hex.

    Only what ``pack_bits`` gives is accepted: exactly 2·ceil(n/8) lowercase
    hex characters with zero pad bits, so ``packed_bits(s, n).hex() == s``.
    Anything else is a ValueError, never zero-padded, cut or re-encoded.
    """
    size = (n + 7) // 8
    if n < 0 or len(hex_str) != 2 * size:
        raise ValueError(f"{len(hex_str)} characters do not encode exactly {n} bits")
    # fromhex takes upper case and skips whitespace, which at this length
    # leaves it short of `size` bytes; each `in` is one scan in C
    data = bytes.fromhex(hex_str)
    if len(data) != size or any(c in hex_str for c in "ABCDEF"):
        raise ValueError("hex field is not lowercase hex digits only")
    if size and data[-1] & ((1 << (8 * size - n)) - 1):
        raise ValueError(f"pad bits after bit {n} are not zero")
    return data


def unpack_bits(hex_str: str, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the ``n`` bits a hex string encodes.

    The string is checked as :func:`packed_bits` checks it, so
    ``pack_bits(unpack_bits(s, n)) == s``.
    """
    return np.unpackbits(np.frombuffer(packed_bits(hex_str, n), dtype=np.uint8), count=n)


@dataclass(frozen=True)
class Event:
    seq: int
    actor: Actor
    kind: EventKind
    payload: dict

    def to_json(self) -> str:
        """The event's transcript line, its canonical JSON."""
        actor, kind = self.actor.value, self.kind.value
        return canonical_json({"actor": actor, "kind": kind, "payload": self.payload, "seq": self.seq})

    @classmethod
    def from_json(cls, line: str) -> "Event":
        """Parse one event line; a malformed line is a TranscriptError."""
        try:
            obj = json.loads(line)
            seq = obj["seq"]
            if type(seq) is not int:
                raise TypeError(f"seq {seq!r} is not an integer")
            if extra := obj.keys() - {"seq", "actor", "kind", "payload"}:
                raise ValueError(f"unknown event keys: {', '.join(sorted(extra))}")
            ev = cls(
                seq=seq,
                actor=Actor(obj["actor"]),
                kind=EventKind(obj["kind"]),
                payload=obj["payload"],
            )
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise TranscriptError(f"malformed event line: {exc!r}") from None
        if not isinstance(ev.payload, dict):
            raise TranscriptError(f"event {ev.seq} payload is not an object")
        return ev

    def ends_session(self) -> bool:
        """Whether no event may follow this one."""
        if self.kind is EventKind.DECISION:
            return self.payload.get("status") != PROCEED
        return self.seq == len(GRAMMAR) - 1


class TranscriptError(Exception):
    pass


@dataclass
class SessionTranscript:
    """Ordered event record plus the metadata needed to replay the run."""

    meta: dict = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    _next_seq: int = 0

    def append(self, actor: Actor, kind: EventKind, payload: dict) -> Event:
        ev = Event(seq=self._next_seq, actor=actor, kind=kind, payload=payload)
        self._next_seq += 1
        self.events.append(ev)
        return ev

    def record(self, ev: Event) -> None:
        """Record an event read from elsewhere; it must be the next one ``allows`` permits.

        A party's own record lacks one of the two QUBITS_SENT events, so
        seq 0 or seq 1 may be missing, not both.
        """
        if ev.seq == self._next_seq + 1 <= 2:
            self.skip()
        if ev.seq != self._next_seq:
            raise TranscriptError(f"seq {ev.seq} follows seq {self._next_seq - 1}")
        if self.ended:
            raise TranscriptError(f"the session ended before seq {ev.seq}")
        if not self.allows(ev.actor, ev.kind):
            raise TranscriptError(f"{ev.actor.value} {ev.kind.value} cannot be event {ev.seq}")
        self.events.append(ev)
        self._next_seq += 1

    def skip(self, count: int = 1) -> None:
        """Burn sequence numbers for events this party cannot observe."""
        self._next_seq += count

    @property
    def ended(self) -> bool:
        """Whether the last event ends the session."""
        return bool(self.events) and self.events[-1].ends_session()

    @property
    def speaker(self) -> Actor:
        """Who speaks the next event; read it only before the session has ended."""
        return GRAMMAR[self._next_seq][0][0]

    def allows(self, actor: Actor, kind: EventKind) -> bool:
        """Whether the grammar allows ``actor``'s ``kind`` as the next event."""
        seq = self._next_seq
        return not self.ended and seq < len(GRAMMAR) and (actor, kind) in GRAMMAR[seq]

    def find(self, kind: EventKind) -> Event | None:
        return next((ev for ev in self.events if ev.kind == kind), None)

    def find_all(self, kind: EventKind) -> list[Event]:
        return [ev for ev in self.events if ev.kind == kind]

    def meta_line(self) -> str:
        """The first line of the JSONL form; one ``Event.to_json`` line per event follows it."""
        return canonical_json({"meta": self.meta})

    def event_lines(self) -> list[str]:
        return [ev.to_json() for ev in self.events]

    def to_jsonl(self) -> str:
        return "\n".join([self.meta_line(), *self.event_lines()]) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, skip_events=lambda meta: False) -> "SessionTranscript":
        """Load a record; when ``skip_events(meta)`` is true, only its header is read."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise TranscriptError("empty transcript")
        try:
            header = json.loads(lines[0])
            meta = header["meta"]
        except (KeyError, TypeError, ValueError, RecursionError):
            meta = None
        if not isinstance(meta, dict):
            raise TranscriptError("missing metadata header line")
        if extra := header.keys() - {"meta"}:
            raise TranscriptError(f"unknown header keys: {', '.join(sorted(extra))}")
        t = cls(meta=meta)
        for line in [] if skip_events(meta) else lines[1:]:
            t.record(Event.from_json(line))
        if t.events and not t.ended:  # a bare metadata header loads
            raise TranscriptError(f"the session is cut short, at seq {t.events[-1].seq}")
        return t
