"""Session transcripts: the ordered record of a protocol run.

Every public-channel message and both parties' relevant local data appear as
events. Sequence numbers follow the fixed protocol grammar, so independently
running endpoints assign identical numbers without coordination; an endpoint
that cannot observe an event (Alice never sees the post-channel symbols, Bob
never sees the pre-channel ones) skips its sequence number.
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
    CODEWORD_ANNOUNCEMENT = "codeword_announcement"
    PERMUTATION_SEED = "permutation_seed"
    KEY_DIGEST = "key_digest"


def pack_bits(bits: np.ndarray) -> str:
    """Hex encoding of a 0/1 array, 8 bits per byte, most significant first."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return np.packbits(arr).tobytes().hex()


def unpack_bits(hex_str: str, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the ``n`` bits a hex string encodes.

    Only what ``pack_bits`` gives is accepted: exactly 2·ceil(n/8) lowercase
    hex characters with zero pad bits, so ``pack_bits(unpack_bits(s, n)) == s``.
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
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n)


@dataclass(frozen=True)
class Event:
    seq: int
    actor: Actor
    kind: EventKind
    payload: dict

    def to_json(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "actor": self.actor.value,
                "kind": self.kind.value,
                "payload": self.payload,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, line: str) -> "Event":
        """Parse one event line; a malformed line is a TranscriptError."""
        try:
            obj = json.loads(line)
            ev = cls(
                seq=int(obj["seq"]),
                actor=Actor(obj["actor"]),
                kind=EventKind(obj["kind"]),
                payload=obj["payload"],
            )
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise TranscriptError(f"malformed event line: {exc!r}") from None
        if not isinstance(ev.payload, dict):
            raise TranscriptError(f"event {ev.seq} payload is not an object")
        return ev


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
        """Record an event observed elsewhere, keeping seq numbers aligned."""
        if ev.seq < self._next_seq:
            raise TranscriptError(f"seq {ev.seq} not increasing")
        self.events.append(ev)
        self._next_seq = ev.seq + 1

    def skip(self, count: int = 1) -> None:
        """Burn sequence numbers for events this party cannot observe."""
        self._next_seq += count

    def find(self, kind: EventKind) -> Event | None:
        for ev in self.events:
            if ev.kind == kind:
                return ev
        return None

    def find_all(self, kind: EventKind) -> list[Event]:
        return [ev for ev in self.events if ev.kind == kind]

    def validate(self) -> None:
        """Check seq monotonicity and the basis-announcement ordering."""
        seqs = [ev.seq for ev in self.events]
        if any(b <= a for a, b in zip(seqs, seqs[1:])):
            raise TranscriptError("sequence numbers must be strictly increasing")
        bob = self.find(EventKind.BASES_ANNOUNCED_BOB)
        alice = self.find(EventKind.BASES_ANNOUNCED_ALICE)
        if bob is not None and alice is not None and not bob.seq < alice.seq:
            raise TranscriptError("Bob's bases must be announced before Alice's")

    def event_lines(self) -> list[str]:
        return [ev.to_json() for ev in self.events]

    def to_jsonl(self) -> str:
        header = json.dumps({"meta": self.meta}, sort_keys=True, separators=(",", ":"))
        return "\n".join([header, *self.event_lines()]) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "SessionTranscript":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise TranscriptError("empty transcript")
        try:
            meta = json.loads(lines[0])["meta"]
        except (KeyError, TypeError, ValueError, RecursionError):
            meta = None
        if not isinstance(meta, dict):
            raise TranscriptError("missing metadata header line")
        t = cls(meta=meta)
        for line in lines[1:]:
            t.record(Event.from_json(line))
        t.validate()
        return t
