"""The two-party key distribution protocol with biased basis choice.

Both parties pick the rectilinear basis with probability p (0 < p <= 1/2)
and the diagonal basis otherwise, so a fraction p^2 + (1-p)^2 of positions
survives sifting, approaching 1 as p shrinks. Error rates are estimated
separately per same-basis class: a session is accepted only when both class
rates clear the threshold, which is what defeats basis-biased interception
that a single lumped rate would miss. The raw key is taken from untested
both-diagonal positions only, then reconciled block-wise over a nested code
pair.

The party logic lives in two explicit state machines exchanging (actor,
kind, payload) messages; the in-process driver and the networked endpoints
shuttle the same messages, so both modes produce identical transcripts. A
machine's ``start`` does the work that needs no message: Alice prepares her
qubits, Bob draws his bases. A machine answers with a lazy :class:`Reply`,
which the caller drains before it passes the machine another message; each
reply makes a message before the work that only its sender needs, so the
peer works on it meanwhile.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
import reprlib
import sys
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

import numpy as np

from .channel import (
    DRAW_CONTRACT,
    AttackStrategy,
    RngStreams,
    SymbolBlock,
    bernoulli_threshold,
    mismatch_coins,
    raw_passes,
    strategy_from_dict,
    transmit,
    uniform_bits,
)
from .codes import (
    CssPair,
    block_permutations,
    css_from_meta,
    css_meta,
    reconcile_alice_blocks,
    reconcile_bob_blocks,
)
from .transcript import (
    PROCEED,
    Actor,
    Event,
    EventKind,
    SessionTranscript,
    canonical_json,
    pack_bits,
    unpack_bits,
)


class ProtocolError(Exception):
    pass


class ProtocolViolation(ProtocolError):
    """A message arrived out of protocol order or malformed."""


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters.

    Parameters
    ----------
    n_qubits : number of transmitted symbols N
    bias_p : rectilinear-basis probability p, 0 < p <= 1/2
    m1, m2 : test-sample sizes for the both-rectilinear and both-diagonal
        classes
    e_max : acceptance threshold on each class error rate
    delta_e : safety margin; sessions abort at rates >= e_max - delta_e
    delta_prime : sampling slack; defaults to p^2 / 10. Feasibility demands
        N (p^2 - delta_prime) >= m1.
    """

    n_qubits: int
    bias_p: float
    m1: int
    m2: int
    e_max: float = 0.11
    delta_e: float = 0.01
    delta_prime: float | None = None

    def __post_init__(self) -> None:
        for name in ("n_qubits", "m1", "m2"):
            if type(value := getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, not {reprlib.repr(value)}")
        for name in ("bias_p", "e_max", "delta_e", "delta_prime"):
            value = getattr(self, name)
            if value is None and name == "delta_prime":
                continue  # its default is set below
            # NaN, the infinities and integers past the float range fail the bound
            number = type(value) is int or isinstance(value, float)
            if not (number and abs(value) <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite number, not {reprlib.repr(value)}")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if not (0.0 < self.bias_p <= 0.5):
            raise ValueError("bias_p must lie in (0, 1/2]")
        if self.m1 < 1 or self.m2 < 1:
            raise ValueError("test sample sizes must be at least 1")
        if not (0.0 < self.e_max - self.delta_e):
            raise ValueError("e_max - delta_e must be positive")
        if self.delta_prime is None:
            object.__setattr__(self, "delta_prime", self.bias_p**2 / 10.0)
        if self.delta_prime <= 0.0:
            raise ValueError("delta_prime must be positive")
        if self.n_qubits * (self.bias_p**2 - self.delta_prime) < self.m1:
            raise ValueError(
                "infeasible: N (p^2 - delta_prime) must be at least m1"
            )

    @property
    def threshold(self) -> float:
        return self.e_max - self.delta_e

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProtocolParams":
        """Rebuild from ``to_dict``'s form; a malformed dict is a ValueError."""
        try:
            return cls(**d)
        except TypeError as exc:
            raise ValueError(f"malformed protocol parameters {d!r}") from exc


@dataclass(frozen=True)
class ErrorEstimate:
    """Refined per-class error estimate from disjoint test samples."""

    r1: int
    m1: int
    r2: int
    m2: int

    @property
    def e1(self) -> float:
        return self.r1 / self.m1

    @property
    def e2(self) -> float:
        return self.r2 / self.m2


class SessionStatus(str, enum.Enum):
    ACCEPTED = "accepted"
    ABORTED_ERROR_RATE = "aborted_error_rate"
    ABORTED_INSUFFICIENT_SAMPLE = "aborted_insufficient_sample"


def decide(estimate: ErrorEstimate, params: ProtocolParams) -> SessionStatus:
    """The acceptance rule both parties read: each class rate below the threshold."""
    accepted = estimate.e1 < params.threshold and estimate.e2 < params.threshold
    return SessionStatus.ACCEPTED if accepted else SessionStatus.ABORTED_ERROR_RATE


@dataclass(frozen=True, eq=False)
class SessionOutcome:
    """The canonical record of one session, plus two demonstration scalars.

    ``retained_fraction`` is the share of positions in the two same-basis
    classes. ``lumped_rate`` is the single error rate over a test sample
    drawn from the union of both classes, so each class counts by its size;
    the protocol itself never uses it. It is None when nothing survived
    sifting.
    """

    status: SessionStatus
    estimate: ErrorEstimate | None
    alice_key: np.ndarray | None
    bob_key: np.ndarray | None
    transcript: SessionTranscript
    retained_fraction: float
    lumped_rate: float | None
    num_blocks: int = 0


# ---------------------------------------------------------------------------
# Pipeline steps
# ---------------------------------------------------------------------------

def _draw_bases(rng: np.random.Generator, n: int, bias_p: float) -> np.ndarray:
    """n bases from n uint32 draws of :func:`raw_passes`, two to a raw word.

    A draw below ``bernoulli_threshold(p)`` picks the rectilinear basis (0),
    any other the diagonal (1); p = 1/2 gives a threshold of exactly 2^31.
    """
    bases = np.empty(n, dtype=np.uint8)
    diag = bases.view(bool)
    t = bernoulli_threshold(bias_p)
    for start, u in raw_passes(rng, n, np.uint32):
        np.greater_equal(u, t, out=diag[start : start + u.size])
    return bases


def alice_prepare(params: ProtocolParams, streams: RngStreams) -> SymbolBlock:
    """Draw Alice's bases (rectilinear w.p. p) and uniform bits.

    Draw contract: the bases as :func:`_draw_bases` draws them from the
    ``alice_bases`` stream, the bits by ``uniform_bits`` from ``alice_bits``.
    """
    n = params.n_qubits
    bases = _draw_bases(streams.stream("alice_bases"), n, params.bias_p)
    bits = uniform_bits(streams.stream("alice_bits"), n)
    return SymbolBlock(bases, bits)


def bob_measure(
    received: SymbolBlock, bases: np.ndarray, rng: np.random.Generator
) -> SymbolBlock:
    """Measure each received symbol in Bob's basis for it.

    A matching basis reproduces the encoded bit; a mismatched one yields a
    uniform outcome. Returns the (basis, outcome) record as a SymbolBlock.

    Draw contract: Bob's bases are the first n uint32 draws of ``rng``, as
    :func:`_draw_bases` draws them (``BobMachine.start``); then n positional
    coins, one raw bit each, give the mismatched positions their outcomes
    (:func:`mismatch_coins`): coin i is used only if basis i differs.
    """
    if len(received) != bases.size:
        raise ValueError("received block length does not match the bases")
    bits = received.bits.copy()
    mismatch_coins(bits, bases, received.bases, rng)
    return SymbolBlock(bases, bits)


def _in_class(members: np.ndarray, sample: np.ndarray, name: str) -> np.ndarray:
    """A test sample the peer announced, checked to be positions of its class.

    ``members`` is the class as a mask over the N positions; the sample's
    shape, strictly increasing positions below N, is the payload table's to
    check.
    """
    if not members[sample].all():
        raise ProtocolViolation(f"{name} test sample holds a position outside its class")
    return sample


# A sifted class is a mask over the N positions. A list of its positions,
# 8 bytes a member, is made at most a chunk of positions at a time.
_CHUNK = 1 << 16


def _member_positions(members: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """``np.flatnonzero(members)[ranks]``, listing at most a chunk of positions.

    A mask of at most a chunk is listed whole, which at that size costs less
    than packing it. A longer one is packed into 64-position words, whose
    running member counts find the word of each rank, and only those words
    are listed. A rank past the last member is an IndexError, as it is for
    the indexing; ranks are not negative.
    """
    if members.size <= _CHUNK:
        return np.flatnonzero(members)[ranks]
    words = np.zeros(-(-members.size // 64), dtype=np.uint64)
    words.view(np.uint8)[: -(-members.size // 8)] = np.packbits(members)  # in position order
    counts = np.bitwise_count(words).astype(np.int64)
    ends = np.cumsum(counts)
    word = np.searchsorted(ends, ranks, side="right")
    hits = counts[word]
    # the members of each rank's word, one word after another; a rank's own
    # member sits ends[word] - rank places before the end of its word's run
    listed = np.flatnonzero(np.unpackbits(words[word].view(np.uint8)).view(bool))
    return word * 64 + listed[np.cumsum(hits) - (ends[word] - ranks)] % 64


def naive_average_rate(p: float, e1: float, e2: float) -> float:
    """Population value of the lumped rate: class rates weighted by size."""
    w1, w2 = p * p, (1.0 - p) ** 2
    return (w1 * e1 + w2 * e2) / (w1 + w2)


def biased_attack_rates(p1: float, p2: float) -> tuple[float, float]:
    """Per-class error rates (e1, e2) = (p2/2, p1/2) under biased interception."""
    return p2 / 2.0, p1 / 2.0


# ---------------------------------------------------------------------------
# Wire-facing helpers
# ---------------------------------------------------------------------------

def encode_symbols(block: SymbolBlock) -> dict:
    return {
        "n": len(block),
        "bases": pack_bits(block.bases),
        "bits": pack_bits(block.bits),
    }


# The one mapping between session statuses and the DECISION payload strings.
_DECISION_FOR_STATUS = {
    SessionStatus.ACCEPTED: PROCEED,
    SessionStatus.ABORTED_ERROR_RATE: "abort_error_rate",
    SessionStatus.ABORTED_INSUFFICIENT_SAMPLE: "abort_insufficient_sample",
}
_STATUS_FOR_DECISION = {d: s for s, d in _DECISION_FOR_STATUS.items()}

# Field shapes. Each reads one field's value against the session sizes and
# returns it decoded, or raises ValueError saying what it expected. A bound
# or count is a number or the name of a size: "n", "m1", "m2", "block_len",
# "checks" or "blocks". A size known only to a range is a (low, high) pair.


def _bound(sizes: dict, bound, end: int) -> int:
    """A number, or the size ``bound`` names; of a (low, high) size, its ``end``."""
    value = sizes[bound] if isinstance(bound, str) else bound
    return value[end] if isinstance(value, tuple) else value


def _integer(low, high=None):
    """An integer (not a bool) in [low, high]; exactly ``low`` when ``high`` is None."""

    def read(value, sizes):
        lo, hi = _bound(sizes, low, 0), _bound(sizes, low if high is None else high, 1)
        if type(value) is int and lo <= value <= hi:
            return value
        raise ValueError(f"expected {lo}" if lo == hi else f"expected an integer in [{lo}, {hi}]")

    return read


def _bits(*count):
    """Bits in hex as :func:`pack_bits` writes them, shaped by the named sizes."""

    def read(value, sizes):
        shape = [sizes[name] for name in count]
        n = math.prod(shape)
        try:
            bits = unpack_bits(value, n)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"expected {n} bits as hex ({exc})") from None
        return bits.reshape(shape)

    return read


def _positions(count):
    """``count`` strictly increasing integer positions in [0, n), as an int64 array."""

    def read(value, sizes):
        m, n = sizes[count], sizes["n"]
        # all Python ints, so numpy infers int64 unless one is out of its range
        if isinstance(value, list) and len(value) == m and set(map(type, value)) == {int}:
            arr = np.asarray(value)
            if arr.dtype == np.int64 and 0 <= arr[0] and arr[-1] < n and (arr[1:] > arr[:-1]).all():
                return arr
        raise ValueError(f"expected {m} strictly increasing positions in [0, {n})")

    return read


def _string(read_text, what: str):
    """A string that ``read_text`` decodes, raising KeyError or ValueError on any other."""

    def read(value, sizes):
        try:
            if isinstance(value, str):
                return read_text(value)
        except (KeyError, ValueError):
            pass
        raise ValueError(f"expected {what}")

    return read


def _hexdigest(text: str) -> str:
    unpack_bits(text, 256)  # a SHA-256 hexdigest is 256 bits as pack_bits writes them
    return text


# The payload table: each kind's exact field set and each field's shape. Both
# machines, the relay and replay read every payload through it.
_BASES = {"n": _integer("n"), "bases": _bits("n")}
_SAMPLES = {"m1": _integer("m1"), "m2": _integer("m2")}
_LAYOUT = {"blocks": _integer("blocks"), "block_len": _integer("block_len")}
PAYLOADS = {
    EventKind.QUBITS_SENT: {**_BASES, "bits": _bits("n")},
    EventKind.BASES_ANNOUNCED_BOB: _BASES,
    EventKind.BASES_ANNOUNCED_ALICE: _BASES,
    EventKind.TEST_INDICES: {"rect": _positions("m1"), "diag": _positions("m2")},
    EventKind.TEST_DISCLOSURE: {**_SAMPLES, "rect_bits": _bits("m1"), "diag_bits": _bits("m2")},
    EventKind.ESTIMATE: {**_SAMPLES, "r1": _integer(0, "m1"), "r2": _integer(0, "m2")},
    EventKind.DECISION: {"status": _string(_STATUS_FOR_DECISION.__getitem__, "a decision")},
    EventKind.PERMUTATION_SEED: {"seed": _integer(0, 2**63 - 1), **_LAYOUT},
    EventKind.SYNDROME_ANNOUNCEMENT: {**_LAYOUT, "syndrome": _bits("blocks", "checks")},
    EventKind.KEY_DIGEST: {
        "algo": _string({"sha256": "sha256"}.__getitem__, "'sha256'"),
        "bits": _integer(0, "n"),
        "digest": _string(_hexdigest, "a SHA-256 hexdigest"),
    },
}


def session_sizes(params: ProtocolParams, css: CssPair, n_diag: int | None = None) -> dict:
    """The sizes the payload table names, and the one place the key layout is sized.

    The key is the untested part of a both-diagonal class of ``n_diag``
    positions, in (n_diag - m2) // css.n whole blocks. Without ``n_diag``
    the block count is known only to its range, from 0 to its value at N.
    """
    p = params
    top = max(0, (p.n_qubits if n_diag is None else n_diag) - p.m2) // css.n
    blocks = (0, top) if n_diag is None else top
    return {"n": p.n_qubits, "m1": p.m1, "m2": p.m2, "block_len": css.n,
            "checks": css.n - css.c1.k_dim, "blocks": blocks}


def read_payload(kind: EventKind, payload, sizes: dict) -> dict:
    """The fields of a ``kind`` payload, each checked and decoded once by its shape.

    ``sizes`` gives the sizes the shapes name (:func:`session_sizes`). A
    field named after a size is that size for the fields after it, so a
    payload's ``syndrome`` length follows its own ``blocks``. A payload that
    is not an object, a missing or extra field, or a field of the wrong
    type, range or length is a violation that names the field.
    """
    if not isinstance(payload, dict):
        raise ProtocolViolation(f"{kind.value} is a {type(payload).__name__}, not an object")
    shapes = PAYLOADS[kind]
    if payload.keys() != shapes.keys():
        for name in payload:
            if name not in shapes:
                raise ProtocolViolation(f"{name!r} is not a field of {kind.value}")
        missing = [name for name in shapes if name not in payload]
        verb = "is" if len(missing) == 1 else "are"
        raise ProtocolViolation(f"{', '.join(map(repr, missing))} {verb} missing")
    fields = {}
    for name, read in shapes.items():
        try:
            fields[name] = read(payload[name], sizes)
        except ValueError as exc:
            raise ProtocolViolation(f"{name!r} is {reprlib.repr(payload[name])}, {exc}") from None
        if name in sizes and sizes[name] != fields[name]:
            sizes = {**sizes, name: fields[name]}
    return fields


def relay(
    canonical: SessionTranscript,
    actor: Actor,
    kind: EventKind,
    payload: dict,
    strategy: AttackStrategy,
    streams: RngStreams,
) -> Event:
    """Log one message in flight between the parties; returns the event that arrives.

    The message must be the next event the session grammar allows. A
    decision must have the payload table's shape, since the grammar reads
    it to tell whether the session has ended. Alice's qubits must have the
    table's shape at the session's N before the channel strategy acts on
    them; the delivered copy is logged as the CHANNEL event and returned.
    No other payload is read here.
    """
    if not canonical.allows(actor, kind):
        raise ProtocolViolation(f"{actor.value} {kind.value} is out of the session order")
    if kind is EventKind.DECISION:
        read_payload(kind, payload, {})
    if kind is not EventKind.QUBITS_SENT:
        return canonical.append(actor, kind, payload)
    sent = read_payload(kind, payload, {"n": canonical.meta["params"]["n_qubits"]})
    canonical.append(actor, kind, payload)
    rng = None if strategy.stream is None else streams.stream(strategy.stream)
    delivered = transmit(SymbolBlock(sent["bases"], sent["bits"]), strategy, rng)
    return canonical.append(Actor.CHANNEL, kind, encode_symbols(delivered))


def key_digest_payload(key: np.ndarray) -> dict:
    digest = hashlib.sha256(np.packbits(np.asarray(key, dtype=np.uint8)).tobytes())
    return {"algo": "sha256", "bits": int(key.size), "digest": digest.hexdigest()}


def session_meta(
    params: ProtocolParams, strategy: AttackStrategy, css: CssPair, seed: int
) -> dict:
    """The session's configuration, as its transcript records it.

    A strategy that cannot act on ``params.n_qubits`` qubits is a ValueError.
    """
    strategy.check(params.n_qubits)
    return {
        "seed": int(seed),
        "draw_contract": DRAW_CONTRACT,
        "params": params.to_dict(),
        "strategy": strategy.to_dict(),
        "css": css_meta(css),
    }


def other_draw_contract(meta: dict) -> str | None:
    """Why ``meta`` cannot be run by this build's draws, or None if it can.

    Metadata without a ``draw_contract`` field predates it: contract 1.
    """
    contract = meta.get("draw_contract", 1)
    if type(contract) is int and contract == DRAW_CONTRACT:
        return None
    return f"recorded under draw contract {contract!r}; this build draws by {DRAW_CONTRACT}"


def check_seed(seed) -> int:
    """``seed`` if it is a session seed, an integer in [0, 2^64); any other is a ValueError."""
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValueError(f"malformed seed {seed!r}; a seed is an integer in [0, 2^64)")
    return seed


def session_from_meta(meta: dict) -> tuple[ProtocolParams, AttackStrategy, CssPair, int]:
    """The configuration ``session_meta`` recorded; malformed metadata is a ValueError.

    So is metadata of another draw contract (:func:`other_draw_contract`):
    its seed would draw other symbols here.
    """
    if other := other_draw_contract(meta):
        raise ValueError(other)
    seed = check_seed(meta.get("seed"))
    params = ProtocolParams.from_dict(meta.get("params"))
    return params, strategy_from_dict(meta.get("strategy")), css_from_meta(meta.get("css")), seed


def config_digest(meta: dict) -> str:
    return hashlib.sha256(canonical_json(meta).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Party state machines
# ---------------------------------------------------------------------------

Message = tuple[Actor, EventKind, dict]


class Reply:
    """A party's messages in answer to one message, each made when it is taken.

    The caller sends each message before it takes the next, so the work the
    party does after a message overlaps its peer's work on it. ``len()``
    makes every message not yet taken and counts them.
    """

    def __init__(self, steps: Iterable[Message]):
        self._steps = iter(steps)
        self._made: deque[Message] = deque()

    def __iter__(self) -> Reply:
        return self

    def __next__(self) -> Message:
        return self._made.popleft() if self._made else next(self._steps)

    def __len__(self) -> int:
        self._made.extend(self._steps)
        return len(self._made)


def _replies(receive):
    """Wrap a machine's ``receive``, which checks the message, to answer with a :class:`Reply`.

    Its first violation leaves the machine failed for good. A message that
    arrives before the last reply is drained, whose work may not have run
    yet, is refused with a ``ProtocolError``.
    """

    @functools.wraps(receive)
    def checked(self, actor: Actor, kind: EventKind, payload: dict) -> Reply:
        if self._replying:
            raise ProtocolError(f"{kind.value} from {actor.value} before the last reply was drained")
        try:
            steps = receive(self, actor, kind, payload)
        except ProtocolViolation:
            self.failed = True
            raise
        return self._reply(steps)

    return checked


@dataclass(frozen=True, eq=False)
class PartyResult:
    """One party's view of the session outcome."""

    status: SessionStatus
    estimate: ErrorEstimate | None
    key: np.ndarray | None
    own_digest: str | None
    peer_digest: str | None
    num_blocks: int


class _PartyMachine:
    """One party's side of the session.

    ``start`` does the work that needs no message from the peer and is
    called once, before any ``receive``. Both answer with a :class:`Reply`,
    which the caller drains before it calls ``receive`` again.
    """

    actor: Actor  # whose messages this machine emits

    def __init__(
        self,
        params: ProtocolParams,
        css: CssPair,
        streams: RngStreams,
        meta: dict | None = None,
    ):
        self.params = params
        self.css = css
        self.streams = streams
        self.transcript = SessionTranscript(meta=dict(meta or {}))
        self.done = False
        self.failed = False  # set at the first violation; then every message is refused
        self.result: PartyResult | None = None
        self._replying = False  # whether a reply is still to be drained
        self._bases_hex: str | None = None  # this party's bases, packed in start
        self.sizes = session_sizes(params, css)  # the block count is a range until sifting
        self._rect: np.ndarray | None = None  # the same-basis classes, as masks over N
        self._diag: np.ndarray | None = None
        self._class_sizes: tuple[int, int] | None = None  # (rect, diag) member counts
        self._test_rect: np.ndarray | None = None
        self._test_diag: np.ndarray | None = None
        self._estimate: ErrorEstimate | None = None
        self._key: np.ndarray | None = None

    def _emit(self, kind: EventKind, payload: dict) -> Message:
        self.transcript.append(self.actor, kind, payload)
        return (self.actor, kind, payload)

    def _announce_bases(self, kind: EventKind) -> Message:
        return self._emit(kind, {"n": self.params.n_qubits, "bases": self._bases_hex})

    def _reply(self, steps: Iterable[Message]) -> Reply:
        """``steps`` as this machine's reply; it takes no message until the last step has run."""
        self._replying = True
        return Reply(self._drain(steps))

    def _drain(self, steps: Iterable[Message]) -> Iterator[Message]:
        yield from steps
        self._replying = False

    def _accept(self, actor: Actor, kind: EventKind, payload: dict) -> dict:
        """Log an inbound message and return its fields, read through the payload table.

        It must be the grammar's next event, from a peer. A party receives
        each kind at most once, so ``receive`` dispatches on the kind alone
        once this has passed. The block count is this party's own layout,
        once it has sifted.
        """
        if self.failed:
            raise ProtocolViolation(f"{kind.value} from {actor.value} after an earlier violation")
        if self.done or actor is self.actor or not self.transcript.allows(actor, kind):
            raise ProtocolViolation(f"unexpected {kind.value} from {actor.value}")
        if self._bases_hex is None:  # only Bob's grammar lets a message in before his start
            raise ProtocolError(f"{kind.value} from {actor.value} before start")
        fields = read_payload(kind, payload, self.sizes)
        self.transcript.append(actor, kind, payload)
        return fields

    def _finish(
        self, status: SessionStatus, own_digest: str | None = None, peer_digest: str | None = None
    ) -> None:
        """The one terminal transition: record the result, accept no more messages."""
        self.result = PartyResult(
            status=status,
            estimate=self._estimate,
            key=self._key,
            own_digest=own_digest,
            peer_digest=peer_digest,
            num_blocks=self.sizes["blocks"] if status is SessionStatus.ACCEPTED else 0,
        )
        self.done = True

    def _sift(self, alice_bases: np.ndarray, bob_bases: np.ndarray) -> bool:
        """Mask both same-basis classes and size the key layout; whether the session goes on.

        It does when each class holds its test sample and the diagonal one a
        whole block besides. A 0/1 basis array's bool view reads True for
        diagonal. The classes are kept as masks over the N positions, with
        their sizes; no list of their positions is built.
        """
        a, b = alice_bases.view(bool), bob_bases.view(bool)
        self._rect = np.logical_or(a, b)
        np.logical_not(self._rect, out=self._rect)
        self._diag = np.logical_and(a, b)
        n_rect, n_diag = int(np.count_nonzero(self._rect)), int(np.count_nonzero(self._diag))
        self._class_sizes = (n_rect, n_diag)
        self.sizes = session_sizes(self.params, self.css, n_diag)
        return n_rect >= self.params.m1 and self.sizes["blocks"] >= 1

    def _raw_key_layout(self, bits: np.ndarray) -> np.ndarray:
        """This party's raw key: ``bits`` at the untested both-diagonal positions.

        Equals ``bits[untested]``, where ``untested`` is the both-diagonal
        positions not in the test sample, in increasing order, cut to whole
        blocks, reshaped to ``(blocks, n)``. The class is listed a chunk of
        positions at a time, less the chunk's tested positions, and their
        bits are copied into the output until it is full; the tested
        positions are sorted, so ``searchsorted`` finds each chunk's.
        """
        blocks, n = self.sizes["blocks"], self.css.n
        out = np.empty(blocks * n, dtype=bits.dtype)
        tested = self._test_diag
        done = 0
        for start in range(0, self._diag.size, _CHUNK):
            if done == out.size:
                break
            stop = start + _CHUNK
            untested = self._diag[start:stop].copy()
            lo, hi = np.searchsorted(tested, (start, stop))
            untested[tested[lo:hi] - start] = False
            local = np.flatnonzero(untested)[: out.size - done]
            out[done : done + local.size] = bits[start:stop][local]
            done += local.size
        return out.reshape(blocks, n)


class AliceMachine(_PartyMachine):
    """Alice: prepares symbols, discloses bases second, decides, reconciles."""

    actor = Actor.ALICE

    def __init__(self, params, css, streams, meta=None):
        super().__init__(params, css, streams, meta)
        self.symbols: SymbolBlock | None = None
        self._own_digest: str | None = None
        self._sample_fits: bool | None = None  # whether Bob owes a test sample; known once sifted

    def start(self) -> Reply:
        """Her qubits, prepared before any message reaches her; her bases go with them."""
        if self._bases_hex is not None:
            raise ProtocolViolation("start called twice")
        self.symbols = alice_prepare(self.params, self.streams)
        sent = encode_symbols(self.symbols)
        self._bases_hex = sent["bases"]
        msg = self._emit(EventKind.QUBITS_SENT, sent)
        self.transcript.skip()  # channel delivery is not visible to Alice
        return self._reply([msg])

    @_replies
    def receive(self, actor: Actor, kind: EventKind, payload: dict) -> Iterable[Message]:
        fields = self._accept(actor, kind, payload)
        if kind is EventKind.BASES_ANNOUNCED_BOB:
            return self._announce_and_sift(fields["bases"])
        if kind is EventKind.DECISION:
            if fields["status"] is not SessionStatus.ABORTED_INSUFFICIENT_SAMPLE:
                raise ProtocolViolation("unexpected early decision")
            if self._sample_fits:
                raise ProtocolViolation("insufficient-sample decision, but the sample fits")
            self._finish(fields["status"])
            return ()
        if kind is EventKind.TEST_INDICES:
            if not self._sample_fits:
                raise ProtocolViolation("test sample, but the classes are too small for one")
            self._test_rect = _in_class(self._rect, fields["rect"], "rect")
            self._test_diag = _in_class(self._diag, fields["diag"], "diag")
            return ()
        if kind is EventKind.TEST_DISCLOSURE:
            return self._estimate_and_decide(fields["rect_bits"], fields["diag_bits"])
        # Bob's KEY_DIGEST, the only other kind the grammar lets Alice receive
        self._finish(SessionStatus.ACCEPTED, self._own_digest, fields["digest"])
        return ()

    def _announce_and_sift(self, bob_bases: np.ndarray) -> Iterator[Message]:
        """Her bases go out first: she sifts while Bob sifts and draws his test sample."""
        yield self._announce_bases(EventKind.BASES_ANNOUNCED_ALICE)
        self._sample_fits = self._sift(self.symbols.bases, bob_bases)

    def _estimate_and_decide(self, bob_rect: np.ndarray, bob_diag: np.ndarray) -> Iterator[Message]:
        p = self.params
        mine_rect = self.symbols.bits[self._test_rect]
        mine_diag = self.symbols.bits[self._test_diag]
        r1 = int((mine_rect != bob_rect).sum())
        r2 = int((mine_diag != bob_diag).sum())
        counts = {"r1": r1, "m1": p.m1, "r2": r2, "m2": p.m2}
        est = self._estimate = ErrorEstimate(**counts)
        yield self._emit(EventKind.ESTIMATE, counts)
        status = decide(est, p)
        yield self._emit(EventKind.DECISION, {"status": _DECISION_FOR_STATUS[status]})
        if status is not SessionStatus.ACCEPTED:
            self._finish(status)
            return
        yield from self._reconcile()

    def _reconcile(self) -> Iterator[Message]:
        """The permutation seed goes out first: Bob permutes while she reconciles.

        Each permuted block is one packed n-bit word, which her syndrome and
        key are looked up from a byte at a time.
        """
        css = self.css
        layout = {"blocks": self.sizes["blocks"], "block_len": css.n}
        perm_seed = int(self.streams.stream("permutation").integers(0, 2**63))
        yield self._emit(EventKind.PERMUTATION_SEED, {"seed": perm_seed, **layout})
        v = self._raw_key_layout(self.symbols.bits)
        s, keys = reconcile_alice_blocks(css, block_permutations(v, perm_seed))
        self._key = keys.reshape(-1)
        yield self._emit(EventKind.SYNDROME_ANNOUNCEMENT, {**layout, "syndrome": pack_bits(s)})
        digest_payload = key_digest_payload(self._key)
        self._own_digest = digest_payload["digest"]
        yield self._emit(EventKind.KEY_DIGEST, digest_payload)


class BobMachine(_PartyMachine):
    """Bob: draws his bases at start, announces them, measures, draws the test sample, decodes."""

    actor = Actor.BOB

    def __init__(self, params, css, streams, meta=None):
        super().__init__(params, css, streams, meta)
        self.transcript.skip()  # Alice's pre-channel symbols are not visible
        self.results: SymbolBlock | None = None
        self._bases: np.ndarray | None = None
        self._perms: np.ndarray | None = None  # his permuted blocks as packed words, once seeded

    def start(self) -> Reply:
        """His bases, the first draws of ``bob_bases``, packed before the qubits arrive."""
        if self._bases_hex is not None:
            raise ProtocolViolation("start called twice")
        p = self.params
        self._bases = _draw_bases(self.streams.stream("bob_bases"), p.n_qubits, p.bias_p)
        self._bases_hex = pack_bits(self._bases)
        return self._reply(())

    @_replies
    def receive(self, actor: Actor, kind: EventKind, payload: dict) -> Iterable[Message]:
        fields = self._accept(actor, kind, payload)
        if kind is EventKind.QUBITS_SENT:
            return self._announce_and_measure(SymbolBlock(fields["bases"], fields["bits"]))
        if kind is EventKind.BASES_ANNOUNCED_ALICE:
            return self._select_test(self._sift(fields["bases"], self.results.bases))
        if kind is EventKind.ESTIMATE:
            self._estimate = ErrorEstimate(**fields)
            return ()
        if kind is EventKind.DECISION:
            status = fields["status"]
            if status is not decide(self._estimate, self.params):
                raise ProtocolViolation(f"{status.value} decision against the estimate")
            if status is not SessionStatus.ACCEPTED:
                self._finish(status)
            return ()
        if kind is EventKind.PERMUTATION_SEED:
            # all his permutation needs is public now, so it runs while Alice reconciles
            w = self._raw_key_layout(self.results.bits)
            self._perms = block_permutations(w, fields["seed"])
            return ()
        if kind is EventKind.SYNDROME_ANNOUNCEMENT:
            keys, _ok = reconcile_bob_blocks(self.css, self._perms, fields["syndrome"])
            self._key = keys.reshape(-1)
            return ()
        # Alice's KEY_DIGEST, the only other kind the grammar lets Bob receive
        digest_payload = key_digest_payload(self._key)
        out = [self._emit(EventKind.KEY_DIGEST, digest_payload)]
        self._finish(SessionStatus.ACCEPTED, digest_payload["digest"], fields["digest"])
        return out

    def _announce_and_measure(self, received: SymbolBlock) -> Iterator[Message]:
        """His bases go out first: he draws his mismatch coins while Alice sifts."""
        yield self._announce_bases(EventKind.BASES_ANNOUNCED_BOB)
        self.results = bob_measure(received, self._bases, self.streams.stream("bob_bases"))

    def _select_test(self, enough: bool) -> list[Message]:
        """Bob's sorted test samples, without replacement, or his insufficient-sample decision."""
        p = self.params
        if not enough:
            status = SessionStatus.ABORTED_INSUFFICIENT_SAMPLE
            out = [self._emit(EventKind.DECISION, {"status": _DECISION_FOR_STATUS[status]})]
            self._finish(status)
            return out
        rng = self.streams.stream("test_selection")
        n_rect, n_diag = self._class_sizes
        i1 = np.sort(rng.choice(n_rect, size=p.m1, replace=False))
        i2 = np.sort(rng.choice(n_diag, size=p.m2, replace=False))
        self._test_rect = _member_positions(self._rect, i1)
        self._test_diag = _member_positions(self._diag, i2)
        return [
            self._emit(
                EventKind.TEST_INDICES,
                {"rect": self._test_rect.tolist(), "diag": self._test_diag.tolist()},
            ),
            self._emit(
                EventKind.TEST_DISCLOSURE,
                {
                    "m1": p.m1,
                    "rect_bits": pack_bits(self.results.bits[self._test_rect]),
                    "m2": p.m2,
                    "diag_bits": pack_bits(self.results.bits[self._test_diag]),
                },
            ),
        ]


# ---------------------------------------------------------------------------
# In-process driver
# ---------------------------------------------------------------------------

def _lumped_rate(alice: AliceMachine, bob: BobMachine, rng: np.random.Generator) -> float | None:
    """Error rate over a sample drawn uniformly from both of Bob's same-basis classes.

    Index i < |rect| stands for the i-th both-rectilinear position and the
    rest for the both-diagonal ones; only the sampled indices are mapped to
    positions, so no array of the session's length is built.
    """
    n_rect, n_diag = bob._class_sizes
    total = n_rect + n_diag
    if total == 0:
        return None
    p = bob.params
    idx = rng.choice(total, size=min(p.m1 + p.m2, total), replace=False)
    in_rect = idx < n_rect
    positions = np.empty_like(idx)
    positions[in_rect] = _member_positions(bob._rect, idx[in_rect])
    positions[~in_rect] = _member_positions(bob._diag, idx[~in_rect] - n_rect)
    return float((alice.symbols.bits[positions] != bob.results.bits[positions]).mean())


def run_session(
    params: ProtocolParams, strategy: AttackStrategy, css: CssPair, seed: int
) -> SessionOutcome:
    """Run one full session in-process and return the canonical record.

    The same state machines that serve the networked mode are driven over an
    in-memory queue; the channel strategy is applied to the qubit payload in
    flight, exactly as the networked relay does. The lumped rate comes from a
    substream the protocol never touches, so it leaves the transcript alone.
    """
    streams = RngStreams(seed)
    meta = session_meta(params, strategy, css, seed)
    canonical = SessionTranscript(meta=meta)
    alice = AliceMachine(params, css, streams, meta=meta)
    bob = BobMachine(params, css, streams, meta=meta)

    queue: deque[Message] = deque(bob.start())  # empty: Bob draws his bases
    queue.extend(alice.start())
    while queue:
        ev = relay(canonical, *queue.popleft(), strategy, streams)
        receiver = alice if ev.actor is Actor.BOB else bob
        queue.extend(receiver.receive(ev.actor, ev.kind, ev.payload))

    if not (alice.done and bob.done):
        raise ProtocolError("session stalled before both parties finished")
    a, b = alice.result, bob.result
    if a.status is not b.status:
        raise ProtocolError("parties disagree on the session status")
    return SessionOutcome(
        status=a.status,
        estimate=a.estimate,
        alice_key=a.key,
        bob_key=b.key,
        transcript=canonical,
        retained_fraction=sum(bob._class_sizes) / params.n_qubits,
        lumped_rate=_lumped_rate(alice, bob, streams.stream("naive_test")),
        num_blocks=a.num_blocks,
    )
