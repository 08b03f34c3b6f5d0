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
shuttle the same messages, so both modes produce identical transcripts.
"""

from __future__ import annotations

import enum
import hashlib
import json
import re
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .channel import (
    AttackStrategy,
    RngStreams,
    SymbolBlock,
    mismatch_coins,
    strategy_from_dict,
    transmit,
    uniform_passes,
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
    Actor,
    EventKind,
    SessionTranscript,
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


@dataclass(frozen=True, eq=False)
class ErrorEstimate:
    """Refined per-class error estimate from disjoint test samples."""

    r1: int
    m1: int
    r2: int
    m2: int
    tested_rect: np.ndarray
    tested_diag: np.ndarray

    @property
    def e1(self) -> float:
        return self.r1 / self.m1

    @property
    def e2(self) -> float:
        return self.r2 / self.m2

    @property
    def tested_positions(self) -> np.ndarray:
        return np.sort(np.concatenate([self.tested_rect, self.tested_diag]))


class SessionStatus(str, enum.Enum):
    ACCEPTED = "accepted"
    ABORTED_ERROR_RATE = "aborted_error_rate"
    ABORTED_INSUFFICIENT_SAMPLE = "aborted_insufficient_sample"


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
    """n bases from the draws of one ``rng.random(n)`` call, made in passes.

    A draw below p picks the rectilinear basis (0), any other the diagonal (1).
    """
    bases = np.empty(n, dtype=np.uint8)
    diag = bases.view(bool)
    for start, u in uniform_passes(rng, n):
        np.greater_equal(u, bias_p, out=diag[start : start + u.size])
    return bases


def alice_prepare(params: ProtocolParams, streams: RngStreams) -> SymbolBlock:
    """Draw Alice's bases (rectilinear w.p. p) and uniform bits."""
    n = params.n_qubits
    bases = _draw_bases(streams.stream("alice_bases"), n, params.bias_p)
    bits = streams.stream("alice_bits").integers(0, 2, size=n, dtype=np.uint8)
    return SymbolBlock(bases, bits)


def bob_measure(
    received: SymbolBlock, params: ProtocolParams, rng: np.random.Generator
) -> SymbolBlock:
    """Measure each symbol in an independently drawn basis.

    A matching basis reproduces the encoded bit; a mismatched one yields a
    uniform outcome. Returns the (basis, outcome) record as a SymbolBlock.

    Draw contract: the draws of one ``rng.random(n)`` call, made in passes,
    pick the bases (rectilinear below p); then one
    ``rng.integers(0, 2, size=k, dtype=uint8)`` call gives the k mismatched
    positions their outcomes, coin i going to the i-th mismatched position
    in increasing order.
    """
    n = len(received)
    if n != params.n_qubits:
        raise ValueError("received block length does not match params")
    bases = _draw_bases(rng, n, params.bias_p)
    bits = received.bits.copy()
    mismatch_coins(bits, bases, received.bases, rng)
    return SymbolBlock(bases, bits)


def _sift_positions(
    alice_bases: np.ndarray, bob_bases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the both-rectilinear and the both-diagonal class.

    The bases are 0/1 uint8 arrays, so their bool views read True for
    diagonal.
    """
    a = alice_bases.view(bool)
    b = bob_bases.view(bool)
    return np.flatnonzero(~(a | b)), np.flatnonzero(a & b)


def _draw_class_samples(
    n_rect: int, n_diag: int, m1: int, m2: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted without-replacement index samples for both classes."""
    i1 = np.sort(rng.choice(n_rect, size=m1, replace=False))
    i2 = np.sort(rng.choice(n_diag, size=m2, replace=False))
    return i1, i2


def _class_sample(positions: np.ndarray, sample, size: int, name: str) -> np.ndarray:
    """A test sample the peer announced for one class, checked on arrival.

    It must be ``size`` strictly increasing integers, each a position of the
    class (``positions``, sorted); anything else is a violation.
    """
    try:
        arr = np.asarray(sample)
    except (ValueError, OverflowError):
        arr = None
    if arr is None or arr.shape != (size,) or arr.dtype.kind not in "iu":
        raise ProtocolViolation(f"{name} test sample is not a list of {size} integers")
    arr = arr.astype(np.int64)
    slots = np.searchsorted(positions, arr)
    if (
        np.any(np.diff(arr) <= 0)
        or slots[-1] >= positions.size
        or np.any(positions[slots] != arr)
    ):
        raise ProtocolViolation(
            f"{name} test sample is not strictly increasing positions of its class"
        )
    return arr


def naive_average_rate(p: float, e1: float, e2: float) -> float:
    """Population value of the lumped rate: class rates weighted by size."""
    w1, w2 = p * p, (1.0 - p) ** 2
    return (w1 * e1 + w2 * e2) / (w1 + w2)


def biased_attack_rates(p1: float, p2: float) -> tuple[float, float]:
    """Per-class error rates (e1, e2) = (p2/2, p1/2) under biased interception."""
    return p2 / 2.0, p1 / 2.0


def weighted_error_rates(q: float, e1: float, e2: float) -> tuple[float, float]:
    """(bit-flip, phase) rates when a fraction q of the key is rectilinear.

    With a diagonal-only key (q = 0) the bit-flip rate is e2 and the phase
    rate is e1: flips show up in the key's own basis, phase errors in the
    other one.
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must lie in [0, 1]")
    e_bitflip = q * e1 + (1.0 - q) * e2
    e_phase = q * e2 + (1.0 - q) * e1
    return e_bitflip, e_phase


# ---------------------------------------------------------------------------
# Wire-facing helpers
# ---------------------------------------------------------------------------

def encode_symbols(block: SymbolBlock) -> dict:
    return {
        "n": len(block),
        "bases": pack_bits(block.bases),
        "bits": pack_bits(block.bits),
    }


def _peer_bits(payload: dict, key: str, count: int) -> np.ndarray:
    """``count`` bits from a hex field of a received payload.

    A missing field, or one that does not decode to exactly ``count`` bits,
    is a protocol violation.
    """
    try:
        return unpack_bits(payload[key], count)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolViolation(f"malformed {key!r} field: {exc}") from None


def _peer_int(payload: dict, key: str, low: int, high: int) -> int:
    """An integer field of a received payload; it must lie in [low, high]."""
    value = payload.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= high:
        wanted = low if low == high else f"an integer in [{low}, {high}]"
        raise ProtocolViolation(f"{key!r} is {value!r}, expected {wanted}")
    return value


def _peer_digest(payload: dict) -> str:
    """The ``digest`` of a received KEY_DIGEST: 64 lowercase hex characters, as ``hexdigest``."""
    digest = payload.get("digest")
    if not isinstance(digest, str) or not re.fullmatch("[0-9a-f]{64}", digest):
        raise ProtocolViolation(f"'digest' is {digest!r}, expected 64 lowercase hex characters")
    return digest


def decode_symbols(payload: dict) -> SymbolBlock:
    """The symbols of a qubits payload; a malformed payload is a violation."""
    n = payload.get("n")
    if not isinstance(n, int) or n < 0:
        raise ProtocolViolation(f"malformed symbol count {n!r}")
    return SymbolBlock(_peer_bits(payload, "bases", n), _peer_bits(payload, "bits", n))


def channel_transform(payload: dict, strategy: AttackStrategy, streams: RngStreams) -> dict:
    """Apply the channel strategy to a qubits payload (the relay's job)."""
    block = decode_symbols(payload)
    rng = None if strategy.stream is None else streams.stream(strategy.stream)
    return encode_symbols(transmit(block, strategy, rng))


def key_digest_payload(key: np.ndarray) -> dict:
    digest = hashlib.sha256(np.packbits(np.asarray(key, dtype=np.uint8)).tobytes())
    return {"algo": "sha256", "bits": int(key.size), "digest": digest.hexdigest()}


def session_meta(
    params: ProtocolParams, strategy: AttackStrategy, css: CssPair, seed: int
) -> dict:
    return {
        "seed": int(seed),
        "params": params.to_dict(),
        "strategy": strategy.to_dict(),
        "css": css_meta(css),
    }


def session_from_meta(meta: dict) -> tuple[ProtocolParams, AttackStrategy, CssPair, int]:
    """The configuration ``session_meta`` recorded; malformed metadata is a ValueError."""
    seed = meta["seed"]
    if type(seed) is not int:
        raise ValueError(f"malformed seed {seed!r}")
    params = ProtocolParams.from_dict(meta["params"])
    return params, strategy_from_dict(meta["strategy"]), css_from_meta(meta["css"]), seed


def config_digest(meta: dict) -> str:
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Party state machines
# ---------------------------------------------------------------------------

Message = tuple[Actor, EventKind, dict]

# The one mapping between session statuses and the DECISION payload strings.
_DECISION_FOR_STATUS = {
    SessionStatus.ACCEPTED: "proceed",
    SessionStatus.ABORTED_ERROR_RATE: "abort_error_rate",
    SessionStatus.ABORTED_INSUFFICIENT_SAMPLE: "abort_insufficient_sample",
}
_STATUS_FOR_DECISION = {d: s for s, d in _DECISION_FOR_STATUS.items()}


def status_for_decision(decision) -> SessionStatus:
    """The status a DECISION payload announces; unknown strings are violations."""
    try:
        return _STATUS_FOR_DECISION[decision]
    except (KeyError, TypeError):
        raise ProtocolViolation(f"unknown decision {decision!r}") from None


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
        self.result: PartyResult | None = None
        self._rect_pos: np.ndarray | None = None
        self._diag_pos: np.ndarray | None = None
        self._test_rect: np.ndarray | None = None
        self._test_diag: np.ndarray | None = None
        self._estimate: ErrorEstimate | None = None
        self._key: np.ndarray | None = None
        self._num_blocks = 0

    def _emit(self, actor: Actor, kind: EventKind, payload: dict) -> Message:
        self.transcript.append(actor, kind, payload)
        return (actor, kind, payload)

    def _accept(self, actor: Actor, kind: EventKind, payload: dict, *expected: EventKind) -> None:
        """Log an inbound message of one of the ``expected`` kinds with an object payload."""
        if kind not in expected:
            raise ProtocolViolation(f"unexpected {kind} in state {self._state}")
        if not isinstance(payload, dict):
            raise ProtocolViolation(f"{kind} payload is a {type(payload).__name__}, not an object")
        self.transcript.append(actor, kind, payload)

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
            num_blocks=self._num_blocks,
        )
        self.done = True
        self._state = "done"

    def _layout_blocks(self) -> int:
        """How many whole blocks the untested both-diagonal positions fill."""
        return (self._diag_pos.size - self._test_diag.size) // self.css.n

    def _raw_key_layout(self, bits: np.ndarray) -> np.ndarray:
        """This party's raw key: ``bits`` at the untested both-diagonal positions.

        Equals ``bits[untested]``, where ``untested`` is the both-diagonal
        positions not in the test sample, in increasing order, cut to whole
        blocks, reshaped to ``(blocks, n)``. The class is gathered first and
        the tested slots dropped from the gathered bits: ``_diag_pos`` is
        sorted (it comes from ``flatnonzero``) and the tested positions are
        members of it, so ``searchsorted`` finds their slots.
        """
        keep = np.ones(self._diag_pos.size, dtype=bool)
        keep[np.searchsorted(self._diag_pos, self._test_diag)] = False
        blocks, n = self._layout_blocks(), self.css.n
        return bits[self._diag_pos][keep][: blocks * n].reshape(blocks, n)


class AliceMachine(_PartyMachine):
    """Alice: prepares symbols, discloses bases second, decides, reconciles."""

    def __init__(self, params, css, streams, meta=None):
        super().__init__(params, css, streams, meta)
        self._state = "start"
        self.symbols: SymbolBlock | None = None
        self._own_digest: str | None = None

    def start(self) -> list[Message]:
        if self._state != "start":
            raise ProtocolViolation("start called twice")
        self.symbols = alice_prepare(self.params, self.streams)
        msg = self._emit(Actor.ALICE, EventKind.QUBITS_SENT, encode_symbols(self.symbols))
        self.transcript.skip()  # channel delivery is not visible to Alice
        self._state = "await_bob_bases"
        return [msg]

    def receive(self, actor: Actor, kind: EventKind, payload: dict) -> list[Message]:
        if self._state == "await_bob_bases":
            self._accept(actor, kind, payload, EventKind.BASES_ANNOUNCED_BOB)
            n = self.params.n_qubits
            _peer_int(payload, "n", n, n)
            bob_bases = _peer_bits(payload, "bases", n)
            out = [
                self._emit(
                    Actor.ALICE,
                    EventKind.BASES_ANNOUNCED_ALICE,
                    {"n": len(self.symbols), "bases": pack_bits(self.symbols.bases)},
                )
            ]
            self._rect_pos, self._diag_pos = _sift_positions(self.symbols.bases, bob_bases)
            self._state = "await_test"
            return out
        if self._state == "await_test":
            self._accept(actor, kind, payload, EventKind.TEST_INDICES, EventKind.DECISION)
            if kind is EventKind.DECISION:
                status = status_for_decision(payload.get("status"))
                if status is not SessionStatus.ABORTED_INSUFFICIENT_SAMPLE:
                    raise ProtocolViolation("unexpected early decision")
                self._finish(status)
                return []
            p = self.params
            self._test_rect = _class_sample(self._rect_pos, payload.get("rect"), p.m1, "rect")
            self._test_diag = _class_sample(self._diag_pos, payload.get("diag"), p.m2, "diag")
            self._state = "await_disclosure"
            return []
        if self._state == "await_disclosure":
            self._accept(actor, kind, payload, EventKind.TEST_DISCLOSURE)
            return self._estimate_and_decide(payload)
        if self._state == "await_bob_digest":
            self._accept(actor, kind, payload, EventKind.KEY_DIGEST)
            self._finish(SessionStatus.ACCEPTED, self._own_digest, _peer_digest(payload))
            return []
        raise ProtocolViolation(f"no messages expected in state {self._state}")

    def _estimate_and_decide(self, payload: dict) -> list[Message]:
        p = self.params
        _peer_int(payload, "m1", p.m1, p.m1)
        _peer_int(payload, "m2", p.m2, p.m2)
        bob_rect = _peer_bits(payload, "rect_bits", p.m1)
        bob_diag = _peer_bits(payload, "diag_bits", p.m2)
        mine_rect = self.symbols.bits[self._test_rect]
        mine_diag = self.symbols.bits[self._test_diag]
        r1 = int((mine_rect != bob_rect).sum())
        r2 = int((mine_diag != bob_diag).sum())
        est = ErrorEstimate(
            r1=r1,
            m1=p.m1,
            r2=r2,
            m2=p.m2,
            tested_rect=self._test_rect,
            tested_diag=self._test_diag,
        )
        self._estimate = est
        out = [
            self._emit(
                Actor.ALICE,
                EventKind.ESTIMATE,
                {"r1": est.r1, "m1": est.m1, "r2": est.r2, "m2": est.m2},
            )
        ]
        threshold = p.threshold
        accepted = est.e1 < threshold and est.e2 < threshold
        status = SessionStatus.ACCEPTED if accepted else SessionStatus.ABORTED_ERROR_RATE
        out.append(
            self._emit(
                Actor.ALICE, EventKind.DECISION, {"status": _DECISION_FOR_STATUS[status]}
            )
        )
        if not accepted:
            self._finish(status)
            return out
        out.extend(self._reconcile())
        self._state = "await_bob_digest"
        return out

    def _reconcile(self) -> list[Message]:
        css = self.css
        v = self._raw_key_layout(self.symbols.bits)
        blocks = self._num_blocks = v.shape[0]
        perm_seed = int(self.streams.stream("permutation").integers(0, 2**63))
        announcements, keys = reconcile_alice_blocks(
            css, block_permutations(v, perm_seed), self.streams.stream("codeword")
        )
        self._key = keys.reshape(-1)
        digest_payload = key_digest_payload(self._key)
        self._own_digest = digest_payload["digest"]
        return [
            self._emit(
                Actor.ALICE,
                EventKind.PERMUTATION_SEED,
                {"seed": perm_seed, "blocks": blocks, "block_len": css.n},
            ),
            self._emit(
                Actor.ALICE,
                EventKind.CODEWORD_ANNOUNCEMENT,
                {
                    "blocks": blocks,
                    "block_len": css.n,
                    "masked": pack_bits(announcements.reshape(-1)),
                },
            ),
            self._emit(Actor.ALICE, EventKind.KEY_DIGEST, digest_payload),
        ]


class BobMachine(_PartyMachine):
    """Bob: measures, announces bases first, draws the test sample, decodes."""

    def __init__(self, params, css, streams, meta=None):
        super().__init__(params, css, streams, meta)
        self.transcript.skip()  # Alice's pre-channel symbols are not visible
        self._state = "await_qubits"
        self.results: SymbolBlock | None = None
        self._perm_seed: int | None = None

    def receive(self, actor: Actor, kind: EventKind, payload: dict) -> list[Message]:
        if self._state == "await_qubits":
            self._accept(actor, kind, payload, EventKind.QUBITS_SENT)
            n = self.params.n_qubits
            _peer_int(payload, "n", n, n)
            received = decode_symbols(payload)
            self.results = bob_measure(received, self.params, self.streams.stream("bob_bases"))
            self._state = "await_alice_bases"
            return [
                self._emit(
                    Actor.BOB,
                    EventKind.BASES_ANNOUNCED_BOB,
                    {"n": len(self.results), "bases": pack_bits(self.results.bases)},
                )
            ]
        if self._state == "await_alice_bases":
            self._accept(actor, kind, payload, EventKind.BASES_ANNOUNCED_ALICE)
            n = self.params.n_qubits
            _peer_int(payload, "n", n, n)
            alice_bases = _peer_bits(payload, "bases", n)
            self._rect_pos, self._diag_pos = _sift_positions(alice_bases, self.results.bases)
            return self._select_test()
        if self._state == "await_estimate":
            self._accept(actor, kind, payload, EventKind.ESTIMATE)
            p = self.params
            self._estimate = ErrorEstimate(
                r1=_peer_int(payload, "r1", 0, p.m1),
                m1=_peer_int(payload, "m1", p.m1, p.m1),
                r2=_peer_int(payload, "r2", 0, p.m2),
                m2=_peer_int(payload, "m2", p.m2, p.m2),
                tested_rect=self._test_rect,
                tested_diag=self._test_diag,
            )
            self._state = "await_decision"
            return []
        if self._state == "await_decision":
            self._accept(actor, kind, payload, EventKind.DECISION)
            status = status_for_decision(payload.get("status"))
            if status is SessionStatus.ABORTED_INSUFFICIENT_SAMPLE:
                raise ProtocolViolation("insufficient-sample decision after the test sample")
            if status is SessionStatus.ACCEPTED:
                self._state = "await_permutation"
            else:
                self._finish(status)
            return []
        if self._state == "await_permutation":
            self._accept(actor, kind, payload, EventKind.PERMUTATION_SEED)
            self._perm_seed = _peer_int(payload, "seed", 0, 2**63 - 1)
            self._num_blocks = self._layout_blocks()
            self._check_block_layout(payload)
            self._state = "await_codeword"
            return []
        if self._state == "await_codeword":
            self._accept(actor, kind, payload, EventKind.CODEWORD_ANNOUNCEMENT)
            self._decode_blocks(payload)
            self._state = "await_alice_digest"
            return []
        if self._state == "await_alice_digest":
            self._accept(actor, kind, payload, EventKind.KEY_DIGEST)
            peer_digest = _peer_digest(payload)
            digest_payload = key_digest_payload(self._key)
            out = [self._emit(Actor.BOB, EventKind.KEY_DIGEST, digest_payload)]
            self._finish(SessionStatus.ACCEPTED, digest_payload["digest"], peer_digest)
            return out
        raise ProtocolViolation(f"no messages expected in state {self._state}")

    def _select_test(self) -> list[Message]:
        p = self.params
        enough = (
            self._rect_pos.size >= p.m1
            and self._diag_pos.size >= p.m2 + self.css.n
        )
        if not enough:
            status = SessionStatus.ABORTED_INSUFFICIENT_SAMPLE
            out = [
                self._emit(
                    Actor.BOB, EventKind.DECISION, {"status": _DECISION_FOR_STATUS[status]}
                )
            ]
            self._finish(status)
            return out
        i1, i2 = _draw_class_samples(
            self._rect_pos.size,
            self._diag_pos.size,
            p.m1,
            p.m2,
            self.streams.stream("test_selection"),
        )
        self._test_rect = self._rect_pos[i1]
        self._test_diag = self._diag_pos[i2]
        out = [
            self._emit(
                Actor.BOB,
                EventKind.TEST_INDICES,
                {
                    "rect": self._test_rect.tolist(),
                    "diag": self._test_diag.tolist(),
                },
            ),
            self._emit(
                Actor.BOB,
                EventKind.TEST_DISCLOSURE,
                {
                    "m1": p.m1,
                    "rect_bits": pack_bits(self.results.bits[self._test_rect]),
                    "m2": p.m2,
                    "diag_bits": pack_bits(self.results.bits[self._test_diag]),
                },
            ),
        ]
        self._state = "await_estimate"
        return out

    def _check_block_layout(self, payload: dict) -> None:
        """``blocks`` and ``block_len`` must describe this party's own raw-key layout."""
        _peer_int(payload, "blocks", self._num_blocks, self._num_blocks)
        _peer_int(payload, "block_len", self.css.n, self.css.n)

    def _decode_blocks(self, payload: dict) -> None:
        css = self.css
        self._check_block_layout(payload)
        blocks, n = self._num_blocks, css.n
        w = self._raw_key_layout(self.results.bits)
        announcements = _peer_bits(payload, "masked", blocks * n).reshape(blocks, n)
        keys, _ok = reconcile_bob_blocks(
            css, block_permutations(w, self._perm_seed), announcements
        )
        self._key = keys.reshape(-1)


# ---------------------------------------------------------------------------
# In-process driver
# ---------------------------------------------------------------------------

def _lumped_rate(
    rect_pos: np.ndarray,
    diag_pos: np.ndarray,
    alice_bits: np.ndarray,
    bob_bits: np.ndarray,
    sample_size: int,
    rng: np.random.Generator,
) -> float | None:
    """Error rate over a sample drawn uniformly from both same-basis classes.

    Index i < |rect| stands for the i-th both-rectilinear position and the
    rest for the both-diagonal ones; only the sampled indices are mapped to
    positions, so no array of the session's length is built.
    """
    total = rect_pos.size + diag_pos.size
    if total == 0:
        return None
    idx = rng.choice(total, size=min(sample_size, total), replace=False)
    in_rect = idx < rect_pos.size
    positions = np.empty_like(idx)
    positions[in_rect] = rect_pos[idx[in_rect]]
    positions[~in_rect] = diag_pos[idx[~in_rect] - rect_pos.size]
    return float((alice_bits[positions] != bob_bits[positions]).mean())


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

    queue: deque[tuple[str, Message]] = deque(
        ("bob", msg) for msg in alice.start()
    )
    while queue:
        dest, (actor, kind, payload) = queue.popleft()
        if actor is Actor.ALICE and kind is EventKind.QUBITS_SENT:
            canonical.append(Actor.ALICE, kind, payload)
            delivered = channel_transform(payload, strategy, streams)
            canonical.append(Actor.CHANNEL, EventKind.QUBITS_SENT, delivered)
            replies = bob.receive(Actor.CHANNEL, EventKind.QUBITS_SENT, delivered)
            queue.extend(("alice", m) for m in replies)
            continue
        canonical.append(actor, kind, payload)
        if dest == "bob":
            replies = bob.receive(actor, kind, payload)
            queue.extend(("alice", m) for m in replies)
        else:
            replies = alice.receive(actor, kind, payload)
            queue.extend(("bob", m) for m in replies)

    if not (alice.done and bob.done):
        raise ProtocolError("session stalled before both parties finished")
    canonical.validate()
    a, b = alice.result, bob.result
    if a.status is not b.status:
        raise ProtocolError("parties disagree on the session status")
    rect_pos, diag_pos = bob._rect_pos, bob._diag_pos
    return SessionOutcome(
        status=a.status,
        estimate=a.estimate,
        alice_key=a.key,
        bob_key=b.key,
        transcript=canonical,
        retained_fraction=(rect_pos.size + diag_pos.size) / params.n_qubits,
        lumped_rate=_lumped_rate(
            rect_pos,
            diag_pos,
            alice.symbols.bits,
            bob.results.bits,
            params.m1 + params.m2,
            streams.stream("naive_test"),
        ),
        num_blocks=a.num_blocks,
    )
