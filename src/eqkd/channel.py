"""Classical model of the polarization channel.

A transmitted photon is reduced to a (basis, bit) pair: the preparation basis
and the encoded bit. Pauli errors and intercept-resend eavesdropping act on
these pairs exactly as they would on the corresponding polarization states,
which is all the protocol analysis ever observes.

Encoding convention: in the rectilinear basis bit 0 is horizontal and bit 1 is
vertical; in the diagonal basis bit 0 is 45 degrees and bit 1 is 135 degrees.
"""

from __future__ import annotations

import reprlib
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

import numpy as np


# _FLIP[b, basis] == 1 when the Pauli letter named by byte b flips the encoded
# bit in that basis: X flips rectilinear encodings only, Z diagonal only, Y both.
_FLIP = np.zeros((256, 2), dtype=np.uint8)
_FLIP[list(b"XYZ")] = [[1, 0], [1, 1], [0, 1]]
# a Pauli letter's name, from its name in either case or from its code 0-3
_PAULI_NAMES = {**{c: c.upper() for c in "IXYZixyz"}, **dict(enumerate("IXYZ"))}


# The draw contract: the streams a session draws and how every kernel turns a
# generator's output into draws. Recorded in the session metadata, so a
# transcript drawn under another contract is refused rather than replayed.
# Under contract 4 the test samples are drawn from a seed that Bob announces.
DRAW_CONTRACT = 4

# Raw words are drawn this many at a time, so that a pass and what is computed
# from it stay in L2 cache. A bit generator hands out its words in order, so
# the passes together are the words of one ``random_raw`` call.
WORDS_PER_PASS = 1 << 16


def raw_passes(
    rng: np.random.Generator, n: int, dtype=np.uint64, words_per_pass: int = WORDS_PER_PASS
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start, d): d holds draws start .. start + len(d) - 1 of n.

    The draws are the generator's raw 64-bit words (``bit_generator.random_raw``)
    cut into little-endian ``dtype`` pieces, low piece first: uint32 draw 2j
    is the low half of word j and draw 2j + 1 its high half, and uint8 draw
    i is byte i mod 8 of word i // 8. n draws use ceil(n / pieces per word)
    words; the rest of the last one is dropped. Each pass is a fresh array of
    at most ``words_per_pass`` words.
    """
    size = np.dtype(dtype).itemsize
    words = -(-n * size // 8)
    for first in range(0, words, words_per_pass):
        raw = rng.bit_generator.random_raw(min(words_per_pass, words - first))
        start = first * 8 // size
        yield start, raw.astype("<u8", copy=False).view(f"<u{size}")[: n - start]


def bernoulli_threshold(p: float) -> np.uint32 | int:
    """round(p * 2^32): a uint32 draw u fires a Bernoulli(p) when u < this.

    The firing probability is the threshold over 2^32, within 2^-33 of p.
    The threshold is a numpy uint32, which a uint32 array compares against
    fastest. A probability of 1 gives the Python int 2^32 instead: numpy
    compares it exactly, so every draw is below it and it does not wrap to 0.
    """
    t = round(float(p) * 4294967296.0)
    return np.uint32(t) if t < 1 << 32 else t


def uniform_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n fair 0/1 bits as uint8: bit i is bit i mod 64 of raw word i // 64, drawn in one pass."""
    one_pass = raw_passes(rng, -(-n // 8), np.uint8, max(-(-n // 64), 1))
    _, raw = next(one_pass, (0, np.zeros(0, np.uint8)))
    return np.unpackbits(raw, count=n, bitorder="little")


def mismatch_coins(
    bits: np.ndarray, bases: np.ndarray, sent_bases: np.ndarray, rng: np.random.Generator
) -> None:
    """Replace the bit at each position where the bases differ by a fair coin.

    Draw contract: coins are positional. Coin i is bit i of
    ``uniform_bits(rng, len(bits))``, and it replaces bit i only where
    ``bases`` differs from ``sent_bases``; the coins of the other positions
    are drawn and dropped. So the stream always moves by ceil(n / 64) words.
    """
    # a pass of 2^10 words covers 2^16 positions
    for start, raw in raw_passes(rng, -(-bits.size // 8), np.uint8, WORDS_PER_PASS // 64):
        part = slice(8 * start, 8 * (start + raw.size))
        b = bits[part]
        coins = np.unpackbits(raw, count=b.size, bitorder="little")
        coins ^= b
        coins &= bases[part] ^ sent_bases[part]
        b ^= coins


class SymbolBlock:
    """A batch of transmitted photons stored as parallel bit arrays.

    Entry i is photon i's preparation basis (0 rectilinear, 1 diagonal) and
    its encoded bit; operations work on the arrays directly.
    """

    __slots__ = ("bases", "bits")

    def __init__(self, bases: np.ndarray, bits: np.ndarray):
        bases, bits = np.asarray(bases), np.asarray(bits)
        if bases.shape != bits.shape or bases.ndim != 1:
            raise ValueError("bases and bits must be equal-length 1-d arrays")
        # bool or integer arrays only, read unsigned, where a negative entry exceeds 1
        unsigned = [a.view(a.dtype.str.replace("i", "u")) for a in (bases, bits)]
        if any(a.dtype.kind not in "bu" for a in unsigned) or (
            bases.size and (unsigned[0].max() > 1 or unsigned[1].max() > 1)
        ):
            raise ValueError("bases and bits must be 0/1 valued")
        self.bases = bases.astype(np.uint8, copy=False)
        self.bits = bits.astype(np.uint8, copy=False)

    def __len__(self) -> int:
        return int(self.bases.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolBlock):
            return NotImplemented
        return np.array_equal(self.bases, other.bases) and np.array_equal(
            self.bits, other.bits
        )

    def copy(self) -> "SymbolBlock":
        return SymbolBlock(self.bases.copy(), self.bits.copy())


class AttackStrategy:
    """What a channel strategy is: the base of the four below.

    ``kind`` names the strategy in its dict form, which feeds the session
    metadata, the config digest and replay; ``stream`` names the RNG
    substream it draws from, or None when it draws nothing.
    """

    kind: ClassVar[str]
    stream: ClassVar[str | None] = None

    def check(self, n_qubits: int) -> None:
        """Refuse, as a ValueError, a session of ``n_qubits`` this strategy cannot act on."""

    def apply(self, block: SymbolBlock, rng: np.random.Generator | None) -> SymbolBlock:
        """What arrives at Bob's end when Alice sends ``block``."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class Passive(AttackStrategy):
    """No eavesdropping, no noise: the channel is the identity."""

    kind: ClassVar[str] = "passive"

    def apply(self, block: SymbolBlock, rng) -> SymbolBlock:
        return block.copy()


@dataclass(frozen=True)
class BiasedInterceptResend(AttackStrategy):
    """Intercept-resend attack with per-basis interception probabilities.

    Each photon is independently measured in the rectilinear basis with
    probability ``p1``, in the diagonal basis with probability ``p2``, and
    passed untouched otherwise. A photon measured in its own preparation
    basis is re-sent unchanged; a photon measured in the other basis is
    re-sent in the measurement basis with Eve's (uniformly random) outcome.
    """

    kind: ClassVar[str] = "biased_intercept_resend"
    stream: ClassVar[str] = "eve"

    p1: float
    p2: float

    def __post_init__(self) -> None:
        check_number("p1", self.p1)
        check_number("p2", self.p2)
        if not (0.0 <= self.p1 and 0.0 <= self.p2):
            raise ValueError("interception probabilities must be nonnegative")
        if self.p1 + self.p2 > 1.0 + 1e-12:
            raise ValueError("p1 + p2 must not exceed 1")

    def apply(self, block: SymbolBlock, rng: np.random.Generator) -> SymbolBlock:
        """Intercept, then re-send each photon.

        Draw contract: one uint32 draw of :func:`raw_passes` per photon. A
        photon is measured in the rectilinear basis when its draw u <
        ``bernoulli_threshold(p1)``, and in the diagonal one when that
        threshold <= u < ``bernoulli_threshold(p1 + p2)``; each probability
        has a resolution of 2^-32. Then :func:`mismatch_coins` gives the
        photons re-sent in the other basis Eve's outcomes, positionally.
        """
        bases = self._resent_bases(block.bases, rng)
        # a measurement in the other basis is exactly a change of basis
        bits = block.bits.copy()
        mismatch_coins(bits, bases, block.bases, rng)
        return SymbolBlock(bases, bits)

    def _resent_bases(self, sent_bases: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        t_rect = bernoulli_threshold(self.p1)
        t_any = bernoulli_threshold(self.p1 + self.p2)
        diag = sent_bases.view(bool)
        bases = np.empty(sent_bases.size, dtype=np.uint8)
        resent_diag = bases.view(bool)
        for start, u in raw_passes(rng, sent_bases.size, np.uint32):
            part = slice(start, start + u.size)
            # not measured rectilinear, and measured diagonal or sent diagonal
            np.logical_and(u >= t_rect, (u < t_any) | diag[part], out=resent_diag[part])
        return bases


@dataclass(frozen=True)
class DepolarizingPauli(AttackStrategy):
    """I.i.d. Pauli noise with letter probabilities (q_i, q_x, q_y, q_z)."""

    kind: ClassVar[str] = "depolarizing"
    stream: ClassVar[str] = "noise"

    q_i: float
    q_x: float
    q_y: float
    q_z: float

    def __post_init__(self) -> None:
        qs = (self.q_i, self.q_x, self.q_y, self.q_z)
        for name, q in zip(("q_i", "q_x", "q_y", "q_z"), qs):
            check_number(name, q)
        if any(q < 0 for q in qs):
            raise ValueError("letter probabilities must be nonnegative")
        # written so that a NaN probability fails the check too
        if not abs(sum(qs) - 1.0) <= 1e-12:
            raise ValueError("letter probabilities must sum to 1 within 1e-12")

    @classmethod
    def symmetric(cls, w: float) -> "DepolarizingPauli":
        """Equal X/Y/Z weight w each; per-basis bit-flip rate is 2w."""
        return cls(1.0 - 3.0 * w, w, w, w)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "q": [self.q_i, self.q_x, self.q_y, self.q_z]}

    @classmethod
    def from_dict(cls, d: dict) -> "DepolarizingPauli":
        return cls(*d["q"])

    def apply(self, block: SymbolBlock, rng: np.random.Generator) -> SymbolBlock:
        """Flip each bit whose sampled letter anticommutes with its basis.

        Draw contract: one uint32 draw of :func:`raw_passes` per symbol,
        compared against the cumulative letter thresholds
        ``bernoulli_threshold(cdf[k])`` for k = 0, 1, 2, the cdf being the
        running sum of (q_i, q_x, q_y, q_z) over its total. The letter at a
        draw u is the first whose threshold exceeds u, so each letter has a
        resolution of 2^-32 and a letter of probability 0 never fires. No
        letters are formed: a diagonal bit flips on Y or Z (u >= t[1]) and a
        rectilinear bit on X or Y (t[0] <= u < t[2]).
        """
        cdf = np.array([self.q_i, self.q_x, self.q_y, self.q_z], dtype=np.float64).cumsum()
        t0, t1, t2 = (bernoulli_threshold(c) for c in cdf[:3] / cdf[-1])
        diag = block.bases.view(bool)
        bits = block.bits.copy()
        for start, u in raw_passes(rng, len(block), np.uint32):
            part = slice(start, start + u.size)
            d = diag[part]
            bits[part] ^= (d & (u >= t1)) | (~d & (u >= t0) & (u < t2))
        return SymbolBlock(block.bases.copy(), bits)


@dataclass(frozen=True)
class FixedPauliString(AttackStrategy):
    """Apply one fixed Pauli letter per position; length must match the block.

    The letters are one upper-case string of I, X, Y and Z, given by name in
    either case or as codes 0-3: ``FixedPauliString("ixZ")`` and
    ``FixedPauliString((0, 1, 3))`` are both IXZ.
    """

    kind: ClassVar[str] = "fixed_pauli"

    letters: str

    def __post_init__(self) -> None:
        letters = self.letters
        if isinstance(letters, str) and set(letters) <= _PAULI_NAMES.keys():
            letters = letters.upper()
        else:  # a sequence of names and codes, or a string with an unknown letter
            try:
                letters = "".join(_PAULI_NAMES[l] for l in letters)
            except KeyError as exc:
                raise ValueError(f"unknown Pauli letter {exc.args[0]!r}") from None
        object.__setattr__(self, "letters", letters)

    def check(self, n_qubits: int) -> None:
        n = len(self.letters)
        if n != n_qubits:
            raise ValueError(f"the Pauli string has {n} letters for {n_qubits} qubits")

    def apply(self, block: SymbolBlock, rng) -> SymbolBlock:
        """The bases never change; a bit flips when its letter anticommutes with its basis."""
        self.check(len(block))
        flips = _FLIP[np.frombuffer(self.letters.encode(), dtype=np.uint8), block.bases]
        return SymbolBlock(block.bases.copy(), block.bits ^ flips)


_STRATEGY_KINDS = {cls.kind: cls for cls in AttackStrategy.__subclasses__()}


def strategy_from_dict(d: dict) -> AttackStrategy:
    """Rebuild a strategy from its ``to_dict`` form; a malformed dict is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"malformed strategy {d!r}")
    kind = d.get("kind")
    cls = _STRATEGY_KINDS.get(kind) if isinstance(kind, str) else None  # a list is unhashable
    if cls is None:
        raise ValueError(f"unknown strategy kind {kind!r}")
    try:
        strategy = cls.from_dict(d)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {cls.kind} strategy {d!r}") from exc
    unknown = d.keys() - strategy.to_dict().keys()
    if unknown:
        names = ", ".join(sorted(map(str, unknown)))
        raise ValueError(f"unknown {cls.kind} strategy keys: {names}")
    return strategy


def transmit(
    block: SymbolBlock, strategy: AttackStrategy, rng: np.random.Generator | None
) -> SymbolBlock:
    """What arrives at Bob's end when Alice sends ``block`` under ``strategy``.

    ``rng`` feeds the strategy's draws; it may be None when the strategy's
    ``stream`` is None.
    """
    return strategy.apply(block, rng)


def check_number(name: str, value) -> None:
    """Refuse, as a ValueError, any ``value`` but an int or float (not a bool) in the float range."""
    number = type(value) is int or isinstance(value, float)
    if not (number and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, not {reprlib.repr(value)}")


def check_seed(seed) -> int:
    """``seed`` if it is a session seed, an integer in [0, 2^64); any other is a ValueError."""
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValueError(f"malformed seed {seed!r}; a seed is an integer in [0, 2^64)")
    return seed


def seeded_rng(seed: int, name: str = "") -> np.random.Generator:
    """``default_rng(SeedSequence([seed, *name.encode("ascii")]))``, built cheaply.

    ``seed`` must pass :func:`check_seed`. SeedSequence splits each int of a
    list into little-endian uint32 words, at least one, and joins them; it
    takes a uint32 array as those words as they are. Handing it the words
    directly skips its per-element conversion and gives the same state. With
    no name this is ``default_rng(seed)``.
    """
    check_seed(seed)
    words = [seed & 0xFFFFFFFF]
    while seed >= 1 << 32:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    words += name.encode("ascii")
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


class RngStreams:
    """Named, independently seeded RNG substreams from one seed that passes :func:`check_seed`.

    The same (seed, name) pair always yields the same stream; repeated calls
    for a name return the same stateful generator.
    """

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            gen = seeded_rng(self.seed, name)
            self._streams[name] = gen
        return gen
