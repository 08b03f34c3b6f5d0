"""Classical model of the polarization channel.

A transmitted photon is reduced to a (basis, bit) pair: the preparation basis
and the encoded bit. Pauli errors and intercept-resend eavesdropping act on
these pairs exactly as they would on the corresponding polarization states,
which is all the protocol analysis ever observes.

Encoding convention: in the rectilinear basis bit 0 is horizontal and bit 1 is
vertical; in the diagonal basis bit 0 is 45 degrees and bit 1 is 135 degrees.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, fields
from typing import ClassVar, Union

import numpy as np


class Basis(enum.IntEnum):
    """Measurement/preparation basis for one photon."""

    RECTILINEAR = 0
    DIAGONAL = 1


class PauliLetter(enum.IntEnum):
    """Single-qubit Pauli error acting on a polarization state."""

    I = 0
    X = 1
    Y = 2
    Z = 3


# _FLIP[letter, basis] == 1 when the letter flips the encoded bit in that
# basis: X flips rectilinear encodings only, Z diagonal only, Y both.
_FLIP = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=np.uint8)


class SymbolBlock:
    """A batch of transmitted photons stored as parallel bit arrays.

    Entry i is photon i's preparation basis (a :class:`Basis` value) and its
    encoded bit; operations work on the arrays directly.
    """

    __slots__ = ("bases", "bits")

    def __init__(self, bases: np.ndarray, bits: np.ndarray):
        bases = np.asarray(bases, dtype=np.uint8)
        bits = np.asarray(bits, dtype=np.uint8)
        if bases.shape != bits.shape or bases.ndim != 1:
            raise ValueError("bases and bits must be equal-length 1-d arrays")
        if bases.size and (bases.max() > 1 or bits.max() > 1):
            raise ValueError("bases and bits must be 0/1 valued")
        self.bases = bases
        self.bits = bits

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


class _Strategy:
    """Behaviour shared by the channel strategies.

    ``kind`` names the strategy in its dict form, which feeds the session
    metadata, the config digest and replay; ``stream`` names the RNG
    substream it draws from, or None when it draws nothing.
    """

    kind: ClassVar[str]
    stream: ClassVar[str | None] = None

    def apply(self, block: SymbolBlock, rng: np.random.Generator | None) -> SymbolBlock:
        """What arrives at Bob's end when Alice sends ``block``."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict):
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class Passive(_Strategy):
    """No eavesdropping, no noise: the channel is the identity."""

    kind: ClassVar[str] = "passive"

    def apply(self, block: SymbolBlock, rng) -> SymbolBlock:
        return block.copy()


@dataclass(frozen=True)
class BiasedInterceptResend(_Strategy):
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
        if not (0.0 <= self.p1 and 0.0 <= self.p2):
            raise ValueError("interception probabilities must be nonnegative")
        if self.p1 + self.p2 > 1.0 + 1e-12:
            raise ValueError("p1 + p2 must not exceed 1")

    def apply(self, block: SymbolBlock, rng: np.random.Generator) -> SymbolBlock:
        u = rng.random(len(block))
        meas_rect = u < self.p1
        meas_diag = (u >= self.p1) & (u < self.p1 + self.p2)
        diag = block.bases.view(bool)
        bits = block.bits.copy()
        # mismatched measurements randomize the re-sent bit; one coin per
        # mismatched position, in position order
        idx = np.flatnonzero((meas_rect & diag) | (meas_diag & ~diag))
        bits[idx] = rng.integers(0, 2, size=idx.size, dtype=np.uint8)
        bases = ((diag | meas_diag) & ~meas_rect).view(np.uint8)
        return SymbolBlock(bases, bits)


@dataclass(frozen=True)
class DepolarizingPauli(_Strategy):
    """I.i.d. Pauli noise with letter probabilities (q_i, q_x, q_y, q_z)."""

    kind: ClassVar[str] = "depolarizing"
    stream: ClassVar[str] = "noise"

    q_i: float
    q_x: float
    q_y: float
    q_z: float

    def __post_init__(self) -> None:
        qs = (self.q_i, self.q_x, self.q_y, self.q_z)
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

        Draw contract: exactly one ``rng.random(len(block))`` call. Those are
        the draws ``rng.choice(4, size=len(block), p=q)`` makes, and the cdf
        below is built as ``choice`` builds it, so a seed gives the same
        flips as sampling letters with ``choice`` and applying them with
        :func:`apply_pauli_block`. No letters are formed: the letter at a
        draw u is the first whose cdf value exceeds u, so a diagonal bit
        flips on Y or Z (u >= cdf[1]) and a rectilinear bit on X or Y
        (cdf[0] <= u < cdf[2]).
        """
        cdf = np.array([self.q_i, self.q_x, self.q_y, self.q_z], dtype=np.float64).cumsum()
        cdf /= cdf[-1]
        u = rng.random(len(block))
        diag = block.bases.view(bool)
        flips = (diag & (u >= cdf[1])) | (~diag & (u >= cdf[0]) & (u < cdf[2]))
        return SymbolBlock(block.bases.copy(), block.bits ^ flips)


@dataclass(frozen=True)
class FixedPauliString(_Strategy):
    """Apply one fixed Pauli letter per position; length must match the block.

    Letters may be given as :class:`PauliLetter` values or by name, so
    ``FixedPauliString("IXZ")`` is the three-letter string I, X, Z.
    """

    kind: ClassVar[str] = "fixed_pauli"

    letters: tuple

    def __post_init__(self) -> None:
        try:
            letters = tuple(
                PauliLetter[l] if isinstance(l, str) else PauliLetter(l) for l in self.letters
            )
        except KeyError as exc:
            raise ValueError(f"unknown Pauli letter {exc.args[0]!r}") from None
        object.__setattr__(self, "letters", letters)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "letters": "".join(l.name for l in self.letters)}

    def apply(self, block: SymbolBlock, rng) -> SymbolBlock:
        return apply_pauli_block(block, np.array(self.letters, dtype=np.uint8))


AttackStrategy = Union[Passive, BiasedInterceptResend, DepolarizingPauli, FixedPauliString]

_STRATEGY_KINDS = {
    cls.kind: cls for cls in (Passive, BiasedInterceptResend, DepolarizingPauli, FixedPauliString)
}


def strategy_from_dict(d: dict) -> AttackStrategy:
    """Rebuild a strategy from its ``to_dict`` form; a malformed dict is a ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"malformed strategy {d!r}")
    cls = _STRATEGY_KINDS.get(d.get("kind"))
    if cls is None:
        raise ValueError(f"unknown strategy kind {d.get('kind')!r}")
    try:
        return cls.from_dict(d)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {cls.kind} strategy {d!r}") from exc


def apply_pauli_block(block: SymbolBlock, letters: np.ndarray) -> SymbolBlock:
    """Apply one Pauli letter per position of a block.

    The bases never change; a bit flips when its letter anticommutes with
    the encoding of its basis.
    """
    letters = np.asarray(letters, dtype=np.uint8)
    if letters.shape != block.bases.shape:
        raise ValueError("letter string length must match the block")
    flips = _FLIP[letters, block.bases]
    return SymbolBlock(block.bases.copy(), block.bits ^ flips)


def transmit(
    block: SymbolBlock, strategy: AttackStrategy, rng: np.random.Generator | None
) -> SymbolBlock:
    """What arrives at Bob's end when Alice sends ``block`` under ``strategy``.

    ``rng`` feeds the strategy's draws; it may be None when the strategy's
    ``stream`` is None.
    """
    return strategy.apply(block, rng)


_MAX_SEED = 2**64


class RngStreams:
    """Named, independently seeded RNG substreams from one 64-bit master seed.

    The same (seed, name) pair always yields the same stream; repeated calls
    for a name return the same stateful generator.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not (0 <= seed < _MAX_SEED):
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence([self.seed, *name.encode("ascii")])
            gen = np.random.default_rng(ss)
            self._streams[name] = gen
        return gen
