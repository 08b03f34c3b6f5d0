"""Reference implementations kept for the tests.

``quantum_phase`` and what follows it re-run prepare, channel and measure
from a seed and then sift and estimate on their own, away from the party
state machines, so tests can check what ``run_session`` reports against an
independent derivation. They consume the same named substreams in the same
order as a session does, so for a given seed they see the same symbols, the
same test sample and the same lumped sample.

The ``*_oracle`` functions are the straightforward forms of the hot paths:
the depolarizing channel drawing explicit Pauli letters with
``Generator.choice``; intercept-resend and Bob's measurement scattering their
coins through a boolean mask; the raw-key layout taking a set difference; the
block permutations sorting their keys with ``argsort`` and gathering with
``take_along_axis``; the GF(2) product as an integer matmul; and Bob's batch
decode correcting each word with its leader before labelling it. The library
computes the same results without building those intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from eqkd.channel import Basis, RngStreams, SymbolBlock, apply_pauli_block
from eqkd.codes import _labels, syndrome_decode_blocks
from eqkd.protocol import (
    alice_prepare,
    bob_measure,
    channel_transform,
    decode_symbols,
    encode_symbols,
)


@dataclass(frozen=True, eq=False)
class SiftClass:
    """One same-basis class: global positions with both parties' bits."""

    positions: np.ndarray
    alice_bits: np.ndarray
    bob_bits: np.ndarray


@dataclass(frozen=True, eq=False)
class Sifted:
    both_rect: SiftClass
    both_diag: SiftClass
    n_total: int

    @property
    def retained_fraction(self) -> float:
        return (self.both_rect.positions.size + self.both_diag.positions.size) / self.n_total


def quantum_phase(params, strategy, seed):
    """(streams, Alice's symbols, Bob's results) for one seed."""
    streams = RngStreams(seed)
    sent = alice_prepare(params, streams)
    delivered = decode_symbols(channel_transform(encode_symbols(sent), strategy, streams))
    results = bob_measure(delivered, params, streams.stream("bob_bases"))
    return streams, sent, results


def sift(sent, results) -> Sifted:
    def keep(basis: int) -> SiftClass:
        pos = np.nonzero((sent.bases == basis) & (results.bases == basis))[0]
        return SiftClass(pos, sent.bits[pos], results.bits[pos])

    return Sifted(both_rect=keep(0), both_diag=keep(1), n_total=len(sent))


def refined_estimate(sifted: Sifted, params, rng):
    """(r1, r2, tested_rect, tested_diag) from sorted per-class samples."""
    i1 = np.sort(rng.choice(sifted.both_rect.positions.size, size=params.m1, replace=False))
    i2 = np.sort(rng.choice(sifted.both_diag.positions.size, size=params.m2, replace=False))
    rect, diag = sifted.both_rect, sifted.both_diag
    r1 = int((rect.alice_bits[i1] != rect.bob_bits[i1]).sum())
    r2 = int((diag.alice_bits[i2] != diag.bob_bits[i2]).sum())
    return r1, r2, rect.positions[i1], diag.positions[i2]


def naive_estimate(sifted: Sifted, params, rng) -> float | None:
    """Lumped rate over a sample drawn from the concatenated classes."""
    a = np.concatenate([sifted.both_rect.alice_bits, sifted.both_diag.alice_bits])
    b = np.concatenate([sifted.both_rect.bob_bits, sifted.both_diag.bob_bits])
    if a.size == 0:
        return None
    idx = rng.choice(a.size, size=min(params.m1 + params.m2, a.size), replace=False)
    return float((a[idx] != b[idx]).mean())


def quantum_phase_stats(params, strategy, seed) -> tuple[float, float | None]:
    """Retained fraction and lumped rate, re-derived from the seed."""
    streams, sent, results = quantum_phase(params, strategy, seed)
    sifted = sift(sent, results)
    return sifted.retained_fraction, naive_estimate(sifted, params, streams.stream("naive_test"))


def depolarizing_letters_oracle(strategy, block, rng):
    """``DepolarizingPauli.apply`` by explicit letters: ``choice``, then the flip table."""
    probs = (strategy.q_i, strategy.q_x, strategy.q_y, strategy.q_z)
    letters = rng.choice(4, size=len(block), p=probs).astype(np.uint8)
    return apply_pauli_block(block, letters)


def biased_intercept_resend_oracle(strategy, block, rng):
    """``BiasedInterceptResend.apply`` with masked scatters for the coins and the bases."""
    u = rng.random(len(block))
    meas_rect = u < strategy.p1
    meas_diag = (u >= strategy.p1) & (u < strategy.p1 + strategy.p2)
    bases = block.bases.copy()
    bits = block.bits.copy()
    mismatch = (meas_rect & (bases == Basis.DIAGONAL)) | (
        meas_diag & (bases == Basis.RECTILINEAR)
    )
    bits[mismatch] = rng.integers(0, 2, size=int(mismatch.sum()), dtype=np.uint8)
    bases[meas_rect] = Basis.RECTILINEAR
    bases[meas_diag] = Basis.DIAGONAL
    return SymbolBlock(bases, bits)


def bob_measure_oracle(received, params, rng):
    """``bob_measure`` with the coins scattered through a boolean mask."""
    bases = (rng.random(len(received)) >= params.bias_p).astype(np.uint8)
    bits = received.bits.copy()
    mismatch = bases != received.bases
    bits[mismatch] = rng.integers(0, 2, size=int(mismatch.sum()), dtype=np.uint8)
    return SymbolBlock(bases, bits)


def reconcile_bob_blocks_oracle(pair, received, announcements):
    """``reconcile_bob_blocks`` by decoding each word, then labelling it.

    An uncovered syndrome leaves the word as it is, so its key is the label
    of the undecoded word.
    """
    words = np.atleast_2d(received) ^ np.atleast_2d(announcements)
    decoded, ok = syndrome_decode_blocks(pair.c1, words)
    keys = _labels(pair, decoded)
    if not ok.all():
        keys[~ok] = _labels(pair, words[~ok])
    return keys, ok


def raw_key_layout_oracle(diag_pos, test_diag, block_len):
    """Untested both-diagonal positions, cut to whole blocks, by set difference."""
    untested = np.setdiff1d(diag_pos, test_diag, assume_unique=True)
    blocks = untested.size // block_len
    return untested[: blocks * block_len]


def block_permutations_oracle(words, seed):
    """``block_permutations`` by sorting: a stable argsort of the keys, then a gather."""
    keys = np.random.default_rng(int(seed)).random(words.shape)
    return np.take_along_axis(words, np.argsort(keys, axis=1, kind="stable"), axis=1)


def gf2_mul_oracle(a, b):
    """``gf2_mul`` as a ``uint32`` matmul, reduced mod 2."""
    return (np.asarray(a, dtype=np.uint32) @ np.asarray(b, dtype=np.uint32)) & 1
