"""Reference implementations kept for the tests.

``quantum_phase`` and what follows it re-run prepare, channel and measure
from a seed and then sift and estimate on their own, away from the party
state machines, so tests can check what ``run_session`` reports against an
independent derivation. They consume the same named substreams in the same
order as a session does, so for a given seed they see the same symbols, the
same test sample and the same lumped sample.

The ``*_oracle`` functions are the straightforward forms of the hot paths
under draw contract 4, each taking its raw generator words in one
whole-array ``random_raw`` call and comparing them against thresholds held
as Python ints: Alice's preparation; the depolarizing channel forming
explicit Pauli letters by ``searchsorted`` over the cumulative thresholds;
intercept-resend and Bob's measurement scattering their positional coins
through a boolean mask; Alice's reconciliation by integer matmuls, forming
each lifted word; the raw-key layout taking a set difference; the block
permutations sorting their keys with ``argsort`` and gathering with
``take_along_axis``; the GF(2) product as an integer matmul; and Bob's batch
decode lifting Alice's syndromes and forming each decoded word before
labelling it. The library computes the same results in passes, without
building those intermediates.

``lift_oracle`` is the lift those two oracles use: a right inverse R of the
outer parity check H1, so that a block v plus R times its syndrome is a
codeword of C1. The key map reads no position the lift writes, so the
library keys a block by its own label and never forms the lifted word.

``masked_codeword_alice_blocks`` is Alice's reconciliation as draw contract
2 ran it: she announced u + v for a uniform codeword u of C1, drawn from a
generator, and kept u's coset label. It is the reference that the syndrome
form's agreeing blocks are checked against.

``syndrome_decode_blocks`` is the bounded-distance decoder that last form
uses. It searches all the codewords for one within the code's radius, so it
shares no syndrome table with the library.

``Basis`` names the two basis values, 0 and 1, that ``SymbolBlock`` holds,
and ``PauliLetter`` the four letter codes, 0-3, that ``FixedPauliString``
reads.

``key_map_oracle`` builds a pair's key map the long way: a greedy rank loop
picks the coset representatives, and one linear solve per key bit inverts
them. ``coset_labels`` applies it to 0/1 rows.

``pack_blocks`` and ``unpack_blocks`` convert between (B, n) 0/1 rows and
the packed n-bit words that ``block_permutations`` returns and the two
reconcile steps read: bit r of a word is column r of its row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from eqkd.channel import RngStreams, SymbolBlock, transmit
from eqkd.codes import (
    CssPair,
    LinearCode,
    enumerate_codewords,
    gf2_mul,
    gf2_rank,
    gf2_rref,
)
from eqkd.protocol import (
    _draw_bases,
    alice_prepare,
    bob_measure,
    encode_symbols,
    read_payload,
)
from eqkd.transcript import EventKind


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
    # the relay's round trip: Alice's symbols through the channel to Bob's payload
    rng = None if strategy.stream is None else streams.stream(strategy.stream)
    payload = encode_symbols(transmit(sent, strategy, rng))
    arrived = read_payload(EventKind.QUBITS_SENT, payload, {"n": len(sent)})
    delivered = SymbolBlock(arrived["bases"], arrived["bits"])
    results = measure_as_bob(delivered, params, streams.stream("bob_bases"))
    return streams, sent, results


def measure_as_bob(received, params, rng):
    """``bob_measure`` on Bob's bases, drawn from ``rng`` as ``BobMachine.start`` draws them."""
    return bob_measure(received, _draw_bases(rng, params.n_qubits, params.bias_p), rng)


def sift(sent, results) -> Sifted:
    def keep(basis: int) -> SiftClass:
        pos = np.nonzero((sent.bases == basis) & (results.bases == basis))[0]
        return SiftClass(pos, sent.bits[pos], results.bits[pos])

    return Sifted(both_rect=keep(0), both_diag=keep(1), n_total=len(sent))


def sample_ranks(seed, n_rect, n_diag, params):
    """The sorted ranks of the test samples that ``seed`` draws under draw contract 4.

    ``default_rng(seed)`` draws m1 ranks of the rectilinear class's n_rect
    members, then m2 of the diagonal class's n_diag, each without
    replacement; rank i stands for the class's i-th position.
    """
    draws = np.random.default_rng(seed)
    i1 = np.sort(draws.choice(n_rect, size=params.m1, replace=False))
    i2 = np.sort(draws.choice(n_diag, size=params.m2, replace=False))
    return i1, i2


def refined_estimate(sifted: Sifted, params, rng):
    """(seed, r1, r2, tested_rect, tested_diag) from sorted per-class samples.

    The seed is the first ``integers(0, 2**63)`` of ``rng``, and the
    samples are what it draws (:func:`sample_ranks`).
    """
    seed = int(rng.integers(0, 2**63))
    rect, diag = sifted.both_rect, sifted.both_diag
    i1, i2 = sample_ranks(seed, rect.positions.size, diag.positions.size, params)
    r1 = int((rect.alice_bits[i1] != rect.bob_bits[i1]).sum())
    r2 = int((diag.alice_bits[i2] != diag.bob_bits[i2]).sum())
    return seed, r1, r2, rect.positions[i1], diag.positions[i2]


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


class FixedDraws:
    """A generator stand-in whose raw words carry the given uint32 draws.

    Draw 2j is the low half of word j and draw 2j + 1 its high half, as
    under the draw contract. Past the given draws it hands out zero words.
    """

    def __init__(self, draws):
        d = np.asarray(draws, dtype=np.uint64)
        d = np.append(d, np.zeros(d.size % 2, dtype=np.uint64))
        self._words = d[0::2] | (d[1::2] << np.uint64(32))
        self._used = 0
        self.bit_generator = self

    def random_raw(self, size: int) -> np.ndarray:
        out = np.zeros(size, dtype=np.uint64)
        given = self._words[self._used : self._used + size]
        out[: given.size] = given
        self._used += size
        return out


def _threshold(p: float) -> int:
    """The contract's Bernoulli threshold, round(p * 2^32), as a Python int."""
    return round(p * 2**32)


def _raw_u32(rng, n: int) -> np.ndarray:
    """n uint32 draws as int64: word j gives draw 2j (its low half) and 2j + 1."""
    words = rng.bit_generator.random_raw(-(-n // 2)).astype("<u8")
    return words.view("<u4")[:n].astype(np.int64)


def _raw_bits(rng, n: int) -> np.ndarray:
    """n fair bits: bit i is bit i mod 64 of raw word i // 64."""
    words = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8")
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


def alice_prepare_oracle(params, streams):
    """``alice_prepare`` with each stream's words from one whole-array draw."""
    n = params.n_qubits
    bases = _raw_u32(streams.stream("alice_bases"), n) >= _threshold(params.bias_p)
    return SymbolBlock(bases.astype(np.uint8), _raw_bits(streams.stream("alice_bits"), n))


def letter_thresholds(strategy) -> list[int]:
    """The cumulative thresholds of I, X and Y.

    A draw below t[0] is I; one at or above t[k - 1] and below t[k] is
    letter k; one at or above t[2] is Z.
    """
    q = np.array([strategy.q_i, strategy.q_x, strategy.q_y, strategy.q_z], dtype=np.float64)
    cdf = q.cumsum()
    return [_threshold(c) for c in cdf[:3] / cdf[-1]]


def depolarizing_letters_oracle(strategy, block, rng):
    """``DepolarizingPauli.apply`` by explicit letters: ``searchsorted``, then the flip table."""
    u = _raw_u32(rng, len(block))
    letters = np.searchsorted(letter_thresholds(strategy), u, side="right")
    # X (1) and Y (2) flip a rectilinear bit, Y and Z (3) a diagonal one
    flips = np.where(block.bases == Basis.DIAGONAL, letters >= 2, (letters == 1) | (letters == 2))
    return SymbolBlock(block.bases.copy(), block.bits ^ flips.astype(np.uint8))


def biased_intercept_resend_oracle(strategy, block, rng):
    """``BiasedInterceptResend.apply`` with masked scatters for the coins and the bases."""
    u = _raw_u32(rng, len(block))
    t_rect, t_any = _threshold(strategy.p1), _threshold(strategy.p1 + strategy.p2)
    meas_rect = u < t_rect
    meas_diag = (u >= t_rect) & (u < t_any)
    coins = _raw_bits(rng, len(block))
    bases = block.bases.copy()
    bits = block.bits.copy()
    mismatch = (meas_rect & (bases == Basis.DIAGONAL)) | (
        meas_diag & (bases == Basis.RECTILINEAR)
    )
    bits[mismatch] = coins[mismatch]
    bases[meas_rect] = Basis.RECTILINEAR
    bases[meas_diag] = Basis.DIAGONAL
    return SymbolBlock(bases, bits)


def bob_measure_oracle(received, params, rng):
    """``bob_measure`` with the positional coins scattered through a boolean mask."""
    n = len(received)
    bases = (_raw_u32(rng, n) >= _threshold(params.bias_p)).astype(np.uint8)
    coins = _raw_bits(rng, n)
    bits = received.bits.copy()
    mismatch = bases != received.bases
    bits[mismatch] = coins[mismatch]
    return SymbolBlock(bases, bits)


def pack_blocks(rows):
    """(B, n) 0/1 rows as (B,) words of the smallest unsigned type that holds n bits."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint64))
    n = rows.shape[1]
    packed = np.bitwise_or.reduce(rows << np.arange(n, dtype=np.uint64), axis=1)
    return packed.astype(np.min_scalar_type((1 << n) - 1))


def unpack_blocks(words, n: int) -> np.ndarray:
    """The inverse of ``pack_blocks``: (B, n) uint8 rows, column r from bit r."""
    words = np.asarray(words, dtype=np.uint64)
    return ((words[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.uint8)


def coset_labels(pair: CssPair, rows) -> np.ndarray:
    """Each 0/1 row's k-bit coset label: on C1, one label per coset of C2, zero on C2."""
    return gf2_mul(np.atleast_2d(rows), pair.key_map.T)


def lift_oracle(pair: CssPair) -> np.ndarray:
    """An n x m right inverse R of C1's parity check H1 (m = n - dim C1).

    It is zero but on m rows picked from the last back, so a systematic C1
    lifts by placement: [H1 reversed | I] reduces to [E H1' | E], E H1'
    being I on the first m independent columns from H1's last, and E's rows
    placed there give H1 R = I.
    """
    h1, n = pair.c1.parity_check, pair.n
    m = h1.shape[0]
    r, pivots = gf2_rref(np.hstack([h1[:, ::-1], np.eye(m, dtype=np.uint8)]))
    lift = np.zeros((n, m), dtype=np.uint8)
    lift[[n - 1 - p for p in pivots]] = r[:, n:]
    return lift


def reconcile_alice_blocks_oracle(pair: CssPair, v_blocks):
    """``reconcile_alice_blocks`` by integer matmuls: s = v H1^T, then the label of v + R s."""
    v = np.atleast_2d(np.asarray(v_blocks, dtype=np.int64))
    s = v @ pair.c1.parity_check.T.astype(np.int64) % 2
    lifted = (v + s @ lift_oracle(pair).T.astype(np.int64)) % 2
    return s.astype(np.uint8), (lifted @ pair.key_map.T.astype(np.int64) % 2).astype(np.uint8)


def masked_codeword_alice_blocks(pair: CssPair, v_blocks, rng):
    """Contract 2's (announcement, key): u + v and u's label, u from B * k_dim drawn bits."""
    v_blocks = np.atleast_2d(np.asarray(v_blocks, dtype=np.uint8))
    b, k_dim = v_blocks.shape[0], pair.c1.k_dim
    msgs = _raw_bits(rng, b * k_dim).reshape(b, k_dim)
    u = gf2_mul_oracle(msgs, pair.c1.generator).astype(np.uint8)
    return u ^ v_blocks, coset_labels(pair, u)


def syndrome_decode_blocks(code: LinearCode, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounded-distance decode of a (B, n) batch by searching every codeword.

    Returns (decoded, ok): a row within (d - 1) // 2 of a codeword, which is
    then the only one that close, decodes to it; a row with ok False has
    none and is returned as it is (caller decides policy).
    """
    words = np.atleast_2d(np.asarray(words, dtype=np.uint8))
    codewords = enumerate_codewords(code.generator)
    t = (code.d - 1) // 2
    decoded, ok = words.copy(), np.zeros(len(words), dtype=bool)
    for start in range(0, len(words), 64):
        rows = slice(start, start + 64)
        dist = (words[rows, None, :] ^ codewords[None, :, :]).sum(axis=2)
        nearest = dist.argmin(axis=1)
        ok[rows] = dist[np.arange(len(nearest)), nearest] <= t
        decoded[rows][ok[rows]] = codewords[nearest[ok[rows]]]
    return decoded, ok


def reconcile_bob_blocks_oracle(pair, received, syndromes):
    """``reconcile_bob_blocks`` by lifting the syndromes, decoding each word, then labelling it.

    Word w + R s has the syndrome H1 w + s of w less Alice's block. An
    uncovered syndrome leaves the word as it is, so its key is the label of
    the undecoded word.
    """
    lifted = np.atleast_2d(syndromes).astype(np.int64) @ lift_oracle(pair).T.astype(np.int64) % 2
    words = np.atleast_2d(received) ^ lifted.astype(np.uint8)
    decoded, ok = syndrome_decode_blocks(pair.c1, words)
    keys = coset_labels(pair, decoded)
    if not ok.all():
        keys[~ok] = coset_labels(pair, words[~ok])
    return keys, ok


def raw_key_layout_oracle(diag_pos, test_diag, block_len):
    """Untested both-diagonal positions, cut to whole blocks, by set difference."""
    untested = np.setdiff1d(diag_pos, test_diag, assume_unique=True)
    blocks = untested.size // block_len
    return untested[: blocks * block_len]


def block_permutations_oracle(words, seed):
    """``block_permutations`` by sorting: a stable argsort of the raw-word keys, then a gather."""
    keys = np.random.default_rng(int(seed)).bit_generator.random_raw(words.size)
    order = np.argsort(keys.reshape(words.shape), axis=1, kind="stable")
    return np.take_along_axis(words, order, axis=1)


def gf2_mul_oracle(a, b):
    """``gf2_mul`` as a ``uint32`` matmul, reduced mod 2."""
    return (np.asarray(a, dtype=np.uint32) @ np.asarray(b, dtype=np.uint32)) & 1


def gf2_solve_oracle(a, b):
    """One solution x of a @ x = b over GF(2), free variables at zero, or None."""
    a = np.asarray(a, dtype=np.uint8)
    r, pivots = gf2_rref(np.hstack([a, np.asarray(b, dtype=np.uint8).reshape(-1, 1)]))
    ncols = a.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.uint8)
    for row_idx, p in enumerate(pivots):
        x[p] = r[row_idx, ncols]
    return x


def key_map_oracle(c1: LinearCode, c2: LinearCode) -> np.ndarray:
    """The k x n key map of the nested pair C2 < C1, built row by row.

    The representatives are the rows of C1, in order, that raise the rank of
    C2's generator stacked with the rows kept so far. Row i of T solves
    (h2 reps^T)^T x = e_i, and the key map is T h2.
    """
    k = c1.k_dim - c2.k_dim
    reps, current = [], c2.generator
    for row in c1.generator:
        if len(reps) == k:
            break
        candidate = np.vstack([current, row[None, :]])
        if gf2_rank(candidate) > gf2_rank(current):
            reps.append(row)
            current = candidate
    assert len(reps) == k
    h2 = c2.parity_check
    lt = gf2_mul(h2, np.array(reps).T).T
    t = np.array([gf2_solve_oracle(lt, e) for e in np.eye(k, dtype=np.uint8)])
    return gf2_mul(t, h2)
