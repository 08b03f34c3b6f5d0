"""Binary linear codes and nested-pair key reconciliation.

Error correction and privacy amplification run over a nested pair of binary
linear codes C2 < C1. Alice announces her raw block v's C1 syndrome s = H1 v
and keys its label K v, the key map K reading v's coset of C2. Bob adds s
to his noisy copy's syndrome, which gives the syndrome of the errors
between the two, and keys the label of his copy less that syndrome's
leader. The labels are the final key bits: the syndrome leaks nothing about
them, and an error pattern of weight at most the correction radius t is its
syndrome's leader, so Bob's label is then Alice's.

A permuted raw block is one packed n-bit word, bit r holding position r.
H1 and K are linear, so a word's syndrome and label together are the XOR
of one table entry per byte of the word, from the byte tables that
``validate_css`` builds with the pair.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .channel import WORDS_PER_PASS, raw_passes, seeded_rng


class CodeError(Exception):
    """Base class for code construction and decoding failures."""


class NestingViolation(CodeError):
    """The inner code is not contained in the outer code."""


class DistanceTooSmall(CodeError):
    """The pair cannot correct even a single error (t < 1)."""


class DegenerateCode(CodeError):
    """The pair carries no key bits (dim C1 == dim C2)."""


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------

def gf2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2), as a uint8 array of 0/1 entries.

    Equals ``np.matmul`` of the operands cast to uint32, ``& 1``: matmul's
    rules for 1-d and 2-d operands hold, and every entry counts mod 2. It is
    computed by XOR, without a matmul: column c of the product is the XOR of
    the columns i of ``a`` for which ``b[i, c]`` is odd, cut to its low bit.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not (1 <= a.ndim <= 2 and 1 <= b.ndim <= 2):
        raise ValueError("gf2_mul takes 1-d or 2-d operands")
    a2 = np.atleast_2d(a).astype(np.uint8, copy=False)
    b2 = (b[:, None] if b.ndim == 1 else b).astype(np.uint8, copy=False) & 1
    if a2.shape[1] != b2.shape[0]:
        raise ValueError(f"gf2_mul: shapes {a.shape} and {b.shape} do not align")
    out = np.zeros((a2.shape[0], b2.shape[1]), dtype=np.uint8)
    for i, c in zip(*np.nonzero(b2)):
        out[:, c] ^= a2[:, i]
    out &= 1  # XOR keeps the parity of the low bits; the rest is dropped here
    return out[0 if a.ndim == 1 else slice(None), 0 if b.ndim == 1 else slice(None)]


def gf2_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2); returns (rref, pivot columns)."""
    r = np.array(a, dtype=np.uint8) & 1
    rows, cols = r.shape
    pivots: list[int] = []
    rank = 0
    for c in range(cols):
        sub = np.nonzero(r[rank:, c])[0]
        if sub.size == 0:
            continue
        p = rank + int(sub[0])
        if p != rank:
            r[[rank, p]] = r[[p, rank]]
        elim = np.nonzero(r[:, c])[0]
        for i in elim:
            if i != rank:
                r[i] ^= r[rank]
        pivots.append(c)
        rank += 1
        if rank == rows:
            break
    return r, pivots


def gf2_rank(a: np.ndarray) -> int:
    return len(gf2_rref(a)[1])


def gf2_nullspace(a: np.ndarray) -> np.ndarray:
    """Basis (as rows) of the right null space {x : a @ x = 0 over GF(2)}."""
    r, pivots = gf2_rref(a)
    free = [c for c in range(r.shape[1]) if c not in pivots]
    # row i sets free variable i and solves the pivot variables for it
    basis = np.zeros((len(free), r.shape[1]), dtype=np.uint8)
    basis[:, free] = np.eye(len(free), dtype=np.uint8)
    basis[:, pivots] = r[: len(pivots), free].T
    return basis


# ---------------------------------------------------------------------------
# Linear codes
# ---------------------------------------------------------------------------

# Every distance is certified by enumerating the codewords, so a code may be
# at most this long and of at most this dimension.
EXHAUSTIVE_N_LIMIT = 24
_ENUM_DIM_LIMIT = 20


def _all_messages(k: int) -> np.ndarray:
    return ((np.arange(2**k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)


def enumerate_codewords(generator: np.ndarray) -> np.ndarray:
    """All 2^k codewords of the code generated by the given rows."""
    gen = np.asarray(generator, dtype=np.uint8)
    k = gen.shape[0]
    if k > _ENUM_DIM_LIMIT:
        raise CodeError(f"refusing to enumerate 2^{k} codewords: dimension limit {_ENUM_DIM_LIMIT}")
    return gf2_mul(_all_messages(k), gen)


def min_distance(generator: np.ndarray) -> int:
    """Exact minimum distance by exhaustive enumeration."""
    words = enumerate_codewords(generator)
    weights = words.sum(axis=1)
    nz = weights[weights > 0]
    if nz.size == 0:
        raise CodeError("zero-dimensional code has no distance")
    return int(nz.min())


@dataclass(frozen=True, eq=False)
class LinearCode:
    """An [n, k_dim, d] binary linear code.

    Attributes
    ----------
    n : block length
    k_dim : dimension (generator row count)
    generator : uint8 0/1 array, full row rank, k_dim x n
    parity_check : uint8 0/1 array, full row rank, (n - k_dim) x n
    d : minimum distance, certified by enumerating the codewords
    """

    n: int
    k_dim: int
    generator: np.ndarray
    parity_check: np.ndarray
    d: int

    @classmethod
    def from_generator(cls, generator, claimed_d: int | None = None) -> "LinearCode":
        """The code the rows generate; a claimed distance is checked, never used.

        ``generator`` is a 2-d array-like of 0/1 entries; anything else is a
        ValueError.
        """
        gen = np.asarray(generator)
        if gen.ndim != 2:
            raise ValueError("expected a 2-d bit matrix")
        if not np.isin(gen, (0, 1)).all():
            raise ValueError("entries must be 0 or 1")
        gen = gen.astype(np.uint8)
        k_dim, n = gen.shape
        if n > EXHAUSTIVE_N_LIMIT or k_dim > _ENUM_DIM_LIMIT:
            raise CodeError(
                f"cannot certify the distance of a [{n}, {k_dim}] code: enumeration is "
                f"limited to n <= {EXHAUSTIVE_N_LIMIT} and dimension <= {_ENUM_DIM_LIMIT}"
            )
        if gf2_rank(gen) != k_dim:
            raise CodeError("generator matrix must have full row rank")
        d = min_distance(gen)
        if claimed_d is not None and claimed_d != d:
            raise CodeError(f"claimed distance {claimed_d} but computed {d}")
        return cls(n=n, k_dim=k_dim, generator=gen, parity_check=gf2_nullspace(gen), d=d)


# ---------------------------------------------------------------------------
# Nested pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CssPair:
    """A validated nested code pair (C2 < C1) ready for reconciliation.

    Attributes
    ----------
    c1, c2 : the outer and inner codes
    t : correction radius, floor((d-1)/2) with d = min(d(C1), d(C2-dual))
    k : key bits per block, dim C1 - dim C2
    key_map : k x n compression of C2's parity check (the generator of the
        dual of C2) that is a bijection on C1/C2 cosets
    byte_tables : (ceil(n/8), 256) byte tables in the word type of
        :func:`block_permutations`: entry x of row b is (H1 v) << k | K v
        for the word v that holds x in byte b and zeros elsewhere, each
        product read as an integer whose first bit is the highest
    leader_labels : (2^m,) key labels of C1's coset leaders in the word
        type, m = n - dim C1, entry s for the syndrome whose bits read s; a
        leader is the error pattern of weight at most C1's own radius
        (d(C1) - 1) // 2 with that syndrome, and a syndrome that has none
        keeps a zero label
    covered : (2^m,) whether syndrome s has such a leader
    """

    c1: LinearCode
    c2: LinearCode
    t: int
    k: int
    key_map: np.ndarray
    byte_tables: np.ndarray
    leader_labels: np.ndarray
    covered: np.ndarray

    @property
    def n(self) -> int:
        return self.c1.n


def _word_dtype(bits: int) -> np.dtype:
    """The smallest unsigned type that holds the given number of bits, little-endian."""
    return np.min_scalar_type((1 << bits) - 1).newbyteorder("<")


def _syndrome_index(syndromes: np.ndarray, m: int) -> np.ndarray:
    """Each 0/1 syndrome row read as an m-bit integer, its first bit the highest."""
    idx = np.zeros(syndromes.shape[0], dtype=_word_dtype(m))
    for j in range(m):
        idx <<= 1
        idx |= syndromes[:, j]
    return idx


def validate_css(c1: LinearCode, c2: LinearCode) -> CssPair:
    """Check nesting and distance conditions; build the labeling maps and the lookup tables.

    Raises
    ------
    NestingViolation : some generator row of C2 lies outside C1.
    DegenerateCode : dim C1 == dim C2 (no key bits).
    DistanceTooSmall : correction radius below 1.
    CodeError : different block lengths, or a dual of C2 past the enumeration limit.
    """
    if c1.n != c2.n:
        raise CodeError("codes must share a block length")
    k = c1.k_dim - c2.k_dim
    if k <= 0:
        raise DegenerateCode("pair carries no key bits (dim C1 <= dim C2)")
    if gf2_mul(c2.generator, c1.parity_check.T).any():
        raise NestingViolation("C2 is not a subcode of C1")
    # dual of C2 is generated by C2's parity check
    d = min(c1.d, min_distance(c2.parity_check))
    t = (d - 1) // 2
    if t < 1:
        raise DistanceTooSmall(f"pair corrects no errors (d = {d})")
    h2 = c2.parity_check
    # Coset representatives: the rows of C1 whose columns of [G2; G1]^T are
    # pivots past C2's, each outside the span of C2 and the rows before it.
    _, pivots = gf2_rref(np.vstack([c2.generator, c1.generator]).T)
    reps = c1.generator[[p - c2.k_dim for p in pivots[c2.k_dim:]]]
    # L = h2 . reps^T has rank k; T with T L = I makes key_map = T h2 constant
    # on C2-cosets and bijective across them. Reducing [L^T | I] solves
    # L^T x = e_i with the free variables at zero, for every i at once.
    L = gf2_mul(h2, reps.T)
    eye = np.eye(k, dtype=np.uint8)
    r, pivots = gf2_rref(np.hstack([L.T, eye]))
    T = np.zeros((k, h2.shape[0]), dtype=np.uint8)
    T[:, pivots] = r[:, h2.shape[0]:].T
    key_map = gf2_mul(T, h2)
    assert not gf2_mul(key_map, c2.generator.T).any()
    assert np.array_equal(gf2_mul(key_map, reps.T), eye)
    n, h1, m, t1 = c1.n, c1.parity_check, c1.n - c1.k_dim, (c1.d - 1) // 2
    word = _word_dtype(n)
    # probe (b, x) is the word that holds x in byte b; m + k <= n, so an
    # entry fits the word type
    probes = np.arange(256) << 8 * np.arange(-(-n // 8))[:, None]
    bits = ((probes.reshape(-1, 1) >> np.arange(n)) & 1).astype(np.uint8)
    products = gf2_mul(bits, np.vstack([h1, key_map]).T)
    tables = _syndrome_index(products, m + k).astype(word).reshape(probes.shape)
    # every error pattern of weight 1..t1; d(C1) >= 2 t1 + 1 gives them distinct syndromes
    supports = [s for w in range(1, t1 + 1) for s in combinations(range(n), w)]
    errs = np.zeros((len(supports), n), dtype=np.uint8)
    for row, support in zip(errs, supports):
        row[list(support)] = 1
    idx = _syndrome_index(gf2_mul(errs, h1.T), m)
    leader_labels = np.zeros(2**m, dtype=word)
    leader_labels[idx] = _syndrome_index(gf2_mul(errs, key_map.T), k)
    covered = np.zeros(2**m, dtype=bool)
    covered[0] = covered[idx] = True  # the zero syndrome's leader is the zero pattern
    return CssPair(c1=c1, c2=c2, t=t, k=k, key_map=key_map, byte_tables=tables,
                   leader_labels=leader_labels, covered=covered)


def _lookup(pair: CssPair, words: np.ndarray) -> np.ndarray:
    """(H1 v) << k | K v for each packed word v: the XOR of its bytes' table entries."""
    words, tables = np.asarray(words), pair.byte_tables
    if words.ndim != 1 or words.dtype != tables.dtype:
        raise ValueError(f"blocks must be a 1-d array of {pair.n}-bit {tables.dtype} words")
    by_byte = np.ascontiguousarray(words).view(np.uint8).reshape(words.size, words.itemsize)
    found = tables[0][by_byte[:, 0]]
    for b in range(1, len(tables)):
        found ^= tables[b][by_byte[:, b]]
    return found


def _int_bits(ints: np.ndarray, width: int, low: int) -> np.ndarray:
    """(B, width) uint8 array of bits low + width - 1 down to low of each int, the highest first."""
    out = np.empty((ints.size, width), dtype=np.uint8)
    for j in range(width):
        np.bitwise_and(ints >> (low + width - 1 - j), 1, out=out[:, j], casting="unsafe")
    return out


def reconcile_alice_blocks(pair: CssPair, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Syndromes and key bits for a (B,) batch of packed raw blocks: (H1 v, K v) for each block v.

    ``words`` is what :func:`block_permutations` returns; only the low n bits
    of a word are read. The syndromes come as (B, n - dim C1) bits and the
    keys as (B, k) bits.
    """
    found = _lookup(pair, words)
    return _int_bits(found, pair.n - pair.c1.k_dim, pair.k), _int_bits(found, pair.k, 0)


def reconcile_bob_blocks(
    pair: CssPair, words: np.ndarray, syndromes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode packed words against Alice's (B, n - dim C1) syndromes; return (keys, decode_ok).

    Word w with her syndrome s keys K w + leader_labels[H1 w + s]: H1 w + s
    is the syndrome of w less her block, and a pattern within C1's radius is
    that syndrome's leader, so the key is her K v. ``tests/pipeline_oracle.py``
    gets the same keys by decoding each lifted word and labelling it. A row
    whose syndrome has no leader gets a best-effort key, the label of the
    uncorrected block, and ok False, which is unreachable for perfect outer
    codes. The keys come as (B, k) bits.
    """
    found = _lookup(pair, words)
    s = np.atleast_2d(np.asarray(syndromes, dtype=np.uint8))
    m = pair.n - pair.c1.k_dim
    if s.shape != (found.size, m):
        raise ValueError(f"expected (B,) received words and (B, {m}) syndromes")
    idx = (found >> pair.k) ^ _syndrome_index(s, m)
    # the labels sit in the low k bits, below the syndrome that the key ignores
    return _int_bits(found ^ pair.leader_labels[idx], pair.k, 0), pair.covered[idx]


# ---------------------------------------------------------------------------
# Block permutations
# ---------------------------------------------------------------------------

def _stable_ranks(keys: np.ndarray) -> np.ndarray:
    """(n, B) array whose column b holds the stable ranks of keys[b].

    The rank of entry j is the number of entries of its row that come before
    it: those with a smaller key, and those with an equal key and a smaller
    index. Column b is therefore the position each entry takes when a stable
    sort orders keys[b]. Each of the n(n-1)/2 pairs of a row is compared
    once.
    """
    blocks, n = keys.shape
    cols = np.ascontiguousarray(keys.T)
    ranks = np.empty((n, blocks), dtype=np.min_scalar_type(max(n - 1, 0)))
    # Count every later entry as coming before entry i; then, for each pair
    # i < j in which i comes first (key_i <= key_j), move the count to j.
    ranks[:] = np.arange(n - 1, -1, -1, dtype=ranks.dtype)[:, None]
    for i in range(n - 1):
        i_first = (cols[i] <= cols[i + 1 :]).view(np.uint8)
        ranks[i + 1 :] += i_first
        ranks[i] -= np.add.reduce(i_first, axis=0, dtype=ranks.dtype)
    return ranks


def block_permutations(words: np.ndarray, seed: int) -> np.ndarray:
    """Each 0/1 row of a (B, n) uint8 array permuted and packed into one n-bit word.

    The words are of the smallest unsigned type that holds n bits, and n may
    be 1 to ``EXHAUSTIVE_N_LIMIT``, the longest a certified code can be. An
    entry above 1 would spill into the bits above its own.

    Draw contract: the keys are the first B * n raw 64-bit words of
    ``default_rng(seed)``, in row order, drawn in passes of whole rows by
    :func:`raw_passes`; entry j of row b moves to its stable rank among
    keys[b], which is a bit of word b rather than a byte of a row. So bit r
    of word b is entry r of row b in the order a stable sort gives keys[b];
    ``tests/pipeline_oracle.py`` has that form. An unstable sort gives the
    same order unless a row has two equal keys, which has probability below
    n(n-1)/2 in 2^64 per row.
    """
    words = np.asarray(words)
    if words.ndim != 2 or words.dtype != np.uint8 or not 0 < words.shape[1] <= EXHAUSTIVE_N_LIMIT:
        raise ValueError(f"words must be a 2-d uint8 array of 1 to {EXHAUSTIVE_N_LIMIT} columns")
    blocks, n = words.shape
    word = _word_dtype(n)
    out = np.empty(blocks, dtype=word)
    step = WORDS_PER_PASS // n  # a pass draws the keys of step whole rows
    for first, keys in raw_passes(seeded_rng(int(seed)), blocks * n, np.uint64, step * n):
        start = first // n
        rows = words[start : start + step]
        moved = np.left_shift(rows.T, _stable_ranks(keys.reshape(rows.shape)), dtype=word)
        np.bitwise_or.reduce(moved, axis=0, out=out[start : start + step])
    return out


# ---------------------------------------------------------------------------
# Fixtures and the code file format
# ---------------------------------------------------------------------------

# [7,4,3] Hamming code, systematic form. Its dual is contained in it, which
# makes (C1, C1-dual) a valid pair with one key bit and radius 1.
_HAMMING_7_4_GEN = [
    "1000011",
    "0100101",
    "0010110",
    "0001111",
]


def _from_rows(rows: list[str]) -> list[list[int]]:
    """A bit matrix from its row-string form, such as ``["101", "011"]``."""
    return [[int(ch) for ch in row] for row in rows]


def _to_rows(matrix: np.ndarray) -> list[str]:
    return ["".join(map(str, row)) for row in matrix.tolist()]


def steane_pair() -> CssPair:
    """The default [7,4,3] / dual pair (one key bit, corrects one error)."""
    c1 = LinearCode.from_generator(_from_rows(_HAMMING_7_4_GEN))
    c2 = LinearCode.from_generator(c1.parity_check)
    return validate_css(c1, c2)


def parse_code(text: str) -> LinearCode:
    """Parse the plain-text code format.

    Header line ``n k_dim``, then k_dim lines of n characters in {0,1}.
    A comment line ``# d = <int>`` anywhere claims a distance, which is
    checked against the one enumeration certifies.
    """
    claimed_d: int | None = None
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, eq, value = body.partition("=")
            if eq and key.strip() == "d":
                try:
                    claimed_d = int(value)
                except ValueError:
                    raise CodeError(f"malformed distance claim {line!r}") from None
            continue
        lines.append(line)
    if not lines:
        raise CodeError("empty code file")
    head = lines[0].split()
    if len(head) != 2:
        raise CodeError("header must be 'n k_dim'")
    n, k_dim = int(head[0]), int(head[1])
    rows = lines[1:]
    if len(rows) != k_dim:
        raise CodeError(f"expected {k_dim} generator rows, got {len(rows)}")
    for row in rows:
        if len(row) != n or set(row) - {"0", "1"}:
            raise CodeError(f"generator rows must be {n} characters of 0/1")
    return LinearCode.from_generator(_from_rows(rows), claimed_d=claimed_d)


def load_code(path) -> LinearCode:
    return parse_code(Path(path).read_text())


def load_css(path1, path2=None) -> CssPair:
    """Build a pair from code files.

    One file: the code is C1 and C2 is its dual (requires the dual to nest).
    Two files: explicit (C1, C2).
    """
    c1 = load_code(path1)
    c2 = load_code(path2) if path2 is not None else LinearCode.from_generator(c1.parity_check)
    return validate_css(c1, c2)


def css_fingerprint(pair: CssPair) -> str:
    """Stable hex digest identifying the pair's generator matrices."""
    h = hashlib.sha256()
    h.update(b"c1:" + "|".join(_to_rows(pair.c1.generator)).encode())
    h.update(b"c2:" + "|".join(_to_rows(pair.c2.generator)).encode())
    return h.hexdigest()


def css_meta(pair: CssPair) -> dict:
    """JSON-compatible description sufficient to rebuild the pair."""
    return {
        "c1_rows": _to_rows(pair.c1.generator),
        "c2_rows": _to_rows(pair.c2.generator),
    }


def css_from_meta(meta: dict) -> CssPair:
    """Rebuild a pair from ``css_meta``'s form; a malformed dict is a ValueError."""
    try:
        g1, g2 = (_from_rows(meta[key]) for key in ("c1_rows", "c2_rows"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed code pair {meta!r}") from exc
    return validate_css(LinearCode.from_generator(g1), LinearCode.from_generator(g2))
