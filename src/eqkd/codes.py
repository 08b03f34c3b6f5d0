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
``validate_css`` builds with the pair. A pair is certified, tabulated and
keyed on such words too: a codeword is an XOR of generator rows read as
integers, and one echelon form of such rows gives a code's rank and parity
checks and a pair's coset representatives and key map.
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
# Linear codes
# ---------------------------------------------------------------------------

# Every distance is certified by enumerating the codewords, so a code may be
# at most this long and of at most this dimension.
EXHAUSTIVE_N_LIMIT = 24
_ENUM_DIM_LIMIT = 20


def _word_dtype(bits: int) -> np.dtype:
    """The smallest unsigned type that holds the given number of bits, little-endian."""
    return np.min_scalar_type((1 << bits) - 1).newbyteorder("<")


def _syndrome_index(syndromes: np.ndarray, m: int) -> np.ndarray:
    """Each 0/1 row, such as a syndrome, read as an m-bit integer, its first bit the highest."""
    idx = np.zeros(syndromes.shape[0], dtype=_word_dtype(m))
    for j in range(m):
        idx <<= 1
        idx |= syndromes[:, j]
    return idx


def _xor_span(words: np.ndarray) -> np.ndarray:
    """(..., 2^j) array from (..., j) words: entry x is the XOR of the words at x's set bits."""
    span = np.zeros(words.shape[:-1] + (1,), dtype=words.dtype)
    for i in range(words.shape[-1]):  # the span so far, then each entry XOR word i
        span = np.concatenate([span, span ^ words[..., i : i + 1]], axis=-1)
    return span


def _echelon(words) -> tuple[list[int], list[int]]:
    """(basis, kept): the span of the words in reduced echelon form, and which words grew it.

    The basis runs by leading bit, highest first, and no word of it holds
    another's leading bit: the reduced row echelon form of the words read as
    rows, the first column the highest bit. ``kept`` indexes each word
    outside the span of those before it. ``min(w, w ^ b)`` clears b's
    leading bit from w, or leaves w as it is.
    """
    basis, kept = [], []
    for i, w in enumerate(words):
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis = sorted([min(b, b ^ w) for b in basis] + [w], reverse=True)
            kept.append(i)
    return basis, kept


def min_distance(generator: np.ndarray) -> int:
    """Exact minimum distance: the least bit count of the 2^k codewords, each an n-bit integer.

    A generator of more than ``_ENUM_DIM_LIMIT`` rows or 64 columns is refused.
    """
    gen = np.asarray(generator, dtype=np.uint8)
    k, n = gen.shape
    if k > _ENUM_DIM_LIMIT or n > 64:
        raise CodeError(f"refusing to enumerate 2^{k} codewords of {n} bits: dimension limit "
                        f"{_ENUM_DIM_LIMIT}, and a word holds 64")
    weights = np.bitwise_count(_xor_span(_syndrome_index(gen, n)))
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
        basis, _ = _echelon(_syndrome_index(gen, n).tolist())
        if len(basis) != k_dim:
            raise CodeError("generator matrix must have full row rank")
        d = min_distance(gen)
        if claimed_d is not None and claimed_d != d:
            raise CodeError(f"claimed distance {claimed_d} but computed {d}")
        # one check per free column f, in column order: it sets f, and each
        # pivot column whose basis word holds f
        pivots = {b.bit_length() - 1 for b in basis}
        checks = [1 << f | sum(1 << (b.bit_length() - 1) for b in basis if b >> f & 1)
                  for f in reversed(range(n)) if f not in pivots]
        parity_check = _int_bits(np.array(checks, dtype=np.int64), n, 0)
        return cls(n=n, k_dim=k_dim, generator=gen, parity_check=parity_check, d=d)


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


def validate_css(c1: LinearCode, c2: LinearCode) -> CssPair:
    """Check nesting and distance conditions; build the labeling maps and the lookup tables.

    The tables are built on n-bit words: a byte's table spans its positions'
    images, and the error patterns within C1's radius are looked up in it.

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
    n = c1.n
    g1, g2, h1, h2 = (_syndrome_index(a, n).tolist() for a in
                      (c1.generator, c2.generator, c1.parity_check, c2.parity_check))
    if any((g & h).bit_count() & 1 for g in g2 for h in h1):
        raise NestingViolation("C2 is not a subcode of C1")
    # dual of C2 is generated by C2's parity check
    d = min(c1.d, min_distance(c2.parity_check))
    t = (d - 1) // 2
    if t < 1:
        raise DistanceTooSmall(f"pair corrects no errors (d = {d})")
    # Coset representatives: the rows of C1 outside the span of C2 and the rows before them.
    reps = [g1[i - c2.k_dim] for i in _echelon(g2 + g1)[1][c2.k_dim:]]
    # sig(h) packs h . rep_j into bit k - 1 - j. Key-map row i, zero on C2, is the
    # combination of C2's checks whose sig is bit k - 1 - i: over the k checks of
    # independent sigs it is unique, row i of the echelon form of sig << n | h.
    sig = [sum(((h & r).bit_count() & 1) << (k - 1 - j) for j, r in enumerate(reps)) for h in h2]
    rows, _ = _echelon([sig[i] << n | h2[i] for i in _echelon(sig)[1]])
    key_words = [row & ((1 << n) - 1) for row in rows]
    assert not any((w & g).bit_count() & 1 for w in key_words for g in g2)
    assert all((w & r).bit_count() & 1 == (i == j)
               for i, w in enumerate(key_words) for j, r in enumerate(reps))
    key_map = _int_bits(np.array(key_words, dtype=np.int64), n, 0)
    m, t1 = n - c1.k_dim, (c1.d - 1) // 2
    word = _word_dtype(n)
    # position r's image (H1 e_r) << k | K e_r, 0 past n; m + k <= n bits fit a word
    images = np.zeros(8 * -(-n // 8), dtype=word)
    images[:n] = _syndrome_index(np.vstack([c1.parity_check, key_map]).T, m + k)
    tables = _xor_span(images.reshape(-1, 8))
    # the error patterns of weight 1..t1; d(C1) >= 2 t1 + 1 gives them distinct syndromes
    errs = [sum(1 << r for r in s) for w in range(1, t1 + 1) for s in combinations(range(n), w)]
    found = _lookup(tables, np.array(errs, dtype=word), n)
    idx = found >> k
    leader_labels = np.zeros(2**m, dtype=word)
    leader_labels[idx] = found & ((1 << k) - 1)
    covered = np.zeros(2**m, dtype=bool)
    covered[0] = covered[idx] = True  # the zero syndrome's leader is the zero pattern
    return CssPair(c1=c1, c2=c2, t=t, k=k, key_map=key_map, byte_tables=tables,
                   leader_labels=leader_labels, covered=covered)


def _lookup(tables: np.ndarray, words: np.ndarray, n: int) -> np.ndarray:
    """(H1 v) << k | K v for each packed n-bit word v: the XOR of its bytes' ``byte_tables`` entries."""
    words = np.asarray(words)
    if words.ndim != 1 or words.dtype != tables.dtype:
        raise ValueError(f"blocks must be a 1-d array of {n}-bit {tables.dtype} words")
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
    found = _lookup(pair.byte_tables, words, pair.n)
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
    found = _lookup(pair.byte_tables, words, pair.n)
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
    for first, keys in raw_passes(seeded_rng(seed), blocks * n, np.uint64, step * n):
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
    """A bit matrix from its row-string form, such as ``["101", "011"]``.

    The one row rule of the code formats: a row is a non-empty string of ASCII
    0s and 1s, as long as the first. Any other row is a CodeError naming it.
    """
    if not isinstance(rows, list):
        raise CodeError(f"code rows come as a list of strings, not {rows!r}")
    for row in rows:
        if not (isinstance(row, str) and row and set(row) <= {"0", "1"}
                and len(row) == len(rows[0])):
            raise CodeError(f"code row {row!r} is not ASCII 0/1 as long as the first row")
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

    Header line ``n k_dim``, two positive integers in decimal digits, then
    k_dim lines of n characters in {0,1}.
    A comment line ``# d = <int>`` anywhere, the integer in decimal digits,
    claims a distance, which is checked against the one enumeration
    certifies.
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
                digits = value.strip()
                if not (digits.isascii() and digits.isdigit()):
                    raise CodeError(f"malformed distance claim {line!r}")
                claimed_d = int(digits)
            continue
        lines.append(line)
    if not lines:
        raise CodeError("empty code file")
    head = lines[0].split()
    if len(head) != 2 or not all(h.isascii() and h.isdigit() and int(h) > 0 for h in head):
        raise CodeError(f"header must be 'n k_dim', two positive integers, not {lines[0]!r}")
    n, k_dim = map(int, head)
    rows = lines[1:]
    if len(rows) != k_dim:
        raise CodeError(f"expected {k_dim} generator rows, got {len(rows)}")
    generator = _from_rows(rows)
    if len(rows[0]) != n:
        raise CodeError(f"generator row {rows[0]!r} is not {n} characters long")
    return LinearCode.from_generator(generator, claimed_d=claimed_d)


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
    """``css_meta``'s form rebuilt; a malformed dict is a ValueError, a bad row a CodeError."""
    try:
        g1, g2 = (_from_rows(meta[key]) for key in ("c1_rows", "c2_rows"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed code pair {meta!r}") from exc
    return validate_css(LinearCode.from_generator(g1), LinearCode.from_generator(g2))
