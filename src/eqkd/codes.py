"""Binary linear codes and nested-pair key reconciliation.

Error correction and privacy amplification run over a nested pair of binary
linear codes C2 < C1. Alice hides her raw block v behind a random codeword u
of C1 (announcing u + v); Bob strips the announcement from his noisy copy and
decodes back to u; both then keep only the coset of C2 that u lies in. The
coset coordinates are the final key bits: the announcement leaks nothing
about them, and any error pattern of weight at most the correction radius t
leaves the coset unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .channel import WORDS_PER_PASS, raw_passes, seeded_rng, uniform_bits


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
    if np.asarray(a).size == 0:
        return 0
    return len(gf2_rref(a)[1])


def gf2_nullspace(a: np.ndarray) -> np.ndarray:
    """Basis (as rows) of the right null space {x : a @ x = 0 over GF(2)}."""
    a = np.asarray(a, dtype=np.uint8)
    rows, cols = a.shape
    r, pivots = gf2_rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row_idx, p in enumerate(pivots):
            if r[row_idx, f]:
                basis[i, p] = 1
    return basis


def gf2_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution x of a @ x = b over GF(2), or None if inconsistent."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8).reshape(-1, 1)
    aug = np.hstack([a, b])
    r, pivots = gf2_rref(aug)
    ncols = a.shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.uint8)
    for row_idx, p in enumerate(pivots):
        x[p] = r[row_idx, ncols]
    return x


class BinaryMatrix:
    """A 0/1 matrix over GF(2)."""

    __slots__ = ("array", "rows", "cols")

    def __init__(self, array) -> None:
        arr = np.array(array, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError("expected a 2-d bit matrix")
        if arr.size and arr.max() > 1:
            raise ValueError("entries must be 0 or 1")
        self.array = arr
        self.rows, self.cols = arr.shape

    @classmethod
    def from_rows(cls, rows: list[str]) -> "BinaryMatrix":
        return cls([[int(ch) for ch in row] for row in rows])

    def to_strings(self) -> list[str]:
        return ["".join(str(int(b)) for b in row) for row in self.array]

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# Linear codes
# ---------------------------------------------------------------------------

# Every distance is certified by enumerating the codewords, so a code may be
# at most this long and of at most this dimension.
EXHAUSTIVE_N_LIMIT = 24
_ENUM_DIM_LIMIT = 20


def _all_messages(k: int) -> np.ndarray:
    return ((np.arange(2**k, dtype=np.uint32)[:, None] >> np.arange(k)[None, :]) & 1).astype(
        np.uint8
    )


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
    generator : BinaryMatrix, full row rank, k_dim x n
    parity_check : BinaryMatrix, full row rank, (n - k_dim) x n
    d : minimum distance, certified by enumerating the codewords
    """

    n: int
    k_dim: int
    generator: BinaryMatrix
    parity_check: BinaryMatrix
    d: int

    @classmethod
    def from_generator(cls, generator, claimed_d: int | None = None) -> "LinearCode":
        """The code the rows generate; a claimed distance is checked, never used."""
        gen = generator if isinstance(generator, BinaryMatrix) else BinaryMatrix(generator)
        k_dim, n = gen.rows, gen.cols
        if n > EXHAUSTIVE_N_LIMIT or k_dim > _ENUM_DIM_LIMIT:
            raise CodeError(
                f"cannot certify the distance of a [{n}, {k_dim}] code: enumeration is "
                f"limited to n <= {EXHAUSTIVE_N_LIMIT} and dimension <= {_ENUM_DIM_LIMIT}"
            )
        if gf2_rank(gen.array) != k_dim:
            raise CodeError("generator matrix must have full row rank")
        d = min_distance(gen.array)
        if claimed_d is not None and claimed_d != d:
            raise CodeError(f"claimed distance {claimed_d} but computed {d}")
        pc = BinaryMatrix(gf2_nullspace(gen.array))
        return cls(n=n, k_dim=k_dim, generator=gen, parity_check=pc, d=d)

    def contains(self, word: np.ndarray) -> bool:
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.n,):
            return False
        return not gf2_mul(self.parity_check.array, word).any()

    def encode(self, messages: np.ndarray) -> np.ndarray:
        """Encode a message row-vector or a batch of them."""
        msgs = np.atleast_2d(np.asarray(messages, dtype=np.uint8))
        if msgs.shape[1] != self.k_dim:
            raise ValueError(f"messages must have {self.k_dim} bits")
        out = gf2_mul(msgs, self.generator.array)
        return out[0] if np.asarray(messages).ndim == 1 else out

    def codewords(self) -> np.ndarray:
        return enumerate_codewords(self.generator.array)

    def syndrome(self, words: np.ndarray) -> np.ndarray:
        w = np.atleast_2d(np.asarray(words, dtype=np.uint8))
        s = gf2_mul(w, self.parity_check.array.T)
        return s[0] if np.asarray(words).ndim == 1 else s


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
    leader_labels : (2^m, k) key labels of C1's coset leaders, m = n - dim C1,
        row s for the syndrome whose bits read s; a leader is the error
        pattern of weight at most C1's own radius (d(C1) - 1) // 2 with that
        syndrome, and a syndrome that has none keeps a zero row
    covered : (2^m,) whether syndrome s has such a leader
    """

    c1: LinearCode
    c2: LinearCode
    t: int
    k: int
    key_map: np.ndarray
    leader_labels: np.ndarray
    covered: np.ndarray

    @property
    def n(self) -> int:
        return self.c1.n


def _coset_representatives(c1: LinearCode, c2: LinearCode, k: int) -> np.ndarray:
    """k rows of C1 that extend a basis of C2 to a basis of C1."""
    reps = []
    current = c2.generator.array
    for row in c1.generator.array:
        if len(reps) == k:
            break
        candidate = np.vstack([current, row[None, :]])
        if gf2_rank(candidate) > gf2_rank(current):
            reps.append(row)
            current = candidate
    assert len(reps) == k
    return np.array(reps, dtype=np.uint8)


def _syndrome_index(syndromes: np.ndarray, m: int) -> np.ndarray:
    """Each syndrome row read as an m-bit integer, its first bit the highest."""
    syndromes = np.atleast_2d(syndromes)
    idx = np.zeros(syndromes.shape[0], dtype=np.intp)
    for j in range(m):
        idx <<= 1
        idx |= syndromes[:, j]
    return idx


def validate_css(c1: LinearCode, c2: LinearCode) -> CssPair:
    """Check nesting and distance conditions; build the labeling maps and the decode table.

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
    for row in c2.generator.array:
        if not c1.contains(row):
            raise NestingViolation("C2 is not a subcode of C1")
    # dual of C2 is generated by C2's parity check
    d = min(c1.d, min_distance(c2.parity_check.array))
    t = (d - 1) // 2
    if t < 1:
        raise DistanceTooSmall(f"pair corrects no errors (d = {d})")
    h2 = c2.parity_check
    reps = _coset_representatives(c1, c2, k)
    # L = h2 . reps^T has rank k; find T with T L = I so that key_map = T h2
    # is constant on C2-cosets and bijective across them.
    L = gf2_mul(h2.array, reps.T)
    T = np.zeros((k, h2.rows), dtype=np.uint8)
    eye = np.eye(k, dtype=np.uint8)
    for i in range(k):
        x = gf2_solve(L.T, eye[i])
        assert x is not None
        T[i] = x
    key_map = gf2_mul(T, h2.array)
    assert not gf2_mul(key_map, c2.generator.array.T).any()
    assert np.array_equal(gf2_mul(key_map, reps.T), eye)
    # every error pattern of weight 1..t1; d(C1) >= 2 t1 + 1 gives them distinct syndromes
    m, t1 = c1.n - c1.k_dim, (c1.d - 1) // 2
    supports = [s for w in range(1, t1 + 1) for s in combinations(range(c1.n), w)]
    errs = np.zeros((len(supports), c1.n), dtype=np.uint8)
    for row, support in zip(errs, supports):
        row[list(support)] = 1
    idx = _syndrome_index(c1.syndrome(errs), m)
    leader_labels = np.zeros((2**m, k), dtype=np.uint8)
    leader_labels[idx] = gf2_mul(errs, key_map.T)
    covered = np.zeros(2**m, dtype=bool)
    covered[0] = covered[idx] = True  # the zero syndrome's leader is the zero pattern
    return CssPair(c1=c1, c2=c2, t=t, k=k, key_map=key_map,
                   leader_labels=leader_labels, covered=covered)


def _labels(pair: CssPair, words: np.ndarray) -> np.ndarray:
    """Each row's k-bit coset label: on C1, one label per coset of C2, zero on C2."""
    return gf2_mul(np.atleast_2d(words), pair.key_map.T)


def reconcile_alice_blocks(
    pair: CssPair, v_blocks: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Announcements and key bits for a (B, n) batch of raw blocks.

    For each block a codeword u of C1 is drawn uniformly; the announcement
    is u + v and the key is u's coset label.

    Draw contract: the B messages, k_dim bits each, are the B * k_dim bits
    of ``uniform_bits(rng, B * k_dim)`` in row order, raw bit i being bit
    i mod k_dim of message i // k_dim.
    """
    v_blocks = np.atleast_2d(np.asarray(v_blocks, dtype=np.uint8))
    b = v_blocks.shape[0]
    if v_blocks.shape[1] != pair.n:
        raise ValueError(f"blocks must have {pair.n} bits")
    msgs = uniform_bits(rng, b * pair.c1.k_dim).reshape(b, pair.c1.k_dim)
    u = pair.c1.encode(msgs)
    return u ^ v_blocks, _labels(pair, u)


def reconcile_bob_blocks(
    pair: CssPair, received_blocks: np.ndarray, announcements: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a batch and return (keys, decode_ok).

    Equals decoding each word ``received ^ announcements`` to the codeword
    of C1 within C1's radius and labelling it, as ``tests/pipeline_oracle.py``
    does; rows with no codeword that close get a best-effort key (the label
    of the uncorrected word) and ok False, which is unreachable for perfect
    outer codes. The word less its codeword is its syndrome's leader, and
    labels are linear, so the key is the label of the word XOR the leader's
    label, read from ``pair.leader_labels``, whose uncovered rows are zero;
    no decoded word is formed.
    """
    received = np.atleast_2d(np.asarray(received_blocks, dtype=np.uint8))
    ann = np.atleast_2d(np.asarray(announcements, dtype=np.uint8))
    if received.shape != ann.shape or received.shape[1] != pair.n:
        raise ValueError("received blocks and announcements must be (B, n)")
    words = received ^ ann
    idx = _syndrome_index(pair.c1.syndrome(words), pair.c1.n - pair.c1.k_dim)
    return _labels(pair, words) ^ pair.leader_labels[idx], pair.covered[idx]


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
    """Each row of a (B, n) uint8 array permuted; one seed gives all B permutations.

    Draw contract: the keys are the first B * n raw 64-bit words of
    ``default_rng(seed)``, in row order, drawn in passes of whole rows by
    :func:`raw_passes`; entry j of row b moves to its stable rank among
    keys[b]. So row b of the result is row b of ``words`` in the order a
    stable sort gives keys[b], for any uint8 values;
    ``tests/pipeline_oracle.py`` has that form. An unstable sort gives the
    same order unless a row has two equal keys, which has probability below
    n(n-1)/2 in 2^64 per row.
    """
    words = np.asarray(words)
    if words.ndim != 2 or words.dtype != np.uint8:
        raise ValueError("words must be a 2-d uint8 array")
    blocks, n = words.shape
    rng = seeded_rng(int(seed))
    out = np.empty_like(words)
    # A row is built as little-endian 64-bit lanes, byte r of the row being
    # bits 8r..8r+7 of lane r // 8: entry j is shifted to bit 8 * rank_j of
    # the row. A shift outside a lane's 64 bits (wrapped, when negative)
    # gives 0.
    lanes = -(-n // 8)
    # a pass draws the keys of step whole rows; n = 0 draws none
    step = max(1, WORDS_PER_PASS // max(n, 1))
    for first, keys in raw_passes(rng, blocks * n, np.uint64, step * max(n, 1)):
        start = first // n
        rows = words[start : start + step]
        bit_at = np.left_shift(_stable_ranks(keys.reshape(rows.shape)), 3, dtype=np.uint64)
        packed = np.empty((rows.shape[0], lanes), dtype="<u8")
        for g in range(lanes):
            moved = np.left_shift(rows.T, bit_at - np.uint64(64 * g), dtype=np.uint64)
            np.bitwise_or.reduce(moved, axis=0, out=packed[:, g])
        out[start : start + step] = packed.view(np.uint8)[:, :n]
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


def steane_pair() -> CssPair:
    """The default [7,4,3] / dual pair (one key bit, corrects one error)."""
    c1 = LinearCode.from_generator(BinaryMatrix.from_rows(_HAMMING_7_4_GEN))
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
            if body.startswith("d") and "=" in body:
                claimed_d = int(body.split("=", 1)[1].strip())
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
    return LinearCode.from_generator(BinaryMatrix.from_rows(rows), claimed_d=claimed_d)


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
    import hashlib

    h = hashlib.sha256()
    h.update(b"c1:" + "|".join(pair.c1.generator.to_strings()).encode())
    h.update(b"c2:" + "|".join(pair.c2.generator.to_strings()).encode())
    return h.hexdigest()


def css_meta(pair: CssPair) -> dict:
    """JSON-compatible description sufficient to rebuild the pair."""
    return {
        "c1_rows": pair.c1.generator.to_strings(),
        "c2_rows": pair.c2.generator.to_strings(),
    }


def css_from_meta(meta: dict) -> CssPair:
    """Rebuild a pair from ``css_meta``'s form; a malformed dict is a ValueError."""
    try:
        g1, g2 = (BinaryMatrix.from_rows(meta[key]) for key in ("c1_rows", "c2_rows"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed code pair {meta!r}") from exc
    return validate_css(LinearCode.from_generator(g1), LinearCode.from_generator(g2))
