import itertools

import numpy as np
import pytest

from eqkd.codes import (
    _KEYS_PER_PASS,
    BinaryMatrix,
    CodeError,
    DecodeFailure,
    DegenerateCode,
    DistanceTooSmall,
    LinearCode,
    NestingViolation,
    NotACodeword,
    block_permutations,
    coset_label,
    css_fingerprint,
    css_from_meta,
    css_meta,
    enumerate_codewords,
    gf2_mul,
    gf2_nullspace,
    gf2_rank,
    gf2_rref,
    gf2_solve,
    load_css,
    min_distance,
    parse_code,
    reconcile_alice,
    reconcile_alice_blocks,
    reconcile_bob,
    reconcile_bob_blocks,
    steane_pair,
    syndrome_decode,
    syndrome_decode_blocks,
    validate_css,
    _decode_table,
    _labels,
    _leader_labels,
    _stable_ranks,
    _syndrome_index,
)
from pipeline_oracle import (
    block_permutations_oracle,
    gf2_mul_oracle,
    reconcile_bob_blocks_oracle,
)

HAMMING_ROWS = ["1000011", "0100101", "0010110", "0001111"]


def hamming() -> LinearCode:
    return LinearCode.from_generator(BinaryMatrix.from_rows(HAMMING_ROWS))


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------

def test_gf2_mul_matches_integer_arithmetic():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, (6, 9), dtype=np.uint8)
    b = rng.integers(0, 2, (9, 4), dtype=np.uint8)
    assert np.array_equal(gf2_mul(a, b), (a.astype(int) @ b.astype(int)) % 2)


def _gf2_operands(rng, rows, inner, cols):
    """(a, b) pairs of every operand form matmul takes: 2-d and 1-d, transposed
    (non-contiguous) views, entries beyond 0/1, bools and negative integers."""
    a = rng.integers(0, 4, (rows, inner), dtype=np.uint8)
    b = rng.integers(0, 4, (inner, cols), dtype=np.uint8)
    yield a, b
    yield np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T
    yield a[:, ::-1], b[::-1]
    yield a.astype(bool), b.astype(bool)
    yield a.astype(np.int64) - 2, b.astype(np.int64) - 2
    if rows:
        yield a[-1], b
    if cols:
        yield a, b[:, -1]
    if rows and cols:
        yield a[-1], b[:, -1]


def test_gf2_mul_matches_the_matmul_oracle():
    rng = np.random.default_rng(40)
    shapes = [(0, 4, 7), (1, 4, 7), (5, 1, 1), (6, 9, 4), (300, 7, 3), (4, 15, 11), (3, 5, 0)]
    shapes += [tuple(int(x) for x in rng.integers(1, 40, 3)) for _ in range(20)]
    for rows, inner, cols in shapes:
        for a, b in _gf2_operands(rng, rows, inner, cols):
            got, want = gf2_mul(a, b), gf2_mul_oracle(a, b)
            assert got.dtype == np.uint8
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)


def test_gf2_mul_rejects_misaligned_operands():
    with pytest.raises(ValueError):
        gf2_mul(np.zeros((3, 4), np.uint8), np.zeros((5, 2), np.uint8))
    with pytest.raises(ValueError):
        gf2_mul(np.zeros((2, 2, 2), np.uint8), np.zeros((2, 2), np.uint8))


def test_gf2_rref_shape_and_pivots():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, (5, 8), dtype=np.uint8)
    r, pivots = gf2_rref(a)
    for row, col in enumerate(pivots):
        assert r[row, col] == 1
        others = np.delete(r[:, col], row)
        assert not others.any()
    assert gf2_rank(a) == len(pivots)


def test_gf2_rank_by_rowspace_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.integers(0, 2, (4, 6), dtype=np.uint8)
        span = {tuple(gf2_mul(np.array(c, dtype=np.uint8), a)) for c in
                itertools.product((0, 1), repeat=4)}
        assert len(span) == 2 ** gf2_rank(a)


def test_gf2_nullspace_annihilates():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, (4, 7), dtype=np.uint8)
    ns = gf2_nullspace(a)
    assert ns.shape[0] == 7 - gf2_rank(a)
    if ns.size:
        assert not gf2_mul(a, ns.T).any()
    assert gf2_rank(ns) == ns.shape[0]


def test_gf2_solve_consistent_and_inconsistent():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 2, (5, 5), dtype=np.uint8)
    x_true = rng.integers(0, 2, 5, dtype=np.uint8)
    b = gf2_mul(a, x_true)
    x = gf2_solve(a, b)
    assert x is not None and np.array_equal(gf2_mul(a, x), b)
    # an unsatisfiable system: 0 * x = 1
    bad = gf2_solve(np.zeros((1, 3), dtype=np.uint8), np.array([1], dtype=np.uint8))
    assert bad is None


# ---------------------------------------------------------------------------
# Linear codes
# ---------------------------------------------------------------------------

def test_hamming_code_basics():
    code = hamming()
    assert (code.n, code.k_dim, code.d) == (7, 4, 3)
    words = code.codewords()
    assert words.shape == (16, 7)
    assert len({tuple(w) for w in words}) == 16
    assert not code.syndrome(words).any()
    assert min_distance(code.generator.array) == 3


def test_from_generator_rejects_bad_inputs():
    with pytest.raises(CodeError):
        LinearCode.from_generator(BinaryMatrix.from_rows(["110", "110"]))
    with pytest.raises(CodeError):
        LinearCode.from_generator(BinaryMatrix.from_rows(HAMMING_ROWS), claimed_d=4)


def test_encode_scalar_and_batch_agree():
    code = hamming()
    msgs = np.array([[1, 0, 1, 1], [0, 1, 0, 0]], dtype=np.uint8)
    batch = code.encode(msgs)
    for i, m in enumerate(msgs):
        assert np.array_equal(code.encode(m), batch[i])
        assert code.contains(batch[i])


def test_decode_corrects_every_single_error():
    code = hamming()
    for u in code.codewords():
        assert np.array_equal(syndrome_decode(code, u), u)
        for i in range(7):
            word = u.copy()
            word[i] ^= 1
            assert np.array_equal(syndrome_decode(code, word), u)


def test_decode_is_bounded_distance():
    # [4,1] repetition: d = 4, t = 1, so weight-2 words are undecodable
    rep = LinearCode.from_generator(BinaryMatrix.from_rows(["1111"]))
    assert rep.d == 4
    with pytest.raises(DecodeFailure):
        syndrome_decode(rep, np.array([1, 1, 0, 0], dtype=np.uint8))
    decoded, ok = syndrome_decode_blocks(
        rep, np.array([[1, 0, 0, 0], [1, 1, 0, 0]], dtype=np.uint8)
    )
    assert ok.tolist() == [True, False]
    assert np.array_equal(decoded[0], np.zeros(4, dtype=np.uint8))


def test_decode_every_word_lands_within_radius():
    code = hamming()  # perfect: all 128 words are within distance 1 of a codeword
    words = np.array(list(itertools.product((0, 1), repeat=7)), dtype=np.uint8)
    decoded, ok = syndrome_decode_blocks(code, words)
    assert ok.all()
    assert ((words ^ decoded).sum(axis=1) <= 1).all()


# ---------------------------------------------------------------------------
# Nested pairs
# ---------------------------------------------------------------------------

def test_steane_pair_structure():
    pair = steane_pair()
    assert (pair.n, pair.k, pair.t) == (7, 1, 1)
    assert pair.c1.k_dim == 4 and pair.c2.k_dim == 3
    # the inner code is the dual of the outer one
    assert not gf2_mul(pair.c1.generator.array, pair.c2.generator.array.T).any()
    # every inner codeword is an outer codeword
    for row in pair.c2.generator.array:
        assert pair.c1.contains(row)


def test_coset_labels_split_outer_code_in_half():
    pair = steane_pair()
    labels = {0: 0, 1: 0}
    inner = {tuple(w) for w in pair.c2.codewords()}
    for u in pair.c1.codewords():
        label = int(coset_label(pair, u)[0])
        labels[label] += 1
        assert (label == 0) == (tuple(u) in inner)
    assert labels == {0: 8, 1: 8}
    with pytest.raises(NotACodeword):
        coset_label(pair, np.array([1, 1, 0, 0, 0, 0, 0], dtype=np.uint8))


def test_validate_css_rejects_non_nested():
    c1 = hamming()
    stray = LinearCode.from_generator(BinaryMatrix.from_rows(["1100000"]))
    with pytest.raises(NestingViolation):
        validate_css(c1, stray)


def test_validate_css_rejects_degenerate_and_weak():
    c1 = hamming()
    with pytest.raises(DegenerateCode):
        validate_css(c1, c1)
    rep7 = LinearCode.from_generator(BinaryMatrix.from_rows(["1111111"]))
    # nested fine, but the dual of the inner code only has distance 2
    with pytest.raises(DistanceTooSmall):
        validate_css(c1, rep7)


def test_block_length_mismatch_rejected():
    c1 = hamming()
    rep4 = LinearCode.from_generator(BinaryMatrix.from_rows(["1111"]))
    with pytest.raises(CodeError):
        validate_css(c1, rep4)


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------

def test_reconcile_roundtrip_within_radius():
    pair = steane_pair()
    rng = np.random.default_rng(5)
    for _ in range(50):
        v = rng.integers(0, 2, 7, dtype=np.uint8)
        ann, key_a = reconcile_alice(pair, v, rng)
        for weight in (0, 1):
            err = np.zeros(7, dtype=np.uint8)
            if weight:
                err[rng.integers(0, 7)] = 1
            key_b = reconcile_bob(pair, v ^ err, ann)
            assert np.array_equal(key_a, key_b)


def test_reconcile_blocks_matches_scalar():
    pair = steane_pair()
    rng_a = np.random.default_rng(6)
    rng_b = np.random.default_rng(6)
    v = np.random.default_rng(7).integers(0, 2, (5, 7), dtype=np.uint8)
    ann_batch, keys_batch = reconcile_alice_blocks(pair, v, rng_a)
    for i in range(5):
        ann_i, key_i = reconcile_alice(pair, v[i], rng_b)
        assert np.array_equal(ann_batch[i], ann_i)
        assert np.array_equal(keys_batch[i], key_i)
    keys, ok = reconcile_bob_blocks(pair, v, ann_batch)
    assert ok.all()
    assert np.array_equal(keys, keys_batch)


# The [15,11] Hamming code over the [15,4] simplex code, its dual; row j of
# the simplex generator is bit j of the column numbers 1..15.
SIMPLEX_15_4 = ["101010101010101", "011001100110011", "000111100001111", "000000011111111"]


def _pair_15_11():
    c2 = LinearCode.from_generator(BinaryMatrix.from_rows(SIMPLEX_15_4))
    return validate_css(LinearCode.from_generator(c2.parity_check), c2)


def _pair_15_10():
    """A non-perfect pair over the simplex code: [15,11] Hamming ∩ w⊥, k = 6.

    w = all-ones lies in the Hamming code (every simplex row has even weight)
    but not in the simplex code, so C1 is the [15,10,4] even-weight subcode.
    Its radius is 1, so 16 of its 32 syndromes have a leader.
    """
    simplex = BinaryMatrix.from_rows(SIMPLEX_15_4).array
    checks = np.vstack([simplex, np.ones((1, 15), dtype=np.uint8)])
    c1 = LinearCode.from_generator(gf2_nullspace(checks))
    return validate_css(c1, LinearCode.from_generator(simplex))


def _words_of_every_weight(gen, blocks, n):
    """(blocks, n) random words whose weights run 0, 1, ..., n, 0, 1, ..."""
    words = np.zeros((blocks, n), dtype=np.uint8)
    for b in range(blocks):
        words[b, gen.permutation(n)[: b % (n + 1)]] = 1
    return words


@pytest.mark.parametrize("make_pair", [steane_pair, _pair_15_11, _pair_15_10])
def test_reconcile_bob_blocks_match_the_decode_then_label_oracle(make_pair):
    pair = make_pair()
    gen = np.random.default_rng(pair.n + pair.k)
    uncovered = 0
    for blocks in (0, 1, int(gen.integers(2, 3000)), 20 * (pair.n + 1)):
        received = gen.integers(0, 2, (blocks, pair.n), dtype=np.uint8)
        ann = received ^ _words_of_every_weight(gen, blocks, pair.n)
        keys, ok = reconcile_bob_blocks(pair, received, ann)
        keys_ref, ok_ref = reconcile_bob_blocks_oracle(pair, received, ann)
        assert keys.shape == (blocks, pair.k) and keys.dtype == np.uint8
        assert np.array_equal(keys, keys_ref)
        assert np.array_equal(ok, ok_ref)
        uncovered += int(blocks - ok.sum())
    # only the non-perfect outer code leaves syndromes without a leader
    assert (uncovered > 0) == (pair.c1.k_dim == 10)


def test_non_perfect_pair_covers_half_its_syndromes():
    pair = _pair_15_10()
    assert (pair.c1.n, pair.c1.k_dim, pair.c1.d, pair.k, pair.t) == (15, 10, 4, 6, 1)
    _leaders, covered = _decode_table(pair.c1)
    assert covered.size == 32 and covered.sum() == 16


@pytest.mark.parametrize("make_pair", [steane_pair, _pair_15_11, _pair_15_10])
def test_leader_label_table_labels_the_covered_leaders(make_pair):
    pair = make_pair()
    leaders, covered = _decode_table(pair.c1)
    table, table_covered = _leader_labels(pair)
    assert table.shape == (covered.size, pair.k) and table.dtype == np.uint8
    assert table_covered is covered
    assert np.array_equal(table[covered], _labels(pair, leaders[covered]))
    assert not table[~covered].any()
    assert _leader_labels(pair)[0] is table  # cached on the pair


def test_reconcile_weight_two_corrupts_key():
    pair = steane_pair()
    v = np.zeros(7, dtype=np.uint8)
    u = np.zeros(7, dtype=np.uint8)  # announcement u + v = 0
    ann = u ^ v
    err = np.array([1, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
    key_b = reconcile_bob(pair, v ^ err, ann)
    assert not np.array_equal(key_b, coset_label(pair, u))


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

def test_block_permutations_valid_and_deterministic():
    words = np.tile(np.arange(7, dtype=np.uint8), (12, 1))
    perms = block_permutations(words, 1234)
    assert perms.shape == (12, 7)
    for row in perms:
        assert sorted(row.tolist()) == list(range(7))
    assert np.array_equal(perms, block_permutations(words, 1234))
    assert not np.array_equal(perms, block_permutations(words, 1235))


@pytest.mark.parametrize("n", [2, 3, 7, 15, 31])
def test_block_permutations_match_the_argsort_oracle(n):
    rng = np.random.default_rng(41 + n)
    # a random count, and one that spans three passes of key draws
    for blocks in (0, 1, int(rng.integers(2, 5000)), 2 * (_KEYS_PER_PASS // n) + 1):
        words = rng.integers(0, 256, (blocks, n), dtype=np.uint8)
        seed = int(rng.integers(0, 2**63))
        got = block_permutations(words, seed)
        assert got.dtype == np.uint8 and got.shape == words.shape
        assert np.array_equal(got, block_permutations_oracle(words, seed))
        # a transposed (non-contiguous) input gives the same rows
        assert np.array_equal(block_permutations(np.ascontiguousarray(words.T).T, seed), got)


def test_block_permutations_of_rows_longer_than_a_byte_can_rank():
    rng = np.random.default_rng(42)
    words = rng.integers(0, 256, (5, 300), dtype=np.uint8)
    assert np.array_equal(block_permutations(words, 7), block_permutations_oracle(words, 7))


def test_block_permutations_want_a_2d_uint8_array():
    with pytest.raises(ValueError):
        block_permutations(np.zeros((3, 7), dtype=np.int64), 1)
    with pytest.raises(ValueError):
        block_permutations(np.zeros(7, dtype=np.uint8), 1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 15, 31, 300])
def test_stable_ranks_break_ties_like_a_stable_argsort(n):
    rng = np.random.default_rng(43 + n)
    for levels in (1, 2, 3, n + 1):  # 1 level: every key of a row is tied
        keys = rng.integers(0, levels, (50, n)).astype(np.float64)
        ranks = _stable_ranks(keys)
        assert ranks.shape == (n, 50)
        inverse = np.argsort(np.argsort(keys, axis=1, kind="stable"), axis=1, kind="stable")
        assert np.array_equal(ranks.T, inverse)


@pytest.mark.parametrize("m", [0, 1, 3, 8, 22])
def test_syndrome_index_reads_the_first_bit_as_the_highest(m):
    syndromes = np.random.default_rng(44 + m).integers(0, 2, (40, m), dtype=np.uint8)
    weights = (1 << np.arange(m - 1, -1, -1)).astype(np.int64)
    assert np.array_equal(_syndrome_index(syndromes, m), syndromes.astype(np.int64) @ weights)


# ---------------------------------------------------------------------------
# Code files and metadata
# ---------------------------------------------------------------------------

CODE_TEXT = """\
# systematic [7,4]
7 4
1000011
0100101
0010110
0001111
# d = 3
"""


def test_parse_code_roundtrip(tmp_path):
    code = parse_code(CODE_TEXT)
    assert (code.n, code.k_dim, code.d) == (7, 4, 3)
    path = tmp_path / "c.code"
    path.write_text(CODE_TEXT)
    pair = load_css(path)
    assert css_fingerprint(pair) == css_fingerprint(steane_pair())


def test_parse_code_errors():
    with pytest.raises(CodeError):
        parse_code("")
    with pytest.raises(CodeError):
        parse_code("7\n1000011")
    with pytest.raises(CodeError):
        parse_code("7 2\n1000011")
    with pytest.raises(CodeError):
        parse_code("3 1\n12x")


def test_css_meta_roundtrip():
    pair = steane_pair()
    rebuilt = css_from_meta(css_meta(pair))
    assert css_fingerprint(rebuilt) == css_fingerprint(pair)
    assert np.array_equal(rebuilt.key_map, pair.key_map)


def test_enumerate_codewords_guard():
    with pytest.raises(CodeError):
        enumerate_codewords(np.eye(21, dtype=np.uint8))
