import itertools

import numpy as np
import pytest

from eqkd.channel import WORDS_PER_PASS
from eqkd.harness.cli import main
from eqkd.codes import (
    CodeError,
    DegenerateCode,
    DistanceTooSmall,
    LinearCode,
    NestingViolation,
    block_permutations,
    css_fingerprint,
    css_from_meta,
    css_meta,
    load_css,
    min_distance,
    parse_code,
    reconcile_alice_blocks,
    reconcile_bob_blocks,
    steane_pair,
    validate_css,
    _echelon,
    _from_rows,
    _stable_ranks,
    _syndrome_index,
)
from pipeline_oracle import (
    block_permutations_oracle,
    byte_tables_oracle,
    coset_labels,
    enumerate_codewords,
    gf2_mul_oracle,
    gf2_nullspace,
    gf2_rank,
    gf2_rref,
    key_map_oracle,
    leader_tables_oracle,
    lift_oracle,
    pack_blocks,
    reconcile_alice_blocks_oracle,
    reconcile_bob_blocks_oracle,
    syndrome_decode_blocks,
    unpack_blocks,
)

HAMMING_ROWS = ["1000011", "0100101", "0010110", "0001111"]


def hamming() -> LinearCode:
    return LinearCode.from_generator(_from_rows(HAMMING_ROWS))


# ---------------------------------------------------------------------------
# GF(2) linear algebra: the oracle's matrix routines, and the word echelon
# form that codes runs against them
# ---------------------------------------------------------------------------

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
        span = {tuple(gf2_mul_oracle(np.array(c, dtype=np.uint8), a)) for c in
                itertools.product((0, 1), repeat=4)}
        assert len(span) == 2 ** gf2_rank(a)


def test_gf2_nullspace_annihilates():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, (4, 7), dtype=np.uint8)
    ns = gf2_nullspace(a)
    assert ns.shape[0] == 7 - gf2_rank(a)
    if ns.size:
        assert not gf2_mul_oracle(a, ns.T).any()
    assert gf2_rank(ns) == ns.shape[0]


def _bit_matrices(count, seed):
    """(k, n) 0/1 matrices with n from 1 to 24: the empty, the square and random shapes.

    A third of them have a row replaced by the sum of a random set of the
    others, so that rank-deficient matrices of every shape come up.
    """
    rng = np.random.default_rng(seed)
    shapes = [(0, 1), (0, 24), (1, 1), (12, 12), (20, 20), (24, 24)]
    shapes += [(int(rng.integers(0, 25)), int(rng.integers(1, 25))) for _ in range(count - 6)]
    for k, n in shapes:
        a = rng.integers(0, 2, (k, n), dtype=np.uint8)
        if k > 1 and rng.random() < 1 / 3:
            others = np.delete(np.arange(k), i := int(rng.integers(k)))
            a[i] = np.bitwise_xor.reduce(a[others[rng.random(k - 1) < 0.5]], axis=0)
        yield a


def _word_rows(words, n) -> np.ndarray:
    """n-bit words as 0/1 rows, the highest bit first."""
    bits = np.array(words, dtype=np.int64)[:, None] >> np.arange(n - 1, -1, -1)
    return (bits & 1).astype(np.uint8)


def test_echelon_matches_the_rref_oracle():
    # the basis is the reduced row echelon form and its size the rank; the kept
    # words are the pivot columns of the transpose, the rows outside the span of
    # the rows before them
    deficient = 0
    for a in _bit_matrices(1200, 80):
        k, n = a.shape
        basis, kept = _echelon(_syndrome_index(a, n).tolist())
        r, pivots = gf2_rref(a)
        assert len(basis) == len(pivots) == gf2_rank(a)
        assert np.array_equal(_word_rows(basis, n), r[: len(pivots)])
        assert kept == gf2_rref(a.T)[1]
        deficient += len(basis) < k
    assert deficient > 300


def test_parity_check_matches_the_nullspace_oracle():
    # the same rows in the same order: C1's checks become C2's generator, and
    # every transcript records them
    checked = 0
    for a in _bit_matrices(1200, 81):
        k, n = a.shape
        if 0 < k <= 12 and gf2_rank(a) == k:
            code = LinearCode.from_generator(a)
            assert code.parity_check.dtype == np.uint8
            assert np.array_equal(code.parity_check, gf2_nullspace(a))
            checked += 1
            if k == n:
                assert code.parity_check.shape == (0, n)
    assert checked > 200


# ---------------------------------------------------------------------------
# Linear codes
# ---------------------------------------------------------------------------

def test_min_distance_matches_the_enumeration_oracle():
    rng = np.random.default_rng(71)
    for k, n in [(1, 1), (1, 9), (3, 7), (5, 12), (8, 24), (6, 40), (4, 64), (10, 16)]:
        gen = rng.integers(0, 2, (k, n), dtype=np.uint8)
        # the rows as drawn, then with a repeated row and with a sum of two
        for rows in (gen, np.vstack([gen, gen[:1]]), np.vstack([gen, gen[0] ^ gen[-1]])):
            weights = enumerate_codewords(rows).sum(axis=1)
            if weights.any():
                assert min_distance(rows) == weights[weights > 0].min(), (k, n)
            else:
                with pytest.raises(CodeError, match="zero-dimensional"):
                    min_distance(rows)
    # no rows, and rows that span only the zero word
    for rows in (np.zeros((0, 7), dtype=np.uint8), np.zeros((3, 7), dtype=np.uint8)):
        with pytest.raises(CodeError, match="zero-dimensional"):
            min_distance(rows)
    with pytest.raises(CodeError, match="codewords of 65 bits: .* a word holds 64"):
        min_distance(np.ones((1, 65), dtype=np.uint8))


def test_hamming_code_basics():
    code = hamming()
    assert (code.n, code.k_dim, code.d) == (7, 4, 3)
    words = enumerate_codewords(code.generator)
    assert words.shape == (16, 7)
    assert len({tuple(w) for w in words}) == 16
    assert not gf2_mul_oracle(words, code.parity_check.T).any()
    assert min_distance(code.generator) == 3


def test_from_generator_rejects_bad_inputs():
    with pytest.raises(CodeError):
        LinearCode.from_generator(_from_rows(["110", "110"]))
    # a claimed distance is checked against the enumerated one, never used in its place
    assert LinearCode.from_generator(_from_rows(HAMMING_ROWS), claimed_d=3).d == 3
    with pytest.raises(CodeError, match="claimed distance 4 but computed 3"):
        LinearCode.from_generator(_from_rows(HAMMING_ROWS), claimed_d=4)
    for not_2d in ([1, 0, 1], np.ones((1, 2, 3), dtype=np.uint8), [[1, 0], [1]]):
        with pytest.raises(ValueError):
            LinearCode.from_generator(not_2d)
    for not_bits in ([[1, 2, 0]], [[1, -1, 0]], [[1, 0.5, 0]]):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            LinearCode.from_generator(not_bits)


def test_from_generator_keeps_uint8_arrays():
    code = LinearCode.from_generator(np.array(_from_rows(HAMMING_ROWS), dtype=bool))
    for matrix in (code.generator, code.parity_check):
        assert isinstance(matrix, np.ndarray) and matrix.dtype == np.uint8
    assert np.array_equal(code.generator, _from_rows(HAMMING_ROWS))
    assert code.parity_check.shape == (3, 7)
    assert not gf2_mul_oracle(code.generator, code.parity_check.T).any()


def test_decode_corrects_every_single_error():
    code = hamming()
    for u in enumerate_codewords(code.generator):
        words = u ^ np.vstack([np.zeros(7, dtype=np.uint8), np.eye(7, dtype=np.uint8)])
        decoded, ok = syndrome_decode_blocks(code, words)
        assert ok.all()
        assert (decoded == u).all()


def test_decode_is_bounded_distance():
    # [4,1] repetition: d = 4, t = 1, so weight-2 words are undecodable
    rep = LinearCode.from_generator(_from_rows(["1111"]))
    assert rep.d == 4
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
    assert not gf2_mul_oracle(pair.c1.generator, pair.c2.generator.T).any()
    # every inner codeword is an outer codeword
    assert not gf2_mul_oracle(enumerate_codewords(pair.c2.generator), pair.c1.parity_check.T).any()


def test_coset_labels_split_outer_code_in_half():
    pair = steane_pair()
    labels = {0: 0, 1: 0}
    inner = {tuple(w) for w in enumerate_codewords(pair.c2.generator)}
    outer = enumerate_codewords(pair.c1.generator)
    for u, (label,) in zip(outer, coset_labels(pair, outer).tolist()):
        labels[label] += 1
        assert (label == 0) == (tuple(u) in inner)
    assert labels == {0: 8, 1: 8}


def test_validate_css_rejects_non_nested():
    c1 = hamming()
    stray = LinearCode.from_generator(_from_rows(["1100000"]))
    with pytest.raises(NestingViolation):
        validate_css(c1, stray)


def test_validate_css_rejects_degenerate_and_weak():
    c1 = hamming()
    with pytest.raises(DegenerateCode):
        validate_css(c1, c1)
    rep7 = LinearCode.from_generator(_from_rows(["1111111"]))
    # nested fine, but the dual of the inner code only has distance 2
    with pytest.raises(DistanceTooSmall):
        validate_css(c1, rep7)


def test_block_length_mismatch_rejected():
    c1 = hamming()
    rep4 = LinearCode.from_generator(_from_rows(["1111"]))
    with pytest.raises(CodeError):
        validate_css(c1, rep4)


# ---------------------------------------------------------------------------
# Reconciliation
# ---------------------------------------------------------------------------

def test_reconcile_roundtrip_within_radius():
    pair = steane_pair()
    rng = np.random.default_rng(5)
    v = rng.integers(0, 2, (50, 7), dtype=np.uint8)
    s, keys_a = reconcile_alice_blocks(pair, pack_blocks(v))
    one_error = np.eye(7, dtype=np.uint8)[rng.integers(0, 7, 50)]
    for err in (np.zeros_like(v), one_error):
        keys_b, ok = reconcile_bob_blocks(pair, pack_blocks(v ^ err), s)
        assert ok.all()
        assert np.array_equal(keys_a, keys_b)


# The [15,11] Hamming code over the [15,4] simplex code, its dual; row j of
# the simplex generator is bit j of the column numbers 1..15.
SIMPLEX_15_4 = ["101010101010101", "011001100110011", "000111100001111", "000000011111111"]


def _pair_15_11():
    c2 = LinearCode.from_generator(_from_rows(SIMPLEX_15_4))
    return validate_css(LinearCode.from_generator(c2.parity_check), c2)


def _pair_15_10():
    """A non-perfect pair over the simplex code: [15,11] Hamming ∩ w⊥, k = 6.

    w = all-ones lies in the Hamming code (every simplex row has even weight)
    but not in the simplex code, so C1 is the [15,10,4] even-weight subcode.
    Its radius is 1, so 16 of its 32 syndromes have a leader.
    """
    simplex = np.array(_from_rows(SIMPLEX_15_4), dtype=np.uint8)
    checks = np.vstack([simplex, np.ones((1, 15), dtype=np.uint8)])
    c1 = LinearCode.from_generator(gf2_nullspace(checks))
    return validate_css(c1, LinearCode.from_generator(simplex))


def _golay_pair():
    """The [23,12,7] Golay code over its dual [23,11,8], from the generator
    polynomial x^11+x^10+x^6+x^5+x^4+x^2+1: row i holds its coefficients,
    lowest degree first, shifted i places."""
    poly = np.array([1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1], dtype=np.uint8)
    gen = np.zeros((12, 23), dtype=np.uint8)
    for i in range(12):
        gen[i, i : i + 12] = poly
    c1 = LinearCode.from_generator(gen)
    return validate_css(c1, LinearCode.from_generator(c1.parity_check))


def test_the_golay_pair_certifies():
    pair = _golay_pair()
    assert (pair.n, pair.c1.k_dim, pair.c1.d, pair.c2.k_dim) == (23, 12, 7, 11)
    assert (pair.t, pair.k) == (3, 1)
    assert pair.covered.all()  # perfect: every syndrome has a leader of weight <= 3


def _random_invertible(rng, k):
    while True:
        a = rng.integers(0, 2, (k, k), dtype=np.uint8)
        if gf2_rank(a) == k:
            return a


@pytest.mark.parametrize("make_pair", [steane_pair, _pair_15_11, _golay_pair])
def test_key_map_matches_the_rank_loop_and_solve_oracle(make_pair):
    pair = make_pair()
    assert np.array_equal(pair.key_map, key_map_oracle(pair.c1, pair.c2))
    # other bases of the same pair, and the pair with its columns permuted
    rng = np.random.default_rng(60 + pair.n)
    for _ in range(12):
        perm = rng.permutation(pair.n)
        c1, c2 = (
            LinearCode.from_generator(
                gf2_mul_oracle(_random_invertible(rng, c.k_dim), c.generator)[:, perm]
            )
            for c in (pair.c1, pair.c2)
        )
        mixed = validate_css(c1, c2)
        assert np.array_equal(mixed.key_map, key_map_oracle(c1, c2))
        # still a bijection on the cosets: zero on C2, and of rank k on C1
        assert not gf2_mul_oracle(mixed.key_map, c2.generator.T).any()
        assert gf2_rank(gf2_mul_oracle(c1.generator, mixed.key_map.T)) == pair.k
        assert not gf2_mul_oracle(mixed.key_map, lift_oracle(mixed)).any()


def _validating_nested_pairs(count, seed):
    """Random pairs of n = 7 to 16 and k = 1 to 6 that validate.

    H1's columns are distinct nonzero m-bit words, so d(C1) >= 3; C2 is
    spanned by random combinations of C1's rows whose columns are distinct
    and nonzero too, so its dual has distance >= 3 as well.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        n, m = int(rng.integers(7, 17)), int(rng.integers(3, 6))
        if not (n.bit_length() < n - m and n < 2**m):
            continue
        cols = rng.choice(np.arange(1, 2**m), n, replace=False)
        c1 = LinearCode.from_generator(gf2_nullspace((cols >> np.arange(m)[:, None]) & 1))
        for _ in range(50):
            k2 = int(rng.integers(n.bit_length(), c1.k_dim))
            g2 = gf2_mul_oracle(rng.integers(0, 2, (k2, c1.k_dim)), c1.generator)
            cols2 = _syndrome_index(g2.T, k2)
            if np.unique(cols2).size == n and cols2.all() and gf2_rank(g2) == k2:
                pairs.append(validate_css(c1, LinearCode.from_generator(g2)))
                break
    return pairs


def test_key_map_matches_the_oracle_on_random_pairs():
    pairs = _validating_nested_pairs(1000, 82)
    assert {pair.k for pair in pairs} >= {1, 2, 3, 4, 5}
    for pair in pairs:
        assert np.array_equal(pair.key_map, key_map_oracle(pair.c1, pair.c2))


def _words_of_every_weight(gen, blocks, n):
    """(blocks, n) random words whose weights run 0, 1, ..., n, 0, 1, ..."""
    words = np.zeros((blocks, n), dtype=np.uint8)
    for b in range(blocks):
        words[b, gen.permutation(n)[: b % (n + 1)]] = 1
    return words


@pytest.mark.parametrize("make_pair", [steane_pair, _pair_15_11, _pair_15_10, _golay_pair])
def test_the_lift_is_a_right_inverse_of_the_outer_parity_check(make_pair):
    pair = make_pair()
    m = pair.n - pair.c1.k_dim
    lift = lift_oracle(pair)
    assert lift.shape == (pair.n, m)
    h1 = pair.c1.parity_check.astype(np.int64)
    assert np.array_equal(h1 @ lift % 2, np.eye(m, dtype=np.int64))
    # K R = 0, so a block's key is its own label, the label of its lifted
    # codeword too. The lift writes only C1's check positions: the free
    # columns of G1's RREF, where H1 is the identity. For such a position f,
    # h2's row f is h1's row f, which is orthogonal to C1, plus h2's rows for
    # earlier positions that are pivots of C1 but free in C2. So column f of
    # (h2 reps^T)^T is a combination of earlier columns; it is never a
    # pivot, so T, and hence K, is zero at f.
    assert not gf2_mul_oracle(pair.key_map, lift).any()


def test_the_steane_lift_places_the_syndrome_in_the_last_bits():
    # H1 = [P^T | I] for the systematic [7,4] code, so R s is s in bits 4..6
    assert np.array_equal(lift_oracle(steane_pair()), np.vstack([np.zeros((4, 3)), np.eye(3)]))


@pytest.mark.parametrize("make_pair", [steane_pair, _pair_15_11, _pair_15_10, _golay_pair])
def test_reconcile_alice_blocks_match_the_whole_array_oracle(make_pair):
    pair = make_pair()
    gen = np.random.default_rng(50 + pair.n + pair.k)
    for blocks in (0, 1, 15, 16, 17, int(gen.integers(2, 3000)), 70_001):
        v = gen.integers(0, 2, (blocks, pair.n), dtype=np.uint8)
        s, keys = reconcile_alice_blocks(pair, pack_blocks(v))
        s_ref, keys_ref = reconcile_alice_blocks_oracle(pair, v)
        assert np.array_equal(s, s_ref) and np.array_equal(keys, keys_ref), blocks
        assert (s.dtype, keys.dtype) == (np.uint8, np.uint8)


@pytest.mark.parametrize("make_pair", [steane_pair, _pair_15_11, _pair_15_10])
def test_reconcile_bob_blocks_match_the_decode_then_label_oracle(make_pair):
    pair = make_pair()
    gen = np.random.default_rng(pair.n + pair.k)
    uncovered = 0
    for blocks in (0, 1, int(gen.integers(2, 3000)), 20 * (pair.n + 1)):
        sent = gen.integers(0, 2, (blocks, pair.n), dtype=np.uint8)
        received = sent ^ _words_of_every_weight(gen, blocks, pair.n)
        s = gf2_mul_oracle(sent, pair.c1.parity_check.T)
        keys, ok = reconcile_bob_blocks(pair, pack_blocks(received), s)
        keys_ref, ok_ref = reconcile_bob_blocks_oracle(pair, received, s)
        assert keys.shape == (blocks, pair.k) and keys.dtype == np.uint8
        assert np.array_equal(keys, keys_ref)
        assert np.array_equal(ok, ok_ref)
        uncovered += int(blocks - ok.sum())
    # only the non-perfect outer code leaves syndromes without a leader
    assert (uncovered > 0) == (pair.c1.k_dim == 10)


def test_non_perfect_pair_covers_half_its_syndromes():
    pair = _pair_15_10()
    assert (pair.c1.n, pair.c1.k_dim, pair.c1.d, pair.k, pair.t) == (15, 10, 4, 6, 1)
    assert pair.covered.size == 32 and pair.covered.sum() == 16


def _lightest_words_by_syndrome(code: LinearCode) -> np.ndarray:
    """(2^m, n): row s is the first word of least weight whose syndrome reads s."""
    words = np.array(list(itertools.product((0, 1), repeat=code.n)), dtype=np.uint8)
    words = words[np.argsort(words.sum(axis=1), kind="stable")]
    idx = _syndrome_index(gf2_mul_oracle(words, code.parity_check.T), code.n - code.k_dim)
    syndromes, first = np.unique(idx, return_index=True)
    assert np.array_equal(syndromes, np.arange(2 ** (code.n - code.k_dim)))
    return words[first]


@pytest.mark.parametrize("make_pair", [steane_pair, _pair_15_11, _pair_15_10])
def test_leader_label_table_labels_the_covered_leaders(make_pair):
    pair = make_pair()
    leaders = _lightest_words_by_syndrome(pair.c1)
    covered = leaders.sum(axis=1) <= (pair.c1.d - 1) // 2
    table = pair.leader_labels
    assert table.shape == covered.shape and table.dtype == pair.byte_tables.dtype
    assert np.array_equal(pair.covered, covered)
    # a label is read as a k-bit integer, its first bit the highest
    weights = 1 << np.arange(pair.k - 1, -1, -1)
    assert np.array_equal(table[covered], coset_labels(pair, leaders[covered]) @ weights)
    assert not table[~covered].any()


@pytest.mark.parametrize("make_pair", [steane_pair, _pair_15_11, _pair_15_10, _golay_pair])
def test_byte_tables_give_each_words_syndrome_and_label(make_pair):
    pair = make_pair()
    m = pair.n - pair.c1.k_dim
    word = pair.byte_tables.dtype
    assert pair.byte_tables.shape == (-(-pair.n // 8), 256) and word.itemsize * 8 >= pair.n
    if pair.n <= 15:
        words = np.arange(2**pair.n).astype(word)
    else:
        words = np.random.default_rng(61).integers(0, 2**pair.n, 10**5).astype(word)
    found = np.zeros(words.size, dtype=np.int64)
    for b, table in enumerate(pair.byte_tables):
        found ^= table[(words >> (8 * b)) & 0xFF]
    bits = unpack_blocks(words, pair.n)
    product = gf2_mul_oracle(bits, np.vstack([pair.c1.parity_check, pair.key_map]).T)
    weights = 1 << np.arange(m + pair.k - 1, -1, -1)
    assert np.array_equal(found, product.astype(np.int64) @ weights)


def _random_nested_pairs(count, seed):
    """Pairs over random outer codes that leave some syndromes without a leader.

    H1's n columns are distinct nonzero m-bit words, so d(C1) >= 3, and
    n < 2^m - 1 keeps C1 from being perfect; C2 is spanned by random
    combinations of C1's rows. n runs from 9 to 24, so the tables take two
    or three bytes: a pair of n <= 8 that corrects an error has n = 7 and a
    perfect outer code.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        n, m = int(rng.integers(9, 25)), int(rng.integers(4, 8))
        if not (2 <= n - m <= 20 and n < 2**m - 1):
            continue
        cols = rng.choice(np.arange(1, 2**m), n, replace=False)
        c1 = LinearCode.from_generator(gf2_nullspace((cols >> np.arange(m)[:, None]) & 1))
        mix = rng.integers(0, 2, (int(rng.integers(1, c1.k_dim)), c1.k_dim), dtype=np.uint8)
        try:
            pair = validate_css(c1, LinearCode.from_generator(gf2_mul_oracle(mix, c1.generator)))
        except CodeError:  # dependent rows, or a dual of C2 of distance below 3
            continue
        if not pair.covered.all():
            pairs.append(pair)
    return pairs


def test_the_tables_match_the_probe_and_error_matrix_oracles():
    randoms = _random_nested_pairs(20, 72)
    assert {-(-pair.n // 8) for pair in randoms} == {2, 3}
    for pair in [steane_pair(), _pair_15_11(), _golay_pair(), *randoms]:
        word = np.min_scalar_type((1 << pair.n) - 1)
        assert pair.byte_tables.dtype == pair.leader_labels.dtype == word
        # all 256 entries of each byte, bits past n included
        assert np.array_equal(pair.byte_tables, byte_tables_oracle(pair))
        labels, covered = leader_tables_oracle(pair)
        assert np.array_equal(pair.leader_labels, labels)
        assert np.array_equal(pair.covered, covered)


def test_reconcile_weight_two_corrupts_key():
    pair = steane_pair()
    v = np.zeros(7, dtype=np.uint8)  # Alice's block: syndrome 0, key 0
    s, keys_a = reconcile_alice_blocks(pair, pack_blocks(v))
    err = np.array([1, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
    keys_b, _ok = reconcile_bob_blocks(pair, pack_blocks(v ^ err), s)
    assert not keys_a.any() and not np.array_equal(keys_b, keys_a)


@pytest.mark.parametrize(
    "syndromes",
    [np.zeros((4, 2)), np.zeros((3, 3)), np.zeros((4, 7))],
    ids=["a_wrong_width", "a_wrong_row_count", "an_n_bit_word"],
)
def test_reconcile_bob_blocks_refuses_syndromes_of_the_wrong_shape(syndromes):
    pair = steane_pair()
    with pytest.raises(ValueError, match=r"\(B, 3\) syndromes"):
        reconcile_bob_blocks(pair, np.zeros(4, dtype=np.uint8), syndromes)


@pytest.mark.parametrize(
    "words",
    [np.zeros((4, 7), dtype=np.uint8), np.zeros(4, dtype=np.uint16), np.zeros(4, dtype=np.int8)],
    ids=["unpacked_rows", "a_wider_word", "a_signed_word"],
)
def test_the_reconcile_steps_refuse_blocks_that_are_not_packed_words(words):
    pair = steane_pair()
    with pytest.raises(ValueError, match="1-d array of 7-bit uint8 words"):
        reconcile_alice_blocks(pair, words)
    with pytest.raises(ValueError, match="1-d array of 7-bit uint8 words"):
        reconcile_bob_blocks(pair, words, np.zeros((4, 3), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

def test_block_permutations_valid_and_deterministic():
    # row b of the input e_j moves its one set bit to the rank of j in row
    # b's permutation, so over j = 0..6 each block takes every bit once
    ones = [block_permutations(np.tile(np.eye(7, dtype=np.uint8)[j], (12, 1)), 1234)
            for j in range(7)]
    for perms in ones:
        assert perms.shape == (12,) and perms.dtype == np.uint8
        assert set(perms.tolist()) <= {1 << r for r in range(7)}
    assert (np.bitwise_or.reduce(ones) == 0x7F).all()
    words = np.random.default_rng(40).integers(0, 2, (12, 7), dtype=np.uint8)
    perms = block_permutations(words, 1234)
    assert np.array_equal(unpack_blocks(perms, 7).sum(axis=1), words.sum(axis=1))
    assert np.array_equal(perms, block_permutations(words, 1234))
    assert not np.array_equal(perms, block_permutations(words, 1235))


@pytest.mark.parametrize("n", [2, 3, 7, 15, 23, 24])
def test_block_permutations_match_the_argsort_oracle(n):
    rng = np.random.default_rng(41 + n)
    # A pass of key words holds whole rows, step of them. Counts around one
    # pass, and counts that span two and three passes.
    step = WORDS_PER_PASS // n
    word = np.min_scalar_type((1 << n) - 1)
    for blocks in (0, 1, int(rng.integers(2, 5000)), step - 1, step, step + 1, 2 * step + 1,
                   3 * step + 5):
        words = rng.integers(0, 2, (blocks, n), dtype=np.uint8)
        seed = int(rng.integers(0, 2**63))
        got = block_permutations(words, seed)
        assert got.dtype == word and got.shape == (blocks,)
        assert np.array_equal(got, pack_blocks(block_permutations_oracle(words, seed)))
        # a transposed (non-contiguous) input gives the same words
        assert np.array_equal(block_permutations(np.ascontiguousarray(words.T).T, seed), got)


def test_block_permutations_want_a_2d_uint8_array():
    # rows of int64 or int8, a 1-d row, and rows of 25 bits and of none
    for words in (np.zeros((3, 7), dtype=np.int64), np.zeros((3, 7), dtype=np.int8),
                  np.zeros(7, dtype=np.uint8), np.zeros((3, 25), dtype=np.uint8),
                  np.zeros((3, 0), dtype=np.uint8)):
        with pytest.raises(ValueError, match="2-d uint8 array of 1 to 24 columns"):
            block_permutations(words, 1)


def test_block_permutations_refuse_a_seed_that_is_not_an_int():
    # 2.7 once drew the permutations of seed 2
    with pytest.raises(ValueError, match="malformed seed 2.7"):
        block_permutations(np.zeros((3, 7), dtype=np.uint8), 2.7)


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
    with pytest.raises(CodeError, match="claimed distance 4 but computed 3"):
        parse_code(CODE_TEXT.replace("d = 3", "d = 4"))
    # the rows keep the row rule of _from_rows, and the header's length
    for row in ("100001\uff11", "10000a1", "1 00011"):
        with pytest.raises(CodeError) as info:
            parse_code(f"7 1\n{row}\n")
        assert str(info.value) == f"code row {row!r} is not ASCII 0/1 as long as the first row"
    with pytest.raises(CodeError) as info:
        parse_code("7 2\n100001\n010010\n")
    assert str(info.value) == "generator row '100001' is not 7 characters long"


@pytest.mark.parametrize("header", ["7 x", "x 1", "7 1.5", "7 0", "7 -1", "0 1", "7", "7 1 1"])
def test_parse_code_names_a_malformed_header(tmp_path, capsys, header):
    # "7 x" once raised int()'s bare ValueError, "7 0" a complaint about the
    # bit matrix and "7 -1" that it expected -1 generator rows
    named = f"header must be 'n k_dim', two positive integers, not {header!r}"
    with pytest.raises(CodeError) as info:
        parse_code(f"{header}\n1000011\n")
    assert str(info.value) == named
    path = tmp_path / "bad.code"
    path.write_text(f"{header}\n1000011\n")
    assert main(["codes", "validate", "--code", str(path)]) == 1
    assert capsys.readouterr().err == f"invalid code pair: {named}\n"


@pytest.mark.parametrize(
    "rows, named",
    [
        (HAMMING_ROWS[:3] + ["000111\uff11"], "'000111\uff11'"),
        (HAMMING_ROWS[:3] + ["000111\u0661"], "'000111\u0661'"),
        (HAMMING_ROWS[:3] + ["000111"], "'000111'"),
        (HAMMING_ROWS[:3] + ["00011111"], "'00011111'"),
        (HAMMING_ROWS[:3] + ["00a1111"], "'00a1111'"),
        (HAMMING_ROWS[:3] + [" 001111"], "' 001111'"),
        (["", ""], "''"),
        (HAMMING_ROWS[:3] + [1111], "1111"),
        ("1000011", "'1000011'"),
    ],
    ids=["full_width_one", "arabic_indic_one", "short", "long", "letter", "space",
         "empty", "not_a_string", "not_a_list"],
)
def test_a_code_row_is_a_string_of_ascii_bits_as_long_as_the_first(rows, named):
    # int() read the full-width and Arabic-Indic digits as ones, and numpy or
    # int() refused the others with messages that named no row
    with pytest.raises(CodeError) as info:
        _from_rows(rows)
    assert named in str(info.value)
    meta = dict(css_meta(steane_pair()), c1_rows=rows)
    with pytest.raises(CodeError) as info:
        css_from_meta(meta)
    assert named in str(info.value)


def test_only_a_d_equals_comment_claims_a_distance():
    prose = "# dual-containing Hamming code, see MacWilliams = Sloane ch. 1\n"
    for comment in (prose, "# distance = 9\n", "# d: 9\n", "# dd = 9\n"):
        assert parse_code(comment + CODE_TEXT.replace("# d = 3\n", "")).d == 3
    for claim in ("# d=3", "#d = 3", "#  d  =  3  "):
        assert parse_code(CODE_TEXT.replace("# d = 3", claim)).d == 3
    # int() reads the last three as 3; a claim, like the header, is ASCII
    # decimal digits only
    for claim in ("# d = three", "# d =", "# d = 3.0", "# d = +3", "# d = 0_3", "# d = \u0663"):
        with pytest.raises(CodeError) as info:
            parse_code(CODE_TEXT.replace("# d = 3", claim))
        assert str(info.value) == f"malformed distance claim {claim!r}"


def test_css_meta_roundtrip():
    pair = steane_pair()
    rebuilt = css_from_meta(css_meta(pair))
    assert css_fingerprint(rebuilt) == css_fingerprint(pair)
    assert np.array_equal(rebuilt.key_map, pair.key_map)


def test_enumerate_codewords_guard():
    with pytest.raises(CodeError, match="dimension limit 20"):
        min_distance(np.eye(21, dtype=np.uint8))


def _hamming_31_26_over_simplex() -> tuple[np.ndarray, np.ndarray]:
    """Generators of the [31,26,3] Hamming code and of its dual, the [31,5,16] simplex code."""
    simplex = ((np.arange(1, 32)[None, :] >> np.arange(5)[:, None]) & 1).astype(np.uint8)
    return gf2_nullspace(simplex), simplex


@pytest.mark.parametrize("claimed_d", [None, 3])
def test_a_code_past_the_enumeration_limits_is_refused_whatever_it_claims(claimed_d):
    hamming_31, _simplex = _hamming_31_26_over_simplex()
    with pytest.raises(CodeError, match=r"\[31, 26\] code: enumeration is limited to n <= 24"):
        LinearCode.from_generator(hamming_31, claimed_d=claimed_d)
    with pytest.raises(CodeError, match="dimension <= 20"):
        LinearCode.from_generator(np.eye(21, dtype=np.uint8))


def test_a_pair_whose_inner_dual_is_past_the_dimension_limit_is_refused():
    # the [22,17,3] shortened Hamming code over one of its own codewords:
    # both certify, but the dual of the inner code has dimension 21
    checks = ((np.arange(1, 23)[None, :] >> np.arange(5)[:, None]) & 1).astype(np.uint8)
    c1 = LinearCode.from_generator(gf2_nullspace(checks))
    assert (c1.n, c1.k_dim, c1.d) == (22, 17, 3)
    c2 = LinearCode.from_generator(c1.generator[:1])
    with pytest.raises(CodeError, match="dimension limit 20"):
        validate_css(c1, c2)

