import numpy as np
import pytest

from eqkd.channel import (
    Basis,
    BiasedInterceptResend,
    DepolarizingPauli,
    FixedPauliString,
    Passive,
    PauliLetter,
    QubitSymbol,
    RngStreams,
    SymbolBlock,
    apply_pauli,
    apply_pauli_block,
    transmit,
)
from pipeline_oracle import biased_intercept_resend_oracle, depolarizing_letters_oracle

# Which letters flip the encoded bit in each basis, from the polarization
# action: X swaps horizontal/vertical, Z swaps the diagonal pair, Y both.
FLIPS = {
    (PauliLetter.I, Basis.RECTILINEAR): 0,
    (PauliLetter.I, Basis.DIAGONAL): 0,
    (PauliLetter.X, Basis.RECTILINEAR): 1,
    (PauliLetter.X, Basis.DIAGONAL): 0,
    (PauliLetter.Y, Basis.RECTILINEAR): 1,
    (PauliLetter.Y, Basis.DIAGONAL): 1,
    (PauliLetter.Z, Basis.RECTILINEAR): 0,
    (PauliLetter.Z, Basis.DIAGONAL): 1,
}


@pytest.mark.parametrize("letter", list(PauliLetter))
@pytest.mark.parametrize("basis", list(Basis))
@pytest.mark.parametrize("bit", [0, 1])
def test_pauli_action_exhaustive(letter, basis, bit):
    out = apply_pauli(QubitSymbol(basis, bit), letter)
    assert out.basis == basis
    assert out.bit == bit ^ FLIPS[(letter, basis)]


def test_apply_pauli_block_matches_scalar():
    rng = np.random.default_rng(0)
    block = SymbolBlock(rng.integers(0, 2, 64, dtype=np.uint8),
                        rng.integers(0, 2, 64, dtype=np.uint8))
    letters = rng.integers(0, 4, 64)
    out = apply_pauli_block(block, letters)
    for i in range(64):
        expect = apply_pauli(block[i], PauliLetter(letters[i]))
        assert out[i] == expect


def test_apply_pauli_block_length_mismatch():
    block = SymbolBlock(np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        apply_pauli_block(block, np.zeros(3, dtype=np.int64))


def test_qubit_symbol_validation():
    s = QubitSymbol(1, 1)
    assert s.basis is Basis.DIAGONAL
    with pytest.raises(ValueError):
        QubitSymbol(Basis.RECTILINEAR, 2)


def test_symbol_block_validation_and_roundtrip():
    with pytest.raises(ValueError):
        SymbolBlock(np.array([0, 2], dtype=np.uint8), np.array([0, 0], dtype=np.uint8))
    with pytest.raises(ValueError):
        SymbolBlock(np.array([0], dtype=np.uint8), np.array([0, 0], dtype=np.uint8))
    symbols = [QubitSymbol(0, 1), QubitSymbol(1, 0), QubitSymbol(1, 1)]
    block = SymbolBlock(np.array([0, 1, 1], dtype=np.uint8), np.array([1, 0, 1], dtype=np.uint8))
    assert [block[i] for i in range(len(block))] == symbols
    assert block == block.copy()
    assert len(block) == 3


def _always_measure(basis: Basis) -> BiasedInterceptResend:
    """An eavesdropper who intercepts every photon in one basis."""
    return BiasedInterceptResend(*((1.0, 0.0) if basis is Basis.RECTILINEAR else (0.0, 1.0)))


def test_intercept_resend_matching_basis_is_transparent():
    rng = np.random.default_rng(1)
    for basis in Basis:
        block = SymbolBlock(np.full(4, int(basis), dtype=np.uint8),
                            np.array([0, 1, 0, 1], dtype=np.uint8))
        assert transmit(block, _always_measure(basis), rng) == block


def test_intercept_resend_mismatch_randomizes():
    rng = np.random.default_rng(2)
    n = 2000
    block = SymbolBlock(np.full(n, int(Basis.RECTILINEAR), dtype=np.uint8),
                        np.zeros(n, dtype=np.uint8))
    out = transmit(block, _always_measure(Basis.DIAGONAL), rng)
    assert (out.bases == Basis.DIAGONAL).all()
    assert abs(out.bits.mean() - 0.5) < 3 * 0.5 / np.sqrt(n)


def test_passive_transmit_copies():
    rng = np.random.default_rng(3)
    block = SymbolBlock(rng.integers(0, 2, 32, dtype=np.uint8),
                        rng.integers(0, 2, 32, dtype=np.uint8))
    out = transmit(block, Passive(), rng)
    assert out == block
    assert out is not block


def test_fixed_pauli_string_deterministic():
    letters = (PauliLetter.X, PauliLetter.Z, PauliLetter.Y, PauliLetter.I)
    block = SymbolBlock(np.array([0, 1, 0, 1], dtype=np.uint8),
                        np.array([0, 0, 1, 1], dtype=np.uint8))
    out = transmit(block, FixedPauliString(letters), np.random.default_rng(0))
    # X on rect flips, Z on diag flips, Y on rect flips, I leaves alone
    assert out.bits.tolist() == [1, 1, 0, 1]
    assert out.bases.tolist() == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        transmit(block, FixedPauliString((PauliLetter.I,)), np.random.default_rng(0))
    assert FixedPauliString("XZYI") == FixedPauliString(letters)
    with pytest.raises(ValueError):
        FixedPauliString("IQ")


def test_depolarizing_per_basis_flip_rate():
    w = 0.03
    n = 200_000
    strat = DepolarizingPauli.symmetric(w)
    rng = np.random.default_rng(4)
    for basis in Basis:
        block = SymbolBlock(np.full(n, int(basis), dtype=np.uint8),
                            np.zeros(n, dtype=np.uint8))
        out = transmit(block, strat, rng)
        rate = out.bits.mean()
        sigma = np.sqrt(2 * w * (1 - 2 * w) / n)
        assert abs(rate - 2 * w) < 3 * sigma


def test_depolarizing_validation():
    with pytest.raises(ValueError):
        DepolarizingPauli(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        DepolarizingPauli(-0.1, 0.4, 0.4, 0.3)
    with pytest.raises(ValueError):
        DepolarizingPauli(float("nan"), 0.0, 0.0, 1.0)
    q = DepolarizingPauli.symmetric(0.1)
    assert q.q_i == pytest.approx(0.7)


def _letter_distributions(gen, count):
    """(q_i, q_x, q_y, q_z) in four shapes, taken in turn: dense, with some
    zero letters, one letter only, and dense with the sum off 1 by up to
    1e-12 (one-letter ones are off by up to 1e-12 too, half the time)."""
    for k in range(count):
        shape = k % 4
        q = gen.dirichlet(np.ones(4))
        if shape == 1:
            q[gen.permutation(4)[: gen.integers(1, 4)]] = 0.0
            q /= q.sum()
        elif shape == 2:
            q = np.zeros(4)
            q[gen.integers(4)] = 1.0 + (gen.uniform(-9e-13, 9e-13) if k % 8 == 6 else 0.0)
        elif shape == 3:
            q[np.argmax(q)] += gen.uniform(-9e-13, 9e-13)
        yield tuple(float(x) for x in q)


def _random_block(gen, n):
    return SymbolBlock(gen.integers(0, 2, n, dtype=np.uint8), gen.integers(0, 2, n, dtype=np.uint8))


def test_depolarizing_matches_the_letter_oracle():
    gen = np.random.default_rng(2024)
    for k, q in enumerate(_letter_distributions(gen, 320)):
        strat = DepolarizingPauli(*q)
        n = (0, 1, int(gen.integers(2, 4000)))[k % 3]
        block = _random_block(gen, n)
        seed = int(gen.integers(2**63))
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        assert strat.apply(block, ours) == depolarizing_letters_oracle(strat, block, oracle), (q, n)
        # the same draws: both generators are left in the same state
        assert ours.bit_generator.state == oracle.bit_generator.state


def test_depolarizing_draws_on_a_cdf_boundary():
    # A draw u >= 1/2 makes 1 - u and u/2 exact, so these distributions put
    # cdf boundaries exactly at u and the letter there is decided by the tie.
    seed = next(s for s in range(100) if np.random.default_rng(s).random() >= 0.5)
    u = np.random.default_rng(seed).random()
    tied = [
        (u, 1.0 - u, 0.0, 0.0),  # u == cdf[0]
        (u / 2, u / 2, 1.0 - u, 0.0),  # u == cdf[1]
        (u / 2, 0.0, u / 2, 1.0 - u),  # u == cdf[2]
        (u, 0.0, 0.0, 1.0 - u),  # u == cdf[0] == cdf[1] == cdf[2]
    ]
    for q in tied:
        strat = DepolarizingPauli(*q)
        for basis in Basis:
            block = SymbolBlock(np.array([basis], dtype=np.uint8), np.zeros(1, dtype=np.uint8))
            ours = strat.apply(block, np.random.default_rng(seed))
            oracle = depolarizing_letters_oracle(strat, block, np.random.default_rng(seed))
            assert ours == oracle, (q, basis)


def test_biased_intercept_resend_statistics():
    p1, p2 = 0.3, 0.4
    n = 100_000
    rng = np.random.default_rng(5)
    block = SymbolBlock(np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))
    out = transmit(block, BiasedInterceptResend(p1, p2), rng)
    # every symbol left the source rectilinear: interceptions in the diagonal
    # basis show up as a basis change on the resent symbol
    diag_frac = out.bases.mean()
    assert abs(diag_frac - p2) < 3 * np.sqrt(p2 * (1 - p2) / n)
    # rect-basis interception of a rect symbol is invisible
    untouched = out.bits[out.bases == 0]
    flip_frac = untouched.mean()
    assert flip_frac == 0.0
    # diag-intercepted bits are fair coins
    coins = out.bits[out.bases == 1]
    assert abs(coins.mean() - 0.5) < 3 * 0.5 / np.sqrt(coins.size)


@pytest.mark.parametrize(
    "p1, p2",
    [
        (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5),  # p1 or p2 at 0 or 1, p1 + p2 = 1
        (0.3, 0.7), (0.2, 0.3), (0.0, 0.4), (0.6, 0.0),
    ],
)
def test_biased_intercept_resend_matches_the_masked_oracle(p1, p2):
    strat = BiasedInterceptResend(p1, p2)
    gen = np.random.default_rng(int(1000 * p1 + 10 * p2))
    for n in (0, 1, 1, *gen.integers(2, 5000, size=6)):
        block = _random_block(gen, int(n))
        seed = int(gen.integers(2**63))
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        out = strat.apply(block, ours)
        assert out == biased_intercept_resend_oracle(strat, block, oracle), n
        assert out.bases.dtype == out.bits.dtype == np.uint8
        # the same draws: both generators are left in the same state
        assert ours.bit_generator.state == oracle.bit_generator.state


def test_biased_intercept_validation():
    with pytest.raises(ValueError):
        BiasedInterceptResend(0.7, 0.7)
    with pytest.raises(ValueError):
        BiasedInterceptResend(-0.1, 0.2)
    BiasedInterceptResend(0.5, 0.5)  # boundary fine


def test_strategy_stream_names():
    assert Passive().stream is None
    assert FixedPauliString((PauliLetter.I,)).stream is None
    assert BiasedInterceptResend(0.1, 0.1).stream == "eve"
    assert DepolarizingPauli.symmetric(0.01).stream == "noise"


def test_rng_streams_deterministic_and_separated():
    a = RngStreams(42)
    b = RngStreams(42)
    c = RngStreams(43)
    xa = a.stream("alice_bits").integers(0, 2, 64)
    xb = b.stream("alice_bits").integers(0, 2, 64)
    xc = c.stream("alice_bits").integers(0, 2, 64)
    assert np.array_equal(xa, xb)
    assert not np.array_equal(xa, xc)
    ya = RngStreams(42).stream("bob_bases").integers(0, 2, 64)
    assert not np.array_equal(xa, ya)


def test_rng_streams_are_stateful_singletons():
    streams = RngStreams(7)
    g1 = streams.stream("noise")
    g2 = streams.stream("noise")
    assert g1 is g2
    first = g1.random(4)
    second = streams.stream("noise").random(4)
    assert not np.array_equal(first, second)


def test_rng_streams_seed_validation():
    with pytest.raises(ValueError):
        RngStreams(-1)
    with pytest.raises(ValueError):
        RngStreams(2**64)
    RngStreams(2**64 - 1)
