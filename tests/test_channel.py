import numpy as np
import pytest

from eqkd.channel import (
    BiasedInterceptResend,
    DepolarizingPauli,
    FixedPauliString,
    Passive,
    RngStreams,
    SymbolBlock,
    strategy_from_dict,
    transmit,
)
from pipeline_oracle import (
    Basis,
    FixedDraws,
    PauliLetter,
    biased_intercept_resend_oracle,
    depolarizing_letters_oracle,
    letter_thresholds,
)

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
    block = SymbolBlock(np.array([basis], dtype=np.uint8), np.array([bit], dtype=np.uint8))
    out = FixedPauliString((letter,)).apply(block, None)
    assert out.bases.tolist() == [basis]
    assert out.bits.tolist() == [bit ^ FLIPS[(letter, basis)]]


def test_fixed_pauli_string_length_mismatch():
    block = SymbolBlock(np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="the Pauli string has 3 letters for 4 qubits"):
        FixedPauliString("III").apply(block, None)


def test_symbol_block_validation_and_roundtrip():
    with pytest.raises(ValueError):
        SymbolBlock(np.array([0, 2], dtype=np.uint8), np.array([0, 0], dtype=np.uint8))
    with pytest.raises(ValueError):
        SymbolBlock(np.array([0], dtype=np.uint8), np.array([0, 0], dtype=np.uint8))
    block = SymbolBlock(np.array([0, 1, 1], dtype=np.uint8), np.array([1, 0, 1], dtype=np.uint8))
    assert block.bases.tolist() == [0, 1, 1] and block.bits.tolist() == [1, 0, 1]
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
    assert FixedPauliString("ixz") == FixedPauliString("IXZ")
    assert FixedPauliString("xzYi").to_dict() == {"kind": "fixed_pauli", "letters": "XZYI"}
    assert FixedPauliString((0, 1, 3)).letters == FixedPauliString(["i", "X", 3]).letters == "IXZ"
    # an unknown name, a name of two letters and codes outside 0-3, directly and from a config
    for unknown in ("IQ", ("I", "W"), ("XZ",), (7,), (-1,)):
        with pytest.raises(ValueError, match="unknown Pauli letter"):
            FixedPauliString(unknown)
        with pytest.raises(ValueError, match="unknown Pauli letter"):
            strategy_from_dict({"kind": "fixed_pauli", "letters": list(unknown)})


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


# Lengths on either side of one pass of coins (2^16 positions) and of one
# pass of uint32 draws (2^17), and one that spans three passes and a bit.
PASS_LENGTHS = (2**16 + 1, 2**17 - 1, 2**17, 2**17 + 1, 3 * 2**17 + 5)


def test_depolarizing_matches_the_letter_oracle():
    gen = np.random.default_rng(2024)
    dists = list(_letter_distributions(gen, 320))
    lengths = [(0, 1, int(gen.integers(2, 4000)))[k % 3] for k in range(len(dists))]
    # the first distributions run once more at each length around a pass boundary
    cases = [*zip(dists, lengths), *zip(dists, PASS_LENGTHS * 2)]
    for q, n in cases:
        strat = DepolarizingPauli(*q)
        block = _random_block(gen, n)
        seed = int(gen.integers(2**63))
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        assert strat.apply(block, ours) == depolarizing_letters_oracle(strat, block, oracle), (q, n)
        # the same draws: both generators are left in the same state
        assert ours.bit_generator.state == oracle.bit_generator.state


def test_depolarizing_draws_on_a_cdf_boundary():
    # A draw equal to a letter's threshold takes the next letter, and one
    # below it this one; draws at 0 and 2^32 - 1 sit at the ends.
    gen = np.random.default_rng(2025)
    for q in (*_letter_distributions(gen, 12), (0.25, 0.25, 0.25, 0.25), (0.0, 1.0, 0.0, 0.0)):
        strat = DepolarizingPauli(*q)
        edges = {t + k for t in letter_thresholds(strat) for k in (-1, 0)} | {0, 2**32 - 1}
        draws = sorted(d for d in edges if 0 <= d < 2**32)
        for basis in Basis:
            block = SymbolBlock(np.full(len(draws), basis, dtype=np.uint8),
                                np.zeros(len(draws), dtype=np.uint8))
            ours = strat.apply(block, FixedDraws(draws))
            assert ours == depolarizing_letters_oracle(strat, block, FixedDraws(draws)), (q, basis)


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
    for n in (0, 1, 1, *gen.integers(2, 5000, size=6), *PASS_LENGTHS):
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
    # each of these was once truncated or converted to another seed
    for seed in (2.5, True, "5", np.int64(5)):
        with pytest.raises(ValueError, match="malformed seed"):
            RngStreams(seed)
