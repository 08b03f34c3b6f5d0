"""The draw contract in distribution, and at its threshold edges.

The statistical checks run over the seeds 0..199, fixed before the test was
first run; each pooled figure must lie within 3 sigma of what the protocol
analysis predicts. The edge checks feed the kernels chosen uint32 draws
through ``FixedDraws``, so a threshold that wraps or a letter of probability
0 that fires shows on the first draw that reaches it.
"""

import numpy as np
import pytest

from eqkd.channel import (
    BiasedInterceptResend,
    DepolarizingPauli,
    SymbolBlock,
    bernoulli_threshold,
)
from eqkd.protocol import ProtocolParams, _draw_bases, biased_attack_rates
from pipeline_oracle import (
    Basis,
    FixedDraws,
    PauliLetter,
    letter_thresholds,
    quantum_phase,
    sift,
)

SEEDS = range(200)
PARAMS = ProtocolParams(n_qubits=4000, bias_p=0.3, m1=100, m2=100)
W = 0.02  # depolarizing weight per letter; the bit-flip rate in each class is 2W
P1, P2 = 0.1, 0.3


def _pooled(strategy):
    """(symbols, retained, per class: (positions, errors)) over every seed."""
    retained, classes = 0, np.zeros((2, 2), dtype=np.int64)
    for seed in SEEDS:
        _streams, sent, results = quantum_phase(PARAMS, strategy, seed)
        sifted = sift(sent, results)
        for i, cls in enumerate((sifted.both_rect, sifted.both_diag)):
            classes[i] += cls.positions.size, int((cls.alice_bits != cls.bob_bits).sum())
        retained += sifted.both_rect.positions.size + sifted.both_diag.positions.size
    return len(SEEDS) * PARAMS.n_qubits, retained, classes


def _within_3_sigma(hits: int, trials: int, p: float) -> bool:
    return abs(hits / trials - p) <= 3 * np.sqrt(p * (1 - p) / trials)


@pytest.mark.parametrize(
    "strategy, rates",
    [
        (DepolarizingPauli.symmetric(W), (2 * W, 2 * W)),
        (BiasedInterceptResend(P1, P2), biased_attack_rates(P1, P2)),  # (p2/2, p1/2)
    ],
    ids=["depolarizing", "intercept_resend"],
)
def test_retained_fraction_and_class_error_rates_match_the_analysis(strategy, rates):
    symbols, retained, classes = _pooled(strategy)
    p = PARAMS.bias_p
    assert _within_3_sigma(retained, symbols, p**2 + (1 - p) ** 2)
    for (positions, errors), rate in zip(classes, rates):
        assert _within_3_sigma(errors, positions, rate), (errors / positions, rate)


def test_thresholds_are_round_p_times_2_to_the_32():
    assert bernoulli_threshold(0.5) == 2**31
    assert bernoulli_threshold(0.25) == 2**30
    assert bernoulli_threshold(0.0) == 0
    assert bernoulli_threshold(2**-33 + 2**-40) == 1
    # probability 1 stays 2^32, above every uint32 draw, instead of wrapping to 0
    assert bernoulli_threshold(1.0) == 2**32
    assert np.all(np.array([0, 2**32 - 1], dtype=np.uint32) < bernoulli_threshold(1.0))


def test_a_basis_at_one_half_splits_at_2_to_the_31():
    draws = [0, 2**31 - 1, 2**31, 2**32 - 1]
    bases = _draw_bases(FixedDraws(draws), len(draws), 0.5)
    assert bases.tolist() == [Basis.RECTILINEAR] * 2 + [Basis.DIAGONAL] * 2


def _letters(strategy, draws):
    """The letter the channel applied at each draw, read off from its flips in both bases."""
    flips = []
    for basis in Basis:
        block = SymbolBlock(np.full(len(draws), basis, dtype=np.uint8),
                            np.zeros(len(draws), dtype=np.uint8))
        flips.append(strategy.apply(block, FixedDraws(draws)).bits)
    # X flips rectilinear bits only, Z diagonal only, Y both
    table = {(0, 0): PauliLetter.I, (1, 0): PauliLetter.X, (1, 1): PauliLetter.Y,
             (0, 1): PauliLetter.Z}
    return [table[int(r), int(d)] for r, d in zip(*flips)]


@pytest.mark.parametrize(
    "q",
    [
        (0.5, 0.0, 0.5, 0.0),
        (0.0, 0.5, 0.5, 0.0),
        (0.5, 0.25, 0.25, 0.0),  # q_z = 0: Y's threshold is 2^32
        (0.0, 0.0, 0.0, 1.0),
        (0.0, 1.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
        (0.25, 0.0, 0.0, 0.75),
    ],
)
def test_a_letter_of_probability_zero_never_fires(q):
    strategy = DepolarizingPauli(*q)
    edges = {d for t in letter_thresholds(strategy) for d in (t - 1, t, t + 1)}
    draws = sorted(d for d in edges | {0, 2**32 - 1} if 0 <= d < 2**32)
    draws += np.random.default_rng(len(draws)).integers(0, 2**32, 2000).tolist()
    fired = set(_letters(strategy, draws))
    assert fired == {letter for letter, p in zip(PauliLetter, q) if p > 0}


def test_q_z_zero_does_not_wrap():
    # the last draw is Y's: with Y's threshold wrapped to 0 it would be Z's
    assert _letters(DepolarizingPauli(0.5, 0.25, 0.25, 0.0), [2**32 - 1]) == [PauliLetter.Y]


@pytest.mark.parametrize("p1, p2", [(0.4, 0.6), (0.0, 1.0), (1.0, 0.0)])
def test_p1_plus_p2_of_one_does_not_wrap(p1, p2):
    # Eve measures every photon: the last draw is measured too, in the
    # diagonal basis when p2 > 0, so each photon leaves in Eve's basis
    draws = [0, 2**31, 2**32 - 1]
    eve = BiasedInterceptResend(p1, p2)
    t_rect = bernoulli_threshold(p1)
    want = [Basis.RECTILINEAR if d < t_rect else Basis.DIAGONAL for d in draws]
    for sent in Basis:
        block = SymbolBlock(np.full(3, sent, dtype=np.uint8), np.zeros(3, dtype=np.uint8))
        assert eve.apply(block, FixedDraws(draws)).bases.tolist() == want
