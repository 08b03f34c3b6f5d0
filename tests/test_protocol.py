import hashlib
from collections import deque
from types import SimpleNamespace

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
)
from eqkd import protocol
from eqkd.codes import reconcile_bob_blocks, steane_pair
from eqkd.protocol import (
    AliceMachine,
    BobMachine,
    ErrorEstimate,
    ProtocolError,
    ProtocolParams,
    ProtocolViolation,
    SessionStatus,
    _PartyMachine,
    _SiftedClasses,
    alice_prepare,
    biased_attack_rates,
    decide,
    encode_symbols,
    naive_average_rate,
    relay,
    run_session,
    session_meta,
)
from eqkd.transcript import Actor, EventKind, SessionTranscript, pack_bits, unpack_bits
from pipeline_oracle import (
    PauliLetter,
    alice_prepare_oracle,
    bob_measure_oracle,
    gf2_mul_oracle,
    masked_codeword_alice_blocks,
    measure_as_bob,
    quantum_phase,
    quantum_phase_stats,
    raw_key_layout_oracle,
    refined_estimate,
    sample_ranks,
    sift,
    unpack_blocks,
)

CSS = steane_pair()


def default_params(**overrides) -> ProtocolParams:
    base = dict(n_qubits=4000, bias_p=0.3, m1=100, m2=100)
    base.update(overrides)
    return ProtocolParams(**base)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        default_params(bias_p=0.6)
    with pytest.raises(ValueError):
        default_params(bias_p=0.0)
    with pytest.raises(ValueError):
        default_params(n_qubits=0)
    with pytest.raises(ValueError):
        default_params(e_max=0.01, delta_e=0.02)
    with pytest.raises(ValueError):
        default_params(delta_prime=0.0)
    with pytest.raises(ValueError):
        # N (p^2 - delta') = 4000 * 0.009 = 36 < 100
        default_params(bias_p=0.1)
    # counts are integers and the rest finite numbers, never booleans
    for field, value in [("n_qubits", 4000.0), ("m1", 100.5), ("m2", True), ("bias_p", True),
                         ("e_max", float("inf")), ("delta_e", "0.01"),
                         ("delta_prime", float("nan")), ("delta_prime", 10**400)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            default_params(**{field: value})


def test_params_defaults():
    p = default_params()
    assert p.delta_prime == pytest.approx(0.3**2 / 10)
    assert p.threshold == pytest.approx(0.10)
    assert ProtocolParams.from_dict(p.to_dict()) == p


# ---------------------------------------------------------------------------
# Quantum phase
# ---------------------------------------------------------------------------

def test_alice_prepare_bias():
    params = default_params(n_qubits=100_000, m1=500, m2=500)
    block = alice_prepare(params, RngStreams(0))
    rect_frac = 1.0 - block.bases.mean()
    sigma = np.sqrt(0.3 * 0.7 / params.n_qubits)
    assert abs(rect_frac - 0.3) < 3 * sigma
    assert abs(block.bits.mean() - 0.5) < 3 * 0.5 / np.sqrt(params.n_qubits)


def test_bob_measure_matching_bases_reproduce_bits():
    params = default_params()
    streams = RngStreams(1)
    sent = alice_prepare(params, streams)
    results = measure_as_bob(sent, params, streams.stream("bob_bases"))
    same = results.bases == sent.bases
    assert np.array_equal(results.bits[same], sent.bits[same])
    # mismatched outcomes are fair coins
    coins = results.bits[~same]
    assert abs(coins.mean() - 0.5) < 3 * 0.5 / np.sqrt(coins.size)


# Lengths on either side of one pass of coins (2^16 positions) and of one
# pass of uint32 draws (2^17), and one that spans three passes and a bit.
PASS_LENGTHS = (2**16 + 1, 2**17 - 1, 2**17, 2**17 + 1, 3 * 2**17 + 5)


@pytest.mark.parametrize("bias_p", [0.5, 0.3, 0.05, 1e-9, 1.0])
def test_alice_prepare_matches_the_whole_array_oracle(bias_p):
    gen = np.random.default_rng(int(bias_p * 1000) + 11)
    for n in (0, 1, 1, *gen.integers(2, 5000, size=4), *PASS_LENGTHS):
        # alice_prepare reads only these two fields
        params = SimpleNamespace(n_qubits=int(n), bias_p=bias_p)
        seed = int(gen.integers(2**63))
        ours, oracle = RngStreams(seed), RngStreams(seed)
        sent = alice_prepare(params, ours)
        assert sent == alice_prepare_oracle(params, oracle), n
        assert sent.bases.dtype == sent.bits.dtype == np.uint8
        # the same draws: both streams are left in the same state
        for name in ("alice_bases", "alice_bits"):
            assert ours.stream(name).bit_generator.state == oracle.stream(name).bit_generator.state


@pytest.mark.parametrize("bias_p", [0.5, 0.3, 0.05, 1e-9])
def test_bob_measure_matches_the_masked_oracle(bias_p):
    gen = np.random.default_rng(int(bias_p * 1000) + 7)
    for n in (0, 1, 1, *gen.integers(2, 5000, size=6), *PASS_LENGTHS):
        n = int(n)
        # measure_as_bob reads only these two fields; params for n < 5 are infeasible
        params = SimpleNamespace(n_qubits=n, bias_p=bias_p)
        received = SymbolBlock(
            gen.integers(0, 2, n, dtype=np.uint8), gen.integers(0, 2, n, dtype=np.uint8)
        )
        seed = int(gen.integers(2**63))
        ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        out = measure_as_bob(received, params, ours)
        assert out == bob_measure_oracle(received, params, oracle), n
        assert out.bases.dtype == out.bits.dtype == np.uint8
        # the same draws: both generators are left in the same state
        assert ours.bit_generator.state == oracle.bit_generator.state


def test_bob_measure_length_check():
    params = default_params()
    streams = RngStreams(2)
    sent = alice_prepare(default_params(n_qubits=4001), streams)
    with pytest.raises(ValueError):
        measure_as_bob(sent, params, streams.stream("bob_bases"))


def _bases(transcript):
    """(Alice's bases, Bob's bases) as announced in the transcript."""
    alice = transcript.find(EventKind.BASES_ANNOUNCED_ALICE).payload
    bob = transcript.find(EventKind.BASES_ANNOUNCED_BOB).payload
    return unpack_bits(alice["bases"], alice["n"]), unpack_bits(bob["bases"], bob["n"])


def test_sift_partition():
    params = default_params()
    out = run_session(params, Passive(), CSS, seed=3)
    tr = out.transcript
    alice_bases, bob_bases = _bases(tr)
    classes = {
        (a, b): np.nonzero((alice_bases == a) & (bob_bases == b))[0]
        for a in (0, 1)
        for b in (0, 1)
    }
    assert sum(c.size for c in classes.values()) == params.n_qubits
    rect, diag = classes[0, 0], classes[1, 1]
    assert not np.intersect1d(rect, diag).size
    assert out.retained_fraction == (rect.size + diag.size) / params.n_qubits
    expected = 0.3**2 + 0.7**2
    sigma = np.sqrt(expected * (1 - expected) / params.n_qubits)
    assert abs(out.retained_fraction - expected) < 3 * sigma
    # the announced seed draws positions of each class, and the disclosed bits
    # are Bob's bits there: on a passive channel, Alice's bits
    seed = tr.find(EventKind.TEST_INDICES).payload["seed"]
    i1, i2 = sample_ranks(seed, rect.size, diag.size, params)
    tested = {"rect": rect[i1], "diag": diag[i2]}
    sent = tr.events[0].payload
    alice_bits = unpack_bits(sent["bits"], sent["n"])
    disclosed = tr.find(EventKind.TEST_DISCLOSURE).payload
    for cls, m in (("rect", params.m1), ("diag", params.m2)):
        bob_bits = unpack_bits(disclosed[f"{cls}_bits"], m)
        assert np.array_equal(bob_bits, alice_bits[tested[cls]])


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def test_refined_estimate_clean_channel_sees_nothing():
    alice, bob, _canonical, _pending = _drive(4)  # run_session's machines at seed 4
    est = alice.result.estimate
    assert (est.r1, est.r2) == (0, 0)
    assert (est.m1, est.m2) == (100, 100)
    for party in (alice, bob):
        assert party._test_rect.size == 100 and party._test_diag.size == 100
        assert not np.intersect1d(party._test_rect, party._test_diag).size
    assert np.array_equal(alice._test_rect, bob._test_rect)
    assert np.array_equal(alice._test_diag, bob._test_diag)


def test_refined_estimate_insufficient_sample():
    starved = ProtocolParams(n_qubits=4000, bias_p=0.3, m1=50, m2=3000)
    out = run_session(starved, Passive(), CSS, seed=5)
    assert out.status is SessionStatus.ABORTED_INSUFFICIENT_SAMPLE
    assert out.estimate is None


def test_all_x_errors_hit_only_the_rectilinear_class():
    params = default_params()
    strategy = FixedPauliString((PauliLetter.X,) * params.n_qubits)
    est = run_session(params, strategy, CSS, seed=6).estimate
    assert est.e1 == 1.0 and est.e2 == 0.0


def test_all_z_errors_hit_only_the_diagonal_class():
    params = default_params()
    strategy = FixedPauliString((PauliLetter.Z,) * params.n_qubits)
    est = run_session(params, strategy, CSS, seed=7).estimate
    assert est.e1 == 0.0 and est.e2 == 1.0


def test_naive_estimate_is_size_weighted():
    params = default_params(n_qubits=30_000, bias_p=0.1, m1=25, m2=200)
    out = run_session(params, BiasedInterceptResend(0.0, 1.0), CSS, seed=8)
    # the tiny both-rect class is saturated with errors, yet the merged
    # sample dilutes it into invisibility
    assert out.lumped_rate < 0.05
    assert out.estimate.e1 > 0.3


@pytest.mark.parametrize(
    "params, strategy",
    [
        (default_params(), Passive()),
        (default_params(), DepolarizingPauli.symmetric(0.02)),
        (default_params(), FixedPauliString("IXZY" * 1000)),
        (default_params(), BiasedInterceptResend(0.3, 0.2)),
        (ProtocolParams(n_qubits=200, bias_p=0.5, m1=10, m2=60), BiasedInterceptResend(0.1, 0.1)),
    ],
)
def test_outcome_scalars_match_rerun_oracle(params, strategy):
    statuses = set()
    for seed in range(30, 36):
        out = run_session(params, strategy, CSS, seed)
        statuses.add(out.status)
        retained, lumped = quantum_phase_stats(params, strategy, seed)
        assert out.retained_fraction == retained
        assert out.lumped_rate == lumped
    if params.n_qubits == 200:
        assert statuses == {SessionStatus.ABORTED_INSUFFICIENT_SAMPLE}


def test_analytic_rate_helpers():
    assert biased_attack_rates(0.0, 1.0) == (0.5, 0.0)
    assert biased_attack_rates(1.0, 0.0) == (0.0, 0.5)
    e1, e2 = biased_attack_rates(0.0, 1.0)
    assert naive_average_rate(0.1, e1, e2) == pytest.approx(0.006097560975609757)
    assert naive_average_rate(0.5, e1, e2) == pytest.approx(0.25)
    assert naive_average_rate(0.3, 0.08, 0.08) == pytest.approx(0.08)


def test_strategy_dict_roundtrip():
    for strategy in (
        Passive(),
        BiasedInterceptResend(0.2, 0.3),
        DepolarizingPauli.symmetric(0.01),
        FixedPauliString((PauliLetter.I, PauliLetter.X, PauliLetter.Z)),
    ):
        assert strategy_from_dict(strategy.to_dict()) == strategy
    for malformed in ({"kind": "no_such_kind"}, {"kind": "depolarizing"}, {"p1": 0.1}):
        with pytest.raises(ValueError):
            strategy_from_dict(malformed)


# ---------------------------------------------------------------------------
# Full sessions
# ---------------------------------------------------------------------------

def test_clean_session_accepts_with_matching_keys():
    params = default_params()
    out = run_session(params, Passive(), CSS, seed=10)
    assert out.status is SessionStatus.ACCEPTED
    assert out.estimate.e1 == 0.0 and out.estimate.e2 == 0.0
    assert out.num_blocks > 0
    assert out.alice_key.size == out.num_blocks * CSS.k
    assert np.array_equal(out.alice_key, out.bob_key)


def test_session_grammar_accepted():
    out = run_session(default_params(), Passive(), CSS, seed=11)
    shape = [(e.seq, e.actor, e.kind) for e in out.transcript.events]
    assert shape == [
        (0, Actor.ALICE, EventKind.QUBITS_SENT),
        (1, Actor.CHANNEL, EventKind.QUBITS_SENT),
        (2, Actor.BOB, EventKind.BASES_ANNOUNCED_BOB),
        (3, Actor.ALICE, EventKind.BASES_ANNOUNCED_ALICE),
        (4, Actor.BOB, EventKind.TEST_INDICES),
        (5, Actor.BOB, EventKind.TEST_DISCLOSURE),
        (6, Actor.ALICE, EventKind.ESTIMATE),
        (7, Actor.ALICE, EventKind.DECISION),
        (8, Actor.ALICE, EventKind.PERMUTATION_SEED),
        (9, Actor.ALICE, EventKind.SYNDROME_ANNOUNCEMENT),
        (10, Actor.ALICE, EventKind.KEY_DIGEST),
        (11, Actor.BOB, EventKind.KEY_DIGEST),
    ]


def test_session_grammar_error_abort():
    out = run_session(default_params(), BiasedInterceptResend(1.0, 0.0), CSS, seed=12)
    assert out.status is SessionStatus.ABORTED_ERROR_RATE
    assert out.alice_key is None and out.bob_key is None
    assert out.estimate is not None
    assert out.estimate.e2 > 0.3  # rect interception shows up in the diag class
    kinds = [e.kind for e in out.transcript.events]
    assert len(kinds) == 8
    assert kinds[-1] is EventKind.DECISION
    assert out.transcript.events[-1].payload["status"] == "abort_error_rate"


def test_session_grammar_insufficient_abort():
    # p = 1/2 and a 200-pulse run leaves the diagonal class under m2 + 7
    params = ProtocolParams(n_qubits=200, bias_p=0.5, m1=10, m2=60)
    out = run_session(params, Passive(), CSS, seed=13)
    assert out.status is SessionStatus.ABORTED_INSUFFICIENT_SAMPLE
    assert out.estimate is None
    assert out.alice_key is None and out.bob_key is None
    shape = [(e.seq, e.actor, e.kind) for e in out.transcript.events]
    assert shape == [
        (0, Actor.ALICE, EventKind.QUBITS_SENT),
        (1, Actor.CHANNEL, EventKind.QUBITS_SENT),
        (2, Actor.BOB, EventKind.BASES_ANNOUNCED_BOB),
        (3, Actor.ALICE, EventKind.BASES_ANNOUNCED_ALICE),
        (4, Actor.BOB, EventKind.DECISION),
    ]
    assert out.transcript.events[-1].payload["status"] == "abort_insufficient_sample"


def test_session_is_deterministic_in_the_seed():
    params = default_params()
    a = run_session(params, DepolarizingPauli.symmetric(0.01), CSS, seed=14)
    b = run_session(params, DepolarizingPauli.symmetric(0.01), CSS, seed=14)
    c = run_session(params, DepolarizingPauli.symmetric(0.01), CSS, seed=15)
    assert a.transcript.event_lines() == b.transcript.event_lines()
    assert a.transcript.event_lines() != c.transcript.event_lines()


@pytest.mark.parametrize("seed", [2.5, True, "5"], ids=repr)
def test_session_refuses_a_seed_that_is_not_an_int(seed):
    # 2.5 once ran, and was recorded as, seed 2
    with pytest.raises(ValueError, match=f"malformed seed {seed!r}"):
        run_session(default_params(), Passive(), CSS, seed)


def test_session_estimate_matches_pipeline_functions():
    params = default_params()
    strategy = DepolarizingPauli.symmetric(0.02)
    out = run_session(params, strategy, CSS, seed=16)
    streams, sent, results = quantum_phase(params, strategy, 16)
    seed, r1, r2, tested_rect, tested_diag = refined_estimate(
        sift(sent, results), params, streams.stream("test_selection")
    )
    assert (r1, r2) == (out.estimate.r1, out.estimate.r2)
    assert out.transcript.find(EventKind.TEST_INDICES).payload == {"seed": seed}
    # Bob discloses his bits at the oracle's positions
    disclosed = out.transcript.find(EventKind.TEST_DISCLOSURE).payload
    assert np.array_equal(unpack_bits(disclosed["rect_bits"], params.m1), results.bits[tested_rect])
    assert np.array_equal(unpack_bits(disclosed["diag_bits"], params.m2), results.bits[tested_diag])


# one N within a chunk of positions and one over several chunks
@pytest.mark.parametrize("n", [protocol._CHUNK // 2, 2 * protocol._CHUNK + 37])
def test_both_parties_test_the_positions_the_oracle_draws(monkeypatch, n):
    params = ProtocolParams(n_qubits=n, bias_p=0.3, m1=200, m2=200)
    strategy = DepolarizingPauli.symmetric(0.01)
    drawn = {}
    draw_test = _PartyMachine._draw_test

    def recording(self, seed):
        draw_test(self, seed)
        drawn[self.actor] = (seed, self._test_rect, self._test_diag)

    monkeypatch.setattr(_PartyMachine, "_draw_test", recording)
    out = run_session(params, strategy, CSS, seed=40)
    assert out.status is SessionStatus.ACCEPTED
    streams, sent, results = quantum_phase(params, strategy, 40)
    seed, _r1, _r2, tested_rect, tested_diag = refined_estimate(
        sift(sent, results), params, streams.stream("test_selection")
    )
    assert set(drawn) == {Actor.ALICE, Actor.BOB}
    for party_seed, rect, diag in drawn.values():
        assert party_seed == seed
        assert np.array_equal(rect, tested_rect) and np.array_equal(diag, tested_diag)


def test_session_key_digest_matches_key():
    out = run_session(default_params(), Passive(), CSS, seed=17)
    digests = out.transcript.find_all(EventKind.KEY_DIGEST)
    expected = hashlib.sha256(np.packbits(out.alice_key).tobytes()).hexdigest()
    assert digests[0].payload["digest"] == expected
    assert digests[1].payload["digest"] == expected
    assert digests[0].payload["bits"] == out.alice_key.size


def test_session_key_comes_from_untested_diagonal_positions():
    out = run_session(default_params(), Passive(), CSS, seed=18)
    tr = out.transcript
    n = default_params().n_qubits
    alice_bases = unpack_bits(tr.events[0].payload["bases"], n)
    bob_bases = unpack_bits(tr.find(EventKind.BASES_ANNOUNCED_BOB).payload["bases"], n)
    both_diag = int(((alice_bases == 1) & (bob_bases == 1)).sum())
    expected_blocks = (both_diag - default_params().m2) // CSS.n
    assert out.num_blocks == expected_blocks
    assert tr.find(EventKind.PERMUTATION_SEED).payload["blocks"] == expected_blocks


def _diagonal_class(members: np.ndarray) -> _SiftedClasses:
    """Sifted classes whose both-diagonal class is the mask ``members``: both parties' bases."""
    bases = np.packbits(members).tobytes()
    return _SiftedClasses.of_bases(bases, bases, members.size)


def test_raw_key_layout_matches_the_setdiff_oracle():
    gen = np.random.default_rng(19)
    machine = AliceMachine(default_params(), CSS, RngStreams(19))
    cases = []
    for _ in range(200):
        size = int(gen.integers(1, 3000))
        diag_pos = np.sort(gen.choice(4 * size, size=size, replace=False))
        tested = np.sort(gen.choice(diag_pos, size=int(gen.integers(0, size + 1)), replace=False))
        cases.append((diag_pos, tested))
    diag_pos = np.arange(0, 300, 3)
    cases += [
        (diag_pos, diag_pos[[0, -1]]),  # the first and last slots
        (diag_pos, diag_pos),  # every slot tested
        (diag_pos, diag_pos[:0]),  # none tested
        (diag_pos[:5], diag_pos[:1]),  # fewer untested than one block
    ]
    chunk = protocol._CHUNK
    for _ in range(3):  # classes over several chunks, N not a multiple of one
        size = int(gen.integers(2 * chunk, 3 * chunk))
        diag_pos = np.sort(gen.choice(2 * size + 1, size=size, replace=False))
        tested = np.sort(gen.choice(diag_pos, size=int(gen.integers(0, 500)), replace=False))
        cases.append((diag_pos, tested))
    diag_pos = np.arange(3 * chunk + 500)
    edges = np.array([0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, 3 * chunk - 1, 3 * chunk])
    cases.append((diag_pos, np.append(edges, diag_pos[-1])))  # tested at each chunk's ends
    # 2 * chunk = 7 * 18724 + 4 members fill chunks 0 and 1, and two more sit in
    # chunk 2: the last block ends part-way through chunk 1, and chunk 2 is left out
    cases.append((np.append(np.arange(2 * chunk), [2 * chunk + 5, 2 * chunk + 9]), np.array([], int)))
    for diag_pos, tested in cases:
        expected = raw_key_layout_oracle(diag_pos, tested, CSS.n)
        members = np.zeros(diag_pos[-1] + 1, dtype=bool)
        members[diag_pos] = True
        machine._classes = _diagonal_class(members)
        machine._test_diag = tested
        machine.sizes["blocks"] = expected.size // CSS.n
        # bits[j] = j, so the layout reads back the positions it took
        layout = machine._raw_key_layout(np.arange(diag_pos[-1] + 1))
        assert layout.shape == (expected.size // CSS.n, CSS.n)
        assert np.array_equal(layout.reshape(-1), expected)


# one class within a chunk and one of 3 chunks and a part; neither is a
# multiple of a 64-position word or a byte. The class is the diagonal one,
# ranked after the rectilinear class.
@pytest.mark.parametrize("n", [64 * 300 + 37, 3 * protocol._CHUNK + 37])
def test_packed_classes_map_ranks_to_the_listed_class(n):
    def positions(mask, ranks):
        classes = _diagonal_class(mask)
        return classes.positions(classes.sizes[0] + np.asarray(ranks, dtype=np.int64))

    gen = np.random.default_rng(23)
    members = gen.random(n) < 0.3
    listed = np.flatnonzero(members)
    counts = [np.count_nonzero(members[s : s + 64]) for s in range(0, n, 64)]
    first = np.cumsum([0, *counts])[:-1]  # the rank of each word's first member
    rank_sets = [
        np.arange(listed.size),  # every member
        np.array([0, listed.size - 1]),  # the first and last member
        np.unique(np.concatenate([first, first[1:] - 1])),  # each side of every word edge
        np.arange(5, 12),  # several in one word
        gen.choice(listed.size, size=200, replace=False),  # in any order
        np.array([], dtype=np.int64),
    ]
    for ranks in rank_sets:
        assert np.array_equal(positions(members, ranks), listed[ranks])
    # members at a word's first and last position, and in a short last word
    edge = np.zeros(n, dtype=bool)
    edge[[63, 64, 127, 128, n - 1]] = True
    assert positions(edge, np.arange(5)).tolist() == [63, 64, 127, 128, n - 1]
    # classes of 0 and 1 members
    empty, one = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    one[n - 1] = True
    assert positions(empty, []).size == 0
    assert positions(one, [0]).tolist() == [n - 1]
    for mask, ranks in ((empty, [0]), (one, [1]), (members, [listed.size])):
        with pytest.raises(IndexError):
            positions(mask, ranks)


@pytest.mark.parametrize("n", [37, 64 * 300 + 37, 3 * protocol._CHUNK + 37])
def test_sifted_classes_hold_no_position_past_n(n):
    gen = np.random.default_rng(29)
    a, b = gen.random(n) < 0.6, gen.random(n) < 0.6  # True for diagonal
    classes = _SiftedClasses.of_bases(np.packbits(a).tobytes(), np.packbits(b).tobytes(), n)
    rect, diag = ~(a | b), a & b
    rows = np.unpackbits(classes.words.view(np.uint8), axis=1).view(bool)
    # NOT(a OR b) would set every pad position of the last word
    assert not rows[:, n:].any()
    assert np.array_equal(rows[0, :n], rect) and np.array_equal(rows[1, :n], diag)
    assert classes.sizes == (np.count_nonzero(rect), np.count_nonzero(diag))
    listed = np.concatenate([np.flatnonzero(rect), np.flatnonzero(diag)])
    assert np.array_equal(classes.positions(np.arange(listed.size)), listed)


def _drive(seed, stop_at=None, strategy=None):
    """Two machines and the relay step, shuttling messages as ``run_session`` does.

    Returns (alice, bob, canonical transcript, undelivered messages). The
    messages are left undelivered once the next is ``stop_at``, an (actor,
    kind) pair; none are left once the session ends.
    """
    params, strategy = default_params(), strategy or Passive()
    streams = RngStreams(seed)
    meta = session_meta(params, strategy, CSS, seed)
    alice = AliceMachine(params, CSS, streams, meta=meta)
    bob = BobMachine(params, CSS, streams, meta=meta)
    list(bob.start())
    canonical = SessionTranscript(meta=meta)
    pending = _shuttle(alice, bob, canonical, alice.start(), strategy, streams, stop_at)
    return alice, bob, canonical, pending


def _shuttle(alice, bob, canonical, messages, strategy, streams, stop_at=None):
    """Relay ``messages`` and every reply until the next is ``stop_at``; the rest."""
    pending = deque(messages)
    while pending and pending[0][:2] != stop_at:
        ev = relay(canonical, *pending.popleft(), strategy, streams)
        receiver = alice if ev.actor is Actor.BOB else bob
        pending.extend(receiver.receive(ev.actor, ev.kind, ev.payload))
    return list(pending)


def test_machine_views_are_the_canonical_transcript_minus_one_event():
    alice, bob, canonical, _pending = _drive(19, strategy=DepolarizingPauli.symmetric(0.01))
    assert alice.done and bob.done
    SessionTranscript.from_jsonl(canonical.to_jsonl())
    full = canonical.event_lines()
    assert len(full) == 12
    assert alice.transcript.event_lines() == full[:1] + full[2:]
    assert bob.transcript.event_lines() == full[1:]


def test_machines_reject_out_of_order_messages():
    params = default_params()
    streams = RngStreams(20)
    alice = AliceMachine(params, CSS, streams)
    list(alice.start())
    with pytest.raises(ProtocolViolation):
        alice.receive(Actor.BOB, EventKind.KEY_DIGEST, {"digest": "00"})
    with pytest.raises(ProtocolViolation):
        alice.start()
    # the grammar's seq 0 is Alice's own message, which she never receives
    fresh = AliceMachine(params, CSS, RngStreams(20))
    with pytest.raises(ProtocolViolation):
        fresh.receive(Actor.ALICE, EventKind.QUBITS_SENT, {"digest": "00" * 32})
    assert not fresh.done


def test_bob_takes_no_message_before_his_start_and_starts_once():
    seed, params, strategy = 25, default_params(), Passive()
    streams = RngStreams(seed)
    meta = session_meta(params, strategy, CSS, seed)
    alice = AliceMachine(params, CSS, streams, meta=meta)
    bob = BobMachine(params, CSS, streams, meta=meta)
    canonical = SessionTranscript(meta=meta)
    qubits = relay(canonical, *next(alice.start()), strategy, streams)
    with pytest.raises(ProtocolError, match="qubits_sent from channel before start") as info:
        bob.receive(qubits.actor, qubits.kind, qubits.payload)
    assert type(info.value) is ProtocolError  # the caller's fault, not the peer's
    assert not bob.failed and bob.transcript.events == []
    assert list(bob.start()) == []
    with pytest.raises(ProtocolViolation, match="start called twice"):
        bob.start()
    # the refused start drew nothing: his bases are still the stream's first draws
    [(actor, kind, payload)] = bob.receive(qubits.actor, qubits.kind, qubits.payload)
    ref = run_session(params, strategy, CSS, seed).transcript.find(EventKind.BASES_ANNOUNCED_BOB)
    assert (actor, kind, payload) == (Actor.BOB, EventKind.BASES_ANNOUNCED_BOB, ref.payload)


def _play_as_networked(alice, bob, canonical, strategy, streams, log):
    """Shuttle the messages of a session as the networked endpoints do, logging each step.

    Both parties start before any message is relayed, Bob first, as
    ``run_session`` starts them. A message is relayed and received as soon
    as it is taken from its sender's reply. The receiver's reply is taken
    whole at once, and its messages reach the sender once the sender's own
    reply is drained.
    """
    inbox = {alice: deque(), bob: deque()}
    peer = {alice: bob, bob: alice}

    def play(party, reply):
        receiver = peer[party]
        for actor, kind, payload in reply:
            log.append(("take", actor, kind))
            ev = relay(canonical, actor, kind, payload, strategy, streams)
            log.append(("receive", receiver.actor, ev.kind))
            for message in receiver.receive(ev.actor, ev.kind, ev.payload):
                log.append(("take", *message[:2]))
                inbox[party].append(relay(canonical, *message, strategy, streams))
        while inbox[party]:
            ev = inbox[party].popleft()
            log.append(("receive", party.actor, ev.kind))
            play(party, party.receive(ev.actor, ev.kind, ev.payload))

    assert list(bob.start()) == []  # Bob's start sends nothing
    play(alice, alice.start())


def test_each_party_sends_a_message_before_the_work_that_follows_it(monkeypatch):
    seed, params, strategy = 24, default_params(), DepolarizingPauli.symmetric(0.01)
    reference = run_session(params, strategy, CSS, seed)
    log = []

    def logged(name, call):
        def step(*args):
            log.append((name,))
            return call(*args)

        return step

    work = ("block_permutations", "reconcile_alice_blocks", "reconcile_bob_blocks")
    for name in ("_draw_bases", "bob_measure", *work):
        monkeypatch.setattr(protocol, name, logged(name, getattr(protocol, name)))
    for cls in (AliceMachine, BobMachine):
        start = cls.start
        monkeypatch.setattr(
            cls, "start", lambda self, start=start: log.append(("start", self.actor)) or start(self)
        )
    sift = _PartyMachine._sift
    monkeypatch.setattr(
        _PartyMachine, "_sift", lambda self, *bases: log.append(("sift", self.actor)) or sift(self, *bases)
    )
    streams = RngStreams(seed)
    meta = session_meta(params, strategy, CSS, seed)
    alice = AliceMachine(params, CSS, streams, meta=meta)
    bob = BobMachine(params, CSS, streams, meta=meta)
    canonical = SessionTranscript(meta=meta)
    _play_as_networked(alice, bob, canonical, strategy, streams, log)

    A, B, K = Actor.ALICE, Actor.BOB, EventKind
    assert log == [
        ("start", B),
        ("_draw_bases",),  # Bob's bases, before the qubits reach him
        ("start", A),
        ("_draw_bases",),  # Alice's, as she prepares her qubits
        ("take", A, K.QUBITS_SENT),
        ("receive", B, K.QUBITS_SENT),
        ("take", B, K.BASES_ANNOUNCED_BOB),
        ("bob_measure",),  # his mismatch coins, once his bases have gone out
        ("receive", A, K.BASES_ANNOUNCED_BOB),
        ("take", A, K.BASES_ANNOUNCED_ALICE),  # Alice announces before she sifts
        ("receive", B, K.BASES_ANNOUNCED_ALICE),
        ("sift", B),
        ("take", B, K.TEST_INDICES),
        ("take", B, K.TEST_DISCLOSURE),
        ("sift", A),
        ("receive", A, K.TEST_INDICES),
        ("receive", A, K.TEST_DISCLOSURE),
        ("take", A, K.ESTIMATE),
        ("receive", B, K.ESTIMATE),
        ("take", A, K.DECISION),
        ("receive", B, K.DECISION),
        ("take", A, K.PERMUTATION_SEED),  # before her layout, permutation and reconciliation
        ("receive", B, K.PERMUTATION_SEED),
        ("block_permutations",),  # Bob's, on the seed
        ("block_permutations",),  # Alice's
        ("reconcile_alice_blocks",),
        ("take", A, K.SYNDROME_ANNOUNCEMENT),
        ("receive", B, K.SYNDROME_ANNOUNCEMENT),
        ("reconcile_bob_blocks",),  # the only work Bob has left on the announcement
        ("take", A, K.KEY_DIGEST),
        ("receive", B, K.KEY_DIGEST),
        ("take", B, K.KEY_DIGEST),
        ("receive", A, K.KEY_DIGEST),
    ]
    # the same session as the in-process driver's, byte for byte
    assert canonical.event_lines() == reference.transcript.event_lines()
    assert np.array_equal(alice.result.key, reference.alice_key)
    assert np.array_equal(bob.result.key, reference.bob_key)


def test_a_party_refuses_a_message_until_its_last_reply_is_drained():
    seed, params, strategy = 29, default_params(), Passive()
    streams = RngStreams(seed)
    meta = session_meta(params, strategy, CSS, seed)
    alice = AliceMachine(params, CSS, streams, meta=meta)
    bob = BobMachine(params, CSS, streams, meta=meta)
    canonical = SessionTranscript(meta=meta)

    def answer(party, ev):
        return [relay(canonical, *m, strategy, streams) for m in party.receive(ev.actor, ev.kind, ev.payload)]

    def refused(party, ev):
        logged = len(party.transcript.events)
        with pytest.raises(ProtocolError, match="before the last reply was drained") as info:
            party.receive(ev.actor, ev.kind, ev.payload)
        assert type(info.value) is ProtocolError  # the caller's fault, not the peer's
        assert not party.failed and len(party.transcript.events) == logged

    bob_started, started = bob.start(), alice.start()
    qubits = relay(canonical, *next(started), strategy, streams)
    refused(bob, qubits)  # his start's reply is empty, but not drained
    assert list(bob_started) == []
    [bases_bob] = answer(bob, qubits)
    refused(alice, bases_bob)  # her start has given its message, but is not drained
    assert list(started) == []
    reply = alice.receive(bases_bob.actor, bases_bob.kind, bases_bob.payload)
    sample = answer(bob, relay(canonical, *next(reply), strategy, streams))
    refused(alice, sample[0])  # she has announced her bases, but not sifted
    assert list(reply) == []
    for ev in sample:
        answer(alice, ev)
    assert not alice.failed and alice.transcript.events[-1].kind is EventKind.KEY_DIGEST


def test_session_outcome_statuses_agree_between_parties():
    # exercised indirectly by run_session's internal cross-check; a noisy
    # accepted session with differing keys must still agree on the status
    out = run_session(default_params(), DepolarizingPauli.symmetric(0.02), CSS, seed=21)
    assert out.status is SessionStatus.ACCEPTED
    assert out.alice_key.size == out.bob_key.size


def test_alice_rejects_a_second_key_digest():
    alice, _bob, _canonical, _pending = _drive(22)
    assert alice.done and alice.result.status is SessionStatus.ACCEPTED
    genuine = alice.result.peer_digest
    with pytest.raises(ProtocolViolation):
        alice.receive(Actor.BOB, EventKind.KEY_DIGEST, {"digest": "00" * 32})
    assert alice.result.peer_digest == genuine


def _awaiting(kind, seed, to_alice=False):
    """(receiver, actor, genuine payload) with the peer's message of ``kind`` next due.

    The receiver is Bob, or Alice when ``to_alice``. Over a passive channel
    the relay delivers Alice's qubits unchanged, as the CHANNEL's.
    """
    sender = Actor.BOB if to_alice else Actor.ALICE
    alice, bob, _canonical, pending = _drive(seed, stop_at=(sender, kind))
    _sender, _kind, payload = pending[0]
    actor = Actor.CHANNEL if kind is EventKind.QUBITS_SENT else sender
    return (alice if to_alice else bob), actor, payload


def test_bob_rejects_an_unknown_decision():
    bob, actor, _genuine = _awaiting(EventKind.DECISION, 23)
    with pytest.raises(ProtocolViolation):
        bob.receive(actor, EventKind.DECISION, {"status": "no_such_status"})
    assert not bob.done


def test_bob_rejects_an_insufficient_sample_decision_after_his_test_sample():
    # Bob has drawn his test sample, so only Alice's two verdicts can follow
    bob, actor, _genuine = _awaiting(EventKind.DECISION, 23)
    with pytest.raises(ProtocolViolation):
        bob.receive(actor, EventKind.DECISION, {"status": "abort_insufficient_sample"})
    assert not bob.done


def test_decide_accepts_only_when_both_rates_are_below_the_threshold():
    params = default_params()  # threshold 0.10 on samples of 100
    for r1, r2, status in [(0, 0, "accepted"), (9, 9, "accepted"), (10, 0, "aborted_error_rate"),
                           (0, 10, "aborted_error_rate"), (100, 100, "aborted_error_rate")]:
        assert decide(ErrorEstimate(r1=r1, m1=100, r2=r2, m2=100), params).value == status


@pytest.mark.parametrize(
    "r1, status",
    [(75, "proceed"), (None, "abort_error_rate")],
    ids=["over_the_threshold_then_proceed", "under_the_threshold_then_abort"],
)
def test_bob_refuses_a_decision_that_does_not_follow_from_the_estimate(r1, status):
    # a hand-played Alice sends an estimate, then the decision it does not give;
    # over a passive channel the genuine estimate counts no errors
    bob, actor, genuine = _awaiting(EventKind.ESTIMATE, 29)
    assert (genuine["r1"], genuine["r2"]) == (0, 0)
    estimate = genuine if r1 is None else dict(genuine, r1=r1)
    assert list(bob.receive(actor, EventKind.ESTIMATE, estimate)) == []
    with pytest.raises(ProtocolViolation, match="decision against the estimate"):
        bob.receive(actor, EventKind.DECISION, {"status": status})
    assert bob.failed and not bob.done and bob.result is None
    with pytest.raises(ProtocolViolation, match="after an earlier violation"):
        bob.receive(actor, EventKind.DECISION, {"status": status})


@pytest.mark.parametrize("q", [0.005, 0.02])
def test_the_syndrome_form_agrees_on_the_same_blocks_as_the_masked_codeword_form(monkeypatch, q):
    # A session's raw blocks, caught on their way into reconciliation, are
    # reconciled again as draw contract 2 did: Alice announces u + v for a
    # uniform codeword u and keys u's label. Bob's decode of either form sees
    # the same error pattern, so exactly the same blocks agree.
    caught = {}

    def catch(name):
        call = getattr(protocol, name)

        def step(pair, blocks, *rest):
            caught[name] = blocks  # Alice's permuted raw blocks, or Bob's
            return call(pair, blocks, *rest)

        return step

    for name in ("reconcile_alice_blocks", "reconcile_bob_blocks"):
        monkeypatch.setattr(protocol, name, catch(name))
    params = ProtocolParams(n_qubits=1_100_000, bias_p=0.2, m1=200, m2=200)
    out = run_session(params, DepolarizingPauli(1 - q, q / 3, q / 3, q / 3), CSS, seed=5)
    assert out.status is SessionStatus.ACCEPTED and out.num_blocks >= 10**5
    # Alice's blocks, unpacked for the oracle; Bob's stay packed for the library
    v = unpack_blocks(caught["reconcile_alice_blocks"], CSS.n)
    w = caught["reconcile_bob_blocks"]
    agree = (out.alice_key == out.bob_key).reshape(out.num_blocks, CSS.k).all(axis=1)
    rng = np.random.default_rng(round(q * 1000))
    announced, masked_keys = masked_codeword_alice_blocks(CSS, v, rng)
    # his masked-form key, the label of w + (u + v) less its leader, is his
    # key for the syndrome H1 (u + v) plus K(u + v)
    public = gf2_mul_oracle(announced, CSS.key_map.T)  # K(u + v)
    masked_bob, _ok = reconcile_bob_blocks(CSS, w, gf2_mul_oracle(announced, CSS.c1.parity_check.T))
    masked_bob ^= public
    assert np.array_equal(agree, (masked_keys == masked_bob).all(axis=1))
    assert 0 < (~agree).sum() < out.num_blocks / 100
    # the two keys differ by a function of what the masked form announces: K(u + v)
    assert np.array_equal(masked_keys ^ out.alice_key.reshape(-1, CSS.k), public)


@pytest.mark.parametrize("status", ["proceed", "abort_error_rate"])
def test_alice_rejects_an_early_decision_that_is_not_insufficient_sample(status):
    # where Bob's test sample is due, his only decision can be that he has none
    alice, actor, genuine = _awaiting(EventKind.TEST_INDICES, 25, to_alice=True)
    with pytest.raises(ProtocolViolation, match="unexpected early decision"):
        alice.receive(actor, EventKind.DECISION, {"status": status})
    assert alice.failed and not alice.done
    with pytest.raises(ProtocolViolation):
        alice.receive(actor, EventKind.TEST_INDICES, genuine)


def test_alice_rejects_an_insufficient_sample_decision_when_her_sample_fits():
    # the classes of this honest session hold both samples and a block, by
    # Alice's count as by Bob's, so his claim that they do not is false
    alice, actor, genuine = _awaiting(EventKind.TEST_INDICES, 25, to_alice=True)
    with pytest.raises(ProtocolViolation, match="but the sample fits"):
        alice.receive(actor, EventKind.DECISION, {"status": "abort_insufficient_sample"})
    assert alice.failed and not alice.done
    with pytest.raises(ProtocolViolation):
        alice.receive(actor, EventKind.TEST_INDICES, genuine)


@pytest.mark.parametrize("spare", [0, CSS.n - 1, CSS.n])
def test_alice_takes_a_test_sample_only_when_a_block_is_left_after_it(spare):
    # a hand-played Bob makes the both-diagonal class m2 + spare positions:
    # every position of the sample is in its class, but below m2 + n the
    # untested rest fills no block, so Bob owed an insufficient-sample decision
    params = default_params()
    alice = AliceMachine(params, CSS, RngStreams(27))
    list(alice.start())
    sent = alice.symbols.bases
    diag = np.flatnonzero(sent)[: params.m2 + spare]
    bob_bases = np.zeros_like(sent)
    bob_bases[diag] = 1
    list(alice.receive(Actor.BOB, EventKind.BASES_ANNOUNCED_BOB,
                       {"n": sent.size, "bases": pack_bits(bob_bases)}))
    indices = {"seed": 1}
    if spare == CSS.n:
        assert list(alice.receive(Actor.BOB, EventKind.TEST_INDICES, indices)) == []
        assert np.isin(alice._test_diag, diag).all()
        return
    with pytest.raises(ProtocolViolation, match="too small"):
        alice.receive(Actor.BOB, EventKind.TEST_INDICES, indices)
    assert alice.failed and not alice.done
    with pytest.raises(ProtocolViolation):
        alice.receive(Actor.BOB, EventKind.DECISION, {"status": "abort_insufficient_sample"})


@pytest.mark.parametrize(
    "change",
    [{"seed": True}, {"seed": -1}, {"seed": 2**63}, {"seed": float}, {"seed": str},
     {"seed": None}, {"rect": [0, 1]}],
    ids=["bool", "negative", "too_large", "float", "string", "missing", "extra_field"],
)
def test_alice_rejects_a_malformed_test_sample(change):
    alice, actor, genuine = _awaiting(EventKind.TEST_INDICES, 25, to_alice=True)
    with pytest.raises(ProtocolViolation, match="'seed'"):
        alice.receive(actor, EventKind.TEST_INDICES, _probe(genuine, change))
    assert alice.failed and not alice.done
    with pytest.raises(ProtocolViolation):
        alice.receive(actor, EventKind.TEST_INDICES, genuine)


@pytest.mark.parametrize(
    "kind", [EventKind.QUBITS_SENT, EventKind.BASES_ANNOUNCED_BOB, EventKind.BASES_ANNOUNCED_ALICE]
)
def test_machines_reject_a_truncated_bases_payload(kind):
    to_alice = kind is EventKind.BASES_ANNOUNCED_BOB
    for cut in (dict(bases=lambda b: b[:-2]), dict(n=lambda n: n - 8)):
        # a fresh receiver for each: one that has raised refuses everything
        receiver, actor, payload = _awaiting(kind, 26, to_alice=to_alice)
        with pytest.raises(ProtocolViolation):
            receiver.receive(actor, kind, _probe(payload, cut))
        assert not receiver.done


def test_relay_rejects_a_truncated_qubits_payload():
    params = default_params()
    payload = encode_symbols(alice_prepare(params, RngStreams(27)))
    canonical = SessionTranscript(meta=session_meta(params, Passive(), CSS, 27))
    truncated = dict(payload, bits=payload["bits"][:-2])
    with pytest.raises(ProtocolViolation, match="'bits'"):
        relay(canonical, Actor.ALICE, EventKind.QUBITS_SENT, truncated, Passive(), RngStreams(27))
    assert canonical.events == []


@pytest.mark.parametrize("payload", [[], {"status": "bogus"}], ids=["list", "bogus"])
@pytest.mark.parametrize(
    "seq, actor, due",
    [(4, Actor.BOB, EventKind.TEST_INDICES), (7, Actor.ALICE, EventKind.DECISION)],
    ids=["bob", "alice"],
)
def test_relay_rejects_a_malformed_decision(seq, actor, due, payload):
    # the grammar reads a logged decision to tell whether the session has ended
    alice, bob, canonical, pending = _drive(30, stop_at=(actor, due))
    assert len(canonical.events) == seq
    with pytest.raises(ProtocolViolation):
        relay(canonical, actor, EventKind.DECISION, payload, Passive(), RngStreams(30))
    assert len(canonical.events) == seq
    # nothing was logged, so the genuine session runs on to a valid record
    assert _shuttle(alice, bob, canonical, pending, Passive(), RngStreams(30)) == []
    assert alice.done and bob.done and len(canonical.events) == 12
    SessionTranscript.from_jsonl(canonical.to_jsonl())


def test_alice_rejects_a_disclosure_of_the_wrong_size():
    alice, actor, genuine = _awaiting(EventKind.TEST_DISCLOSURE, 28, to_alice=True)
    short = genuine["m1"] - 8
    bad = dict(genuine, m1=short, rect_bits=pack_bits(np.zeros(short, dtype=np.uint8)))
    with pytest.raises(ProtocolViolation):
        alice.receive(actor, EventKind.TEST_DISCLOSURE, bad)
    assert not alice.done


def _probe(genuine, change):
    """``genuine`` with the fields in ``change`` replaced.

    A None value drops the field; a callable maps the genuine value.
    """
    bad = dict(genuine)
    for key, value in change.items():
        bad[key] = value(genuine[key]) if callable(value) else value
    return {k: v for k, v in bad.items() if v is not None}


_M1 = default_params().m1


@pytest.mark.parametrize(
    "change",
    [
        {"r1": None, "m1": None, "r2": None, "m2": None},
        {"r2": None},
        {"r1": "0"},
        {"r1": 1.0},
        {"r1": True},
        {"r1": -1},
        {"r1": _M1 + 1},
        {"m1": _M1 + 1},
        {"m2": None},
    ],
    ids=["empty", "no_r2", "string", "float", "bool", "negative", "above_m", "wrong_m", "no_m2"],
)
def test_bob_rejects_a_malformed_estimate(change):
    bob, actor, genuine = _awaiting(EventKind.ESTIMATE, 29)
    with pytest.raises(ProtocolViolation):
        bob.receive(actor, EventKind.ESTIMATE, _probe(genuine, change))
    assert not bob.done


@pytest.mark.parametrize(
    "change",
    [
        {"seed": -1},
        {"seed": 2**63},
        {"seed": "5"},
        {"seed": 5.0},
        {"seed": None},
        {"blocks": lambda b: b + 1},
        {"blocks": lambda b: b - 1},
        {"blocks": None},
        {"block_len": CSS.n + 1},
    ],
    ids=["negative", "too_large", "string", "float", "no_seed", "wrong_blocks", "fewer_blocks",
         "no_blocks", "wrong_block_len"],
)
def test_bob_rejects_a_malformed_permutation_seed(change):
    bob, actor, genuine = _awaiting(EventKind.PERMUTATION_SEED, 30)
    with pytest.raises(ProtocolViolation):
        bob.receive(actor, EventKind.PERMUTATION_SEED, _probe(genuine, change))
    assert not bob.done


@pytest.mark.parametrize(
    "change",
    [
        {"blocks": lambda b: b + 1},
        {"blocks": lambda b: b - 1},
        {"blocks": None},
        {"block_len": CSS.n + 1},
        {"block_len": "7"},
        {"syndrome": lambda s: s[:-2]},
    ],
    ids=["wrong_blocks", "fewer_blocks", "no_blocks", "wrong_block_len", "string_block_len",
         "short_syndrome"],
)
def test_bob_rejects_a_syndrome_announcement_of_another_layout(change):
    bob, actor, genuine = _awaiting(EventKind.SYNDROME_ANNOUNCEMENT, 31)
    with pytest.raises(ProtocolViolation):
        bob.receive(actor, EventKind.SYNDROME_ANNOUNCEMENT, _probe(genuine, change))
    assert not bob.done


@pytest.mark.parametrize("to_alice", [False, True], ids=["bob", "alice"])
@pytest.mark.parametrize(
    "digest",
    [None, "ab" * 31, "ab" * 33, "zz" * 32, "ab" * 32 + "\n", 12, ["ab" * 32], str.upper],
    ids=["missing", "short", "long", "not_hex", "newline", "integer", "list", "upper_case"],
)
def test_machines_reject_a_malformed_key_digest(to_alice, digest):
    party, actor, genuine = _awaiting(EventKind.KEY_DIGEST, 32, to_alice=to_alice)
    with pytest.raises(ProtocolViolation):
        party.receive(actor, EventKind.KEY_DIGEST, _probe(genuine, {"digest": digest}))
    assert not party.done


@pytest.mark.parametrize(
    "kind, to_alice",
    [
        *((kind, False) for kind in (
            EventKind.QUBITS_SENT,
            EventKind.BASES_ANNOUNCED_ALICE,
            EventKind.ESTIMATE,
            EventKind.DECISION,
            EventKind.PERMUTATION_SEED,
            EventKind.SYNDROME_ANNOUNCEMENT,
            EventKind.KEY_DIGEST,
        )),
        *((kind, True) for kind in (
            EventKind.BASES_ANNOUNCED_BOB,
            EventKind.TEST_INDICES,
            EventKind.TEST_DISCLOSURE,
            EventKind.KEY_DIGEST,
        )),
    ],
)
@pytest.mark.parametrize("payload", [None, [], "{}"], ids=["null", "list", "string"])
def test_machines_reject_a_payload_that_is_not_an_object(kind, to_alice, payload):
    party, actor, _genuine = _awaiting(kind, 33, to_alice=to_alice)
    with pytest.raises(ProtocolViolation):
        party.receive(actor, kind, payload)
    assert not party.done
