"""Golden outputs: what a seed produces must not move under a refactor.

The hashes were recorded under draw contract 4 (``channel.DRAW_CONTRACT``);
a change to what a seed draws is a new contract, and re-records them. A
transcript hash covers the whole JSONL text, meta header included; a CSV
hash covers every column of ``emit_csv``, including the lumped rate and the
retained fraction that the runner reports next to the protocol's own
per-class estimate.

The sessions at N <= 4000 also keep the digest of what their seed produced
under draw contract 1, and the transcript itself in ``contract1_records/``
(named by the first 16 hex digits of that digest): each such record must
still hash to it, and replay must refuse it naming contract 1 rather than
report a divergence. Those tests keep their default ids, which begin with
the contract-1 digest; the larger sessions and the CSVs, which keep no
record, are named by strategy and seed.

The first session also keeps its contract-2 transcript in
``contract2_records/``, named the same way. Contract 2 announced a masked
codeword, an event kind this build does not have, so replay must refuse
that record by its header, naming contract 2, before it reads an event.
Its contract-3 transcript, in ``contract3_records/``, announced the test
samples as lists of positions, which this build's payload table does not
read; replay must refuse it by its header too, naming contract 3.
"""

import hashlib
import json
from pathlib import Path

import pytest

from eqkd.channel import (
    BiasedInterceptResend,
    DepolarizingPauli,
    FixedPauliString,
    Passive,
)
from eqkd.codes import LinearCode, _from_rows, steane_pair, validate_css
from eqkd.harness.cli import main
from eqkd.harness.runner import ExperimentConfig, emit_csv, replay_verify, run_experiment
from eqkd.protocol import ProtocolParams, run_session
from eqkd.transcript import Event, EventKind, SessionTranscript
from pipeline_oracle import PauliLetter

CSS = steane_pair()

# The [15,11] Hamming code over its dual, the [15,4] simplex code: seven key
# bits and radius 1 per 15-bit block. Row j of the simplex generator is bit j
# of the column numbers 1..15.
_SIMPLEX_15_4 = ["101010101010101", "011001100110011", "000111100001111", "000000011111111"]
_C2_15 = LinearCode.from_generator(_from_rows(_SIMPLEX_15_4))
CSS_15_11 = validate_css(LinearCode.from_generator(_C2_15.parity_check), _C2_15)

BASE = dict(n_qubits=4000, bias_p=0.3, m1=100, m2=100)
# p = 1/2 over 200 pulses leaves the diagonal class under m2 + 7
STARVED = dict(n_qubits=200, bias_p=0.5, m1=10, m2=60)
PATTERN = tuple(PauliLetter[c] for c in ("I" * 37 + "XZY") * 100)

SESSIONS = [
    (BASE, Passive(), 10, "accepted",
     "d65f28495322c13a1188907bc77a7e26ae2eaf0ffd01f1565158eaaf8db462da",
     "8a1ad7833556e2ee7b8020d3cd23d9fbd70d56526b58782b2c372ea24dd63b20"),
    (BASE, DepolarizingPauli.symmetric(0.01), 14, "accepted",
     "9c427fa48d2f4408a6a9e566b21a92076f191c1c4adeb548be61a99355195d63",
     "1b5b405c896705bc22b6160e1b333df2bf69bb4021a949cf851414eba37bd123"),
    (BASE, DepolarizingPauli.symmetric(0.08), 15, "aborted_error_rate",
     "6d37cd332f3ef37026baae76b2b7c8391fb11d2e3ff3df078449e795958cb4c9",
     "edf1932b1912a93dd92a5e461395aa654e666d6a3ebef249746e086fb648286f"),
    (BASE, FixedPauliString(PATTERN), 16, "accepted",
     "728d0c6a0ed2816d328fec3bb22bef7237843d382d48dc6135908e437a2d7fcc",
     "2fba45e99157498f0f0e8f1bc8fea2282349c8d74df3311b987e375333f72c12"),
    (BASE, BiasedInterceptResend(0.02, 0.03), 17, "accepted",
     "8aa0caad610d91c139d678ca1051d02bb1de855a1e220e0811db0c4d87a38574",
     "913890e4d0791d3a421841fedbb0dacc5c3b48e3864eae5946965575600e0902"),
    (BASE, BiasedInterceptResend(1.0, 0.0), 12, "aborted_error_rate",
     "c098869f2a2a36f47ca3428d51bed03f9fa077ee4a2e078263c49e6d96a717bf",
     "a12a4bb01369bff66430f6295ed57a9961d72ba32914574da47497ec57f74ae0"),
    (STARVED, Passive(), 13, "aborted_insufficient_sample",
     "c5c3a1dee7941a44996c4193966a99f27d151c156156a0b739da3a87f26c7edc",
     "558e873b6f46a6489a59638fb2e6cb645be61eda92806eb759ef43d3cbffc7b8"),
    (STARVED, BiasedInterceptResend(0.2, 0.3), 18, "aborted_insufficient_sample",
     "98c57e8dc1e1f3506f606d69eb522eff3de4168494c48a10d67eb2bcf266fff5",
     "56b0c21d5525116591c0c64dcff88ff879e571912b9ddd09c992a7c405bdf9da"),
    (STARVED, FixedPauliString(PATTERN[:200]), 19, "aborted_insufficient_sample",
     "9caef3c3387e016831077bc54bef7b004eb68c9e9a40b85e67c66d1d19de00c0",
     "0fa9ffbde014a7cc3da24cb127424e4f2791c04e1e533862ffd122193a89ba68"),
]

SESSIONS_15_11 = [
    (DepolarizingPauli.symmetric(0.01), 21,
     "be1cb9b7d3911816174454b518b42ee8ce1d51e60de72a5afa87e098b3ae3c17",
     "fac3bcc99ff889c31918f801f165fad04bbe05796f8d3100fcb87f68ccb4b279"),
    (DepolarizingPauli.symmetric(0.01), 22,
     "5e04643b994b1760660a762c13bd8f4834cda8147ecf15e299b3d5fa64e80789",
     "549dcc62ebd1b9369155512196ac872ec6fa4f5a14f2be7b33511c75d7852c46"),
    (BiasedInterceptResend(0.02, 0.03), 21,
     "aa71d7144fe440e8fe258518f7b1c93b974a6c8b6c0a73d8d49423f3f3020baa",
     "c06e76e734ea699dd8b4bf4993d5b5c6d68ff1bebd8840b7b865d407d59a9095"),
    (BiasedInterceptResend(0.02, 0.03), 22,
     "0ddde928cd780d974177984b22c972d4c40d80e613ab1bc28ba7f331e0b60cd1",
     "5a55cc1ca3f3ee9bd4ae876a79359a62cc9c2779880efe4ca225857ab5e1d2b8"),
]

# A pass of coins covers 2^16 symbols and a pass of uint32 draws 2^17; these
# sessions span three coin passes and a bit, so a kernel that draws in
# passes is pinned across pass boundaries.
MULTI_PASS = dict(n_qubits=3 * 2**16 + 5, bias_p=0.3, m1=2000, m2=2000)

SESSIONS_MULTI_PASS = [
    (DepolarizingPauli.symmetric(0.01), 23,
     "f7df25f9a3104c39152b53173456b2a94af55f5bcaff71fcd753fd60079d4c25"),
    (BiasedInterceptResend(0.02, 0.03), 24,
     "dd24734aed764721cf5e277922bb7a72ccb2231a4da0487ef18134a6d3167675"),
]

EXPERIMENTS = [
    # accepted and error-rate aborts
    (dict(n_qubits=6000, bias_p=0.2, m1=50, m2=100), BiasedInterceptResend(0.05, 0.2), 300,
     "143b9a4c28c1dcbc1dad9fba6ecafa25c0a06a0e701f446a9b9141854b4e2f48"),
    # all three statuses, including an insufficient-sample abort
    (dict(n_qubits=200, bias_p=0.5, m1=10, m2=40), BiasedInterceptResend(0.1, 0.1), 400,
     "a0c0fc73912671b292dff767ce17cdb64aa581a5a31251e6e0271df44102623a"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CONTRACT1_RECORDS = Path(__file__).resolve().parent / "contract1_records"
V2_DIGEST = "0085f04d79613437fa0549f73065bbef75241cd920ae83e477ce5512f90df44e"
CONTRACT2_RECORD = CONTRACT1_RECORDS.parent / "contract2_records" / f"{V2_DIGEST[:16]}.jsonl"
V3_DIGEST = "bc14266153af22793cb9ffc9f47e76a025152cbcbf2a90968414d618e57d31f5"
CONTRACT3_RECORD = CONTRACT1_RECORDS.parent / "contract3_records" / f"{V3_DIGEST[:16]}.jsonl"


def _assert_contract1_record_is_refused(v1_digest):
    path = CONTRACT1_RECORDS / f"{v1_digest[:16]}.jsonl"
    assert _sha256(path.read_text()) == v1_digest
    assert replay_verify(path) == (False, "recorded under draw contract 1; this build draws by 4")


def _ids(cases, strategy_at, seed_at):
    """Test ids that name each case by its strategy and seed, not by its digest."""
    return [f"{type(c[strategy_at]).__name__}-seed{c[seed_at]}" for c in cases]


@pytest.mark.parametrize("params, strategy, seed, status, v1_digest, digest", SESSIONS)
def test_golden_transcript(params, strategy, seed, status, v1_digest, digest):
    out = run_session(ProtocolParams(**params), strategy, CSS, seed)
    assert out.status.value == status
    assert _sha256(out.transcript.to_jsonl()) == digest
    _assert_contract1_record_is_refused(v1_digest)


def test_the_contract2_record_is_refused_naming_contract_2(capsys):
    text = CONTRACT2_RECORD.read_text()
    assert _sha256(text) == V2_DIGEST
    assert '"kind":"codeword_announcement"' in text
    assert replay_verify(CONTRACT2_RECORD) == (
        False, "recorded under draw contract 2; this build draws by 4"
    )
    assert main(["replay", str(CONTRACT2_RECORD)]) == 1
    assert capsys.readouterr().out.startswith("FAIL: recorded under draw contract 2;")


def test_the_contract3_record_is_refused_naming_contract_3(capsys):
    text = CONTRACT3_RECORD.read_text()
    assert _sha256(text) == V3_DIGEST
    assert '"payload":{"diag":[' in text
    assert replay_verify(CONTRACT3_RECORD) == (
        False, "recorded under draw contract 3; this build draws by 4"
    )
    assert main(["replay", str(CONTRACT3_RECORD)]) == 1
    assert capsys.readouterr().out.startswith("FAIL: recorded under draw contract 3;")


@pytest.mark.parametrize("strategy, seed, v1_digest, digest", SESSIONS_15_11)
def test_golden_transcript_hamming_15_11(strategy, seed, v1_digest, digest):
    assert (CSS_15_11.n, CSS_15_11.k, CSS_15_11.t) == (15, 7, 1)
    out = run_session(ProtocolParams(**BASE), strategy, CSS_15_11, seed)
    assert out.status.value == "accepted"
    assert _sha256(out.transcript.to_jsonl()) == digest
    _assert_contract1_record_is_refused(v1_digest)


@pytest.mark.parametrize(
    "strategy, seed, digest", SESSIONS_MULTI_PASS, ids=_ids(SESSIONS_MULTI_PASS, 0, 1)
)
def test_golden_transcript_multi_pass(strategy, seed, digest):
    out = run_session(ProtocolParams(**MULTI_PASS), strategy, CSS, seed)
    assert out.status.value == "accepted"
    assert _sha256(out.transcript.to_jsonl()) == digest


REPLAYED = [
    *((params, strategy, CSS, seed) for params, strategy, seed, _status, _v1, _sha in SESSIONS),
    *((BASE, strategy, CSS_15_11, seed) for strategy, seed, _v1, _sha in SESSIONS_15_11),
    *((MULTI_PASS, strategy, CSS, seed) for strategy, seed, _sha in SESSIONS_MULTI_PASS),
]


@pytest.mark.parametrize("params, strategy, css, seed", REPLAYED, ids=_ids(REPLAYED, 1, 3))
def test_golden_configurations_replay_from_a_fresh_file(tmp_path, params, strategy, css, seed):
    out = run_session(ProtocolParams(**params), strategy, css, seed)
    path = tmp_path / "session.jsonl"
    path.write_text(out.transcript.to_jsonl())
    ok, detail = replay_verify(path)
    assert ok, detail


@pytest.mark.parametrize(
    "params, strategy, base_seed, digest", EXPERIMENTS, ids=_ids(EXPERIMENTS, 1, 2)
)
def test_golden_csv(params, strategy, base_seed, digest):
    config = ExperimentConfig(
        params=ProtocolParams(**params), strategy=strategy, css=CSS, trials=12, base_seed=base_seed
    )
    assert _sha256(emit_csv(run_experiment(config).rows)) == digest


# One field of the accepted N = 4000 session made malformed: (seq, field, new
# value or a map of the old one). Each file still loads, since loading checks
# only the event order, and replay names the event and the field before it
# replays anything.
MALFORMED_FIELDS = [
    (2, "bases", "e0"),
    (6, "r1", "3"),
    (10, "digest", "zz"),
    (9, "syndrome", lambda syndrome: syndrome[:4]),
    (4, "seed", -1),
    # above (N - m2) // 7 = 557, so above what any valid transcript holds
    (8, "blocks", 560),
]


@pytest.mark.parametrize(
    "seq, field, value", MALFORMED_FIELDS, ids=[f"{f}-seq{s}" for s, f, _v in MALFORMED_FIELDS]
)
def test_replay_names_a_malformed_field_of_a_golden_session(tmp_path, capsys, seq, field, value):
    params, strategy, seed, status, _v1, _digest = SESSIONS[0]
    out = run_session(ProtocolParams(**params), strategy, CSS, seed)
    assert out.status.value == status
    header, *lines = out.transcript.to_jsonl().splitlines()
    event = json.loads(lines[seq])
    old = event["payload"][field]
    event["payload"][field] = value(old) if callable(value) else value
    lines[seq] = json.dumps(event)
    path = tmp_path / "malformed.jsonl"
    path.write_text("\n".join([header, *lines]) + "\n")

    ok, detail = replay_verify(path)
    assert not ok
    assert detail.startswith(f"event {seq} ({event['actor']} {event['kind']}): {field!r} ")
    assert main(["replay", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL: {detail}\n"


def test_replay_names_a_tampered_block_count_at_its_own_event():
    # the count is only bounded when fields are read, so a count one short in
    # the PERMUTATION_SEED is the replay's divergence there, not a field
    # error of the SYNDROME_ANNOUNCEMENT after it
    params, strategy, seed, _status, _v1, _digest = SESSIONS[0]
    out = run_session(ProtocolParams(**params), strategy, CSS, seed)
    events = list(out.transcript.events)
    ev = events[8]
    assert ev.kind is EventKind.PERMUTATION_SEED
    events[8] = Event(ev.seq, ev.actor, ev.kind, dict(ev.payload, blocks=ev.payload["blocks"] - 1))
    tampered = SessionTranscript(meta=out.transcript.meta, events=events)
    assert replay_verify(tampered) == (False, "first divergence at event 8")
