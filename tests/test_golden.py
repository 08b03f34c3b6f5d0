"""Golden outputs: what a seed produces must not move under a refactor.

The hashes were recorded from the released behaviour. A transcript hash
covers the whole JSONL text, meta header included; a CSV hash covers every
column of ``emit_csv``, including the lumped rate and the retained fraction
that the runner reports next to the protocol's own per-class estimate.
"""

import hashlib

import pytest

from eqkd.channel import (
    BiasedInterceptResend,
    DepolarizingPauli,
    FixedPauliString,
    Passive,
    PauliLetter,
)
from eqkd.codes import BinaryMatrix, LinearCode, steane_pair, validate_css
from eqkd.harness.runner import ExperimentConfig, emit_csv, run_experiment
from eqkd.protocol import ProtocolParams, run_session

CSS = steane_pair()

# The [15,11] Hamming code over its dual, the [15,4] simplex code: seven key
# bits and radius 1 per 15-bit block. Row j of the simplex generator is bit j
# of the column numbers 1..15.
_SIMPLEX_15_4 = ["101010101010101", "011001100110011", "000111100001111", "000000011111111"]
_C2_15 = LinearCode.from_generator(BinaryMatrix.from_rows(_SIMPLEX_15_4))
CSS_15_11 = validate_css(LinearCode.from_generator(_C2_15.parity_check), _C2_15)

BASE = dict(n_qubits=4000, bias_p=0.3, m1=100, m2=100)
# p = 1/2 over 200 pulses leaves the diagonal class under m2 + 7
STARVED = dict(n_qubits=200, bias_p=0.5, m1=10, m2=60)
PATTERN = tuple(PauliLetter[c] for c in ("I" * 37 + "XZY") * 100)

SESSIONS = [
    (BASE, Passive(), 10, "accepted",
     "d65f28495322c13a1188907bc77a7e26ae2eaf0ffd01f1565158eaaf8db462da"),
    (BASE, DepolarizingPauli.symmetric(0.01), 14, "accepted",
     "9c427fa48d2f4408a6a9e566b21a92076f191c1c4adeb548be61a99355195d63"),
    (BASE, DepolarizingPauli.symmetric(0.08), 15, "aborted_error_rate",
     "6d37cd332f3ef37026baae76b2b7c8391fb11d2e3ff3df078449e795958cb4c9"),
    (BASE, FixedPauliString(PATTERN), 16, "accepted",
     "728d0c6a0ed2816d328fec3bb22bef7237843d382d48dc6135908e437a2d7fcc"),
    (BASE, BiasedInterceptResend(0.02, 0.03), 17, "accepted",
     "8aa0caad610d91c139d678ca1051d02bb1de855a1e220e0811db0c4d87a38574"),
    (BASE, BiasedInterceptResend(1.0, 0.0), 12, "aborted_error_rate",
     "c098869f2a2a36f47ca3428d51bed03f9fa077ee4a2e078263c49e6d96a717bf"),
    (STARVED, Passive(), 13, "aborted_insufficient_sample",
     "c5c3a1dee7941a44996c4193966a99f27d151c156156a0b739da3a87f26c7edc"),
    (STARVED, BiasedInterceptResend(0.2, 0.3), 18, "aborted_insufficient_sample",
     "98c57e8dc1e1f3506f606d69eb522eff3de4168494c48a10d67eb2bcf266fff5"),
    (STARVED, FixedPauliString(PATTERN[:200]), 19, "aborted_insufficient_sample",
     "9caef3c3387e016831077bc54bef7b004eb68c9e9a40b85e67c66d1d19de00c0"),
]

SESSIONS_15_11 = [
    (DepolarizingPauli.symmetric(0.01), 21,
     "be1cb9b7d3911816174454b518b42ee8ce1d51e60de72a5afa87e098b3ae3c17"),
    (DepolarizingPauli.symmetric(0.01), 22,
     "5e04643b994b1760660a762c13bd8f4834cda8147ecf15e299b3d5fa64e80789"),
    (BiasedInterceptResend(0.02, 0.03), 21,
     "aa71d7144fe440e8fe258518f7b1c93b974a6c8b6c0a73d8d49423f3f3020baa"),
    (BiasedInterceptResend(0.02, 0.03), 22,
     "0ddde928cd780d974177984b22c972d4c40d80e613ab1bc28ba7f331e0b60cd1"),
]

# One pass of uniform draws is 2^16 symbols; these sessions span three and a
# bit, so a kernel that draws in passes is pinned across pass boundaries.
MULTI_PASS = dict(n_qubits=3 * 2**16 + 5, bias_p=0.3, m1=2000, m2=2000)

SESSIONS_MULTI_PASS = [
    (DepolarizingPauli.symmetric(0.01), 23,
     "0ba43cf34f80d4197d3d9c87291c364b8aec5c27304e173770ad169aa14082e5"),
    (BiasedInterceptResend(0.02, 0.03), 24,
     "38ff8fbce2d50ff52ad3c32c188afb34582a07648cba4a7fd1f6ba7fc17fee4b"),
]

EXPERIMENTS = [
    # accepted and error-rate aborts
    (dict(n_qubits=6000, bias_p=0.2, m1=50, m2=100), BiasedInterceptResend(0.05, 0.2), 300,
     "c8a709b5e4bc5f4584db4a95b2b5c8277c8409c31727f3406a0c37963e7f133d"),
    # all three statuses, including an insufficient-sample abort
    (dict(n_qubits=200, bias_p=0.5, m1=10, m2=40), BiasedInterceptResend(0.1, 0.1), 400,
     "17129d41e4f8d61714238d356a8c1f5121dedfcdf6dbeec0d2598a02eb35967e"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("params, strategy, seed, status, digest", SESSIONS)
def test_golden_transcript(params, strategy, seed, status, digest):
    out = run_session(ProtocolParams(**params), strategy, CSS, seed)
    assert out.status.value == status
    assert _sha256(out.transcript.to_jsonl()) == digest


@pytest.mark.parametrize("strategy, seed, digest", SESSIONS_15_11)
def test_golden_transcript_hamming_15_11(strategy, seed, digest):
    assert (CSS_15_11.n, CSS_15_11.k, CSS_15_11.t) == (15, 7, 1)
    out = run_session(ProtocolParams(**BASE), strategy, CSS_15_11, seed)
    assert out.status.value == "accepted"
    assert _sha256(out.transcript.to_jsonl()) == digest


@pytest.mark.parametrize("strategy, seed, digest", SESSIONS_MULTI_PASS)
def test_golden_transcript_multi_pass(strategy, seed, digest):
    out = run_session(ProtocolParams(**MULTI_PASS), strategy, CSS, seed)
    assert out.status.value == "accepted"
    assert _sha256(out.transcript.to_jsonl()) == digest


@pytest.mark.parametrize("params, strategy, base_seed, digest", EXPERIMENTS)
def test_golden_csv(params, strategy, base_seed, digest):
    config = ExperimentConfig(
        params=ProtocolParams(**params), strategy=strategy, css=CSS, trials=12, base_seed=base_seed
    )
    assert _sha256(emit_csv(run_experiment(config).rows)) == digest
