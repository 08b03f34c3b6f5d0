"""Acceptance suite.

Each test covers one end-to-end acceptance check and prints a single
PASS/FAIL line (run pytest with -s to see them all); tolerances and runtime
budgets are asserted inside the test bodies. Every numeric target is
recomputed here from first principles — exact combinatorics, independent
bisection, closed-form tails — rather than imported from the package under
test.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from eqkd.bounds import (
    SamplingInstance,
    SecurityParams,
    exponent_A,
    lemma1_bound,
    plan_parameters,
    rate_threshold,
    theorem2_asymptotic,
    theorem2_bound,
)
from eqkd.channel import BiasedInterceptResend, DepolarizingPauli, RngStreams
from eqkd.codes import reconcile_bob_blocks, steane_pair
from eqkd.harness.endpoints import loopback_session
from eqkd.harness.runner import ExperimentConfig, run_experiment
from eqkd.protocol import (
    ProtocolParams,
    SessionStatus,
    alice_prepare,
    run_session,
    session_meta,
)
from eqkd.transcript import SessionTranscript
from pipeline_oracle import enumerate_codewords, lift_oracle, measure_as_bob, pack_blocks

CSS = steane_pair()


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {num}. {label} — {detail}")
    assert ok, f"check {num} ({label}): {detail}"


def test_c1_refined_analysis_detects_biased_interception():
    started = time.perf_counter()
    params = ProtocolParams(n_qubits=30_000, bias_p=0.1, m1=200, m2=200, e_max=0.11)
    config = ExperimentConfig(
        params=params,
        strategy=BiasedInterceptResend(0.0, 1.0),
        css=CSS,
        trials=200,
        base_seed=100,
    )
    result = run_experiment(config)
    aborted = sum(1 for r in result.rows if r.status != SessionStatus.ACCEPTED.value)
    naive_quiet = sum(1 for r in result.rows if r.naive_rate is not None and r.naive_rate < 0.02)
    elapsed = time.perf_counter() - started
    ok = aborted >= 199 and naive_quiet >= 195 and elapsed < 10.0
    _verdict(
        1,
        "refined analysis detects diagonal-only interception",
        ok,
        f"aborted {aborted}/200 (>=199), lumped rate <0.02 in {naive_quiet}/200 "
        f"(>=195), mean lumped {result.summary['mean_naive_rate']:.4f} "
        f"(predicted 0.0061), {elapsed:.1f}s (<10s)",
    )


def test_c2_sifted_fraction_tracks_the_bias():
    started = time.perf_counter()
    n = 100_000
    checks = []
    for i, p in enumerate((0.5, 0.25, 0.1, 0.05)):
        params = ProtocolParams(n_qubits=n, bias_p=p, m1=20, m2=20)
        streams = RngStreams(200 + i)
        sent = alice_prepare(params, streams)
        results = measure_as_bob(sent, params, streams.stream("bob_bases"))
        measured = float((sent.bases == results.bases).mean())
        expected = p * p + (1.0 - p) ** 2
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        checks.append((p, measured, expected, abs(measured - expected) <= 3 * sigma))
    by_p = {p: measured for p, measured, _e, _ok in checks}
    anchors = abs(by_p[0.5] - 0.5) < 0.01 and abs(by_p[0.05] - 0.905) < 0.01
    elapsed = time.perf_counter() - started
    ok = all(c[3] for c in checks) and anchors and elapsed < 30.0
    _verdict(
        2,
        "sifted fraction equals p^2 + (1-p)^2",
        ok,
        "; ".join(f"p={p}: {m:.4f} vs {e:.4f}" for p, m, e, _ in checks)
        + f"; {elapsed:.1f}s (<30s)",
    )


def test_c3_tail_bound_dominates_exact_hypergeometric_tail():
    started = time.perf_counter()
    instances = []
    for n_total in (40, 80, 120, 200, 300, 400, 500):
        for p_bad in (0.1, 0.2, 0.25, 0.4, 0.5):
            bad = p_bad * n_total
            if abs(bad - round(bad)) > 1e-9:
                continue
            for n_test in (5, 10, 20, 40, 80, 100):
                if not 1 < n_test < n_total:
                    continue
                for lam_frac in (0.0, 0.3, 0.6, 0.9):
                    instances.append((n_total, int(round(bad)), n_test, p_bad * lam_frac, p_bad))
    violations = 0
    for n_total, bad, n_test, lam, p_bad in instances:
        bound = lemma1_bound(SamplingInstance(n_total, n_test, p_bad, lam)).bound
        cutoff = math.floor(lam * n_test)
        total = math.comb(n_total, n_test)
        tail = sum(
            Fraction(math.comb(bad, j) * math.comb(n_total - bad, n_test - j), total)
            for j in range(cutoff + 1)
        )
        if Fraction(bound) < tail:
            violations += 1
    elapsed = time.perf_counter() - started
    ok = len(instances) >= 200 and violations == 0 and elapsed < 60.0
    _verdict(
        3,
        "sampling tail bound is sound in exact arithmetic",
        ok,
        f"{len(instances)} instances (>=200), {violations} violations, "
        f"{elapsed:.1f}s (<60s)",
    )


def test_c4_key_rate_thresholds():
    def h(x):
        return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    def bisect(f, lo, hi):
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    local_shannon = bisect(lambda e: 1 - 2 * h(e), 0.05, 0.25)
    local_mayers = bisect(lambda e: 1 - h(e) - h(2 * e), 0.02, 0.25)
    shannon = rate_threshold("css_shannon")
    mayers = rate_threshold("mayers")
    ok = (
        abs(shannon - local_shannon) < 1e-8
        and abs(mayers - local_mayers) < 1e-8
        and abs(shannon - 0.110) <= 0.001
        and abs(mayers - 0.074) <= 0.002
    )
    _verdict(
        4,
        "key-rate zeros sit at the known thresholds",
        ok,
        f"1-2H(e) root {shannon:.6f} (0.110±0.001), "
        f"1-H(e)-H(2e) root {mayers:.6f} (0.074±0.002)",
    )


def test_c5_reconciliation_exhaustive_within_radius():
    rng = np.random.default_rng(500)
    deltas = [np.zeros(7, dtype=np.uint8)]
    for i in range(7):
        d = np.zeros(7, dtype=np.uint8)
        d[i] = 1
        deltas.append(d)
    h1, key_map = CSS.c1.parity_check.astype(np.int64), CSS.key_map.astype(np.int64)
    lift = lift_oracle(CSS).astype(np.int64)
    received, announced, labels = [], [], []
    for u in enumerate_codewords(CSS.c1.generator):
        for _ in range(100):
            x = u ^ rng.integers(0, 2, 7, dtype=np.uint8)  # Alice's block
            s = (h1 @ x) % 2
            # the coset label of the codeword x + R s, by integer matmuls
            label = (key_map @ ((x + lift @ s) % 2)) % 2
            for delta in deltas:
                received.append(x ^ delta)
                announced.append(s)
                labels.append(label)
    keys, _ok = reconcile_bob_blocks(CSS, pack_blocks(received), np.array(announced))
    total = len(labels)
    matched = int((keys == np.array(labels)).all(axis=1).sum())
    # distance witness: some double error must corrupt the key of the zero
    # block, whose syndrome and label are 0
    witness = np.array([1, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
    corrupted = bool(
        reconcile_bob_blocks(CSS, pack_blocks(witness), np.zeros(3, dtype=np.uint8))[0].any()
    )
    ok = matched == total == 16 * 100 * 8 and corrupted
    _verdict(
        5,
        "block reconciliation is exact up to the code radius",
        ok,
        f"{matched}/{total} keys agreed over 16 codewords x 100 strings x 8 "
        f"patterns; weight-2 witness corrupts: {corrupted}",
    )


def test_c6_information_bound_reference_points():
    value = theorem2_bound(0.01, 10)
    at_zero = theorem2_bound(0.0, 10)
    exact = theorem2_bound(1e-6, 128)
    approx = theorem2_asymptotic(1e-6, 128)
    rel = abs(exact - approx) / exact
    ok = abs(value - 0.2808) <= 0.001 and at_zero == 0.0 and rel < 1e-3
    _verdict(
        6,
        "information bound reference values",
        ok,
        f"bound(0.01, 10) = {value:.6f} (0.2808±0.001), bound(0, 10) = {at_zero}, "
        f"asymptotic agreement {rel:.2e} (<1e-3)",
    )


def test_c7_planner_self_consistency():
    lam, p_bad = 0.10, 0.25
    plan = plan_parameters(SecurityParams(u=20, s=20, k=256, N=10**6), lam, p_bad)
    alpha = exponent_A(lam, p_bad)
    substitution = 256 * 2.0 ** (-plan.n_test * alpha) <= 2.0 ** -(20 + 20)
    geometry = 10**6 * (plan.p**2 - plan.delta_prime) >= plan.n_test
    doubled = plan_parameters(SecurityParams(u=20, s=20, k=512, N=10**6), lam, p_bad)
    growth = doubled.n_test - plan.n_test
    growth_cap = math.ceil(1.0 / alpha) + 1
    ok = (
        plan.feasible
        and doubled.feasible
        and substitution
        and geometry
        and 0 <= growth <= growth_cap
    )
    _verdict(
        7,
        "parameter planner is self-consistent and O(log k)",
        ok,
        f"n_test={plan.n_test}, p={plan.p:.5f}; k*2^(-n_test*alpha)<=2^-40: "
        f"{substitution}; N(p^2-d')>=n_test: {geometry}; doubling k grew "
        f"n_test by {growth} (<= {growth_cap})",
    )


def test_c8_noise_tolerance_matches_block_analysis():
    params = ProtocolParams(n_qubits=20_000, bias_p=0.2, m1=200, m2=200)
    config = ExperimentConfig(
        params=params,
        strategy=DepolarizingPauli.symmetric(0.02),  # per-basis flip rate 0.04
        css=CSS,
        trials=100,
        base_seed=800,
    )
    result = run_experiment(config)
    accepted = result.summary["status_counts"][SessionStatus.ACCEPTED.value]
    total_blocks = result.summary["total_blocks"]
    match_rate = result.summary["block_match_rate"]
    q = 0.04
    analytic = (1 - q) ** 7 + 7 * q * (1 - q) ** 6  # within the radius of one block
    sigma = math.sqrt(analytic * (1 - analytic) / total_blocks)
    ok = accepted >= 95 and match_rate >= analytic - 3 * sigma
    _verdict(
        8,
        "per-block key agreement under depolarizing noise",
        ok,
        f"{accepted}/100 accepted, match rate {match_rate:.5f} over "
        f"{total_blocks} blocks vs analytic {analytic:.5f} - 3*sigma "
        f"({3 * sigma:.5f})",
    )


def test_c9_networked_mode_equals_in_process_mode(tmp_path):
    params = ProtocolParams(n_qubits=1200, bias_p=0.3, m1=50, m2=50)
    strategy = DepolarizingPauli.symmetric(0.01)
    mismatches = []
    for seed in range(900, 920):
        meta = session_meta(params, strategy, CSS, seed)
        out_dir = tmp_path / f"seed_{seed}"
        codes = loopback_session(meta, out_dir, timeout=30)
        ref = run_session(params, strategy, CSS, seed)
        relay = SessionTranscript.from_jsonl(
            (out_dir / "transcript_channel.jsonl").read_text()
        )
        import json as _json

        outcome_a = _json.loads((out_dir / "outcome_alice.json").read_text())
        outcome_b = _json.loads((out_dir / "outcome_bob.json").read_text())
        ref_lines = ref.transcript.event_lines()
        alice_view = SessionTranscript.from_jsonl(
            (out_dir / "transcript_alice.jsonl").read_text()
        )
        bob_view = SessionTranscript.from_jsonl(
            (out_dir / "transcript_bob.jsonl").read_text()
        )
        same = (
            codes == {"alice": 0, "channel": 0, "bob": 0}
            and relay.event_lines() == ref_lines
            and alice_view.event_lines()
            == [l for e, l in zip(ref.transcript.events, ref_lines) if e.seq != 1]
            and bob_view.event_lines()
            == [l for e, l in zip(ref.transcript.events, ref_lines) if e.seq != 0]
            and outcome_a["status"] == ref.status.value
            and outcome_b["status"] == ref.status.value
            and outcome_a["num_blocks"] == ref.num_blocks
            and outcome_a["key"]
            == (None if ref.alice_key is None else np.packbits(ref.alice_key).tobytes().hex())
            and outcome_b["key"]
            == (None if ref.bob_key is None else np.packbits(ref.bob_key).tobytes().hex())
            and (
                ref.estimate is None
                or (
                    outcome_a["estimate"]["r1"] == ref.estimate.r1
                    and outcome_a["estimate"]["r2"] == ref.estimate.r2
                )
            )
        )
        if not same:
            mismatches.append(seed)
    ok = not mismatches
    _verdict(
        9,
        "networked mode reproduces in-process sessions",
        ok,
        f"20 seeds compared; mismatches: {mismatches if mismatches else 'none'}",
    )
