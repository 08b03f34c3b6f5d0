import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import socket
import struct
import threading

import numpy as np
import pytest

from eqkd.channel import BiasedInterceptResend, DepolarizingPauli, Passive
from eqkd.codes import gf2_nullspace, steane_pair, validate_css
from eqkd.harness import runner
from eqkd.harness.cli import main
from eqkd.harness.runner import (
    CSV_FIELDS,
    ExperimentConfig,
    TrialRow,
    aggregate,
    attack_demo,
    emit_csv,
    replay_verify,
    run_experiment,
    run_trial,
)
from eqkd.harness.wire import (
    FrameError,
    HandshakeError,
    UnknownTag,
    check_hello,
    recv_event,
    recv_frame,
    recv_hello,
    send_event,
    send_frame,
    send_hello,
)
from eqkd.protocol import (
    ProtocolParams,
    ProtocolViolation,
    SessionStatus,
    run_session,
    session_meta,
)
from eqkd.transcript import Event, EventKind, SessionTranscript

CSS = steane_pair()
PARAMS = ProtocolParams(n_qubits=3000, bias_p=0.3, m1=80, m2=80)


# ---------------------------------------------------------------------------
# Wire framing
# ---------------------------------------------------------------------------

@pytest.fixture()
def sockets():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def test_event_frame_roundtrip(sockets):
    a, b = sockets
    for kind in EventKind:
        payload = {"kind": kind.value, "n": 3, "bits": "a0"}
        send_event(a, kind, payload)
        got_kind, got_payload = recv_event(b)
        assert got_kind is kind
        assert got_payload == payload


def test_a_frame_larger_than_the_socket_buffers_arrives_whole(sockets):
    # with a timeout set, one sendmsg takes only what the buffers hold; the
    # rest must follow, and the reader must fill the frame across many reads
    a, b = sockets
    a.settimeout(15)
    payload = os.urandom(3 << 20)
    got = []
    reader = threading.Thread(target=lambda: got.append(recv_frame(b)))
    reader.start()
    send_frame(a, 0x01, payload)
    reader.join(timeout=15)
    assert not reader.is_alive()
    tag, body = got[0]
    assert tag == 0x01 and body == payload


def test_hello_roundtrip_and_mismatch(sockets):
    a, b = sockets
    digest = "ab" * 32
    send_hello(a, digest)
    assert recv_hello(b) == digest
    # a mismatched digest is refused by the end that checks it
    send_hello(a, "cd" * 32)
    with pytest.raises(HandshakeError):
        check_hello(recv_hello(b), digest)


def test_unknown_tag_rejected(sockets):
    a, b = sockets
    send_frame(a, 0x7F, b"{}")
    with pytest.raises(UnknownTag):
        recv_event(b)


@pytest.mark.parametrize("blob", [b"[]", b"[1, 2]", b'"text"', b"7", b"null"])
def test_non_object_event_payload_rejected(sockets, blob):
    a, b = sockets
    send_frame(a, 0x06, blob)  # an ESTIMATE frame
    with pytest.raises(FrameError):
        recv_event(b)


@pytest.mark.parametrize(
    "blob",
    [
        b"[" * 100_000,  # deeper than the JSON decoder recurses
        b'{"r1": ' + b"7" * 5000 + b"}",  # past the int digit limit
        b'{"r1": 1',
        b"\xff{}",
    ],
    ids=["deep_nesting", "long_int", "truncated_json", "bad_utf8"],
)
def test_undecodable_event_payload_rejected(sockets, blob):
    a, b = sockets
    send_frame(a, 0x06, blob)  # an ESTIMATE frame
    with pytest.raises(FrameError):
        recv_event(b)


def test_closed_stream_raises_eof(sockets):
    a, b = sockets
    a.close()
    with pytest.raises(EOFError):
        recv_frame(b)


def test_truncated_frame_raises(sockets):
    a, b = sockets
    a.sendall(struct.pack(">I", 10) + b"\x01ab")
    a.close()
    with pytest.raises(FrameError):
        recv_frame(b)


def test_oversized_frame_rejected(sockets):
    a, b = sockets
    a.sendall(struct.pack(">I", 1 << 30))
    with pytest.raises(FrameError):
        recv_frame(b)


def test_hello_version_check(sockets):
    a, b = sockets
    send_frame(a, 0x00, bytes([0x02]) + b"\x00" * 32)
    with pytest.raises(HandshakeError):
        recv_hello(b)


@pytest.mark.parametrize(
    "tag, body, wanted",
    [(0x01, b"{}", "expected a hello frame first"),
     *((0x00, bytes([0x01]) * size, "hello frame has the wrong size") for size in (0, 1, 32, 34))],
    ids=["event_frame", "empty", "version_only", "short_digest", "long_digest"],
)
def test_hello_refuses_a_frame_that_is_not_a_hello(sockets, tag, body, wanted):
    a, b = sockets
    send_frame(a, tag, body)
    with pytest.raises(HandshakeError, match=wanted):
        recv_hello(b)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_run_experiment_is_deterministic():
    config = ExperimentConfig(
        params=PARAMS, strategy=DepolarizingPauli.symmetric(0.01),
        css=CSS, trials=4, base_seed=3,
    )
    first = emit_csv(run_experiment(config).rows)
    second = emit_csv(run_experiment(config).rows)
    assert first == second
    header = first.splitlines()[0]
    assert header == ",".join(CSV_FIELDS)
    assert len(first.splitlines()) == 5


def test_emit_csv_cells(tmp_path):
    rows = [TrialRow(trial=0, seed=9, status="accepted", e1=0.5, e2=None,
                     naive_rate=None, retained_fraction=0.25, num_blocks=2,
                     key_length=2, key_match=True, blocks_match=2)]
    path = tmp_path / "rows.csv"
    text = emit_csv(rows, path)
    assert path.read_text() == text
    line = text.splitlines()[1]
    assert line == "0,9,accepted,0.5,,,0.25,2,2,true,2"


def test_aggregate_math():
    rows = [
        TrialRow(0, 0, "accepted", 0.0, 0.0, 0.0, 0.5, 2, 2, True, 2),
        TrialRow(1, 1, "accepted", 0.1, 0.0, 0.05, 0.5, 2, 2, False, 1),
        TrialRow(2, 2, "aborted_error_rate", 0.5, 0.5, 0.5, 0.5, 0, 0, None, None),
        TrialRow(3, 3, "aborted_insufficient_sample", None, None, None, 0.5, 0, 0, None, None),
    ]
    summary = aggregate(rows)
    assert summary["trials"] == 4
    assert summary["status_counts"]["accepted"] == 2
    assert summary["accept_rate"] == 0.5
    assert summary["mean_e1"] == pytest.approx(0.2)
    assert summary["key_match_rate"] == 0.5
    assert summary["total_blocks"] == 4
    assert summary["matched_blocks"] == 3
    assert summary["block_match_rate"] == 0.75


def test_experiment_rows_reflect_session_outcomes():
    config = ExperimentConfig(params=PARAMS, strategy=Passive(), css=CSS,
                              trials=2, base_seed=5)
    result = run_experiment(config, keep_outcomes=True)
    for row, outcome in zip(result.rows, result.outcomes):
        assert row.status == outcome.status.value
        assert row.key_length == outcome.alice_key.size
        assert row.key_match is True
        assert row.e1 == outcome.estimate.e1
        # clean channel: lumped statistic is exactly zero too
        assert row.naive_rate == 0.0
        retained = (outcome.transcript.meta["params"]["bias_p"] ** 2
                    + (1 - outcome.transcript.meta["params"]["bias_p"]) ** 2)
        assert abs(row.retained_fraction - retained) < 0.05


def test_attack_demo_reports_analytics():
    demo = attack_demo(
        ProtocolParams(n_qubits=20_000, bias_p=0.1, m1=25, m2=100),
        p1=0.0, p2=1.0, trials=8, base_seed=1,
    )
    assert demo["analytic"]["e1"] == 0.5
    assert demo["analytic"]["e2"] == 0.0
    assert demo["analytic"]["naive_rate"] == pytest.approx(0.006097560975609757)
    assert demo["refined_abort_rate"] == 1.0
    assert demo["naive_accept_rate"] == 1.0


# The parallel runner: k CPUs are forced through the one CPU-count helper, so
# a 1-CPU host also runs the forked workers; the oracle is the serial loop.

# m1 near the rectilinear class's expected 270 and w = 0.04 give all three
# statuses over seeds 0-6: accepted, error-rate aborts, insufficient samples
MIXED = ExperimentConfig(
    params=ProtocolParams(n_qubits=3000, bias_p=0.3, m1=260, m2=80, delta_prime=0.001),
    strategy=DepolarizingPauli.symmetric(0.04),
    css=CSS,
    trials=7,
)


def _assert_no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=[1, 2, 3], ids=lambda k: f"k{k}")
def cpus(request, monkeypatch):
    monkeypatch.setattr(runner, "usable_cpus", lambda: request.param)
    yield request.param
    _assert_no_children()


@pytest.mark.parametrize("keep_outcomes", [False, True], ids=["rows", "outcomes"])
@pytest.mark.parametrize(
    "config",
    [
        MIXED,
        dataclasses.replace(MIXED, trials=2),  # fewer trials than workers at k = 3
        ExperimentConfig(params=PARAMS, strategy=BiasedInterceptResend(0.1, 0.2), css=CSS,
                         trials=5, base_seed=11),
    ],
    ids=["mixed_statuses", "two_trials", "biased_intercept"],
)
def test_parallel_runner_matches_the_serial_loop(cpus, config, keep_outcomes):
    oracle = [run_trial(config, t) for t in range(config.trials)]
    result = run_experiment(config, keep_outcomes=keep_outcomes)
    want_rows = [row for row, _ in oracle]
    assert [dataclasses.astuple(r) for r in result.rows] == [
        dataclasses.astuple(r) for r in want_rows
    ]
    assert emit_csv(result.rows) == emit_csv(want_rows)
    assert result.summary == aggregate(want_rows)
    if config is MIXED:
        assert all(result.summary["status_counts"].values())  # every status occurs
    assert len(result.outcomes) == (config.trials if keep_outcomes else 0)
    for row, got in zip(result.rows, result.outcomes):
        assert row.seed == got.transcript.meta["seed"]
    for got, (_row, want) in zip(result.outcomes, oracle):
        assert got.transcript.event_lines() == want.transcript.event_lines()
        assert got.status is want.status
        for key in ("alice_key", "bob_key"):
            a, b = getattr(got, key), getattr(want, key)
            assert (a is None and b is None) or np.array_equal(a, b)


def _failing_run_trial(failures: dict):
    """run_trial, except that trial t raises failures[t]."""
    def patched(config, trial):
        if trial in failures:
            raise failures[trial]
        return run_trial(config, trial)
    return patched


@pytest.mark.parametrize(
    "failures, wanted",
    [
        ({5: ProtocolViolation("late")}, ProtocolViolation),  # a worker's slice at k >= 2
        ({3: LookupError("first"), 6: ValueError("second")}, LookupError),
        ({0: KeyError("caller"), 6: ValueError("worker")}, KeyError),  # the caller's slice
        ({1: KeyboardInterrupt()}, KeyboardInterrupt),
    ],
    ids=["in_a_worker", "earliest_of_two", "in_the_callers_slice", "interrupt"],
)
def test_parallel_runner_raises_the_earliest_failure(cpus, monkeypatch, failures, wanted):
    monkeypatch.setattr(runner, "run_trial", _failing_run_trial(failures))
    with pytest.raises(wanted):
        [runner.run_trial(MIXED, t) for t in range(MIXED.trials)]
    with pytest.raises(wanted):
        run_experiment(MIXED)


def test_a_worker_that_dies_is_reported_and_reaped(monkeypatch):
    def dying(config, trial):
        if trial == 6:
            os._exit(3)
        return run_trial(config, trial)

    monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
    monkeypatch.setattr(runner, "run_trial", dying)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_experiment(MIXED)
    _assert_no_children()


@pytest.mark.parametrize(
    "trials, base_seed, field",
    [(-3, 0, "trials"), (2, -1, "base_seed"), (3, 2**64 - 2, "base_seed \\+ trials"),
     (2.0, 0, "trials must be an integer"), (2, 2.5, "base_seed must be an integer")],
)
def test_experiment_config_checks_its_trial_range(trials, base_seed, field):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(params=PARAMS, strategy=Passive(), trials=trials, base_seed=base_seed)


def test_the_last_64_bit_seed_runs():
    config = ExperimentConfig(params=PARAMS, strategy=Passive(), css=CSS,
                              trials=2, base_seed=2**64 - 2)
    assert [r.seed for r in run_experiment(config).rows] == [2**64 - 2, 2**64 - 1]


def test_replay_verify_accepts_genuine_and_rejects_tampered(tmp_path):
    out = run_session(PARAMS, DepolarizingPauli.symmetric(0.01), CSS, seed=8)
    ok, detail = replay_verify(out.transcript)
    assert ok, detail

    path = tmp_path / "session.jsonl"
    path.write_text(out.transcript.to_jsonl())
    ok, detail = replay_verify(path)
    assert ok

    # flip one disclosed test bit
    tampered = SessionTranscript(meta=dict(out.transcript.meta))
    for ev in out.transcript.events:
        payload = dict(ev.payload)
        if ev.kind is EventKind.ESTIMATE:
            payload["r1"] = payload["r1"] + 1
        tampered.record(Event(ev.seq, ev.actor, ev.kind, payload))
    ok, detail = replay_verify(tampered)
    assert not ok
    assert "divergence" in detail

    bare = SessionTranscript(meta={})
    ok, detail = replay_verify(bare)
    assert not ok


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_writes_csv_and_summary(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = main([
        "run", "--n", "3000", "--bias-p", "0.3", "--m1", "80", "--m2", "80",
        "--depolarize", "0.01", "--trials", "2", "--seed", "3",
        "--out", str(csv_path),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 2
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 3


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "session.json"
    config.write_text(json.dumps({
        "n_qubits": 3000, "bias_p": 0.3, "m1": 80, "m2": 80,
        "strategy": {"kind": "passive"}, "seed": 4,
    }))
    code = main(["run", "--config", str(config), "--trials", "1", "--m1", "60"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status_counts"]["accepted"] == 1


_SETTINGS = {"n_qubits": 3000, "bias_p": 0.3, "m1": 80, "m2": 80}
_RUN = ["run", "--n", "3000", "--bias-p", "0.3", "--m1", "80", "--m2", "80"]


_NOISY = {"kind": "depolarizing", "q": [0.97, 0.01, 0.01, 0.01]}


@pytest.mark.parametrize(
    "config, named",
    [([1], ""), ({"params": 5}, ""), ({**_SETTINGS, "css": 5}, ""),
     ({**_SETTINGS, "code_files": 5}, ""),
     ({**_SETTINGS, "code_files": ["h.txt", ""]}, "malformed code_files ['h.txt', '']"),
     ({**_SETTINGS, "seed": [1]}, ""),
     ({**_SETTINGS, "seed": 6.5}, ""), ({**_SETTINGS, "n_qubits": 3000.0}, ""),
     ({**_SETTINGS, "m1": 80.5}, ""), ({**_SETTINGS, "m2": True}, ""),
     ({**_SETTINGS, "delta_prime": math.nan}, ""),
     ({**_SETTINGS, "emax": 0.01}, "unknown config keys: emax"),
     ({**_SETTINGS, "sed": 9}, "unknown config keys: sed"),
     ({**_SETTINGS, "params": {"delta-e": 0.5}}, "unknown params keys: delta-e"),
     ({**_SETTINGS, "strategy": {**_NOISY, "w": 3}}, "unknown depolarizing strategy keys: w"),
     ({**_SETTINGS, "strategy": {"kind": "passive", "p1": 0.5}},
      "unknown passive strategy keys: p1"),
     ({**_SETTINGS, "strategy": {"kind": []}}, "unknown strategy kind []"),
     ({**_SETTINGS, "strategy": {"kind": {}}}, "unknown strategy kind {}")],
    ids=["not_an_object", "params_not_an_object", "css_not_an_object", "code_files_not_a_list",
         "code_files_empty_path", "seed_a_list", "float_seed", "float_n_qubits",
         "fractional_m1", "boolean_m2", "nan_delta_prime", "unknown_key", "misspelt_seed", "unknown_params_key",
         "unknown_strategy_key", "unknown_passive_key", "strategy_kind_a_list",
         "strategy_kind_an_object"],
)
def test_cli_run_reports_a_config_file_of_the_wrong_shape(tmp_path, capsys, config, named):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eqkd: error: ") and named in err


@pytest.mark.parametrize(
    "argv, wanted",
    [
        (["run", "--n", "100", "--trials", "1"], "missing session settings: bias_p, m1, m2"),
        (["attack-demo", "--n", "20000", "--bias-p", "0.1", "--m1", "25", "--m2", "100"],
         "attack-demo needs --eve P1,P2"),
        ([*_RUN, "--trials", "-3"], "trials must be nonnegative, not -3"),
        ([*_RUN, "--seed", "18446744073709551615", "--trials", "3"],
         "base_seed + trials must be at most 2^64 (each trial's seed is 64-bit), "
         "not 18446744073709551615 + 3"),
        (["attack-demo", "--n", "20000", "--bias-p", "0.1", "--m1", "25", "--m2", "100",
          "--eve", "0,1", "--trials", "-1"], "trials must be nonnegative, not -1"),
        (["loopback", *_RUN[1:], "--out", "unused", "--timeout", "nan"],
         "argument --timeout: expected a positive, finite number of seconds, not 'nan'"),
        (["serve", *_RUN[1:], "--role", "bob", "--timeout", "-1"],
         "argument --timeout: expected a positive, finite number of seconds, not '-1'"),
        ([*_RUN, "--pauli", "IXZ", "--trials", "1"],
         "the Pauli string has 3 letters for 3000 qubits"),
        (["loopback", *_RUN[1:], "--pauli", "IXZ", "--out", "unused"],
         "the Pauli string has 3 letters for 3000 qubits"),
        ([*_RUN, "--code", "h.txt,h.txt,h.txt"],
         "argument --code: expected one or two code files FILE[,FILE2], not 'h.txt,h.txt,h.txt'"),
        (["codes", "validate", "--code", "h.txt,h.txt,h.txt"],
         "argument --code: expected one or two code files FILE[,FILE2], not 'h.txt,h.txt,h.txt'"),
        ([*_RUN, "--code", "a.txt,"],
         "argument --code: expected one or two code files FILE[,FILE2], not 'a.txt,'"),
        (["codes", "validate", "--code", "a.txt,"],
         "argument --code: expected one or two code files FILE[,FILE2], not 'a.txt,'"),
    ],
    ids=["run_without_settings", "attack_demo_without_eve", "run_negative_trials",
         "run_past_the_last_seed", "attack_demo_negative_trials", "loopback_nan_timeout",
         "serve_negative_timeout", "run_short_pauli_string", "loopback_short_pauli_string",
         "run_three_code_files", "codes_validate_three_code_files", "run_empty_second_code_file",
         "codes_validate_empty_second_code_file"],
)
def test_cli_usage_errors_exit_2(capsys, argv, wanted):
    try:
        code = main(argv)
    except SystemExit as exit_:
        # argparse refused a flag before the command ran: its usage, then one error line
        code = exit_.code
        prog = " ".join(["eqkd", *itertools.takewhile(lambda a: not a.startswith("-"), argv)])
        usage, _, err = capsys.readouterr().err.rpartition(f"{prog}: error: ")
        assert usage.startswith(f"usage: {prog} ") and err == f"{wanted}\n"
    else:
        assert capsys.readouterr().err == f"eqkd: error: {wanted}\n"
    assert code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_loopback_refuses_a_seed_past_64_bits_before_it_starts(tmp_path, capsys, seed):
    out = tmp_path / "out"
    argv = ["loopback", *_RUN[1:], "--seed", seed, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"eqkd: error: malformed seed {seed}; a seed is an integer in [0, 2^64)\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("eve", ["0.1", "0.1,0.2,0.3", "0.1,x", ""],
                         ids=["one_value", "three_values", "not_a_number", "empty"])
@pytest.mark.parametrize("command", ["run", "attack-demo"])
def test_cli_malformed_eve_is_a_usage_error(capsys, command, eve):
    with pytest.raises(SystemExit) as exit_:
        main([command, *_RUN[1:], "--eve", eve])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --eve: expected two probabilities P1,P2, not {eve!r}" in err


def test_cli_bounds_refuses_a_key_length_past_the_float_range(capsys):
    assert main(["bounds", "theorem2", "--delta", "0.1", "--k", "1" + "0" * 400]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("eqkd: error: k must be a positive integer of at most 2^1022")


def test_cli_bounds_commands(capsys):
    assert main(["bounds", "theorem2", "--delta", "0.01", "--k", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["information_bits"] == pytest.approx(0.2807931221372925)

    assert main(["bounds", "threshold", "--variant", "css_shannon"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["threshold"] == pytest.approx(0.11002786, abs=1e-6)

    assert main(["bounds", "lemma1", "--n-test", "100", "--n-total", "10000",
                 "--lam", "0.1", "--p-bad", "0.25"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert 0 < out["bound"] < 0.01

    assert main(["bounds", "theorem2", "--delta", "0.01", "--k", "10", "--asymptotic"]) == 0
    out = json.loads(capsys.readouterr().out)
    # 0.01 * (1/ln 2 + 2 * 10 + log2(100))
    assert out["asymptotic"] == pytest.approx(0.2808655, abs=1e-7)

    assert main(["bounds", "theorem3", "--eps1", "0.01", "--eps2", "0.5"]) == 0
    assert json.loads(capsys.readouterr().out) == {"fidelity": pytest.approx(0.98)}
    for eps1, eps2, wanted in [("nan", "0.5", "eps1 must lie in [0, 1], not nan"),
                               ("0.1", "3", "eps2 must lie in (0, 1]")]:
        assert main(["bounds", "theorem3", "--eps1", eps1, "--eps2", eps2]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"eqkd: error: {wanted}")

    assert main(["bounds", "rate", "--error-rate", "0.05"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["variant"] == "css_shannon" and out["error_rate"] == 0.05
    assert out["key_rate"] == pytest.approx(1 - 2 * 0.28639695711595625)  # 1 - 2 h(0.05)


def test_cli_plan(capsys):
    code = main(["plan", "--n-total", "1000000", "--u", "20", "--s", "20",
                 "--k", "256", "--lam", "0.10", "--p-bad", "0.25"])
    assert code == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["feasible"] is True
    assert plan["n_test"] > 0


def test_cli_plan_prints_an_infeasible_plan_and_exits_1(capsys):
    code = main(["plan", "--n-total", "10000", "--u", "20", "--s", "50",
                 "--k", "64", "--lam", "0.1", "--p-bad", "0.25"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    plan = json.loads(captured.out)
    assert plan["feasible"] is False and plan["n_test"] is None


def test_cli_codes_validate(tmp_path, capsys):
    good = tmp_path / "good.code"
    good.write_text("7 4\n1000011\n0100101\n0010110\n0001111\n# d = 3\n")
    assert main(["codes", "validate", "--code", str(good)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 7 and info["key_bits_per_block"] == 1

    bad = tmp_path / "bad.code"
    bad.write_text("4 1\n1111\n")  # self-dual nesting fails distance policy
    assert main(["codes", "validate", "--code", str(bad)]) == 1


def _code_file(path, generator, claimed_d=None) -> str:
    rows = ["".join(map(str, row)) for row in generator]
    claim = [] if claimed_d is None else [f"# d = {claimed_d}"]
    path.write_text("\n".join([f"{len(rows[0])} {len(rows)}", *rows, *claim]) + "\n")
    return str(path)


def _hamming_checks(r: int) -> np.ndarray:
    """The r x (2^r - 1) parity check of the Hamming code, the simplex code's generator."""
    return ((np.arange(1, 2**r)[None, :] >> np.arange(r)[:, None]) & 1).astype(np.uint8)


def test_cli_codes_validate_refuses_a_pair_past_the_enumeration_limits(tmp_path, capsys):
    simplex = _hamming_checks(5)
    # both files claim their true distances, which cannot be certified at n = 31
    outer = _code_file(tmp_path / "hamming31.code", gf2_nullspace(simplex), claimed_d=3)
    inner = _code_file(tmp_path / "simplex31.code", simplex, claimed_d=16)
    assert main(["codes", "validate", "--code", f"{outer},{inner}"]) == 1
    assert capsys.readouterr().err == (
        "invalid code pair: cannot certify the distance of a [31, 26] code: "
        "enumeration is limited to n <= 24 and dimension <= 20\n"
    )


def test_cli_run_reads_a_code_pair_from_a_flag_or_a_config_file(tmp_path, capsys):
    # the [15,11] Hamming code over its dual carries 7 key bits a block; the default pair, 1
    hamming15 = _code_file(tmp_path / "hamming15.code", gf2_nullspace(_hamming_checks(4)))
    config = tmp_path / "session.json"
    config.write_text(json.dumps({**_SETTINGS, "code_files": [hamming15]}))
    for argv in ([*_RUN, "--code", hamming15], ["run", "--config", str(config)]):
        assert main([*argv, "--trials", "1", "--seed", "2"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status_counts"]["accepted"] == 1
        assert summary["mean_key_length"] == 7 * summary["total_blocks"] > 0


def test_cli_run_applies_a_fixed_pauli_string(tmp_path, capsys):
    # Y on every symbol flips every sifted bit of either basis; letters may be lower case
    config = tmp_path / "session.json"
    config.write_text(json.dumps({**_SETTINGS, "strategy": {"kind": "fixed_pauli",
                                                            "letters": "y" * 3000}}))
    summaries = []
    for argv in ([*_RUN, "--pauli", "y" * 3000], ["run", "--config", str(config)]):
        assert main([*argv, "--trials", "1"]) == 0
        summaries.append(json.loads(capsys.readouterr().out))
    flag, file = summaries
    assert file == flag
    assert flag["status_counts"]["aborted_error_rate"] == 1
    assert flag["mean_e1"] == flag["mean_e2"] == 1.0


def test_cli_loopback_reports_every_exit_code_and_the_channel_outcome(tmp_path, capsys):
    assert main(["loopback", *_RUN[1:], "--seed", "9", "--out", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exit_codes"] == {"alice": 0, "channel": 0, "bob": 0}
    outcome = report["channel_outcome"]
    assert outcome["role"] == "channel" and outcome["status"] == "accepted"
    assert outcome["digests_match"] is True


@pytest.mark.parametrize(
    "address", ["nohost", "host:", "host:port", "127.0.0.1:65536", "127.0.0.1:0"]
)
def test_cli_serve_refuses_a_malformed_address(capsys, address):
    for flag in ("--listen", "--connect"):
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--role", "channel", *_RUN[1:], flag, address])
        assert exit_.value.code == 2
        assert "addresses look like HOST:PORT, PORT from 1 to 65535" in capsys.readouterr().err


def test_cli_serve_certifies_its_code_pair_once(monkeypatch, capsys):
    # the endpoint runs the session the command built, code pair included
    certified = []

    def counted(*args):
        certified.append(args)
        return validate_css(*args)

    monkeypatch.setattr("eqkd.codes.validate_css", counted)
    with socket.create_server(("127.0.0.1", 0)) as relay:  # takes Alice's link, never greets her
        address = f"127.0.0.1:{relay.getsockname()[1]}"
        argv = ["serve", "--role", "alice", *_RUN[1:], "--connect", address, "--timeout", "0.2"]
        assert main(argv) == 2
    assert len(certified) == 1
    assert "[alice] session failed" in capsys.readouterr().err


def test_cli_loopback_certifies_its_code_pair_once(tmp_path, monkeypatch, capsys):
    # the endpoints run the session the command built; they count in their own processes
    certified = []

    def counted(*args):
        certified.append(args)
        return validate_css(*args)

    monkeypatch.setattr("eqkd.codes.validate_css", counted)
    assert main(["loopback", *_RUN[1:], "--seed", "9", "--out", str(tmp_path)]) == 0
    assert len(certified) == 1
    assert json.loads(capsys.readouterr().out)["exit_codes"] == {"alice": 0, "channel": 0, "bob": 0}


def test_cli_serve_refuses_a_listen_port_already_bound(capsys):
    with socket.create_server(("127.0.0.1", 0)) as taken:
        port = taken.getsockname()[1]
        assert main(["serve", "--role", "bob", *_RUN[1:], "--listen", f"127.0.0.1:{port}"]) == 2
    assert capsys.readouterr().err.startswith("eqkd: error: ")


def test_cli_attack_demo(capsys):
    code = main(["attack-demo", "--n", "20000", "--bias-p", "0.1",
                 "--m1", "25", "--m2", "100", "--eve", "0,1",
                 "--trials", "4", "--seed", "0"])
    assert code == 0
    demo = json.loads(capsys.readouterr().out)
    assert demo["refined_abort_rate"] == 1.0


def test_cli_replay_roundtrip(tmp_path, capsys):
    code = main(["run", "--n", "3000", "--bias-p", "0.3", "--m1", "80",
                 "--m2", "80", "--trials", "1", "--seed", "6",
                 "--save-transcripts", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    transcript = tmp_path / "trial_0000.jsonl"
    assert main(["replay", str(transcript)]) == 0
    assert capsys.readouterr().out.startswith("ok")


@pytest.mark.parametrize(
    "contract", [None, 1, 2, 3, 5], ids=["before_the_field", "v1", "v2", "v3", "v5"]
)
def test_cli_replay_fails_naming_another_draw_contract(tmp_path, capsys, contract):
    out = run_session(PARAMS, DepolarizingPauli.symmetric(0.01), CSS, seed=8)
    meta = dict(out.transcript.meta)
    if contract is None:
        del meta["draw_contract"]  # a transcript recorded before the field: contract 1
    else:
        meta["draw_contract"] = contract
    path = tmp_path / "other_contract.jsonl"
    path.write_text(SessionTranscript(meta=meta, events=out.transcript.events).to_jsonl())
    assert main(["replay", str(path)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith(f"FAIL: recorded under draw contract {contract or 1}")
    assert "divergence" not in printed


def _event_line(seq, actor, kind, payload):
    return json.dumps({"seq": seq, "actor": actor, "kind": kind, "payload": payload})


# a header replay can run, so that the events after it are read
_HEADER = json.dumps({"meta": session_meta(PARAMS, Passive(), CSS, 6)})


def _record_with(change) -> list[str]:
    """The lines of a whole 12-event record, after ``change`` edits its header or an event."""
    record = run_session(PARAMS, DepolarizingPauli.symmetric(0.01), CSS, seed=8).transcript
    header, *events = (json.loads(line) for line in record.to_jsonl().splitlines())
    change(header, events)
    return [json.dumps(obj) for obj in (header, *events)]


@pytest.mark.parametrize(
    "lines, named",
    [
        ([_HEADER, '{"seq":0}'], ""),
        (['"metadata"'], ""),
        ([_HEADER, _event_line(0, "alice", "bases_announced_alice", {}),
          _event_line(1, "bob", "bases_announced_bob", {})], ""),
        ([_HEADER, _event_line(0, "alice", "qubits_sent", [])], ""),
        ([_HEADER, '[' * 100_000], ""),
        ([_HEADER, _event_line(1.5, "bob", "bases_announced_bob", {})], ""),
        ([_HEADER, _event_line(True, "bob", "bases_announced_bob", {})], ""),
        (_record_with(lambda header, events: events[4].update(note=1)), "note"),
        (_record_with(lambda header, events: header.update(note=1)), "note"),
        (_record_with(lambda header, events: header["meta"].update(note=1)), "note"),
    ],
    ids=["event_without_fields", "header_not_an_object", "alice_bases_first",
         "payload_not_an_object", "nesting_past_the_decoder", "float_seq", "boolean_seq",
         "unknown_event_key", "unknown_header_key", "unknown_metadata_key"],
)
def test_cli_replay_fails_cleanly_on_a_malformed_transcript(tmp_path, capsys, lines, named):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path)]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("FAIL: malformed transcript: ") and named in printed


@pytest.mark.parametrize(
    "field, value",
    [("params", 5), ("params", {"n_qubits": 0}), ("css", {}), ("strategy", 5),
     ("seed", None), ("seed", 6.5), ("seed", True),
     ("params", dict(PARAMS.to_dict(), n_qubits=3000.0)),
     ("params", dict(PARAMS.to_dict(), m1=True)),
     ("strategy", {"kind": "fixed_pauli", "letters": "IXZ"}),
     ("strategy", {"kind": []}), ("strategy", {"kind": {}})],
    ids=["params_not_an_object", "params_missing_fields", "css_without_rows",
         "strategy_not_an_object", "null_seed", "float_seed", "boolean_seed", "float_n_qubits",
         "boolean_m1", "short_pauli_string", "strategy_kind_a_list", "strategy_kind_an_object"],
)
def test_cli_replay_reports_an_invalid_recorded_configuration(tmp_path, capsys, field, value):
    meta = dict(session_meta(PARAMS, Passive(), CSS, 6), **{field: value})
    path = tmp_path / "bad_meta.jsonl"
    path.write_text(json.dumps({"meta": meta}) + "\n")
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err.startswith("eqkd: error: ")


def test_cli_replay_reports_an_unreadable_path(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "missing.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("eqkd: error: ")
