import json
import socket
import struct

import numpy as np
import pytest

from eqkd.channel import BiasedInterceptResend, DepolarizingPauli, Passive
from eqkd.codes import steane_pair
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
)
from eqkd.harness.wire import (
    FrameError,
    HandshakeError,
    UnknownTag,
    exchange_hello,
    recv_event,
    recv_frame,
    recv_hello,
    send_event,
    send_frame,
    send_hello,
)
from eqkd.protocol import ProtocolParams, SessionStatus, run_session, session_meta
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


def test_hello_roundtrip_and_mismatch(sockets):
    a, b = sockets
    digest = "ab" * 32
    send_hello(a, digest)
    assert recv_hello(b) == digest
    # a mismatched digest is refused by the non-initiating side
    send_hello(a, "cd" * 32)
    with pytest.raises(HandshakeError):
        exchange_hello(b, digest, initiate=False)


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


@pytest.mark.parametrize(
    "config",
    [[1], {"params": 5}, {**_SETTINGS, "css": 5}, {**_SETTINGS, "code_files": 5},
     {**_SETTINGS, "seed": [1]}, {**_SETTINGS, "seed": 6.5}],
    ids=["not_an_object", "params_not_an_object", "css_not_an_object", "code_files_not_a_list",
         "seed_a_list", "float_seed"],
)
def test_cli_run_reports_a_config_file_of_the_wrong_shape(tmp_path, capsys, config):
    path = tmp_path / "session.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--trials", "1"]) == 2
    assert capsys.readouterr().err.startswith("eqkd: error: ")


@pytest.mark.parametrize(
    "argv, wanted",
    [
        (["run", "--n", "100", "--trials", "1"], "missing session settings: bias_p, m1, m2"),
        (["attack-demo", "--n", "20000", "--bias-p", "0.1", "--m1", "25", "--m2", "100"],
         "attack-demo needs --eve P1,P2"),
    ],
    ids=["run_without_settings", "attack_demo_without_eve"],
)
def test_cli_usage_errors_exit_2(capsys, argv, wanted):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"eqkd: error: {wanted}\n"


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


@pytest.mark.parametrize("contract", [None, 1, 3], ids=["before_the_field", "v1", "v3"])
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


@pytest.mark.parametrize(
    "lines",
    [
        ['{"meta":{}}', '{"seq":0}'],
        ['"metadata"'],
        ['{"meta":{}}', _event_line(0, "alice", "bases_announced_alice", {}),
         _event_line(1, "bob", "bases_announced_bob", {})],
        ['{"meta":{}}', _event_line(0, "alice", "qubits_sent", [])],
        ['{"meta":{}}', '[' * 100_000],
        ['{"meta":{}}', _event_line(1.5, "bob", "bases_announced_bob", {})],
        ['{"meta":{}}', _event_line(True, "bob", "bases_announced_bob", {})],
    ],
    ids=["event_without_fields", "header_not_an_object", "alice_bases_first",
         "payload_not_an_object", "nesting_past_the_decoder", "float_seq", "boolean_seq"],
)
def test_cli_replay_fails_cleanly_on_a_malformed_transcript(tmp_path, capsys, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", str(path)]) == 1
    assert capsys.readouterr().out.startswith("FAIL: malformed transcript: ")


@pytest.mark.parametrize(
    "field, value",
    [("params", 5), ("params", {"n_qubits": 0}), ("css", {}), ("strategy", 5),
     ("seed", None), ("seed", 6.5), ("seed", True)],
    ids=["params_not_an_object", "params_missing_fields", "css_without_rows",
         "strategy_not_an_object", "null_seed", "float_seed", "boolean_seed"],
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
