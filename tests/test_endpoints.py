import json
import multiprocessing
import queue
import socket
import threading

import numpy as np
import pytest

from eqkd.channel import DepolarizingPauli, Passive, RngStreams
from eqkd.codes import steane_pair
from eqkd.harness.endpoints import (
    EXIT_HANDSHAKE,
    EXIT_PROTOCOL,
    _channel_outcome,
    _endpoint_proc,
    loopback_session,
    serve_endpoint,
)
from eqkd.harness.wire import exchange_hello, recv_event, send_event
from eqkd.protocol import (
    AliceMachine,
    ProtocolParams,
    ProtocolViolation,
    alice_prepare,
    config_digest,
    encode_symbols,
    run_session,
    session_meta,
)
from eqkd.transcript import Actor, EventKind, SessionTranscript

CSS = steane_pair()


def _meta(seed, strategy=None, n=1500):
    params = ProtocolParams(n_qubits=n, bias_p=0.3, m1=60, m2=60)
    return params, session_meta(params, strategy or Passive(), CSS, seed)


def test_loopback_reproduces_in_process_session(tmp_path):
    params, meta = _meta(31, DepolarizingPauli.symmetric(0.01))
    codes = loopback_session(meta, tmp_path, timeout=30)
    assert codes == {"alice": 0, "channel": 0, "bob": 0}

    ref = run_session(params, DepolarizingPauli.symmetric(0.01), CSS, 31)
    relay = SessionTranscript.from_jsonl((tmp_path / "transcript_channel.jsonl").read_text())
    assert relay.event_lines() == ref.transcript.event_lines()
    assert relay.meta == ref.transcript.meta

    alice_view = SessionTranscript.from_jsonl((tmp_path / "transcript_alice.jsonl").read_text())
    bob_view = SessionTranscript.from_jsonl((tmp_path / "transcript_bob.jsonl").read_text())
    ref_lines = ref.transcript.event_lines()
    assert alice_view.event_lines() == [l for e, l in zip(ref.transcript.events, ref_lines) if e.seq != 1]
    assert bob_view.event_lines() == [l for e, l in zip(ref.transcript.events, ref_lines) if e.seq != 0]

    outcome_a = json.loads((tmp_path / "outcome_alice.json").read_text())
    outcome_b = json.loads((tmp_path / "outcome_bob.json").read_text())
    assert outcome_a["status"] == ref.status.value == outcome_b["status"]
    assert outcome_a["key"] == np.packbits(ref.alice_key).tobytes().hex()
    assert outcome_b["key"] == np.packbits(ref.bob_key).tobytes().hex()
    assert outcome_a["num_blocks"] == ref.num_blocks


def test_loopback_abort_paths(tmp_path):
    # undersized run: the receiver pulls the plug before any test sample
    params = ProtocolParams(n_qubits=200, bias_p=0.5, m1=10, m2=60)
    meta = session_meta(params, Passive(), CSS, 32)
    out = tmp_path / "insufficient"
    codes = loopback_session(meta, out, timeout=30)
    assert codes == {"alice": 0, "channel": 0, "bob": 0}
    channel_outcome = json.loads((out / "outcome_channel.json").read_text())
    assert channel_outcome["status"] == "aborted_insufficient_sample"
    ref = run_session(params, Passive(), CSS, 32)
    relay = SessionTranscript.from_jsonl((out / "transcript_channel.jsonl").read_text())
    assert relay.event_lines() == ref.transcript.event_lines()
    assert len(relay.events) == 5


def test_mismatched_configs_fail_the_handshake(tmp_path):
    _params, meta_a = _meta(33)
    _params, meta_b = _meta(34)  # different seed -> different config digest
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else multiprocessing.get_start_method()
    )
    host = "127.0.0.1"

    bob_q = ctx.Queue()
    bob = ctx.Process(target=_endpoint_proc,
                      args=("bob", meta_b, (host, 0), None, None, bob_q, 15))
    bob.start()
    bob_port = bob_q.get(timeout=15)

    relay_q = ctx.Queue()
    relay = ctx.Process(target=_endpoint_proc,
                        args=("channel", meta_a, (host, 0), (host, bob_port), None, relay_q, 15))
    relay.start()
    relay_port = relay_q.get(timeout=15)

    alice = ctx.Process(target=_endpoint_proc,
                        args=("alice", meta_a, None, (host, relay_port), None, None, 15))
    alice.start()

    for proc in (alice, relay, bob):
        proc.join(timeout=20)
        assert not proc.is_alive()
    assert bob.exitcode == EXIT_HANDSHAKE
    assert relay.exitcode != 0
    assert alice.exitcode != 0


def test_serve_endpoint_argument_validation():
    _params, meta = _meta(35)
    with pytest.raises(ValueError):
        serve_endpoint("alice", meta)  # no address to connect to
    with pytest.raises(ValueError):
        serve_endpoint("bob", meta)
    with pytest.raises(ValueError):
        serve_endpoint("nope", meta, listen=("127.0.0.1", 0))


def test_channel_outcome_rejects_an_unknown_decision():
    params, _ = _meta(24)
    out = run_session(params, Passive(), CSS, 24)
    assert _channel_outcome(out.transcript)["status"] == "accepted"
    out.transcript.append(Actor.ALICE, EventKind.DECISION, {"status": "no_such_status"})
    with pytest.raises(ProtocolViolation):
        _channel_outcome(out.transcript)


def test_truncated_payload_ends_the_endpoint_with_exit_protocol():
    params, meta = _meta(36)
    ports = queue.Queue()
    codes = []
    bob = threading.Thread(
        target=lambda: codes.append(
            serve_endpoint("bob", meta, listen=("127.0.0.1", 0), port_report=ports.put, timeout=15)
        )
    )
    bob.start()
    with socket.create_connection(("127.0.0.1", ports.get(timeout=15)), timeout=15) as relay:
        exchange_hello(relay, config_digest(meta), initiate=True)
        payload = encode_symbols(alice_prepare(params, RngStreams(36)))
        send_event(relay, EventKind.QUBITS_SENT, dict(payload, bases=payload["bases"][:-2]))
        # judged with the link still open: a closed link would end Bob with
        # the same code for a different reason
        bob.join(timeout=15)
        assert not bob.is_alive()
    assert codes == [EXIT_PROTOCOL]


def test_malformed_estimate_ends_the_endpoint_with_exit_protocol():
    params, meta = _meta(37)
    ports = queue.Queue()
    codes = []
    bob = threading.Thread(
        target=lambda: codes.append(
            serve_endpoint("bob", meta, listen=("127.0.0.1", 0), port_report=ports.put, timeout=15)
        )
    )
    bob.start()
    # the relay plays Alice over a passive channel, up to her estimate
    alice = AliceMachine(params, CSS, RngStreams(37), meta=meta)
    with socket.create_connection(("127.0.0.1", ports.get(timeout=15)), timeout=15) as relay:
        exchange_hello(relay, config_digest(meta), initiate=True)
        replies = alice.start()
        while not any(kind is EventKind.ESTIMATE for _actor, kind, _payload in replies):
            for _actor, kind, payload in replies:
                send_event(relay, kind, payload)
            kind, payload = recv_event(relay)
            replies = alice.receive(Actor.BOB, kind, payload)
        send_event(relay, EventKind.ESTIMATE, {})
        bob.join(timeout=15)
        assert not bob.is_alive()
    assert codes == [EXIT_PROTOCOL]
