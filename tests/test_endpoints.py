import copy
import errno
import json
import multiprocessing
import os
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from eqkd.channel import DepolarizingPauli, FixedPauliString, Passive, RngStreams
from eqkd.codes import steane_pair
from eqkd.harness.endpoints import (
    EXIT_HANDSHAKE,
    EXIT_PROTOCOL,
    _accept_one,
    _channel_outcome,
    _connect_retry,
    _endpoint_proc,
    loopback_session,
    serve_endpoint,
    start_context,
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
    session_from_meta,
    session_meta,
)
from eqkd.transcript import Actor, EventKind, SessionTranscript

CSS = steane_pair()


def _meta(seed, strategy=None, n=1500):
    params = ProtocolParams(n_qubits=n, bias_p=0.3, m1=60, m2=60)
    return params, session_meta(params, strategy or Passive(), CSS, seed)


def _transcript_files(out_dir) -> list:
    """The transcript files in ``out_dir``, whole or partial."""
    return sorted(p.name for p in Path(out_dir).glob("transcript_*"))


def test_loopback_reproduces_in_process_session(tmp_path):
    params, meta = _meta(31, DepolarizingPauli.symmetric(0.01))
    codes = loopback_session(meta, tmp_path, timeout=30)
    assert codes == {"alice": 0, "channel": 0, "bob": 0}

    ref = run_session(params, DepolarizingPauli.symmetric(0.01), CSS, 31)
    # written line by line during the session, byte for byte run_session's record
    assert (tmp_path / "transcript_channel.jsonl").read_text() == ref.transcript.to_jsonl()
    assert _transcript_files(tmp_path) == [f"transcript_{r}.jsonl" for r in ("alice", "bob", "channel")]

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


@pytest.mark.parametrize(
    "change",
    [
        lambda m: m["params"].update(m1=0),
        lambda m: m.pop("seed"),
        lambda m: m.update(draw_contract=1),
        lambda m: m.pop("draw_contract"),
    ],
    ids=["m1_zero", "no_seed", "draw_contract_1", "no_draw_contract"],
)
def test_loopback_refuses_a_bad_config_before_it_starts(tmp_path, change):
    _params, meta = _meta(39)
    meta = copy.deepcopy(meta)
    change(meta)
    with pytest.raises(ValueError):
        loopback_session(meta, tmp_path / "out", timeout=10)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("failing", [2, 3], ids=["second_start", "third_start"])
def test_loopback_reaps_the_started_endpoints_when_one_fails_to_start(
    tmp_path, monkeypatch, failing
):
    process = start_context().Process
    real_start, starts = process.start, []

    def start(self):
        starts.append(self.name)
        if len(starts) == failing:
            raise OSError(errno.EAGAIN, "no process for this endpoint")
        real_start(self)

    monkeypatch.setattr(process, "start", start)
    _params, meta = _meta(41)
    with pytest.raises(OSError, match="no process for this endpoint"):
        loopback_session(meta, tmp_path, timeout=10)
    assert len(starts) == failing
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_config_digest_covers_the_draw_contract():
    # each endpoint offers the digest of its own session_meta, which records its contract
    _params, meta = _meta(40)
    assert meta["draw_contract"] == 2
    assert config_digest(meta) != config_digest(dict(meta, draw_contract=1))


def _listener():
    return socket.create_server(("127.0.0.1", 0), backlog=1)


def test_loopback_leaves_the_parent_no_open_descriptors(tmp_path):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    _params, meta = _meta(38)
    before = len(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)  # a socket left for gc to close
        assert loopback_session(meta, tmp_path, timeout=30) == {"alice": 0, "channel": 0, "bob": 0}
    assert len(os.listdir("/proc/self/fd")) <= before
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_every_endpoint_link_turns_nagle_off():
    deadline = time.monotonic() + 15
    lsock = _listener()
    with _connect_retry(lsock.getsockname(), deadline) as dialed, _accept_one(lsock, deadline) as accepted:
        for sock in (dialed, accepted):
            assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    assert lsock.fileno() == -1  # the listener is closed once its one link is in


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_the_start_context_forks_with_numpy_random_imported_and_the_package_does_not():
    # a child forked before numpy.random is imported pays for that import itself
    code = (
        "import sys; import eqkd.harness.cli; from eqkd.harness.endpoints import start_context; "
        "cold = 'numpy.random' not in sys.modules; ctx = start_context(); "
        "print(cold, ctx.get_start_method(), 'numpy.random' in sys.modules)"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert out == ["True", "fork", "True"]


def test_a_forked_endpoint_keeps_no_listener_it_does_not_serve(capfd):
    # alice dials a listener that only her own process could hold open: once
    # she has closed her copy, the dial is refused instead of queued
    _params, meta = _meta(40)
    lsock = _listener()
    alice = start_context().Process(
        target=_endpoint_proc, args=("alice", meta, None, lsock.getsockname(), None, 0.3, [lsock])
    )
    alice.start()
    lsock.close()
    alice.join(timeout=15)
    assert not alice.is_alive()
    assert alice.exitcode == EXIT_PROTOCOL
    assert os.strerror(errno.ECONNREFUSED) in capfd.readouterr().err


def test_mismatched_configs_fail_the_handshake(tmp_path):
    _params, meta_a = _meta(33)
    _params, meta_b = _meta(34)  # different seed -> different config digest
    ctx = start_context()
    bob_l, relay_l = _listener(), _listener()
    procs = []
    # the relay gives up at Bob's hello without accepting Alice, so she may
    # dial a closed listener until her deadline
    for role, meta, listen, connect, timeout in (
        ("bob", meta_b, bob_l, None, 15),
        ("channel", meta_a, relay_l, bob_l.getsockname(), 15),
        ("alice", meta_a, None, relay_l.getsockname(), 2),
    ):
        foreign = [s for s in (bob_l, relay_l) if s is not listen]
        procs.append(ctx.Process(target=_endpoint_proc,
                                 args=(role, meta, listen, connect, None, timeout, foreign)))
        procs[-1].start()
    bob_l.close()
    relay_l.close()
    bob, relay, alice = procs

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
    lsock = _listener()
    with pytest.raises(ValueError):
        serve_endpoint("nope", meta, listen=lsock)
    assert lsock.fileno() == -1  # the endpoint owns the listener it is given


def test_channel_outcome_rejects_an_unknown_decision():
    params, _ = _meta(24)
    out = run_session(params, Passive(), CSS, 24)
    assert _channel_outcome(out.transcript)["status"] == "accepted"
    out.transcript.append(Actor.ALICE, EventKind.DECISION, {"status": "no_such_status"})
    with pytest.raises(ProtocolViolation):
        _channel_outcome(out.transcript)


def test_truncated_payload_ends_the_endpoint_with_exit_protocol():
    params, meta = _meta(36)
    lsock = _listener()
    address = lsock.getsockname()
    codes = []
    bob = threading.Thread(
        target=lambda: codes.append(serve_endpoint("bob", meta, listen=lsock, timeout=15))
    )
    bob.start()
    with socket.create_connection(address, timeout=15) as relay:
        exchange_hello(relay, config_digest(meta), initiate=True)
        payload = encode_symbols(alice_prepare(params, RngStreams(36)))
        send_event(relay, EventKind.QUBITS_SENT, dict(payload, bases=payload["bases"][:-2]))
        # judged with the link still open: a closed link would end Bob with
        # the same code for a different reason
        bob.join(timeout=15)
        assert not bob.is_alive()
    assert codes == [EXIT_PROTOCOL]


def test_malformed_estimate_ends_the_endpoint_with_exit_protocol(tmp_path):
    params, meta = _meta(37)
    lsock = _listener()
    address = lsock.getsockname()
    codes = []
    bob = threading.Thread(
        target=lambda: codes.append(
            serve_endpoint("bob", meta, listen=lsock, out_dir=tmp_path, timeout=15)
        )
    )
    bob.start()
    # the relay plays Alice over a passive channel, up to her estimate
    alice = AliceMachine(params, CSS, RngStreams(37), meta=meta)
    with socket.create_connection(address, timeout=15) as relay:
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
    # Bob had logged five events by then; his partial transcript is removed
    assert _transcript_files(tmp_path) == []


def _play_to_relay(meta, frames, out_dir=None):
    """Run a relay in a thread and play both parties over its two links.

    Each (actor, kind, payload) frame goes out on its sender's link and is
    read back from the other one, until the relay stops forwarding; then
    both links close. Returns the relay's exit code and the forwarded frames.
    """
    digest = config_digest(meta)
    relay_l, bob_l = _listener(), _listener()
    relay_address = relay_l.getsockname()
    codes, forwarded = [], []
    relay = threading.Thread(
        target=lambda: codes.append(serve_endpoint(
            "channel", meta, listen=relay_l, connect=bob_l.getsockname(), out_dir=out_dir,
            timeout=15,
        ))
    )
    relay.start()
    bob_l.settimeout(15)
    with bob_l, bob_l.accept()[0] as bob:
        exchange_hello(bob, digest, initiate=False)  # the relay dials Bob before it takes Alice
        with socket.create_connection(relay_address, timeout=15) as alice:
            exchange_hello(alice, digest, initiate=True)
            links = {Actor.ALICE: (alice, bob), Actor.BOB: (bob, alice)}
            try:
                for actor, kind, payload in frames:
                    out, back = links[actor]
                    send_event(out, kind, payload)
                    # read the forwarded frame first, so the relay's send cannot fail
                    forwarded.append(recv_event(back))
            except (EOFError, OSError):
                pass  # the relay refused the frame and closed both links
    relay.join(timeout=15)
    assert not relay.is_alive()
    return codes, forwarded


def _party_frames(meta):
    """The (actor, kind, payload) frames the parties send in the in-process session of ``meta``."""
    events = run_session(*session_from_meta(meta)).transcript.events
    return [(ev.actor, ev.kind, ev.payload) for ev in events if ev.actor is not Actor.CHANNEL]


def test_relay_ends_a_digest_without_a_digest_field_with_exit_protocol(tmp_path, capsys):
    _params, meta = _meta(39)
    frames = _party_frames(meta)
    assert frames[9][:2] == (Actor.ALICE, EventKind.KEY_DIGEST)  # event 10, after the CHANNEL's
    frames[9] = (Actor.ALICE, EventKind.KEY_DIGEST, {})
    codes, forwarded = _play_to_relay(meta, frames, out_dir=tmp_path)
    assert len(forwarded) == 11 and forwarded[9] == (EventKind.KEY_DIGEST, {})
    assert codes == [EXIT_PROTOCOL]
    assert "'digest'" in capsys.readouterr().err
    # every event was logged, but the outcome could not read the digest
    assert _transcript_files(tmp_path) == []


@pytest.mark.parametrize(
    "decision",
    [{"status": "no_such_status"}, {"status": "proceed", "note": 1}, {}],
    ids=["unknown_status", "extra_field", "missing_status"],
)
def test_relay_refuses_a_malformed_decision(tmp_path, capsys, decision):
    _params, meta = _meta(43)
    frames = _party_frames(meta)
    assert frames[6][:2] == (Actor.ALICE, EventKind.DECISION)  # event 7
    frames[6] = (Actor.ALICE, EventKind.DECISION, decision)
    codes, forwarded = _play_to_relay(meta, frames[:7], out_dir=tmp_path)
    assert codes == [EXIT_PROTOCOL] and len(forwarded) == 6
    assert "session failed" in capsys.readouterr().err
    assert _transcript_files(tmp_path) == []


@pytest.mark.parametrize(
    "strategy", [FixedPauliString("I" * 1500), Passive()], ids=["fixed_pauli_string", "passive"]
)
def test_relay_refuses_a_qubit_frame_of_the_wrong_length(tmp_path, capsys, strategy):
    _params, meta = _meta(41, strategy)
    short = ProtocolParams(n_qubits=1400, bias_p=0.3, m1=60, m2=60)
    symbols = encode_symbols(alice_prepare(short, RngStreams(41)))
    codes, forwarded = _play_to_relay(
        meta, [(Actor.ALICE, EventKind.QUBITS_SENT, symbols)], out_dir=tmp_path
    )
    assert codes == [EXIT_PROTOCOL] and forwarded == []
    assert "expected 1500" in capsys.readouterr().err
    assert _transcript_files(tmp_path) == []


@pytest.mark.parametrize("order", ["digest_first", "alice_bases_first", "cut_short"])
def test_relay_refuses_a_session_out_of_order(tmp_path, capsys, order):
    _params, meta = _meta(42)
    frames = _party_frames(meta)
    if order == "digest_first":
        frames = [f for f in frames if f[:2] == (Actor.ALICE, EventKind.KEY_DIGEST)]
    elif order == "alice_bases_first":
        frames = [frames[2], frames[1]]
    else:
        frames = frames[:3]
    codes, forwarded = _play_to_relay(meta, frames, out_dir=tmp_path)
    assert codes == [EXIT_PROTOCOL]
    assert len(forwarded) == (3 if order == "cut_short" else 0)
    assert _transcript_files(tmp_path) == []
    assert "session failed" in capsys.readouterr().err
