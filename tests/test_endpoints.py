import contextlib
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

from eqkd.channel import (
    BiasedInterceptResend,
    DepolarizingPauli,
    FixedPauliString,
    Passive,
    RngStreams,
)
from eqkd.codes import steane_pair, validate_css
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
from eqkd.harness.wire import (
    _KIND_TAGS,
    TAG_HELLO,
    check_hello,
    recv_event,
    recv_hello,
    send_event,
    send_frame,
    send_hello,
)
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
from eqkd.transcript import Actor, EventKind, SessionTranscript, canonical_json

CSS = steane_pair()


def _meta(seed, strategy=None, n=1500):
    params = ProtocolParams(n_qubits=n, bias_p=0.3, m1=60, m2=60)
    return params, session_meta(params, strategy or Passive(), CSS, seed)


def _session(meta):
    """The built session ``serve_endpoint`` runs: ``session_from_meta``'s values, then ``meta``."""
    return (*session_from_meta(meta), meta)


def _transcript_files(out_dir) -> list:
    """The transcript files in ``out_dir``, whole or partial."""
    return sorted(p.name for p in Path(out_dir).glob("transcript_*"))


def test_every_event_kind_has_a_frame_tag_of_its_own():
    # a kind without a tag would be a stray KeyError in send_event, and two
    # kinds on one tag would be read back as one of them
    assert set(_KIND_TAGS) == set(EventKind)
    tags = list(_KIND_TAGS.values())
    assert len(set(tags)) == len(tags) and TAG_HELLO not in tags


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

    # every diagonal photon intercepted: Alice's reply to the test disclosure
    # stops after her decision, and so does the session
    strategy = BiasedInterceptResend(0.0, 1.0)
    params, meta = _meta(47, strategy, n=2000)
    out = tmp_path / "error_rate"
    codes = loopback_session(meta, out, timeout=30)
    assert codes == {"alice": 0, "channel": 0, "bob": 0}
    channel_outcome = json.loads((out / "outcome_channel.json").read_text())
    assert channel_outcome["status"] == "aborted_error_rate"
    ref = run_session(params, strategy, CSS, 47)
    ref_lines = ref.transcript.event_lines()
    assert len(ref_lines) == 8
    relay = SessionTranscript.from_jsonl((out / "transcript_channel.jsonl").read_text())
    assert relay.event_lines() == ref_lines
    for role, unseen in (("alice", 1), ("bob", 0)):
        view = SessionTranscript.from_jsonl((out / f"transcript_{role}.jsonl").read_text())
        assert view.event_lines() == [l for i, l in enumerate(ref_lines) if i != unseen]


@pytest.mark.parametrize(
    "change",
    [
        lambda m: m["params"].update(m1=0),
        lambda m: m.pop("seed"),
        lambda m: m.update(draw_contract=1),
        lambda m: m.pop("draw_contract"),
        lambda m: m.update(seed=-1),
        lambda m: m.update(seed=2**64),
        lambda m: m.update(strategy={"kind": "fixed_pauli", "letters": "IXZ"}),
        lambda m: m["params"].update(n_qubits=1500.0),
    ],
    ids=["m1_zero", "no_seed", "draw_contract_1", "no_draw_contract", "negative_seed",
         "seed_past_64_bits", "short_pauli_string", "float_n_qubits"],
)
def test_loopback_refuses_a_bad_config_before_it_starts(tmp_path, change):
    _params, meta = _meta(39)
    meta = copy.deepcopy(meta)
    change(meta)
    with pytest.raises(ValueError):
        loopback_session(meta, tmp_path / "out", timeout=10)
    assert not (tmp_path / "out").exists()
    assert multiprocessing.active_children() == []


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
    assert meta["draw_contract"] == 4
    for other in (1, 2, 3):
        assert config_digest(meta) != config_digest(dict(meta, draw_contract=other))


def _listener():
    return socket.create_server(("127.0.0.1", 0), backlog=1)


def _greet(sock, digest):
    """One end's hello, as every endpoint greets: send its own, then check the peer's."""
    send_hello(sock, digest)
    check_hello(recv_hello(sock), digest)


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


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_no_forked_endpoint_builds_its_session_again(tmp_path, monkeypatch):
    # loopback_session builds the session once and hands it to each endpoint;
    # one that decoded its configuration would certify the code pair again
    parent = os.getpid()

    def in_parent_only(fn):
        def guarded(*args):
            if os.getpid() != parent:
                raise AssertionError(f"{fn.__name__} ran in a forked endpoint")
            return fn(*args)

        return guarded

    for target, fn in (
        ("eqkd.codes.validate_css", validate_css),
        ("eqkd.protocol.session_from_meta", session_from_meta),
        ("eqkd.harness.endpoints.session_from_meta", session_from_meta),
    ):
        monkeypatch.setattr(target, in_parent_only(fn))
    _params, meta = _meta(49, DepolarizingPauli.symmetric(0.01), n=20_000)
    assert loopback_session(meta, tmp_path, timeout=30) == {"alice": 0, "channel": 0, "bob": 0}
    assert json.loads((tmp_path / "outcome_channel.json").read_text())["status"] == "accepted"


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


_WATCH_IMPORTS = """
import json, sys
from pathlib import Path
import eqkd.harness.cli
from eqkd.channel import DepolarizingPauli
from eqkd.codes import steane_pair
from eqkd.harness import endpoints
from eqkd.protocol import ProtocolParams, session_meta

params = ProtocolParams(n_qubits=1500, bias_p=0.3, m1=60, m2=60)
meta = session_meta(params, DepolarizingPauli.symmetric(0.01), steane_pair(), 31)
out = Path(sys.argv[1])
serve = endpoints.serve_endpoint

def watched(role, *args, **kwargs):
    before = set(sys.modules)
    try:
        return serve(role, *args, **kwargs)
    finally:
        imported = sorted(set(sys.modules) - before)
        (out / f"imported_{role}.json").write_text(json.dumps(imported))

endpoints.serve_endpoint = watched
codes = endpoints.loopback_session(meta, out, timeout=30)
imported = {r: json.loads((out / f"imported_{r}.json").read_text()) for r in endpoints.ROLES}
print(json.dumps({"codes": codes, "imported": imported}))
"""


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_no_forked_endpoint_imports_a_module_during_its_session(tmp_path):
    # a module a forked endpoint imports mid-session is paid for in every
    # session (a str host's IDNA codec, a text file's codec); its parent
    # must not import it instead either, as that counts in its peak RSS
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run(
        [sys.executable, "-c", _WATCH_IMPORTS, str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.splitlines()
    assert json.loads(out[-1]) == {
        "codes": {"alice": 0, "channel": 0, "bob": 0},
        "imported": {"alice": [], "channel": [], "bob": []},
    }


def test_the_dialer_reaches_a_listener_by_name_or_by_address():
    for host in ("localhost", "127.0.0.1"):
        lsock = _listener()
        deadline = time.monotonic() + 15
        with _connect_retry((host, lsock.getsockname()[1]), deadline) as dialed:
            with _accept_one(lsock, deadline) as accepted:
                assert accepted.getpeername() == dialed.getsockname()


def test_a_host_name_the_codec_refuses_ends_the_endpoint_with_exit_protocol(capfd):
    # a non-ASCII host still goes through the IDNA codec, which refuses a
    # label over 63 characters before any lookup is made
    _params, meta = _meta(41)
    code = serve_endpoint("alice", _session(meta), connect=("\u00fc" * 70, 9), timeout=1)
    assert code == EXIT_PROTOCOL
    err = capfd.readouterr().err
    assert "[alice] session failed: " in err and "idna" in err and "Traceback" not in err


def _endpoint_proc_on_go(go, *args):
    """``_endpoint_proc(*args)``, once the parent sends on ``go``."""
    go.recv()
    _endpoint_proc(*args)


def test_a_forked_endpoint_keeps_no_listener_it_does_not_serve(capfd):
    # alice dials a listener that only her own process could hold open: once
    # she has closed her copy, the dial is refused instead of queued. She
    # starts once the test has closed its own copy, which would take the dial.
    _params, meta = _meta(40)
    lsock = _listener()
    ctx = start_context()
    wait, go = ctx.Pipe(duplex=False)
    alice = ctx.Process(
        target=_endpoint_proc_on_go,
        args=(wait, "alice", _session(meta), None, lsock.getsockname(), None, 0.3, [lsock]),
    )
    alice.start()
    lsock.close()
    go.send(None)
    alice.join(timeout=15)
    assert not alice.is_alive()
    assert alice.exitcode == EXIT_PROTOCOL
    assert os.strerror(errno.ECONNREFUSED) in capfd.readouterr().err


def test_mismatched_configs_fail_the_handshake(tmp_path):
    _params, meta_a = _meta(33)
    _params, meta_b = _meta(34)  # different seed -> different config digest
    ctx = start_context()
    bob_l, relay_l = _listener(), _listener()
    relay_address = relay_l.getsockname()

    def start(role, meta, listen, connect):
        foreign = [s for s in (bob_l, relay_l) if s is not listen]
        proc = ctx.Process(target=_endpoint_proc,
                           args=(role, _session(meta), listen, connect, None, 15, foreign))
        proc.start()
        return proc

    bob = start("bob", meta_b, bob_l, None)
    relay = start("channel", meta_a, relay_l, bob_l.getsockname())
    bob_l.close()
    relay_l.close()
    procs = (bob, relay)
    try:
        # Alice dials last, once the relay has got as far as it can without her:
        # the failed handshake with Bob must not leave her redialing until her deadline
        relay.join(timeout=1)
        alice = start("alice", meta_a, None, relay_address)
        procs = (alice, relay, bob)
        deadline = time.monotonic() + 5
        for proc in procs:
            proc.join(timeout=max(deadline - time.monotonic(), 0))
            assert not proc.is_alive()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
    assert bob.exitcode == EXIT_HANDSHAKE
    assert relay.exitcode == EXIT_HANDSHAKE
    assert alice.exitcode != 0


def test_serve_endpoint_argument_validation():
    _params, meta = _meta(35)
    with pytest.raises(ValueError):
        serve_endpoint("alice", _session(meta))  # no address to connect to
    with pytest.raises(ValueError):
        serve_endpoint("bob", _session(meta))
    lsock = _listener()
    with pytest.raises(ValueError):
        serve_endpoint("nope", _session(meta), listen=lsock)
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
        target=lambda: codes.append(
            serve_endpoint("bob", _session(meta), listen=lsock, timeout=15)
        )
    )
    bob.start()
    with socket.create_connection(address, timeout=15) as relay:
        _greet(relay, config_digest(meta))
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
            serve_endpoint("bob", _session(meta), listen=lsock, out_dir=tmp_path, timeout=15)
        )
    )
    bob.start()
    # the relay plays Alice over a passive channel, up to her estimate
    alice = AliceMachine(params, CSS, RngStreams(37), meta=meta)
    with socket.create_connection(address, timeout=15) as relay:
        _greet(relay, config_digest(meta))
        replies = list(alice.start())
        while not any(kind is EventKind.ESTIMATE for _actor, kind, _payload in replies):
            for _actor, kind, payload in replies:
                send_event(relay, kind, payload)
            kind, payload = recv_event(relay)
            replies = list(alice.receive(Actor.BOB, kind, payload))
        send_event(relay, EventKind.ESTIMATE, {})
        bob.join(timeout=15)
        assert not bob.is_alive()
    assert codes == [EXIT_PROTOCOL]
    # Bob had logged five events by then; his partial transcript is removed
    assert _transcript_files(tmp_path) == []


def test_a_party_cut_off_midway_through_its_reply_exits_with_exit_protocol(tmp_path, capsys):
    # the relay, played here, closes Alice's link as soon as it has read her
    # permutation seed: she sends the rest of that reply on a closed link
    _params, meta = _meta(48)
    lsock = _listener()
    ended = []

    def serve():
        code = serve_endpoint(
            "alice", _session(meta), connect=lsock.getsockname(), out_dir=tmp_path, timeout=15
        )
        ended.append((code, time.monotonic()))

    alice = threading.Thread(target=serve)
    started = time.monotonic()
    alice.start()
    lsock.settimeout(15)
    with lsock:
        link, _addr = lsock.accept()
    with link:
        link.settimeout(15)
        _greet(link, config_digest(meta))
        for actor, kind, payload in _party_frames(meta):
            if actor is Actor.BOB:
                send_event(link, kind, payload)
                continue
            assert recv_event(link) == (kind, payload)
            if kind is EventKind.PERMUTATION_SEED:
                break
    alice.join(timeout=15)
    assert not alice.is_alive()
    [(code, at)] = ended
    assert code == EXIT_PROTOCOL and at - started < 5
    err = capsys.readouterr().err
    assert "[alice] session failed" in err and "Traceback" not in err
    assert _transcript_files(tmp_path) == []


def _play_to_relay(meta, frames, out_dir=None, timeout=15, pause=0.0, hold_open=False):
    """Run a relay in a thread and play both parties over its two links.

    Each (actor, kind, payload) frame goes out on its sender's link, ``pause``
    seconds after the one before, and is read back from the other link,
    until the relay stops forwarding. Then
    both links close or, with ``hold_open``, stay open and silent until the
    relay has exited. Returns the relay's exit code and the forwarded frames.
    """
    digest = config_digest(meta)
    relay_l, bob_l = _listener(), _listener()
    relay_address = relay_l.getsockname()
    codes, forwarded = [], []
    relay = threading.Thread(
        target=lambda: codes.append(serve_endpoint(
            "channel", _session(meta), listen=relay_l, connect=bob_l.getsockname(),
            out_dir=out_dir, timeout=timeout,
        ))
    )
    relay.start()
    bob_l.settimeout(15)
    # the relay holds both links before it greets Bob, then Alice
    with (
        bob_l,
        bob_l.accept()[0] as bob,
        socket.create_connection(relay_address, timeout=15) as alice,
    ):
        _greet(bob, digest)
        _greet(alice, digest)
        links = {Actor.ALICE: (alice, bob), Actor.BOB: (bob, alice)}
        try:
            for i, (actor, kind, payload) in enumerate(frames):
                time.sleep(pause if i else 0)
                out, back = links[actor]
                send_event(out, kind, payload)
                # read the forwarded frame first, so the relay's send cannot fail
                forwarded.append(recv_event(back))
        except (EOFError, OSError):
            pass  # the relay refused the frame and closed both links
        if hold_open:
            relay.join(timeout=15)
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


def test_relay_refuses_a_frame_after_the_session_ended(tmp_path, capsys):
    _params, meta = _meta(44)
    frames = _party_frames(meta)
    assert frames[-1][:2] == (Actor.BOB, EventKind.KEY_DIGEST)  # the last event
    codes, forwarded = _play_to_relay(meta, [*frames, frames[-1]], out_dir=tmp_path)
    assert codes == [EXIT_PROTOCOL] and len(forwarded) == len(frames)
    assert "key_digest arrived after the session ended" in capsys.readouterr().err
    assert _transcript_files(tmp_path) == []


def test_a_silent_party_ends_the_relay_at_its_deadline(tmp_path, capsys):
    # the parties take 0.3 s per frame, then Bob stops after Alice's bases
    # (seq 3) with his link open. The relay's 1 s deadline covers the whole
    # session: a fresh 1 s for each read would end it at 1.6 s at the earliest
    _params, meta = _meta(45)
    started = time.monotonic()
    codes, forwarded = _play_to_relay(
        meta, _party_frames(meta)[:3], out_dir=tmp_path, timeout=1, pause=0.3, hold_open=True
    )
    assert time.monotonic() - started < 1.5
    assert codes == [EXIT_PROTOCOL] and len(forwarded) == 3
    assert "session failed" in capsys.readouterr().err
    assert _transcript_files(tmp_path) == []


@pytest.mark.parametrize("role", ["bob", "alice"])
def test_a_party_deadline_covers_the_whole_session(capsys, role):
    # the relay, played here, sends the party its next two frames at 0.8 s and
    # 1.6 s and then falls silent with the link open. The party's 1 s deadline
    # covers the whole session: a fresh 1 s for each read would answer the
    # second frame and end only at 2.6 s
    _params, meta = _meta(46)
    events = run_session(*session_from_meta(meta)).transcript.events
    # each party reads what the other two say, less the QUBITS_SENT it cannot see
    unseen = 0 if role == "bob" else 1
    frames = [ev for ev in events if ev.actor is not Actor(role) and ev.seq != unseen][:2]
    lsock = _listener()
    link = {"listen": lsock} if role == "bob" else {"connect": lsock.getsockname()}
    ended = []

    def serve():
        code = serve_endpoint(role, _session(meta), timeout=1.0, **link)
        ended.append((code, time.monotonic()))

    party = threading.Thread(target=serve)
    started = time.monotonic()
    party.start()
    if role == "bob":
        relay = socket.create_connection(lsock.getsockname(), timeout=15)
    else:
        lsock.settimeout(15)
        with lsock:
            relay, _addr = lsock.accept()
    with relay:
        _greet(relay, config_digest(meta))
        for i, ev in enumerate(frames, start=1):
            time.sleep(max(started + 0.8 * i - time.monotonic(), 0))
            with contextlib.suppress(OSError):  # the party may have ended already
                send_event(relay, ev.kind, ev.payload)
        party.join(timeout=15)
    assert not party.is_alive()
    [(code, at)] = ended
    assert code == EXIT_PROTOCOL and at - started < 1.3
    assert "session failed" in capsys.readouterr().err


def test_a_party_logs_a_non_canonical_frame_as_its_canonical_line(tmp_path):
    # the relay, played here, sends Bob the delivered qubits as JSON with
    # spaces and its keys in reverse order; Bob's log encodes each event
    # itself, so his line is still run_session's
    _params, meta = _meta(49)
    ref = run_session(*session_from_meta(meta)).transcript
    lsock = _listener()
    codes = []
    bob = threading.Thread(
        target=lambda: codes.append(
            serve_endpoint("bob", _session(meta), listen=lsock, out_dir=tmp_path, timeout=15)
        )
    )
    bob.start()
    with socket.create_connection(lsock.getsockname(), timeout=15) as relay:
        _greet(relay, config_digest(meta))
        for ev in ref.events[1:]:  # Bob never sees Alice's QUBITS_SENT
            if ev.actor is Actor.BOB:
                assert recv_event(relay) == (ev.kind, ev.payload)
            elif ev.actor is Actor.CHANNEL:
                text = json.dumps(dict(sorted(ev.payload.items(), reverse=True)))
                assert json.loads(text) == ev.payload and text != canonical_json(ev.payload)
                send_frame(relay, _KIND_TAGS[ev.kind], text.encode())
            else:
                send_event(relay, ev.kind, ev.payload)
        bob.join(timeout=15)
    assert not bob.is_alive() and codes == [0]
    _header, *lines = (tmp_path / "transcript_bob.jsonl").read_text().splitlines()
    assert lines[0] == ref.events[1].to_json() == ref.event_lines()[1]
    assert lines == ref.event_lines()[1:]
