"""Three-process networked mode: sender, channel relay, receiver.

The relay sits between the parties, applies the configured channel strategy
to the qubit frame in flight, and — because every frame crosses it — writes
the canonical session transcript. The party endpoints drive exactly the same
state machines as the in-process driver, so a networked session with a given
seed produces byte-identical transcripts to ``run_session``. A party starts
its machine between sending its hello and reading the relay's, so Alice's
qubits and Bob's bases are made while the relay answers. It sends each
message of its reply as soon as the machine has made it, so the peer works
on it while the party does the work that follows.

Listeners are bound before any endpoint starts, and every link sets
``TCP_NODELAY``: the protocol is a chain of small request/response frames,
which Nagle's algorithm would hold back for the peer's delayed ACK. An
endpoint runs the session it is handed, built once by its caller, and
decodes no configuration itself. It writes its transcript line by line
while the session runs and keeps it only if the session succeeds. A payload
an endpoint sends is encoded once: its frame and its transcript line share
that text. No endpoint imports a module during its session, which a forked
child would pay for in each one.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import multiprocessing
import socket
import sys
import time
from pathlib import Path

import numpy as np

from ..channel import RngStreams
from ..protocol import (
    AliceMachine,
    BobMachine,
    ProtocolError,
    ProtocolViolation,
    config_digest,
    read_payload,
    relay,
    session_from_meta,
    session_meta,
)
from ..transcript import Actor, EventKind, SessionTranscript, TranscriptError, pack_bits
from .wire import (
    FrameError,
    HandshakeError,
    check_hello,
    recv_event,
    recv_hello,
    send_event,
    send_hello,
)

EXIT_OK = 0
EXIT_HANDSHAKE = 1
EXIT_PROTOCOL = 2

ROLES = ("alice", "channel", "bob")


def start_context() -> multiprocessing.context.BaseContext:
    """The start method for every child this package starts: fork where it exists.

    numpy imports ``numpy.random`` lazily, so a child forked before the first
    draw imports it again (about 15 ms); importing it here, just before a
    fork, lets every child inherit it.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" not in methods:
        return multiprocessing.get_context(methods[0])
    importlib.import_module("numpy.random")
    return multiprocessing.get_context("fork")


def _no_delay(sock: socket.socket) -> socket.socket:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _connect_retry(address: tuple[str, int], deadline: float) -> socket.socket:
    host, port = address  # an ASCII host as bytes skips the IDNA codec a str host imports
    address = (host.encode("ascii") if host.isascii() else host, port)
    while True:
        try:
            sock = socket.create_connection(address, timeout=max(deadline - time.monotonic(), 0.1))
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
        else:
            return _no_delay(sock)


def _accept_one(lsock: socket.socket, deadline: float) -> socket.socket:
    """Accept one link on ``lsock``, then close the listener."""
    with lsock:
        conn, _addr = _time_left(lsock, deadline).accept()
    return _no_delay(conn)


def _time_left(sock: socket.socket, deadline: float) -> socket.socket:
    """``sock``, set to time out at ``deadline``; a deadline already passed is a TimeoutError."""
    if (left := deadline - time.monotonic()) <= 0:
        raise TimeoutError("the endpoint's deadline has passed")
    sock.settimeout(left)
    return sock


def _party_outcome_dict(role: str, machine) -> dict:
    res = machine.result
    est = res.estimate
    key = res.key
    return {
        "role": role,
        "status": res.status.value,
        "estimate": None
        if est is None
        else {"r1": est.r1, "m1": est.m1, "r2": est.r2, "m2": est.m2},
        "num_blocks": res.num_blocks,
        "key_bits": 0 if key is None else int(key.size),
        "key": None if key is None else pack_bits(np.asarray(key)),
        "own_digest": res.own_digest,
        "peer_digest": res.peer_digest,
        "digests_match": None
        if res.own_digest is None
        else res.own_digest == res.peer_digest,
    }


@contextlib.contextmanager
def _transcript_log(out_dir, role: str, transcript: SessionTranscript):
    """Write ``role``'s transcript as the session runs; keep it only if the block succeeds.

    Yields a function that appends the events logged since its last call to
    ``transcript_<role>.jsonl.partial``, one ``Event.to_json`` line each. Its
    ``sent`` maps the (actor, kind) of each event this end sent to the text
    ``send_event`` sent, which that event's line reuses; the grammar allows
    each pair once. When the block ends without an error the file holds
    ``transcript.to_jsonl()`` and is renamed to ``transcript_<role>.jsonl``;
    on any error it is removed. Without an ``out_dir`` nothing is written.
    Its lines are encoded by ``str.encode``, which, unlike a text file, imports no codec.
    """
    if out_dir is None:
        yield lambda sent: None
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    partial = out / f"transcript_{role}.jsonl.partial"
    written = 0

    def write_new(sent: dict) -> None:
        nonlocal written
        for ev in transcript.events[written:]:
            log.write(ev.to_json(sent.get((ev.actor, ev.kind))).encode("ascii"))
            log.write(b"\n")
        written = len(transcript.events)

    try:
        with open(partial, "wb") as log:
            log.write(transcript.meta_line().encode("ascii") + b"\n")
            yield write_new
            write_new({})
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    partial.replace(out / f"transcript_{role}.jsonl")


def _write_outcome(out_dir, role: str, outcome: dict) -> None:
    if out_dir is not None:
        (Path(out_dir) / f"outcome_{role}.json").write_text(json.dumps(outcome, indent=2) + "\n")


def _serve_party(role, session, link, out_dir, deadline) -> int:
    """One party's endpoint: Alice dials the relay at ``link``, Bob accepts it on ``link``."""
    params, _strategy, css, seed, meta = session
    digest = config_digest(meta)
    alice = role == "alice"
    machine = (AliceMachine if alice else BobMachine)(params, css, RngStreams(seed), meta=meta)
    with (_connect_retry(link, deadline) if alice else _accept_one(link, deadline)) as sock:
        send_hello(sock, digest)
        outgoing = machine.start()  # Alice's qubits or Bob's bases, made while the relay answers
        check_hello(recv_hello(_time_left(sock, deadline)), digest)
        with _transcript_log(out_dir, role, machine.transcript) as write_log:
            while True:
                sent = {}  # each message is made as it is taken: the peer works on it meanwhile
                for actor, kind, payload in outgoing:
                    sent[actor, kind] = send_event(sock, kind, payload)
                write_log(sent)  # while the peer works on what was just sent
                if machine.done:
                    break
                sender = machine.transcript.speaker
                kind, payload = recv_event(_time_left(sock, deadline))
                outgoing = machine.receive(sender, kind, payload)
    _write_outcome(out_dir, role, _party_outcome_dict(role, machine))
    return EXIT_OK


def _channel_outcome(canonical: SessionTranscript) -> dict:
    """The relay's summary; the decisions and digests are read through the payload table."""
    sizes = {"n": canonical.meta["params"]["n_qubits"]}  # a digest's key length is at most N

    def read(kind: EventKind, field: str) -> list:
        return [read_payload(kind, e.payload, sizes)[field] for e in canonical.find_all(kind)]

    decisions, digests = read(EventKind.DECISION, "status"), read(EventKind.KEY_DIGEST, "digest")
    return {
        "role": "channel",
        "status": decisions[-1].value if decisions else None,
        "events": len(canonical.events),
        "digests_match": digests[0] == digests[1] if len(digests) == 2 else None,
    }


def _serve_channel(session, listen, connect, out_dir, deadline) -> int:
    """The relay: it dials Bob at ``connect`` and accepts Alice on ``listen``, then greets both.

    It reads only the party its transcript names as the next speaker, until
    an event ends the session; then each link must close without another
    frame. Its transcript is kept only once ``_channel_outcome`` has read it.
    """
    _params, strategy, _css, seed, meta = session
    streams = RngStreams(seed)
    digest = config_digest(meta)
    canonical = SessionTranscript(meta=meta)

    # both links are held before either hello, so a failed handshake closes both at once
    with _connect_retry(connect, deadline) as bsock, _accept_one(listen, deadline) as asock:
        for sock in (bsock, asock):
            send_hello(sock, digest)
        for sock in (bsock, asock):
            check_hello(recv_hello(_time_left(sock, deadline)), digest)
        links = {Actor.ALICE: (asock, bsock), Actor.BOB: (bsock, asock)}
        with _transcript_log(out_dir, "channel", canonical) as write_log:
            while not canonical.ended:
                actor = canonical.speaker
                sock, peer = links[actor]
                kind, payload = recv_event(_time_left(sock, deadline))
                ev = relay(canonical, actor, kind, payload, strategy, streams)
                write_log({(ev.actor, ev.kind): send_event(peer, ev.kind, ev.payload)})
            for sock in (sock, peer):  # the last speaker's link first
                with contextlib.suppress(EOFError):
                    kind, _payload = recv_event(_time_left(sock, deadline))
                    raise ProtocolViolation(f"{kind.value} arrived after the session ended")
            outcome = _channel_outcome(canonical)
    _write_outcome(out_dir, "channel", outcome)
    return EXIT_OK


def serve_endpoint(
    role: str,
    session: tuple,
    listen: socket.socket | None = None,
    connect: tuple[str, int] | None = None,
    out_dir=None,
    timeout: float = 30.0,
) -> int:
    """Run one endpoint of ``session`` to completion; returns a process exit code.

    ``session`` is the built session ``(params, strategy, css, seed, meta)``:
    ``session_from_meta``'s four values and the ``session_meta`` they record.
    The endpoint runs it as it is handed and certifies nothing again.
    ``alice`` needs ``connect`` (the relay's address), ``bob`` needs
    ``listen``, and ``channel`` needs both. ``listen`` is a listening socket
    the caller bound; the endpoint accepts one link on it and closes it,
    whatever the outcome.
    """
    deadline = time.monotonic() + timeout
    try:
        if role == "alice":
            if connect is None:
                raise ValueError("alice needs an address to connect to")
            return _serve_party(role, session, connect, out_dir, deadline)
        if role == "bob":
            if listen is None:
                raise ValueError("bob needs a socket to listen on")
            return _serve_party(role, session, listen, out_dir, deadline)
        if role == "channel":
            if listen is None or connect is None:
                raise ValueError("channel needs a socket to listen on and an address to connect to")
            return _serve_channel(session, listen, connect, out_dir, deadline)
        raise ValueError(f"unknown role {role!r}; pick one of {ROLES}")
    except HandshakeError as exc:
        print(f"[{role}] handshake failed: {exc}", file=sys.stderr)
        return EXIT_HANDSHAKE
    # a UnicodeError is a host name the IDNA codec refuses
    except (FrameError, ProtocolError, TranscriptError, EOFError, OSError, UnicodeError) as exc:
        print(f"[{role}] session failed: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    finally:
        if listen is not None:
            listen.close()


def _endpoint_proc(role, session, listen, connect, out_dir, timeout, foreign):
    # a forked child inherits every listener; it keeps only the one it serves,
    # so a dial to a dead endpoint is refused instead of queued
    for sock in foreign:
        sock.close()
    sys.exit(
        serve_endpoint(
            role, session, listen=listen, connect=connect, out_dir=out_dir, timeout=timeout
        )
    )


def loopback_session(config: dict, out_dir, timeout: float = 30.0) -> dict:
    """Run the three endpoints of ``config``'s session as local processes over loopback TCP.

    The session is built here, once, and handed to each endpoint as an
    argument, so no endpoint certifies the code pair again: a forked one
    inherits it, a spawned one unpickles it. A malformed config, or one of
    another draw contract, is a ValueError here, before anything is bound or
    started. Both listeners are bound before any endpoint starts, so all
    three start at once. Returns the exit code of each role. Transcripts and
    outcomes land in ``out_dir`` under the usual per-role filenames.
    """
    built = session_from_meta(config)
    session = (*built, session_meta(*built))
    ctx = start_context()
    procs = {}
    with (
        socket.create_server(("127.0.0.1", 0), backlog=1) as bob_l,
        socket.create_server(("127.0.0.1", 0), backlog=1) as relay_l,
    ):
        links = {
            "alice": (None, relay_l.getsockname()),
            "channel": (relay_l, bob_l.getsockname()),
            "bob": (bob_l, None),
        }
        try:
            for name, (listen, connect) in links.items():
                foreign = [s for s in (bob_l, relay_l) if s is not listen]
                proc = ctx.Process(
                    target=_endpoint_proc,
                    args=(name, session, listen, connect, out_dir, timeout, foreign),
                )
                proc.start()
                procs[name] = proc  # only a started endpoint is one to stop and reap
        except BaseException:
            for proc in procs.values():
                proc.terminate()
                proc.join()
            raise

    codes = {}
    for name, proc in procs.items():
        proc.join(timeout=timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join()
            codes[name] = -1
        else:
            codes[name] = proc.exitcode
        proc.close()
    return codes
