"""Three-process networked mode: sender, channel relay, receiver.

The relay sits between the parties, applies the configured channel strategy
to the qubit frame in flight, and — because every frame crosses it — writes
the canonical session transcript. The party endpoints drive exactly the same
state machines as the in-process driver, so a networked session with a given
seed produces byte-identical transcripts to ``run_session``.

Listeners are bound before any endpoint starts, and every link sets
``TCP_NODELAY``: the protocol is a chain of small request/response frames,
which Nagle's algorithm would hold back for the peer's delayed ACK.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import selectors
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
    exchange_hello,
    recv_event,
    send_event,
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


def _materialize(config: dict):
    params, strategy, css, seed = session_from_meta(config)
    return params, strategy, css, seed, session_meta(params, strategy, css, seed)


def _no_delay(sock: socket.socket) -> socket.socket:
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _connect_retry(address: tuple[str, int], deadline: float) -> socket.socket:
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
    lsock.settimeout(max(deadline - time.monotonic(), 0.1))
    try:
        conn, _addr = lsock.accept()
    finally:
        lsock.close()
    return _no_delay(conn)


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


def _write_outputs(out_dir, role: str, transcript: SessionTranscript, outcome: dict) -> None:
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"transcript_{role}.jsonl").write_text(transcript.to_jsonl())
    (out / f"outcome_{role}.json").write_text(json.dumps(outcome, indent=2) + "\n")


def _serve_party(role, config, link, out_dir, deadline) -> int:
    """One party's endpoint: Alice dials the relay at ``link``, Bob accepts it on ``link``."""
    params, strategy, css, seed, meta = _materialize(config)
    alice = role == "alice"
    sock = _connect_retry(link, deadline) if alice else _accept_one(link, deadline)
    sock.settimeout(max(deadline - time.monotonic(), 0.1))
    try:
        exchange_hello(sock, config_digest(meta), initiate=alice)
        machine = (AliceMachine if alice else BobMachine)(params, css, RngStreams(seed), meta=meta)
        peer = Actor.BOB if alice else Actor.ALICE
        for _actor, kind, payload in machine.start() if alice else []:
            send_event(sock, kind, payload)
        while not machine.done:
            kind, payload = recv_event(sock)
            # the relay delivers the qubits; every other frame is the peer's own
            sender = Actor.CHANNEL if kind is EventKind.QUBITS_SENT else peer
            for _actor, okind, opayload in machine.receive(sender, kind, payload):
                send_event(sock, okind, opayload)
    finally:
        sock.close()
    _write_outputs(out_dir, role, machine.transcript, _party_outcome_dict(role, machine))
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


def _serve_channel(config, listen, connect, out_dir, deadline) -> int:
    params, strategy, css, seed, meta = _materialize(config)
    streams = RngStreams(seed)
    digest = config_digest(meta)
    canonical = SessionTranscript(meta=meta)

    asock = _accept_one(listen, deadline)
    asock.settimeout(max(deadline - time.monotonic(), 0.1))
    try:
        exchange_hello(asock, digest, initiate=False)
        bsock = _connect_retry(connect, deadline)
        bsock.settimeout(max(deadline - time.monotonic(), 0.1))
    except BaseException:
        asock.close()
        raise
    try:
        exchange_hello(bsock, digest, initiate=True)
        sel = selectors.DefaultSelector()
        sel.register(asock, selectors.EVENT_READ, (Actor.ALICE, bsock))
        sel.register(bsock, selectors.EVENT_READ, (Actor.BOB, asock))
        open_links = 2
        while open_links:
            if time.monotonic() >= deadline:
                raise FrameError("relay timed out waiting for traffic")
            for key, _mask in sel.select(timeout=0.5):
                actor, peer = key.data
                try:
                    kind, payload = recv_event(key.fileobj)
                except EOFError:
                    sel.unregister(key.fileobj)
                    open_links -= 1
                    continue
                ev = relay(canonical, actor, kind, payload, strategy, streams)
                send_event(peer, ev.kind, ev.payload)
    finally:
        asock.close()
        bsock.close()
    canonical.validate()
    _write_outputs(out_dir, "channel", canonical, _channel_outcome(canonical))
    return EXIT_OK


def serve_endpoint(
    role: str,
    config: dict,
    listen: socket.socket | None = None,
    connect: tuple[str, int] | None = None,
    out_dir=None,
    timeout: float = 30.0,
) -> int:
    """Run one endpoint to completion; returns a process exit code.

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
            return _serve_party(role, config, connect, out_dir, deadline)
        if role == "bob":
            if listen is None:
                raise ValueError("bob needs a socket to listen on")
            return _serve_party(role, config, listen, out_dir, deadline)
        if role == "channel":
            if listen is None or connect is None:
                raise ValueError("channel needs a socket to listen on and an address to connect to")
            return _serve_channel(config, listen, connect, out_dir, deadline)
        raise ValueError(f"unknown role {role!r}; pick one of {ROLES}")
    except HandshakeError as exc:
        print(f"[{role}] handshake failed: {exc}", file=sys.stderr)
        return EXIT_HANDSHAKE
    except (FrameError, ProtocolError, TranscriptError, EOFError, OSError) as exc:
        print(f"[{role}] session failed: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    finally:
        if listen is not None:
            listen.close()


def _endpoint_proc(role, config, listen, connect, out_dir, timeout, foreign):
    # a forked child inherits every listener; it keeps only the one it serves,
    # so a dial to a dead endpoint is refused instead of queued
    for sock in foreign:
        sock.close()
    sys.exit(
        serve_endpoint(
            role, config, listen=listen, connect=connect, out_dir=out_dir, timeout=timeout
        )
    )


def loopback_session(config: dict, out_dir, timeout: float = 30.0) -> dict:
    """Run all three endpoints as local processes over loopback TCP.

    Both listeners are bound before any endpoint starts, so all three start
    at once. Returns the exit code of each role. Transcripts and outcomes
    land in ``out_dir`` under the usual per-role filenames. A malformed
    config, or one of another draw contract, is a ValueError here, before
    anything is bound or started.
    """
    session_from_meta(config)
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
                    args=(name, config, listen, connect, out_dir, timeout, foreign),
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
