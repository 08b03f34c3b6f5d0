"""Three-process networked mode: sender, channel relay, receiver.

The relay sits between the parties, applies the configured channel strategy
to the qubit frame in flight, and — because every frame crosses it — writes
the canonical session transcript. The party endpoints drive exactly the same
state machines as the in-process driver, so a networked session with a given
seed produces byte-identical transcripts to ``run_session``.

Startup order is receiver, relay, sender (listeners before dialers), though
dialing retries paper over small races.
"""

from __future__ import annotations

import json
import multiprocessing
import selectors
import socket
import sys
import time
from pathlib import Path

import numpy as np

from ..channel import RngStreams, strategy_from_dict
from ..codes import css_from_meta
from ..protocol import (
    AliceMachine,
    BobMachine,
    ProtocolError,
    ProtocolParams,
    channel_transform,
    config_digest,
    session_meta,
    status_for_decision,
)
from ..transcript import Actor, EventKind, SessionTranscript, pack_bits
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


def _materialize(config: dict):
    params = ProtocolParams.from_dict(config["params"])
    strategy = strategy_from_dict(config["strategy"])
    css = css_from_meta(config["css"])
    seed = int(config["seed"])
    meta = session_meta(params, strategy, css, seed)
    return params, strategy, css, seed, meta


def _connect_retry(address: tuple[str, int], deadline: float) -> socket.socket:
    while True:
        try:
            return socket.create_connection(address, timeout=max(deadline - time.monotonic(), 0.1))
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def _accept_one(listen: tuple[str, int], deadline: float, port_report=None) -> socket.socket:
    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lsock.bind(listen)
    lsock.listen(1)
    if port_report is not None:
        port_report(lsock.getsockname()[1])
    lsock.settimeout(max(deadline - time.monotonic(), 0.1))
    try:
        conn, _addr = lsock.accept()
    finally:
        lsock.close()
    return conn


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


def _serve_alice(config, connect, out_dir, deadline) -> int:
    params, strategy, css, seed, meta = _materialize(config)
    sock = _connect_retry(connect, deadline)
    sock.settimeout(max(deadline - time.monotonic(), 0.1))
    try:
        exchange_hello(sock, config_digest(meta), initiate=True)
        machine = AliceMachine(params, css, RngStreams(seed), meta=meta)
        for _actor, kind, payload in machine.start():
            send_event(sock, kind, payload)
        while not machine.done:
            kind, payload = recv_event(sock)
            for _actor, okind, opayload in machine.receive(Actor.BOB, kind, payload):
                send_event(sock, okind, opayload)
    finally:
        sock.close()
    _write_outputs(out_dir, "alice", machine.transcript, _party_outcome_dict("alice", machine))
    return EXIT_OK


def _serve_bob(config, listen, out_dir, deadline, port_report) -> int:
    params, strategy, css, seed, meta = _materialize(config)
    sock = _accept_one(listen, deadline, port_report)
    sock.settimeout(max(deadline - time.monotonic(), 0.1))
    try:
        exchange_hello(sock, config_digest(meta), initiate=False)
        machine = BobMachine(params, css, RngStreams(seed), meta=meta)
        while not machine.done:
            kind, payload = recv_event(sock)
            actor = Actor.CHANNEL if kind is EventKind.QUBITS_SENT else Actor.ALICE
            for _actor, okind, opayload in machine.receive(actor, kind, payload):
                send_event(sock, okind, opayload)
    finally:
        sock.close()
    _write_outputs(out_dir, "bob", machine.transcript, _party_outcome_dict("bob", machine))
    return EXIT_OK


def _channel_outcome(canonical: SessionTranscript) -> dict:
    decisions = canonical.find_all(EventKind.DECISION)
    digests = [e.payload["digest"] for e in canonical.find_all(EventKind.KEY_DIGEST)]
    status = None
    if decisions:
        status = status_for_decision(decisions[-1].payload.get("status")).value
    return {
        "role": "channel",
        "status": status,
        "events": len(canonical.events),
        "digests_match": digests[0] == digests[1] if len(digests) == 2 else None,
    }


def _serve_channel(config, listen, connect, out_dir, deadline, port_report) -> int:
    params, strategy, css, seed, meta = _materialize(config)
    streams = RngStreams(seed)
    digest = config_digest(meta)
    canonical = SessionTranscript(meta=meta)

    asock = _accept_one(listen, deadline, port_report)
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
        sel.register(asock, selectors.EVENT_READ, "alice")
        sel.register(bsock, selectors.EVENT_READ, "bob")
        open_links = {"alice", "bob"}
        while open_links:
            if time.monotonic() >= deadline:
                raise FrameError("relay timed out waiting for traffic")
            for key, _mask in sel.select(timeout=0.5):
                side = key.data
                try:
                    kind, payload = recv_event(key.fileobj)
                except EOFError:
                    sel.unregister(key.fileobj)
                    open_links.discard(side)
                    continue
                if side == "alice":
                    if kind is EventKind.QUBITS_SENT:
                        canonical.append(Actor.ALICE, kind, payload)
                        delivered = channel_transform(payload, strategy, streams)
                        canonical.append(Actor.CHANNEL, kind, delivered)
                        send_event(bsock, kind, delivered)
                    else:
                        canonical.append(Actor.ALICE, kind, payload)
                        send_event(bsock, kind, payload)
                else:
                    canonical.append(Actor.BOB, kind, payload)
                    send_event(asock, kind, payload)
    finally:
        asock.close()
        bsock.close()
    canonical.validate()
    _write_outputs(out_dir, "channel", canonical, _channel_outcome(canonical))
    return EXIT_OK


def serve_endpoint(
    role: str,
    config: dict,
    listen: tuple[str, int] | None = None,
    connect: tuple[str, int] | None = None,
    out_dir=None,
    port_report=None,
    timeout: float = 30.0,
) -> int:
    """Run one endpoint to completion; returns a process exit code.

    ``alice`` needs ``connect`` (the relay), ``bob`` needs ``listen``, and
    ``channel`` needs both. ``port_report`` is called with the bound port
    once a listener is ready, which lets callers use port 0.
    """
    deadline = time.monotonic() + timeout
    try:
        if role == "alice":
            if connect is None:
                raise ValueError("alice needs an address to connect to")
            return _serve_alice(config, connect, out_dir, deadline)
        if role == "bob":
            if listen is None:
                raise ValueError("bob needs an address to listen on")
            return _serve_bob(config, listen, out_dir, deadline, port_report)
        if role == "channel":
            if listen is None or connect is None:
                raise ValueError("channel needs both listen and connect addresses")
            return _serve_channel(config, listen, connect, out_dir, deadline, port_report)
        raise ValueError(f"unknown role {role!r}; pick one of {ROLES}")
    except HandshakeError as exc:
        print(f"[{role}] handshake failed: {exc}", file=sys.stderr)
        return EXIT_HANDSHAKE
    except (FrameError, ProtocolError, EOFError, OSError) as exc:
        print(f"[{role}] session failed: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


def _endpoint_proc(role, config, listen, connect, out_dir, queue, timeout):
    code = serve_endpoint(
        role,
        config,
        listen=listen,
        connect=connect,
        out_dir=out_dir,
        port_report=None if queue is None else queue.put,
        timeout=timeout,
    )
    sys.exit(code)


def loopback_session(config: dict, out_dir, timeout: float = 30.0) -> dict:
    """Run all three endpoints as local processes over loopback TCP.

    Returns the exit code of each role. Transcripts and outcomes land in
    ``out_dir`` under the usual per-role filenames.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else methods[0])
    host = "127.0.0.1"

    bob_q = ctx.Queue()
    bob = ctx.Process(
        target=_endpoint_proc,
        args=("bob", config, (host, 0), None, out_dir, bob_q, timeout),
    )
    bob.start()
    try:
        bob_port = bob_q.get(timeout=timeout)
    except Exception:
        bob.terminate()
        raise RuntimeError("receiver never reported a port")

    relay_q = ctx.Queue()
    relay = ctx.Process(
        target=_endpoint_proc,
        args=("channel", config, (host, 0), (host, bob_port), out_dir, relay_q, timeout),
    )
    relay.start()
    try:
        relay_port = relay_q.get(timeout=timeout)
    except Exception:
        relay.terminate()
        bob.terminate()
        raise RuntimeError("relay never reported a port")

    alice = ctx.Process(
        target=_endpoint_proc,
        args=("alice", config, None, (host, relay_port), out_dir, None, timeout),
    )
    alice.start()

    codes = {}
    for name, proc in (("alice", alice), ("channel", relay), ("bob", bob)):
        proc.join(timeout=timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join()
            codes[name] = -1
        else:
            codes[name] = proc.exitcode
    return codes
