"""The benchmark's tracer patches eqkd by name; these names must keep resolving.

``perfbench/tracer.py`` wraps module globals and class attributes that it
looks up by name, so renaming or re-shaping one of them breaks the traced
benchmark without failing any eqkd test. The tracer is compiled from its
source here and never installed, so nothing under ``perfbench/`` is written
or patched.
"""

import importlib.util
import inspect
import socket
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from eqkd.channel import Passive
from eqkd.codes import reconcile_bob_blocks, steane_pair
from eqkd.harness import endpoints, wire
from eqkd.harness.endpoints import serve_endpoint
from eqkd.harness.wire import send_frame
from eqkd.protocol import (
    AliceMachine,
    BobMachine,
    ProtocolParams,
    Reply,
    session_from_meta,
    session_meta,
)
from eqkd.transcript import Event
from pipeline_oracle import pack_blocks

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_loader("perfbench_tracer", loader=None)
    module = importlib.util.module_from_spec(spec)
    exec(compile(TRACER_PATH.read_text(), str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_function_is_a_global_of_a_traced_module(tracer):
    for name, *_ in tracer.FUNCTIONS + tracer.COUNTED:
        owners = [m.__name__ for m in tracer.MODULES if callable(getattr(m, name, None))]
        assert owners, f"no module in MODULES has a global {name!r}"


def test_every_traced_method_resolves_on_its_class(tracer):
    for cls, name, *_ in tracer.METHODS:
        assert callable(cls.__dict__.get(name)), f"{cls.__name__}.{name} is not defined there"


def test_block_counter_reads_a_keys_and_ok_pair(tracer):
    pair = steane_pair()
    words = pack_blocks(np.random.default_rng(3).integers(0, 2, (40, pair.n), dtype=np.uint8))
    result = reconcile_bob_blocks(pair, words, np.zeros((40, pair.n - pair.c1.k_dim)))
    keys, ok = result
    assert keys.shape == (40, pair.k) and ok.size == 40
    counts = {"codes.blocks": 0, "codes.decode_failures": 0}
    tracer._count_blocks(counts, (), result)
    assert counts == {"codes.blocks": 40, "codes.decode_failures": 0}


def test_message_counter_counts_a_lazy_reply_and_leaves_it_whole(tracer):
    # the tracer counts a machine step's messages with len(result); a Reply
    # makes the messages not yet taken then, and still yields each of them
    made = []

    def steps():
        for message in ("first", "second", "third"):
            made.append(message)
            yield message

    reply = Reply(steps())
    assert next(reply) == "first" and made == ["first"]
    counts = Counter()
    tracer._count_messages(counts, (), reply)
    assert counts["protocol.messages"] == 2 and made == ["first", "second", "third"]
    assert list(reply) == ["second", "third"]


def test_traced_endpoint_and_frame_arguments_keep_their_positions():
    # the tracer labels an endpoint span by args[0] and dumps its spans to the
    # out_dir keyword; it counts a frame's bytes as len(args[2])
    endpoint = list(inspect.signature(serve_endpoint).parameters)
    assert endpoint[0] == "role" and "out_dir" in endpoint
    assert list(inspect.signature(send_frame).parameters) == ["sock", "tag", "payload"]


@pytest.mark.parametrize("cls", [AliceMachine, BobMachine])
def test_traced_machine_steps_keep_their_parameters(cls):
    # the tracer patches receive in the class's own __dict__ and labels each
    # step by args[2].value, the kind of the message received
    receive = cls.__dict__["receive"]
    assert list(inspect.signature(receive).parameters) == ["self", "actor", "kind", "payload"]


def _serve_three(out_dir) -> dict:
    """Run a passive N = 1500 session's three endpoints in threads; their exit codes."""
    params = ProtocolParams(n_qubits=1500, bias_p=0.3, m1=60, m2=60)
    meta = session_meta(params, Passive(), steane_pair(), 44)
    session = (*session_from_meta(meta), meta)
    bob_l, relay_l = (socket.create_server(("127.0.0.1", 0), backlog=1) for _ in range(2))
    links = {
        "bob": {"listen": bob_l},
        "channel": {"listen": relay_l, "connect": bob_l.getsockname()},
        "alice": {"connect": relay_l.getsockname()},
    }
    codes = {}
    threads = [
        threading.Thread(
            target=lambda role=role, link=link: codes.update(
                {role: serve_endpoint(role, session, out_dir=out_dir, timeout=15, **link)}
            )
        )
        for role, link in links.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    return codes


def test_endpoints_write_every_transcript_line_through_event_to_json(tmp_path, monkeypatch):
    # the tracer times Event.to_json as transcript.encode_s; a line an endpoint
    # wrote another way would fall to the endpoint's own time
    made = []
    to_json = Event.to_json

    def counted(self, *args):
        line = to_json(self, *args)
        made.append(line)
        return line

    monkeypatch.setattr(Event, "to_json", counted)
    assert _serve_three(tmp_path) == {"alice": 0, "channel": 0, "bob": 0}
    written = Counter(
        line
        for role in ("alice", "channel", "bob")
        for line in (tmp_path / f"transcript_{role}.jsonl").read_text().splitlines()[1:]
    )
    assert sum(written.values()) == 11 + 12 + 11  # each party misses one QUBITS_SENT
    assert not written - Counter(made)


def test_endpoints_read_every_frame_through_recv_event_and_recv_hello(monkeypatch):
    # the tracer times waiting by patching endpoints.recv_event by name; an
    # endpoint that bound it, or recv_hello, another way would wait untimed
    frames, through = Counter(), Counter()

    def counting(counts, key, read):
        def wrapper(*args):
            got = read(*args)
            counts[key] += 1
            return got

        return wrapper

    monkeypatch.setattr(wire, "recv_frame", counting(frames, "frame", wire.recv_frame))
    for name in ("recv_event", "recv_hello"):
        monkeypatch.setattr(endpoints, name, counting(through, name, getattr(endpoints, name)))
    assert _serve_three(None) == {"alice": 0, "channel": 0, "bob": 0}
    # each party hears the relay's hello, the relay both parties'; 11 party
    # events reach the relay, and 11 frames leave it, the delivered qubits
    # in place of Alice's
    assert through == {"recv_hello": 4, "recv_event": 22}
    assert frames["frame"] == 4 + 22
