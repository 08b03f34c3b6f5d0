"""Fuzzing of every input a peer controls.

The party machines are driven to each of their states along one accepted
session, then handed an arbitrary message: any kind, any actor, and a payload
that is either an arbitrary JSON value or the session's own payload of that
kind with fields dropped, replaced or nudged. Only ``ProtocolViolation`` may
escape, and once one has, the machine refuses every later message, the
genuine rest of the session included. The same holds for the relay step at
each point of the session, with the object payloads the wire lets through,
and for Alice handed test-sample messages when her classes are too small
for the samples, so her check of their size must come before she draws them.
A recorded session with one payload so tampered never replays: replay names
that event, as a malformed field or as the first divergence, and never
raises. The wire decoder is fed arbitrary byte streams and frames; only
``FrameError`` may escape. The parameter planner, whose targets come from
the command line, is fed any valid targets; it returns a plan or raises
``ValueError``. Example budgets are bounded so the suite stays fast.
"""

import copy
import json
import re
import socket
import struct
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqkd.bounds import ParameterPlan, SecurityParams, plan_parameters
from eqkd.channel import DepolarizingPauli, RngStreams
from eqkd.codes import steane_pair
from eqkd.harness.runner import replay_verify
from eqkd.harness.wire import FrameError, recv_event
from eqkd.protocol import (
    AliceMachine,
    BobMachine,
    ProtocolParams,
    ProtocolViolation,
    SessionStatus,
    relay,
    session_meta,
)
from eqkd.transcript import Actor, Event, EventKind, SessionTranscript

CSS = steane_pair()
PARAMS = ProtocolParams(n_qubits=400, bias_p=0.3, m1=10, m2=10)
STRATEGY = DepolarizingPauli.symmetric(0.002)
SEED = 5
FUZZ = settings(max_examples=60, deadline=None, database=None)


def _snapshots():
    """Each machine and the relay in every state one accepted session passes through.

    Returns (alice states, bob states, relay states, payload of each kind,
    messages delivered to each party in order); a machine state is (machine,
    kind it expects next, or None once done), a relay state (canonical
    transcript, streams, message it relays next).
    """
    streams = RngStreams(SEED)
    canonical = SessionTranscript(meta=session_meta(PARAMS, STRATEGY, CSS, SEED))
    alice = AliceMachine(PARAMS, CSS, streams)
    bob = BobMachine(PARAMS, CSS, streams)
    list(bob.start())
    alice_states = [(copy.deepcopy(alice), None)]
    bob_states, relay_states = [], []
    payloads = {}
    delivered = {Actor.ALICE: [], Actor.BOB: []}
    queue = deque(alice.start())
    while queue:
        actor, kind, payload = queue.popleft()
        payloads.setdefault(kind, payload)
        relay_states.append((copy.deepcopy(canonical), copy.deepcopy(streams), (actor, kind)))
        ev = relay(canonical, actor, kind, payload, STRATEGY, streams)
        dest, states = (alice, alice_states) if ev.actor is Actor.BOB else (bob, bob_states)
        states.append((copy.deepcopy(dest), kind))
        delivered[dest.actor].append((ev.actor, ev.kind, ev.payload))
        queue.extend(dest.receive(ev.actor, ev.kind, ev.payload))
    assert alice.done and bob.done and alice.result.status is SessionStatus.ACCEPTED
    alice_states.append((alice, None))
    bob_states.append((bob, None))
    relay_states.append((canonical, streams, None))
    return alice_states, bob_states, relay_states, payloads, delivered


ALICE_STATES, BOB_STATES, RELAY_STATES, PAYLOADS, DELIVERED = _snapshots()

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)


def _nudged(value):
    """Values close to a valid field: off by a little, cut, padded or reordered."""
    if isinstance(value, bool) or value is None:
        return json_values
    if isinstance(value, int):
        return st.sampled_from([value - 1, value + 1, -value, 2**63, float(value), str(value)])
    if isinstance(value, str):
        return st.sampled_from(
            [value[:-1], value[:-2], value + "0", value + "00", "g" + value[1:], " " + value]
        )
    if isinstance(value, list) and value:
        return st.sampled_from(
            [value[:-1], value + [value[-1]], value[::-1], [value[0]] * len(value), [-1] + value]
        )
    return json_values


@st.composite
def payloads(draw, kind):
    """An arbitrary JSON value, or the session's payload of ``kind`` with its fields tampered."""
    if draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    out = dict(PAYLOADS[kind])
    for key in sorted(out):
        action = draw(st.sampled_from(["keep", "keep", "drop", "replace", "nudge"]))
        if action == "drop":
            del out[key]
        elif action == "replace":
            out[key] = draw(json_values)
        elif action == "nudge":
            out[key] = draw(_nudged(out[key]))
    if draw(st.booleans()):
        out[draw(st.text(max_size=8))] = draw(json_values)
    return out


@st.composite
def messages(draw, states):
    """(machine in some state, actor, kind, payload); the expected kind half the time."""
    machine, expected = draw(st.sampled_from(states))
    if expected is None or draw(st.booleans()):
        kind = draw(st.sampled_from(list(EventKind)))
    else:
        kind = expected
    return copy.deepcopy(machine), draw(st.sampled_from(list(Actor))), kind, draw(payloads(kind))


@st.composite
def violations(draw):
    """(machine, the genuine messages still due to it, a message for it).

    The machine is Alice after ``start`` or Bob, in a state short of done;
    the message is of the expected kind half the time.
    """
    states, due = draw(st.sampled_from([
        (ALICE_STATES[1:-1], DELIVERED[Actor.ALICE]),
        (BOB_STATES[:-1], DELIVERED[Actor.BOB]),
    ]))
    i = draw(st.integers(0, len(states) - 1))
    machine, expected = states[i]
    kind = expected if draw(st.booleans()) else draw(st.sampled_from(list(EventKind)))
    message = draw(st.sampled_from(list(Actor))), kind, draw(payloads(kind))
    return copy.deepcopy(machine), due[i:], message


@st.composite
def relayed(draw):
    """(canonical, streams, actor, kind, object payload); the expected message half the time."""
    canonical, streams, expected = draw(st.sampled_from(RELAY_STATES))
    if expected is None or draw(st.booleans()):
        actor = draw(st.sampled_from([Actor.ALICE, Actor.BOB]))
        expected = actor, draw(st.sampled_from(list(EventKind)))
    payload = draw(payloads(expected[1]).filter(lambda p: isinstance(p, dict)))
    return copy.deepcopy(canonical), copy.deepcopy(streams), *expected, payload


@st.composite
def tampered_records(draw):
    """(index, the recorded session with that event's payload replaced by a different one)."""
    canonical = RELAY_STATES[-1][0]
    i = draw(st.integers(0, len(canonical.events) - 1))
    ev = canonical.events[i]
    tampered = Event(ev.seq, ev.actor, ev.kind, draw(payloads(ev.kind)))
    assume(tampered.to_json() != ev.to_json())
    events = [*canonical.events[:i], tampered, *canonical.events[i + 1 :]]
    return i, SessionTranscript(meta=canonical.meta, events=events)


def _only_violations(machine, actor, kind, payload):
    try:
        list(machine.receive(actor, kind, payload))
    except ProtocolViolation:
        pass


def test_snapshots_cover_every_state():
    assert [kind for _m, kind in ALICE_STATES] == [
        None,
        EventKind.BASES_ANNOUNCED_BOB,
        EventKind.TEST_INDICES,
        EventKind.TEST_DISCLOSURE,
        EventKind.KEY_DIGEST,
        None,
    ]
    assert [kind for _m, kind in BOB_STATES] == [
        EventKind.QUBITS_SENT,
        EventKind.BASES_ANNOUNCED_ALICE,
        EventKind.ESTIMATE,
        EventKind.DECISION,
        EventKind.PERMUTATION_SEED,
        EventKind.SYNDROME_ANNOUNCEMENT,
        EventKind.KEY_DIGEST,
        None,
    ]


@FUZZ
@given(messages(ALICE_STATES))
def test_alice_raises_only_protocol_violation(message):
    _only_violations(*message)


@FUZZ
@given(messages(BOB_STATES))
def test_bob_raises_only_protocol_violation(message):
    _only_violations(*message)


def _starved_alice():
    """Alice once she has sifted classes too small for the test samples and a block."""
    params = ProtocolParams(n_qubits=200, bias_p=0.5, m1=10, m2=60)
    streams = RngStreams(SEED)
    alice, bob = AliceMachine(params, CSS, streams), BobMachine(params, CSS, streams)
    list(bob.start())
    canonical = SessionTranscript(meta=session_meta(params, STRATEGY, CSS, SEED))
    queue = deque(alice.start())
    while queue[0][:2] != (Actor.BOB, EventKind.DECISION):
        ev = relay(canonical, *queue.popleft(), STRATEGY, streams)
        receiver = alice if ev.actor is Actor.BOB else bob
        queue.extend(receiver.receive(ev.actor, ev.kind, ev.payload))
    assert alice._sample_fits is False
    return alice


STARVED_ALICE = _starved_alice()


@FUZZ
@given(payloads(EventKind.TEST_INDICES))
def test_alice_with_too_small_classes_raises_only_protocol_violation(payload):
    # her sample-size check comes before the draw, which such classes cannot hold
    _only_violations(copy.deepcopy(STARVED_ALICE), Actor.BOB, EventKind.TEST_INDICES, payload)


@FUZZ
@given(violations())
def test_a_machine_that_has_raised_refuses_every_later_message(case):
    machine, due, message = case
    try:
        list(machine.receive(*message))
    except ProtocolViolation:
        for later in (message, *due):
            with pytest.raises(ProtocolViolation):
                machine.receive(*later)
        assert machine.failed and not machine.done


@FUZZ
@given(relayed())
def test_relay_raises_only_protocol_violation(message):
    canonical, streams, actor, kind, payload = message
    try:
        relay(canonical, actor, kind, payload, STRATEGY, streams)
    except ProtocolViolation:
        pass


@FUZZ
@given(tampered_records())
def test_replay_names_the_event_whose_payload_was_replaced(case):
    i, record = case
    ok, reason = replay_verify(record)
    assert not ok and re.search(rf"\bevent {i}\b", reason), reason


def _recv_from(data: bytes):
    a, b = socket.socketpair()
    with a, b:
        b.settimeout(5)
        a.sendall(data)
        a.close()
        return recv_event(b)


def _frame(tag: int, body: bytes) -> bytes:
    return struct.pack(">I", 1 + len(body)) + bytes([tag]) + body


frames = st.one_of(
    st.binary(min_size=1, max_size=64),
    st.builds(_frame, st.integers(0, 255), st.binary(max_size=64)),
    st.builds(
        _frame,
        st.integers(0, 12),
        json_values.map(lambda v: json.dumps(v).encode()),
    ),
)


@FUZZ
@given(frames)
def test_recv_event_raises_only_frame_error(data):
    try:
        _recv_from(data)
    except FrameError:
        pass


@st.composite
def planner_inputs(draw):
    """A valid SecurityParams, with s or its (c, a_prime) law, and 0 <= lam < p_bad < 1."""
    positive = st.floats(0, 1e4, exclude_min=True)
    sec = SecurityParams(
        u=draw(st.floats(0, 1074, exclude_min=True)),
        s=draw(st.none() | positive),
        k=draw(st.integers(1, 10**6)),
        N=draw(st.integers(4, 10**12)),
        a_prime=draw(st.floats(0, 1)),
        c=draw(positive),
    )
    p_bad = draw(st.floats(0, 1, exclude_min=True, exclude_max=True))
    lam = draw(st.floats(0, p_bad, exclude_max=True))
    return sec, lam, p_bad


@FUZZ
@given(planner_inputs())
def test_planner_returns_a_plan_or_raises_value_error(case):
    try:
        assert isinstance(plan_parameters(*case), ParameterPlan)
    except ValueError:
        pass
