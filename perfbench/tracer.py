"""Timing wrappers around each eqkd layer, and the per-op attribution of time.

The wrappers are installed from outside the package: every module in
``MODULES`` resolves the names it imported (``transmit``, ``pack_bits``, ...)
through its globals at call time, so replacing those globals, and a few class
attributes, times every call without an edit under ``src/``. Endpoint
processes forked by the loopback mode inherit the wrappers; each child writes
its own spans to ``trace_<role>.json`` in the session's output directory when
``serve_endpoint`` returns.

A span is ``(id, parent_id, label, t0, t1)`` with ``id = (pid, n)``. Times come
from ``time.perf_counter``, which is CLOCK_MONOTONIC on Linux and therefore
comparable across the forked processes.
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter
from pathlib import Path
from time import perf_counter

import eqkd.harness.endpoints
import eqkd.harness.runner
import eqkd.harness.wire
import eqkd.protocol
from eqkd.channel import RngStreams
from eqkd.protocol import AliceMachine, BobMachine, _PartyMachine
from eqkd.transcript import Event, SessionTranscript

MODULES = (
    eqkd.protocol,
    eqkd.harness.runner,
    eqkd.harness.endpoints,
    eqkd.harness.wire,
)


def _count_symbols(counts, args):
    counts["channel.symbols"] += len(args[0])


def _count_new_stream(counts, args):
    counts["channel.rng_streams"] += args[1] not in args[0]._streams


def _count_frame(counts, args):
    counts["harness.wire.frames"] += 1
    counts["harness.wire.bytes"] += 5 + len(args[2])  # length prefix, tag, payload


def _count_messages(counts, args, result):
    counts["protocol.messages"] += len(result)


def _count_blocks(counts, args, result):
    ok = result[1]
    counts["codes.blocks"] += int(ok.size)
    counts["codes.decode_failures"] += int(ok.size - ok.sum())


def _step_label(owner: str):
    def label(args):
        if len(args) == 1:
            return f"{owner}.start"
        return f"{owner}.receive:{args[2].value}"

    return label


# (name, label or label(args), before(counts, args), after(counts, args, result))
FUNCTIONS = (
    ("transmit", "transmit", _count_symbols, None),
    ("alice_prepare", "alice_prepare", None, None),
    ("bob_measure", "bob_measure", None, None),
    ("block_permutations", "block_permutations", None, None),
    ("reconcile_alice_blocks", "reconcile_alice_blocks", None, None),
    ("reconcile_bob_blocks", "reconcile_bob_blocks", None, _count_blocks),
    ("pack_bits", "pack_bits", None, None),
    ("unpack_bits", "unpack_bits", None, None),
    ("key_digest_payload", "key_digest_payload", None, None),
    ("run_session", "run_session", None, None),
    ("run_trial", "run_trial", None, None),
    ("send_event", "send_event", None, None),
    ("recv_event", "recv_event", None, None),
    ("serve_endpoint", lambda args: f"serve_endpoint:{args[0]}", None, None),
)

# send_frame is counted, not timed: it always runs inside a send_event or
# handshake call, whose time it belongs to.
COUNTED = (("send_frame", _count_frame),)

METHODS = (
    (AliceMachine, "start", _step_label("AliceMachine"), None, _count_messages),
    (AliceMachine, "receive", _step_label("AliceMachine"), None, _count_messages),
    (BobMachine, "receive", _step_label("BobMachine"), None, _count_messages),
    (_PartyMachine, "_raw_key_layout", "_raw_key_layout", None, None),
    (RngStreams, "stream", "RngStreams.stream", _count_new_stream, None),
    (SessionTranscript, "to_jsonl", "SessionTranscript.to_jsonl", None, None),
    (Event, "to_json", "Event.to_json", None, None),
)


class Tracer:
    """Span and count recorder; ``install`` patches the layers, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple] = []
        self._ids = itertools.count()
        self._pid = os.getpid()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, label, before, after):
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer.counts, args)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = (tracer._pid, next(tracer._ids))
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                name = label if isinstance(label, str) else label(args)
                tracer.spans.append((sid, parent, name, t0, t1))
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return traced

    def _wrap_count(self, fn, before):
        counts = self.counts

        def counted(*args, **kwargs):
            before(counts, args)
            return fn(*args, **kwargs)

        return counted

    def _wrap_endpoint(self, traced_serve):
        """Child-process entry: keep only this process's spans, dump them on return."""
        tracer = self

        def serve(role, config, *args, out_dir=None, **kwargs):
            tracer._pid = os.getpid()
            tracer.spans = []
            tracer.counts.clear()
            try:
                return traced_serve(role, config, *args, out_dir=out_dir, **kwargs)
            finally:
                if out_dir is not None:
                    Path(out_dir).mkdir(parents=True, exist_ok=True)
                    dump = {"spans": tracer.spans, "counts": dict(tracer.counts)}
                    (Path(out_dir) / f"trace_{role}.json").write_text(json.dumps(dump))

        return serve

    def root(self):
        """Open the op's root span; returns a callable that closes it."""
        sid = (self._pid, next(self._ids))
        self._stack.append(sid)
        t0 = perf_counter()

        def close():
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, None, "op", t0, t1))
            return sid

        return close

    def load_child_traces(self, out_dir) -> None:
        for path in sorted(Path(out_dir).glob("trace_*.json")):
            dump = json.loads(path.read_text())
            for sid, parent, name, t0, t1 in dump["spans"]:
                self.spans.append((tuple(sid), tuple(parent), name, t0, t1))
            self.counts.update(dump["counts"])

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, label, before, after in FUNCTIONS:
            for original in {getattr(m, name) for m in MODULES if hasattr(m, name)}:
                traced = self._wrap(original, label, before, after)
                if name == "serve_endpoint":
                    traced = self._wrap_endpoint(traced)
                for module in MODULES:
                    if getattr(module, name, None) is original:
                        self._patch(module, name, traced)
        for name, before in COUNTED:
            for module in MODULES:
                if hasattr(module, name):
                    self._patch(module, name, self._wrap_count(getattr(module, name), before))
        for cls, name, label, before, after in METHODS:
            self._patch(cls, name, self._wrap(cls.__dict__[name], label, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Attribution of an op's wall time to layer metrics
# ---------------------------------------------------------------------------

_METRIC = {
    "transmit": "channel.transmit_s",
    "RngStreams.stream": "channel.rng_streams_s",
    "alice_prepare": "protocol.prepare_s",
    "bob_measure": "protocol.measure_s",
    "AliceMachine.receive:bases_announced_bob": "protocol.sift_s",
    "BobMachine.receive:bases_announced_alice": "protocol.sift_s",
    "_raw_key_layout": "protocol.sift_s",
    "AliceMachine.receive:test_disclosure": "protocol.estimate_s",
    "key_digest_payload": "protocol.digest_s",
    "run_session": "protocol.self_s",
    "block_permutations": "codes.permute_s",
    "reconcile_alice_blocks": "codes.reconcile_alice_s",
    "reconcile_bob_blocks": "codes.reconcile_bob_s",
    "pack_bits": "transcript.pack_s",
    "unpack_bits": "transcript.unpack_s",
    "Event.to_json": "transcript.encode_s",
    "SessionTranscript.to_jsonl": "transcript.encode_s",
    "run_trial": "harness.runner.overhead_s",
    "send_event": "harness.wire.send_s",
    "recv_event": "harness.wire.recv_s",
    "serve_endpoint:alice": "harness.endpoints.alice_s",
    "serve_endpoint:channel": "harness.endpoints.channel_s",
    "serve_endpoint:bob": "harness.endpoints.bob_s",
}

# When several processes are inside spans at one instant, the instant goes to
# the highest class present, shared equally among its spans: work in a layer,
# then endpoint code outside any layer call (sockets, select, set-up), then
# waiting in recv_event, and last the op root alone.
_BUSY, _ENDPOINT, _WAIT, _ROOT = 3, 2, 1, 0


def _metric_and_class(name: str, context: str | None) -> tuple[str, int]:
    if context == "run_trial":
        # everything run_trial does outside run_session is runner overhead
        return "harness.runner.overhead_s", _BUSY
    if name.startswith("serve_endpoint:"):
        return _METRIC[name], _ENDPOINT
    if name == "recv_event":
        return _METRIC[name], _WAIT
    if name in _METRIC:
        return _METRIC[name], _BUSY
    if name.startswith(("AliceMachine.", "BobMachine.")):
        return "protocol.steps_s", _BUSY
    raise KeyError(f"no metric for span {name!r}")


def attribute(spans: list[tuple], root_id: tuple, root_metric: str) -> dict:
    """Split the root span's wall time over layer metrics.

    Each span contributes its self intervals (its duration minus what its
    children cover). Within one process these never overlap, so a one-process
    op is split exactly by self time. Across the loopback processes an
    instant is shared as ``_BUSY`` etc. describe. The result's values add up
    to the root's duration.
    """
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    root = by_id[root_id]
    lo, hi = root[3], root[4]

    contexts: dict = {}

    def context_of(sid):
        if sid not in contexts:
            _, parent, name, _, _ = by_id[sid]
            if name in ("run_trial", "run_session"):
                contexts[sid] = name
            else:
                contexts[sid] = None if parent is None else context_of(parent)
        return contexts[sid]

    segments = []  # (t0, t1, metric, class)
    todo = [root]
    while todo:
        sid, parent, name, t0, t1 = span = todo.pop()
        kids = sorted(children.get(sid, ()), key=lambda k: k[3])
        todo.extend(kids)
        if span is root:
            metric, cls = root_metric, _ROOT
        else:
            metric, cls = _metric_and_class(name, context_of(sid))
        cursor = max(t0, lo)
        for kid in kids:
            if kid[3] > cursor:
                segments.append((cursor, min(kid[3], hi), metric, cls))
            cursor = max(cursor, kid[4])
        if min(t1, hi) > cursor:
            segments.append((cursor, min(t1, hi), metric, cls))

    events = sorted(
        [(s[0], 1, i) for i, s in enumerate(segments) if s[1] > s[0]]
        + [(s[1], 0, i) for i, s in enumerate(segments) if s[1] > s[0]]
    )
    totals: Counter = Counter()
    active: set = set()
    prev = lo
    for t, opening, i in events:
        if active and t > prev:
            top = max(segments[j][3] for j in active)
            winners = [j for j in active if segments[j][3] == top]
            share = (t - prev) / len(winners)
            for j in winners:
                totals[segments[j][2]] += share
        prev = t
        if opening:
            active.add(i)
        else:
            active.discard(i)
    return dict(totals)
