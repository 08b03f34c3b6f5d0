"""Every payload a party, the relay or replay reads goes through the payload table.

``protocol.PAYLOADS`` states each message kind's exact field set and each
field's shape, and ``protocol.read_payload`` is the one reader of it. An AST
scan of the modules that handle received payloads fails on any subscript or
``.get`` of a name or attribute called ``payload`` outside that reader, so a
new handler cannot read a field the table does not check. The harness
reaches the protocol through its public names only.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from eqkd.codes import steane_pair
from eqkd.protocol import (
    PAYLOADS,
    ProtocolParams,
    ProtocolViolation,
    SessionStatus,
    read_payload,
    run_session,
    session_sizes,
)
from eqkd.transcript import EventKind
from test_golden import REPLAYED, _ids

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqkd"
SCANNED = ["protocol.py", "harness/endpoints.py", "harness/runner.py"]
READER = "read_payload"
SIZES = session_sizes(ProtocolParams(n_qubits=40, bias_p=0.5, m1=2, m2=3), steane_pair(), 31)


def _is_payload(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "payload") or (
        isinstance(node, ast.Attribute) and node.attr == "payload"
    )


def _field_reads_outside_the_reader(tree: ast.Module) -> list[int]:
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == READER
        for node in ast.walk(fn)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            (isinstance(node, ast.Subscript) and _is_payload(node.value))
            or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and _is_payload(node.func.value)
            )
        )
    ]


def test_the_scan_sees_both_forms_outside_the_reader_only():
    tree = ast.parse(
        "def read_payload(kind, payload, sizes):\n"
        "    return payload['n'], payload.get('n')\n"
        "def handler(ev, payload):\n"
        "    a = payload['n']\n"
        "    b = ev.payload.get('status')\n"
        "    c = ev.payload['digest']\n"
        "    d = payload.get('x', 0)\n"
        "    e = digest_payload['digest'], fields['n'], ev.payload\n"
    )
    assert _field_reads_outside_the_reader(tree) == [4, 5, 6, 7]


def test_payload_fields_are_read_only_through_the_table():
    trees = {name: ast.parse((PACKAGE / name).read_text()) for name in SCANNED}
    readers = [
        name for name, tree in trees.items() for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == READER
    ]
    assert readers == ["protocol.py"]
    found = {
        name: lines
        for name, tree in trees.items()
        if (lines := _field_reads_outside_the_reader(tree))
    }
    assert not found, f"payload fields read outside {READER}: {found}"


def test_the_harness_imports_no_private_protocol_name():
    private = [
        alias.name
        for path in (PACKAGE / "harness").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "protocol"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_the_table_covers_every_kind():
    assert set(PAYLOADS) == set(EventKind)


def test_read_payload_decodes_each_shape():
    # announced bases stay the bytes pack_bits packed; the qubits' are unpacked
    announced = {"n": 40, "bases": "80000000c1"}
    assert read_payload(EventKind.BASES_ANNOUNCED_BOB, announced, SIZES)["bases"] == bytes.fromhex("80000000c1")
    sent = read_payload(EventKind.QUBITS_SENT, {**announced, "bits": "00" * 5}, SIZES)
    assert sent["bases"].tolist() == [1] + [0] * 31 + [1, 1, 0, 0, 0, 0, 0, 1]
    assert read_payload(EventKind.TEST_INDICES, {"seed": 2**63 - 1}, SIZES) == {"seed": 2**63 - 1}
    decision = read_payload(EventKind.DECISION, {"status": "proceed"}, SIZES)
    assert decision == {"status": SessionStatus.ACCEPTED}
    digest = {"algo": "sha256", "bits": 40, "digest": "ab" * 32}
    assert read_payload(EventKind.KEY_DIGEST, digest, SIZES) == digest


# an upper-case digit, a character short, a pad bit set, and not a string
@pytest.mark.parametrize("bases", ["ABCDEF0000", "0" * 9, "0000000001", 17])
@pytest.mark.parametrize("kind", [EventKind.BASES_ANNOUNCED_BOB, EventKind.BASES_ANNOUNCED_ALICE])
def test_packed_bases_refuse_what_unpacked_bases_refuse(kind, bases):
    sizes = {**SIZES, "n": 37}  # 5 bytes, the last with 3 pad bits
    with pytest.raises(ProtocolViolation) as unpacked:
        read_payload(EventKind.QUBITS_SENT, {"n": 37, "bases": bases, "bits": "00" * 5}, sizes)
    with pytest.raises(ProtocolViolation) as packed:
        read_payload(kind, {"n": 37, "bases": bases}, sizes)
    assert str(packed.value) == str(unpacked.value)
    assert str(packed.value).startswith(f"'bases' is {bases!r}, expected 37 bits as hex (")


@pytest.mark.parametrize(
    "kind, payload, named",
    [
        (EventKind.DECISION, ["proceed"], "decision is a list"),
        (EventKind.DECISION, {"status": "proceed", "x": 1}, "'x' is not a field"),
        (EventKind.KEY_DIGEST, {"bits": 40}, "'algo', 'digest' are missing"),
        (EventKind.ESTIMATE, {"r1": True, "m1": 2, "r2": 0, "m2": 3}, "'r1' is True"),
        (EventKind.ESTIMATE, {"r1": 0, "m1": 2, "r2": 4, "m2": 3}, "'r2' is 4"),
        (EventKind.TEST_INDICES, {"seed": 2**63}, "'seed' is 9223372036854775808"),
        (EventKind.TEST_INDICES, {"seed": [0, 1]}, "'seed' is \\[0, 1\\]"),
        (EventKind.TEST_INDICES, {"rect": [0, 1], "diag": [0, 1, 2]},
         "'rect' is not a field of test_indices, which has 'seed'"),
        (EventKind.PERMUTATION_SEED, {"seed": 1, "blocks": 3, "block_len": 7}, "'blocks' is 3"),
        (EventKind.KEY_DIGEST, {"algo": "md5", "bits": 0, "digest": "ab" * 32}, "'algo'"),
        (EventKind.KEY_DIGEST, {"algo": "sha256", "bits": 0, "digest": "AB" * 32}, "'digest'"),
    ],
)
def test_read_payload_names_the_malformed_field(kind, payload, named):
    with pytest.raises(ProtocolViolation, match=named):
        read_payload(kind, payload, SIZES)


@pytest.mark.parametrize("params, strategy, css, seed", REPLAYED, ids=_ids(REPLAYED, 1, 3))
def test_no_payload_of_a_golden_session_holds_a_list(params, strategy, css, seed):
    # each field is a string or an integer, so every event line is written
    # key by key by canonical_json and none goes to the json encoder
    out = run_session(ProtocolParams(**params), strategy, css, seed)
    types = {(ev.kind.value, name, type(value).__name__)
             for ev in out.transcript.events for name, value in ev.payload.items()}
    assert {t for t in types if t[2] not in ("str", "int")} == set()


def test_a_size_field_sets_the_length_of_the_fields_after_it():
    # replay knows the block count only to a range; each payload's own count applies
    ranged = dict(SIZES, blocks=(0, 5))
    # a [7,4] block's syndrome is 3 bits, so 2 blocks take 6 bits, one hex byte
    payload = {"blocks": 2, "block_len": 7, "syndrome": "a4"}
    assert read_payload(EventKind.SYNDROME_ANNOUNCEMENT, payload, ranged)["syndrome"].shape == (2, 3)
    with pytest.raises(ProtocolViolation, match="'blocks' is 6, expected an integer in"):
        read_payload(EventKind.SYNDROME_ANNOUNCEMENT, dict(payload, blocks=6), ranged)
    with pytest.raises(ProtocolViolation, match="'syndrome' is 'a4', expected 9 bits"):
        read_payload(EventKind.SYNDROME_ANNOUNCEMENT, dict(payload, blocks=3), ranged)


@pytest.mark.parametrize(
    "payload",
    [
        {"blocks": 2, "block_len": 7, "masked": "0000"},
        {"blocks": 2, "block_len": 7, "syndrome": "a4", "masked": "0000"},
    ],
    ids=["in_place_of_the_syndrome", "beside_the_syndrome"],
)
def test_a_masked_codeword_announcement_is_refused_by_name(payload):
    with pytest.raises(ProtocolViolation, match="'masked' is not a field of syndrome_announcement"):
        read_payload(EventKind.SYNDROME_ANNOUNCEMENT, payload, SIZES)
