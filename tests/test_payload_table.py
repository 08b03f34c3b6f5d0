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

import numpy as np
import pytest

from eqkd.codes import steane_pair
from eqkd.protocol import (
    PAYLOADS,
    ProtocolParams,
    ProtocolViolation,
    SessionStatus,
    read_payload,
    session_sizes,
)
from eqkd.transcript import EventKind

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
    assert read_payload(EventKind.BASES_ANNOUNCED_BOB, {"n": 40, "bases": "00" * 5}, SIZES)[
        "bases"
    ].tolist() == [0] * 40
    indices = read_payload(EventKind.TEST_INDICES, {"rect": [0, 39], "diag": [1, 2, 3]}, SIZES)
    assert indices["rect"].dtype == np.int64 and indices["diag"].tolist() == [1, 2, 3]
    decision = read_payload(EventKind.DECISION, {"status": "proceed"}, SIZES)
    assert decision == {"status": SessionStatus.ACCEPTED}
    digest = {"algo": "sha256", "bits": 40, "digest": "ab" * 32}
    assert read_payload(EventKind.KEY_DIGEST, digest, SIZES) == digest


@pytest.mark.parametrize(
    "kind, payload, named",
    [
        (EventKind.DECISION, ["proceed"], "decision is a list"),
        (EventKind.DECISION, {"status": "proceed", "x": 1}, "'x' is not a field"),
        (EventKind.KEY_DIGEST, {"bits": 40}, "'algo', 'digest' are missing"),
        (EventKind.ESTIMATE, {"r1": True, "m1": 2, "r2": 0, "m2": 3}, "'r1' is True"),
        (EventKind.ESTIMATE, {"r1": 0, "m1": 2, "r2": 4, "m2": 3}, "'r2' is 4"),
        (EventKind.TEST_INDICES, {"rect": [3, 3], "diag": [0, 1, 2]}, "'rect'"),
        (EventKind.TEST_INDICES, {"rect": [0, 1], "diag": [0, 1, 40]}, "'diag'"),
        (EventKind.TEST_INDICES, {"rect": [0, 2**64], "diag": [0, 1, 2]}, "'rect'"),
        (EventKind.TEST_INDICES, {"rect": [0, True], "diag": [0, 1, 2]}, "'rect'"),
        (EventKind.TEST_INDICES, {"rect": [0, 1.5], "diag": [0, 1, 2]}, "'rect'"),
        (EventKind.PERMUTATION_SEED, {"seed": 1, "blocks": 3, "block_len": 7}, "'blocks' is 3"),
        (EventKind.KEY_DIGEST, {"algo": "md5", "bits": 0, "digest": "ab" * 32}, "'algo'"),
        (EventKind.KEY_DIGEST, {"algo": "sha256", "bits": 0, "digest": "AB" * 32}, "'digest'"),
    ],
)
def test_read_payload_names_the_malformed_field(kind, payload, named):
    with pytest.raises(ProtocolViolation, match=named):
        read_payload(kind, payload, SIZES)


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
