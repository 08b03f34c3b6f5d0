"""How the library draws its randomness.

* Every uniform array is drawn through ``channel.uniform_passes``, which
  fills one pass-sized buffer at a time. An AST scan of ``src/eqkd`` fails on
  any ``.random(...)`` call with arguments outside that helper, so no kernel
  brings back a whole-block float draw.
* The per-symbol kernels keep no N-length float temporary, pinned by their
  peak traced allocation.
* Named streams, and the permutation generator, are built from uint32 words
  and must equal the generators the documented seed lists give.
"""

from __future__ import annotations

import ast
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from eqkd.channel import (
    _STRATEGY_KINDS,
    BiasedInterceptResend,
    DepolarizingPauli,
    RngStreams,
    seeded_rng,
    transmit,
)
from eqkd.protocol import alice_prepare, bob_measure

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqkd"
TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.rglob("*.py"))}
PASS_HELPER = "uniform_passes"


def _random_calls_outside_the_helper(tree: ast.Module) -> list[int]:
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == PASS_HELPER
        for node in ast.walk(fn)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "random"
        and (node.args or node.keywords)
        and id(node) not in inside
    ]


def test_uniform_arrays_are_drawn_only_in_passes():
    helpers = [
        p for p, tree in TREES.items() for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == PASS_HELPER
    ]
    assert [p.name for p in helpers] == ["channel.py"]
    found = {
        str(p.relative_to(PACKAGE)): lines
        for p, tree in TREES.items()
        if (lines := _random_calls_outside_the_helper(tree))
    }
    assert not found, f"uniform draws with a size outside {PASS_HELPER}: {found}"


def test_the_guard_sees_a_whole_array_draw():
    tree = ast.parse(
        "def f(rng, n):\n    return rng.random(n), rng.random(size=n), rng.random()\n"
        f"def {PASS_HELPER}(rng, u):\n    rng.random(out=u)\n"
    )
    assert _random_calls_outside_the_helper(tree) == [2, 2]


N_TRACED = 1 << 20


def _peak_bytes_per_symbol(fn) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / N_TRACED
    finally:
        tracemalloc.stop()


# The two 1-byte outputs take 2 bytes per symbol. A float64 array of the
# block's length would add 8; a pass buffer adds 8 * 2^16 / 2^20 = 0.5 here.
# A coin array holds one byte per re-drawn position, half of them at most in
# these blocks.
_PARAMS = SimpleNamespace(n_qubits=N_TRACED, bias_p=0.5)
_SENT = alice_prepare(_PARAMS, RngStreams(3))
KERNELS = {
    "alice_prepare": lambda: alice_prepare(_PARAMS, RngStreams(4)),
    "depolarizing": lambda: transmit(
        _SENT, DepolarizingPauli.symmetric(0.05), np.random.default_rng(5)
    ),
    "intercept_resend": lambda: transmit(
        _SENT, BiasedInterceptResend(0.5, 0.5), np.random.default_rng(6)
    ),
    "bob_measure": lambda: bob_measure(_SENT, _PARAMS, np.random.default_rng(7)),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_keep_no_block_length_float_temporary(kernel):
    assert _peak_bytes_per_symbol(KERNELS[kernel]) < 3.0


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _stream_names() -> set[str]:
    """Every literal ``.stream("name")`` in the package, and each strategy's stream."""
    names = {cls.stream for cls in _STRATEGY_KINDS.values() if cls.stream is not None}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stream"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                names.add(node.args[0].value)
    return names


def test_the_scan_sees_the_stream_names():
    assert _stream_names() >= {
        "alice_bases", "alice_bits", "bob_bases", "eve", "noise", "permutation", "codeword",
        "test_selection", "naive_test",
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_equal_the_generators_their_seed_lists_give(seed):
    streams = RngStreams(seed)
    for name in sorted(_stream_names()):
        want = np.random.default_rng(np.random.SeedSequence([seed, *name.encode("ascii")]))
        assert streams.stream(name).bit_generator.state == want.bit_generator.state, name
    # block_permutations' generator
    want = np.random.default_rng(seed)
    assert seeded_rng(seed).bit_generator.state == want.bit_generator.state
