"""How the library draws its randomness.

* Every per-symbol draw comes from ``channel.raw_passes``, which takes raw
  64-bit words from ``bit_generator.random_raw`` a pass at a time. An AST
  scan of ``src/eqkd`` fails on any ``.random(...)`` call, any
  ``.integers(...)`` call with a size, and any ``random_raw(...)`` call
  outside that helper, so no kernel brings back a whole-block draw or a
  second contract.
* The per-symbol kernels keep no N-length temporary, and the block
  permutations no block-length one past their output, pinned by their peak
  traced allocation.
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
    raw_passes,
    seeded_rng,
    transmit,
    uniform_bits,
)
from eqkd.codes import block_permutations, steane_pair
from eqkd.protocol import ProtocolParams, alice_prepare, run_session
from pipeline_oracle import measure_as_bob

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqkd"
TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.rglob("*.py"))}
PASS_HELPER = "raw_passes"


def _is_sized_integers(call: ast.Call) -> bool:
    """``integers(low, high, size, ...)`` or ``integers(..., size=...)``."""
    return len(call.args) >= 3 or any(k.arg == "size" for k in call.keywords)


def _draws_outside_the_helper(tree: ast.Module) -> list[tuple[int, str]]:
    inside = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == PASS_HELPER
        for node in ast.walk(fn)
    }
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and id(node) not in inside
        and (
            node.func.attr in ("random", "random_raw")
            or (node.func.attr == "integers" and _is_sized_integers(node))
        )
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
        if (lines := _draws_outside_the_helper(tree))
    }
    assert not found, f"draws outside {PASS_HELPER}: {found}"


def test_the_guard_sees_a_whole_array_draw():
    tree = ast.parse(
        "def f(rng, n):\n"
        "    return rng.random(n), rng.random(), rng.bit_generator.random_raw(n)\n"
        "def g(rng, n):\n"
        "    return rng.integers(0, 2, n), rng.integers(0, 2, size=n), rng.integers(0, 2**63)\n"
        f"def {PASS_HELPER}(rng, n):\n    return rng.bit_generator.random_raw(n)\n"
    )
    assert sorted(_draws_outside_the_helper(tree)) == [
        (2, "random"), (2, "random"), (2, "random_raw"), (4, "integers"), (4, "integers"),
    ]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint32, np.uint64])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 100])
def test_passes_are_the_pieces_of_one_raw_draw(dtype, n):
    size = np.dtype(dtype).itemsize
    words = np.random.default_rng(n).bit_generator.random_raw(-(-n * size // 8))
    want = words.astype("<u8").view(f"<u{size}")[:n]
    rng = np.random.default_rng(n)
    got = [(start, d.copy()) for start, d in raw_passes(rng, n, dtype, words_per_pass=3)]
    assert [start for start, _ in got] == list(range(0, n, 3 * 8 // size))
    assert np.array_equal(np.concatenate([d for _, d in got] or [want[:0]]), want)
    assert all(d.dtype == np.dtype(dtype) for _, d in got)
    # the passes take exactly the words one call would
    after = np.random.default_rng(n)
    after.bit_generator.random_raw(words.size)
    assert rng.bit_generator.state == after.bit_generator.state


def test_uniform_bits_across_a_pass():
    n = (64 << 16) + 65  # one pass of words and a bit
    words = np.random.default_rng(9).bit_generator.random_raw(-(-n // 64)).astype("<u8")
    want = np.unpackbits(words.view(np.uint8), count=n, bitorder="little")
    assert np.array_equal(uniform_bits(np.random.default_rng(9), n), want)


N_TRACED = 1 << 20


def _peak_bytes_per_symbol(fn, n: int = N_TRACED) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / n
    finally:
        tracemalloc.stop()


# The two 1-byte outputs take 2 bytes per symbol. A uint32 array of the
# block's length would add 4, and an unpacked coin array 1; a pass of raw
# words adds 8 * 2^16 / 2^20 = 0.5 here, and Alice's packed bits 1/8.
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
    "bob_measure": lambda: measure_as_bob(_SENT, _PARAMS, np.random.default_rng(7)),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_keep_no_block_length_float_temporary(kernel):
    assert _peak_bytes_per_symbol(KERNELS[kernel]) < 3.0


# A session at p = 0.2 peaks at about 8.7 bytes per symbol: the symbols and
# the messages' hex text. Each party's packed classes and their rank
# directory take half a byte per symbol. Keeping both classes as N-byte
# masks on each side took it to about 11.5, listing them as int64
# positions, about 0.68 N of them per party, to about 20.5, and permuting
# each block into bytes of uint64 lanes, rather than into the bits of one
# word, to about 13.5.
def test_a_session_peaks_below_10_bytes_per_symbol():
    n = 10**6
    params = ProtocolParams(n_qubits=n, bias_p=0.2, m1=200, m2=200)
    strategy, css = DepolarizingPauli.symmetric(0.005), steane_pair()
    assert _peak_bytes_per_symbol(lambda: run_session(params, strategy, css, 1), n) < 10.0


# block_permutations peaks at about 7.4 bytes per [7,4] block at 2 * 10^5
# blocks: its one-byte words, and a pass's keys, ranks and shifted entries.
# Placing each entry at a byte of uint64 lanes took it to about 20.8.
def test_block_permutations_peak_below_10_bytes_per_block():
    blocks = 2 * 10**5
    rows = np.random.default_rng(8).integers(0, 2, (blocks, 7), dtype=np.uint8)
    assert _peak_bytes_per_symbol(lambda: block_permutations(rows, 9), blocks) < 10.0


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
        "alice_bases", "alice_bits", "bob_bases", "eve", "noise", "permutation", "test_selection",
        "naive_test",
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
