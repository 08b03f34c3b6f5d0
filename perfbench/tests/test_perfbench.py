"""Tests of the benchmark itself, at tiny N (``--smoke``).

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import attribute  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_REPEAT = (
    "channel.symbols",
    "channel.rng_streams",
    "protocol.messages",
    "codes.blocks",
    "transcript.bytes",
    "harness.wire.frames",
    "harness.wire.bytes",
)
HARNESS_ONLY = {
    "session_large": ("harness.",),
    "batch_small": ("harness.endpoints.", "harness.wire."),
    "loopback": ("harness.runner.", "protocol.self_s"),
}


@lru_cache(maxsize=None)
def bench(workload: str, trace: int, attempt: int = 0):
    """One smoke run; ``attempt`` only separates repeated runs in the cache."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _check_result(result, info, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 3
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in metrics
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    info, result = bench(workload, 0)
    _check_result(result, info, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert info["reference_s_p50"] > 0
    assert all(info["wall_time"][m] > 0 for m in ("op_s.p50", "op_s.tail", "symbols_per_s"))
    assert info["env"]["seed"] == 7 and info["env"]["numpy"] == np.__version__
    assert info["tail_percentile"].startswith("p")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_op_time_and_repeats_counts(workload):
    info, result = bench(workload, 1)
    _check_result(result, info, SPEC["per_layer"])
    assert info["coverage"]["ok"], info["coverage"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name, value in values.items():
        unused = name.startswith(HARNESS_ONLY[workload])
        if unused:
            assert value == 0, name
    for name in ("channel.transmit_s", "protocol.sift_s", "codes.permute_s", "transcript.pack_s"):
        assert values[name] > 0, name
    assert values["channel.symbols"] == (
        2 * workloads.SMOKE_SHAPES[workload][0]  # the runner re-runs the quantum phase
        if workload == "batch_small"
        else workloads.SMOKE_SHAPES[workload][0]
    )
    _, again = bench(workload, 1, attempt=1)
    for name in EXACT_REPEAT:
        assert again["metrics"][name] == result["metrics"][name], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_checks_catch_a_wrong_result():
    wl = workloads.Workload("session_large", smoke=True)
    result = wl.run(wl.prepare(3, Path()))
    good = wl.sessions(3, result)[0]
    assert wl.check_session(good)[0] == []

    flipped = dict(good.keys, bob=good.keys["bob"] ^ 1)
    bad_key = workloads.Session(good.seed, good.statuses, good.num_blocks, flipped, good.transcript)
    assert any("KEY_DIGEST" in r for r in wl.check_session(bad_key)[0])

    bad_blocks = workloads.Session(
        good.seed, good.statuses, good.num_blocks - 1, good.keys, good.transcript
    )
    reasons = wl.check_session(bad_blocks)[0]
    assert any("num_blocks" in r for r in reasons) and any("key has" in r for r in reasons)

    tally = {"symbols": 10**6, "kept": 10**6 // 2, "blocks": 10**5, "agree": 10**5 // 2}
    assert len(wl.check_op(tally)) == 2


def test_tail_is_highest_percentile_with_ten_samples_above():
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 13)]) == (16, 2.0)
    assert run.tail([1.0, 2.0, 3.0]) == (0, 1.0)


def test_attribution_splits_wall_time_by_layer_and_priority():
    root, p, c = (1, 0), 1, 2
    spans = [
        (root, None, "op", 0.0, 10.0),
        # parent process: a session with a prepare call inside it
        ((p, 1), root, "run_session", 1.0, 5.0),
        ((p, 2), (p, 1), "alice_prepare", 2.0, 3.0),
        # another process, overlapping: waits in recv, then packs bits
        ((c, 1), root, "serve_endpoint:bob", 4.0, 9.0),
        ((c, 2), (c, 1), "recv_event", 4.0, 6.0),
        ((c, 3), (c, 1), "pack_bits", 6.0, 7.0),
    ]
    shares = attribute(spans, root, "trace.unattributed_s")
    assert shares == pytest.approx(
        {
            "trace.unattributed_s": 2.0,  # [0,1] and [9,10]: nothing but the root
            "protocol.self_s": 3.0,  # [1,2], [3,4] alone, [4,5] beats bob's recv wait
            "protocol.prepare_s": 1.0,
            "harness.wire.recv_s": 1.0,  # [5,6]
            "transcript.pack_s": 1.0,
            "harness.endpoints.bob_s": 2.0,  # [7,9]
        }
    )
    assert sum(shares.values()) == pytest.approx(10.0)


def test_reference_kernel_does_fixed_work():
    from reference import Reference

    ref = Reference()
    assert ref.run() == ref.run()
    assert ref.seconds() > 0
