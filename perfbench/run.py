"""eqkd benchmark: one closed-loop workload, untraced or traced.

    python3 perfbench/run.py --workload session_large --seed 1 --seconds 20 --trace 0

Run from the root of an eqkd checkout; the package is imported from its
``src`` directory. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
(``{"info": ...}``) records the environment, sample counts, the tail
percentile, the raw wall times behind the reference-unit metrics, failure
details and, when traced, the coverage check. See
README.md beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 15
SMOKE_SETUP_REPEATS = 2
# Traced runs must account for op wall time within this share (ROADMAP item 2).
COVERAGE_TOLERANCE = 0.10

TIME_METRICS = (
    "channel.transmit_s",
    "channel.rng_streams_s",
    "protocol.prepare_s",
    "protocol.measure_s",
    "protocol.sift_s",
    "protocol.estimate_s",
    "protocol.steps_s",
    "protocol.digest_s",
    "protocol.self_s",
    "codes.permute_s",
    "codes.reconcile_alice_s",
    "codes.reconcile_bob_s",
    "transcript.pack_s",
    "transcript.unpack_s",
    "transcript.encode_s",
    "harness.runner.overhead_s",
    "harness.endpoints.alice_s",
    "harness.endpoints.channel_s",
    "harness.endpoints.bob_s",
    "harness.endpoints.spawn_s",
    "harness.wire.send_s",
    "harness.wire.recv_s",
    "trace.unattributed_s",
)
COUNT_METRICS = {
    "channel.symbols": "count",
    "channel.rng_streams": "count",
    "protocol.messages": "count",
    "codes.blocks": "count",
    "codes.decode_failures": "count",
    "transcript.bytes": "bytes",
    "harness.wire.frames": "count",
    "harness.wire.bytes": "bytes",
}

# Set-up: a fresh interpreter imports the workload module (eqkd, its harness
# and numpy) and builds the code pair, params and strategy.
PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.Workload(sys.argv[3], sys.argv[4] == '1'); print('ready', flush=True)"
)


def setup_seconds(name: str, smoke: bool) -> float:
    """One set-up: a fresh interpreter, timed until it is ready for the first op."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", PROBE, str(BENCH_DIR), str(SRC), name, "1" if smoke else "0"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
    )
    with proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with at least 10 samples above it.

    With 10 samples or fewer no percentile qualifies; the minimum is
    returned as p0.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 0, ordered[0]


def peak_rss_mb(include_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def environment(seed: int) -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), None)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "cpu_model": model or platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    import workloads
    from eqkd.harness.runner import replay_verify
    from reference import REFERENCE_SECONDS, Reference
    from tracer import Tracer, attribute

    setup_repeats = SMOKE_SETUP_REPEATS if smoke else SETUP_REPEATS
    setup: list[float] = []
    wl = workloads.Workload(name, smoke)
    tracer = Tracer() if trace else None
    scratch = ROOT / ".perfbench_tmp" / f"run_{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)

    reference = None  # built after op 0, once peak memory is read
    walls: list[tuple[float, float, bool]] = []  # timed ops only: (wall, reference, traced)
    traced_ops = []  # (span slice start, stop, root id, wall)
    first_counts = None
    tally = Counter()
    attempted = failed = 0
    failures: list[str] = []
    peak = None
    i = 0
    try:
        # op 0 warms caches and lazy set-up and is not timed; then time ops
        # until `seconds` of op time is measured (at least two ops).
        while i == 0 or sum(w for w, _, _ in walls) < seconds or len(walls) < 2:
            op_seed = seed + i
            op_input = wl.prepare(op_seed, scratch)
            traced = trace and i % 2 == 1
            gc.collect()  # every op starts with the collector in the same state
            # the reference kernel brackets the op, outside the tracer's root span
            ref_before = reference.seconds() if reference else 0.0
            if traced:
                tracer.counts.clear()
                tracer.install()
                start = len(tracer.spans)
                close_root = tracer.root()
            error = result = None
            t0 = perf_counter()
            try:
                result = wl.run(op_input)
            except Exception:
                error = traceback.format_exc()
            wall = perf_counter() - t0
            if traced:
                root_id = close_root()
                tracer.uninstall()
            ref_after = reference.seconds() if reference else 0.0
            if i == 0:
                peak = peak_rss_mb(include_children=name == "loopback")
                reference = Reference()
                reference.run()  # warm
            else:
                walls.append((wall, (ref_before + ref_after) / 2, traced))

            op_failures = []
            op_tally = Counter()
            sessions = []
            failed_sessions = 0
            if error is not None:
                op_failures.append(f"op raised: {error}")
            else:
                try:
                    sessions = wl.sessions(op_input, result)
                    if traced and name == "loopback":
                        tracer.load_child_traces(op_input[1])
                    for s in sessions:
                        reasons, counts = wl.check_session(s)
                        op_tally.update(counts)
                        if i == 0 and s is sessions[0]:
                            ok, detail = replay_verify(s.transcript)
                            if not ok:
                                reasons.append(f"replay_verify: {detail}")
                        if reasons:
                            failed_sessions += 1
                            failures.extend(f"seed {s.seed}: {r}" for r in reasons)
                    op_failures.extend(wl.check_op(op_tally))
                except Exception:
                    op_failures.append(f"checks raised: {traceback.format_exc()}")
            if len(sessions) != wl.sessions_per_op:
                op_failures.append(f"{len(sessions)} sessions, expected {wl.sessions_per_op}")
            if op_failures:
                # an op-level failure fails every session of the op
                failed_sessions = wl.sessions_per_op
                failures.extend(f"op {i} (seed {op_seed}): {r}" for r in op_failures)
            failed += failed_sessions
            tally.update(op_tally)
            attempted += wl.sessions_per_op
            if traced:
                traced_ops.append((start, len(tracer.spans), root_id, wall))
                if first_counts is None:
                    first_counts = Counter(tracer.counts)
                    first_counts["transcript.bytes"] = sum(
                        len(s.transcript.to_jsonl().encode()) for s in sessions
                    )
                    first_counts = {
                        k: v / wl.sessions_per_op for k, v in first_counts.items()
                    }
            wl.cleanup(op_input)
            i += 1
            # set-ups start after op 0 and spread over the run, so that their
            # median sees the host's speed swings as the ops do
            measured = sum(w for w, _, _ in walls)
            if len(setup) < 1 + (setup_repeats - 1) * min(1.0, measured / seconds):
                setup.append(setup_seconds(name, smoke))
        while len(setup) < setup_repeats:
            setup.append(setup_seconds(name, smoke))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()

    info = {
        "workload": name,
        "smoke": smoke,
        "env": environment(seed),
        "sessions_per_op": wl.sessions_per_op,
        "symbols_per_session": wl.n,
        "setup_samples_s": setup,
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "sifted_fraction_base_symbols": tally["symbols"],
        "block_agreement_base_blocks": tally["blocks"],
    }
    reference_s = statistics.median(r for _, r, _ in walls)
    untraced = [w for w, _, t in walls if not t]
    untraced_ref = [w / r for w, r, t in walls if not t]
    symbols = wl.n * wl.sessions_per_op * len(untraced)
    if not trace:
        p, tail_value = tail(untraced_ref)
        info.update(
            timed_ops=len(untraced),
            tail_percentile=f"p{p}",
            reference_s_p50=reference_s,
            setup_wall_s_p50=statistics.median(setup),
            wall_time={
                "op_s.p50": statistics.median(untraced),
                "op_s.tail": tail(untraced)[1],
                "symbols_per_s": symbols / sum(untraced),
            },
        )
        metrics = {
            "setup_s": (statistics.median(setup) / reference_s * REFERENCE_SECONDS, "s"),
            "op_ref.p50": (statistics.median(untraced_ref), "ref"),
            "op_ref.tail": (tail_value, "ref"),
            "symbols_per_ref": (symbols / sum(untraced_ref), "1/ref"),
            "peak_rss_mb": (peak, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        traced_walls = [w for w, _, t in walls if t]
        traced_ref = [w / r for w, r, t in walls if t]
        per_op = []
        coverage = []
        for start, stop, root_id, wall in traced_ops:
            shares = attribute(tracer.spans[start:stop], root_id, wl.root_metric)
            unknown = set(shares) - set(TIME_METRICS)
            if unknown:
                raise RuntimeError(f"attribution produced unknown metrics {sorted(unknown)}")
            per_op.append(shares)
            unattributed = shares.get("trace.unattributed_s", 0.0)
            coverage.append(
                {
                    "wall_s": wall,
                    "sum_s": sum(shares.values()),
                    "unattributed_share": unattributed / wall,
                }
            )
        coverage_ok = all(
            abs(c["sum_s"] - c["wall_s"]) <= COVERAGE_TOLERANCE * c["wall_s"]
            and c["unattributed_share"] <= COVERAGE_TOLERANCE
            for c in coverage
        )
        info.update(
            traced_ops=len(traced_walls),
            untraced_ops=len(untraced),
            coverage={
                "ok": coverage_ok,
                "tolerance": COVERAGE_TOLERANCE,
                "worst_sum_error": max(abs(c["sum_s"] / c["wall_s"] - 1) for c in coverage),
                "worst_unattributed_share": max(c["unattributed_share"] for c in coverage),
            },
            counts_from_op_seed=seed + 1,
        )
        metrics = {
            m: (sum(op.get(m, 0.0) for op in per_op) / len(per_op), "s") for m in TIME_METRICS
        }
        metrics.update(
            {m: (first_counts.get(m, 0), unit) for m, unit in COUNT_METRICS.items()}
        )
        metrics["protocol.sifted_fraction"] = (tally["kept"] / tally["symbols"], "ratio")
        metrics["codes.block_agreement"] = (
            tally["agree"] / tally["blocks"] if tally["blocks"] else 0.0,
            "ratio",
        )
        metrics["trace.overhead"] = (
            statistics.median(traced_ref) / statistics.median(untraced_ref) - 1.0,
            "ratio",
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("session_large", "batch_small", "loopback"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "eqkd" / "__init__.py").is_file():
        print(f"no eqkd sources under {SRC}; run from an eqkd checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH_DIR), str(SRC)]
    import eqkd

    if Path(eqkd.__file__).resolve().parent != SRC / "eqkd":
        print(f"imported eqkd from {eqkd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    info, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
