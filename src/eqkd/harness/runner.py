"""Batch experiment driver.

Runs many seeded sessions, spread over the CPUs this process may use, and
turns each ``SessionOutcome`` into one CSV row:
the per-class estimate, and the retained fraction and lumped single-rate
estimate (which the protocol itself deliberately avoids) that ``run_session``
reports next to it. Aggregates the rows and writes deterministic CSV. Also
verifies recorded transcripts by replaying their configuration and comparing
event streams.
"""

from __future__ import annotations

import csv
import io
import os
import pickle
import signal
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ..channel import AttackStrategy, BiasedInterceptResend
from ..codes import CssPair, steane_pair
from ..protocol import (
    ProtocolParams,
    ProtocolViolation,
    SessionOutcome,
    SessionStatus,
    biased_attack_rates,
    naive_average_rate,
    other_draw_contract,
    read_payload,
    run_session,
    session_from_meta,
    session_sizes,
)
from ..transcript import SessionTranscript, TranscriptError
from .endpoints import start_context

@dataclass(frozen=True)
class ExperimentConfig:
    params: ProtocolParams
    strategy: AttackStrategy
    css: CssPair = field(default_factory=steane_pair)
    trials: int = 20
    base_seed: int = 0

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, not {self.trials}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be nonnegative, not {self.base_seed}")
        if self.base_seed + self.trials > 2**64:
            raise ValueError(
                f"base_seed + trials must be at most 2^64 (each trial's seed is 64-bit), "
                f"not {self.base_seed} + {self.trials}"
            )

    def seed_for(self, trial: int) -> int:
        return self.base_seed + trial


@dataclass(frozen=True, eq=False)
class TrialRow:
    trial: int
    seed: int
    status: str
    e1: float | None
    e2: float | None
    naive_rate: float | None
    retained_fraction: float | None
    num_blocks: int
    key_length: int
    key_match: bool | None
    blocks_match: int | None


CSV_FIELDS = tuple(f.name for f in fields(TrialRow))


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    rows: list[TrialRow]
    summary: dict
    outcomes: list[SessionOutcome]


def run_trial(config: ExperimentConfig, trial: int) -> tuple[TrialRow, SessionOutcome]:
    seed = config.seed_for(trial)
    outcome = run_session(config.params, config.strategy, config.css, seed)
    est = outcome.estimate
    key_match = None
    blocks_match = None
    key_length = 0
    if outcome.status is SessionStatus.ACCEPTED:
        key_length = int(outcome.alice_key.size)
        key_match = bool(np.array_equal(outcome.alice_key, outcome.bob_key))
        k = config.css.k
        a = outcome.alice_key.reshape(outcome.num_blocks, k)
        b = outcome.bob_key.reshape(outcome.num_blocks, k)
        blocks_match = int((a == b).all(axis=1).sum())
    row = TrialRow(
        trial=trial,
        seed=seed,
        status=outcome.status.value,
        e1=None if est is None else est.e1,
        e2=None if est is None else est.e2,
        naive_rate=outcome.lumped_rate,
        retained_fraction=outcome.retained_fraction,
        num_blocks=outcome.num_blocks,
        key_length=key_length,
        key_match=key_match,
        blocks_match=blocks_match,
    )
    return row, outcome


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_slice(
    config: ExperimentConfig, trials: range, keep_outcomes: bool
) -> tuple[list[TrialRow], list[SessionOutcome]]:
    rows: list[TrialRow] = []
    outcomes: list[SessionOutcome] = []
    for trial in trials:
        row, outcome = run_trial(config, trial)
        rows.append(row)
        if keep_outcomes:
            outcomes.append(outcome)
    return rows, outcomes


def _slice_worker(config: ExperimentConfig, trials: range, keep_outcomes: bool, fd: int) -> None:
    """A forked worker's body: run one slice and write it to ``fd`` as one pickle.

    What it writes is the slice's rows and outcomes, or the exception of its
    first failing trial with that trial's formatted traceback.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupted caller reaps its workers
    try:
        result = _run_slice(config, trials, keep_outcomes)
    except Exception as exc:
        result = (exc, traceback.format_exc())
    with open(fd, "wb") as pipe:
        pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)


def run_experiment(config: ExperimentConfig, keep_outcomes: bool = False) -> ExperimentResult:
    """Run every trial; rows, summary and outcomes come in trial order.

    The trials are split into k contiguous slices, k the CPUs this process
    may use (at most one per trial, and 1 without the fork start method).
    The caller runs the first slice; a forked worker runs each later one and
    sends it back over a pipe. Each trial depends on its seed alone, so the
    result does not depend on k. The exception of the earliest failing trial
    propagates, and every worker has been reaped when this returns or raises.
    """
    ctx = start_context()
    k = max(1, min(config.trials, usable_cpus())) if ctx.get_start_method() == "fork" else 1
    slices = [range(config.trials * i // k, config.trials * (i + 1) // k) for i in range(k)]
    procs, pipes = [], []
    try:
        for trials in slices[1:]:
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            proc = ctx.Process(target=_slice_worker, args=(config, trials, keep_outcomes, write_fd))
            try:
                proc.start()
            finally:
                os.close(write_fd)  # the worker holds the only write end, so its death is EOF
            procs.append(proc)
        rows, outcomes = _run_slice(config, slices[0], keep_outcomes)
        for proc, pipe in zip(procs, pipes):
            try:
                got = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                proc.join()
                raise RuntimeError(
                    f"a trial worker exited with code {proc.exitcode} before sending its trials"
                ) from None
            if isinstance(got[0], BaseException):
                exc, remote = got
                raise exc from RuntimeError(f"raised in a trial worker:\n{remote}")
            rows += got[0]
            outcomes += got[1]
            proc.join()
    finally:
        for proc in procs:
            proc.terminate()  # does nothing to a worker already joined
            proc.join()
            proc.close()
        for pipe in pipes:
            pipe.close()
    return ExperimentResult(rows=rows, summary=aggregate(rows), outcomes=outcomes)


def _mean(values) -> float | None:
    vals = [v for v in values if v is not None]
    return float(np.mean(vals)) if vals else None


def aggregate(rows: list[TrialRow]) -> dict:
    statuses = {s.value: 0 for s in SessionStatus}
    for row in rows:
        statuses[row.status] += 1
    accepted = [r for r in rows if r.status == SessionStatus.ACCEPTED.value]
    total_blocks = sum(r.num_blocks for r in accepted)
    matched_blocks = sum(r.blocks_match for r in accepted)
    return {
        "trials": len(rows),
        "status_counts": statuses,
        "accept_rate": len(accepted) / len(rows) if rows else None,
        "mean_e1": _mean(r.e1 for r in rows),
        "mean_e2": _mean(r.e2 for r in rows),
        "mean_naive_rate": _mean(r.naive_rate for r in rows),
        "mean_retained_fraction": _mean(r.retained_fraction for r in rows),
        "mean_key_length": _mean(r.key_length for r in accepted),
        "key_match_rate": _mean(r.key_match for r in accepted),
        "total_blocks": total_blocks,
        "matched_blocks": matched_blocks,
        "block_match_rate": matched_blocks / total_blocks if total_blocks else None,
    }


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_csv(rows: list[TrialRow], destination=None) -> str:
    """Write trial rows as CSV; returns the text, optionally writing a path."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for row in rows:
        writer.writerow([_cell(getattr(row, f)) for f in CSV_FIELDS])
    text = buf.getvalue()
    if destination is not None:
        Path(destination).write_text(text)
    return text


def attack_demo(
    params: ProtocolParams,
    p1: float,
    p2: float,
    trials: int = 50,
    base_seed: int = 0,
    css: CssPair | None = None,
) -> dict:
    """Contrast refined and lumped estimation under biased interception.

    Returns analytic per-class rates alongside empirical means, the refined
    protocol's abort rate, and the fraction of sessions a lumped-rate check
    (same threshold, merged sample) would have waved through.
    """
    strategy = BiasedInterceptResend(p1=p1, p2=p2)
    config = ExperimentConfig(
        params=params,
        strategy=strategy,
        css=css if css is not None else steane_pair(),
        trials=trials,
        base_seed=base_seed,
    )
    result = run_experiment(config)
    e1, e2 = biased_attack_rates(p1, p2)
    threshold = params.threshold
    decided = [r for r in result.rows if r.e1 is not None]
    naive_rows = [r for r in result.rows if r.naive_rate is not None]
    refined_aborts = sum(
        1 for r in decided if r.status == SessionStatus.ABORTED_ERROR_RATE.value
    )
    naive_accepts = sum(1 for r in naive_rows if r.naive_rate < threshold)
    return {
        "bias_p": params.bias_p,
        "p1": p1,
        "p2": p2,
        "threshold": threshold,
        "analytic": {
            "e1": e1,
            "e2": e2,
            "naive_rate": naive_average_rate(params.bias_p, e1, e2),
        },
        "empirical": {
            "mean_e1": result.summary["mean_e1"],
            "mean_e2": result.summary["mean_e2"],
            "mean_naive_rate": result.summary["mean_naive_rate"],
        },
        "trials": trials,
        "refined_abort_rate": refined_aborts / len(decided) if decided else None,
        "naive_accept_rate": naive_accepts / len(naive_rows) if naive_rows else None,
        "summary": result.summary,
    }


def replay_verify(transcript: SessionTranscript | str | Path) -> tuple[bool, str]:
    """Re-run a recorded session from its embedded configuration.

    Returns ``(True, detail)`` when the replay reproduces the recorded
    canonical event stream exactly, else ``(False, detail)`` naming the
    first divergence, what is malformed, or the other draw contract the
    session was recorded under. Partial (single-party) transcripts are
    rejected. Before the replay, every payload is read through the payload
    table at the recorded sizes, each block count bounded by (N - m2) // block_len;
    the first malformed field is named with its event.
    """
    if not isinstance(transcript, SessionTranscript):
        try:
            transcript = SessionTranscript.from_jsonl(Path(transcript).read_text())
        except TranscriptError as exc:
            return False, f"malformed transcript: {exc}"
    meta = transcript.meta
    for field_name in ("seed", "params", "strategy", "css"):
        if field_name not in meta:
            return False, f"malformed transcript: the metadata lacks {field_name!r}"
    if extra := meta.keys() - {"seed", "draw_contract", "params", "strategy", "css"}:
        return False, f"malformed transcript: unknown metadata keys: {', '.join(sorted(extra))}"
    if other := other_draw_contract(meta):
        return False, other
    params, strategy, css, seed = session_from_meta(meta)
    sizes = session_sizes(params, css)
    for ev in transcript.events:
        try:
            read_payload(ev.kind, ev.payload, sizes)
        except ProtocolViolation as exc:
            return False, f"event {ev.seq} ({ev.actor.value} {ev.kind.value}): {exc}"
    replayed = run_session(params, strategy, css, seed)
    want = transcript.event_lines()
    got = replayed.transcript.event_lines()
    if len(want) != len(got):
        return False, f"event count differs: recorded {len(want)}, replayed {len(got)}"
    for i, (w, g) in enumerate(zip(want, got)):
        if w != g:
            return False, f"first divergence at event {i}"
    return True, f"replay reproduced all {len(want)} events"
