"""The three benchmark workloads and the correctness checks run on every op.

All three use p = 0.2, m1 = m2 = 200, symmetric depolarizing noise and the
default [7,4] code pair, far below the acceptance threshold, so every session
is accepted and the work per op is fixed. Op ``i`` of a run with seed ``s``
uses session seed ``s + i`` (on batch_small, experiment base seed
``(s + i) * trials``, so no two ops share a trial seed).

batch_small runs 50 trials per op, not more: its ops then last about 0.35 s,
so the reference kernel timed just before and after each op (see
reference.py) reflects the host's speed during it.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eqkd.channel import DepolarizingPauli
from eqkd.codes import steane_pair
from eqkd.harness import endpoints, runner
from eqkd.harness.runner import ExperimentConfig
from eqkd.protocol import ProtocolParams, SessionStatus, session_meta
from eqkd import protocol
from eqkd.transcript import EventKind, SessionTranscript, unpack_bits

BIAS_P = 0.2
M1 = M2 = 200
# A check on a per-op aggregate fails beyond this many standard deviations.
# Runs make thousands of such checks, so the bound is wide enough that a
# correct program essentially never trips it.
SIGMAS = 6.0

# name -> (symbols per session, depolarizing weight w, sessions per op)
SHAPES = {
    "session_large": (5 * 10**6, 0.005, 1),
    "batch_small": (2 * 10**4, 0.01, 50),
    "loopback": (10**6, 0.005, 1),
}
SMOKE_SHAPES = {
    "session_large": (2 * 10**4, 0.005, 1),
    "batch_small": (2 * 10**4, 0.01, 4),
    "loopback": (2 * 10**4, 0.005, 1),
}


@dataclass(frozen=True, eq=False)
class Session:
    """One finished session, in the form the checks read."""

    seed: int
    statuses: tuple
    num_blocks: int
    keys: dict  # actor value ("alice"/"bob") -> 0/1 key array
    transcript: SessionTranscript  # canonical
    exit_codes: dict | None = None
    reference_lines: list | None = None  # run_session's lines for loopback


class Workload:
    """Built once per process: the inputs every op shares."""

    def __init__(self, name: str, smoke: bool = False):
        if name not in SHAPES:
            raise ValueError(f"unknown workload {name!r}; pick one of {sorted(SHAPES)}")
        self.name = name
        self.n, self.w, self.sessions_per_op = (SMOKE_SHAPES if smoke else SHAPES)[name]
        self.css = steane_pair()
        self.params = ProtocolParams(n_qubits=self.n, bias_p=BIAS_P, m1=M1, m2=M2)
        self.strategy = DepolarizingPauli.symmetric(self.w)
        self.root_metric = (
            "harness.endpoints.spawn_s" if name == "loopback" else "trace.unattributed_s"
        )

    # -- ops -----------------------------------------------------------------

    def prepare(self, seed: int, scratch: Path):
        """The op's input, built outside the timed region."""
        if self.name == "batch_small":
            return ExperimentConfig(
                params=self.params,
                strategy=self.strategy,
                css=self.css,
                trials=self.sessions_per_op,
                base_seed=seed * self.sessions_per_op,
            )
        if self.name == "loopback":
            return session_meta(self.params, self.strategy, self.css, seed), scratch / f"op_{seed}"
        return seed

    def run(self, op_input):
        """The timed op. Module attributes are looked up at call time so the
        tracer's wrappers apply."""
        if self.name == "session_large":
            return protocol.run_session(self.params, self.strategy, self.css, op_input)
        if self.name == "batch_small":
            return runner.run_experiment(op_input, keep_outcomes=True)
        meta, out_dir = op_input
        return endpoints.loopback_session(meta, out_dir, timeout=60.0)

    def sessions(self, op_input, result) -> list[Session]:
        """Turn an op's result into Sessions; loopback reads the endpoint files."""
        if self.name == "session_large":
            return [_from_outcome(op_input, result)]
        if self.name == "batch_small":
            return [
                _from_outcome(op_input.seed_for(t), o) for t, o in enumerate(result.outcomes)
            ]
        meta, out_dir = op_input
        outcomes = {
            role: json.loads((out_dir / f"outcome_{role}.json").read_text())
            for role in ("alice", "bob")
        }
        reference = protocol.run_session(self.params, self.strategy, self.css, meta["seed"])
        return [
            Session(
                seed=meta["seed"],
                statuses=tuple(o["status"] for o in outcomes.values()),
                num_blocks=outcomes["alice"]["num_blocks"],
                keys={
                    role: unpack_bits(o["key"] or "", o["key_bits"])
                    for role, o in outcomes.items()
                },
                transcript=SessionTranscript.from_jsonl(
                    (out_dir / "transcript_channel.jsonl").read_text()
                ),
                exit_codes=result,
                reference_lines=reference.transcript.event_lines(),
            )
        ]

    def cleanup(self, op_input) -> None:
        if self.name == "loopback":
            shutil.rmtree(op_input[1], ignore_errors=True)

    # -- checks --------------------------------------------------------------

    def check_session(self, s: Session) -> tuple[list[str], dict]:
        """Per-session failures, plus the tallies the per-op checks aggregate."""
        failures = []
        accepted = SessionStatus.ACCEPTED.value
        if any(st != accepted for st in s.statuses):
            failures.append(f"status {s.statuses}")
        if s.exit_codes is not None and s.exit_codes != {"alice": 0, "channel": 0, "bob": 0}:
            failures.append(f"exit codes {s.exit_codes}")
        lines = s.transcript.event_lines()
        if s.reference_lines is not None and lines != s.reference_lines:
            failures.append("relay transcript differs from run_session")

        bob = s.transcript.find(EventKind.BASES_ANNOUNCED_BOB).payload
        alice = s.transcript.find(EventKind.BASES_ANNOUNCED_ALICE).payload
        bob_bases = unpack_bits(bob["bases"], int(bob["n"]))
        alice_bases = unpack_bits(alice["bases"], int(alice["n"]))
        kept = int((alice_bases == bob_bases).sum())
        both_diag = int(((alice_bases == 1) & (bob_bases == 1)).sum())
        if s.num_blocks != (both_diag - M2) // self.css.n:
            failures.append(f"num_blocks {s.num_blocks} != ({both_diag} - {M2}) // {self.css.n}")

        for role, key in s.keys.items():
            if key.size != s.num_blocks * self.css.k:
                failures.append(f"{role} key has {key.size} bits")
        for ev in s.transcript.find_all(EventKind.KEY_DIGEST):
            key = s.keys[ev.actor.value]
            want = hashlib.sha256(np.packbits(key.astype(np.uint8)).tobytes()).hexdigest()
            if ev.payload["digest"] != want:
                failures.append(f"{ev.actor.value} KEY_DIGEST does not hash the returned key")

        blocks = agree = 0
        a, b = s.keys.get("alice"), s.keys.get("bob")
        if a is not None and b is not None and a.size == b.size == s.num_blocks * self.css.k:
            blocks = s.num_blocks
            agree = int(
                (a.reshape(blocks, self.css.k) == b.reshape(blocks, self.css.k)).all(axis=1).sum()
            )
        tally = {"symbols": int(bob["n"]), "kept": kept, "blocks": blocks, "agree": agree}
        return failures, tally

    def check_op(self, tally: dict) -> list[str]:
        """Statistical checks over one op's sessions."""
        failures = []
        n = tally["symbols"]
        want = BIAS_P**2 + (1 - BIAS_P) ** 2
        sigma = math.sqrt(want * (1 - want) / n)
        got = tally["kept"] / n
        if abs(got - want) > SIGMAS * sigma:
            failures.append(f"sifted fraction {got:.6f} vs {want:.6f} +- {SIGMAS} sigma ({sigma:.2e})")
        if tally["blocks"]:
            want = block_success(self.css.n, self.css.t, 2 * self.w)
            sigma = math.sqrt(want * (1 - want) / tally["blocks"])
            got = tally["agree"] / tally["blocks"]
            if abs(got - want) > SIGMAS * sigma:
                failures.append(
                    f"block agreement {got:.6f} vs {want:.6f} +- {SIGMAS} sigma ({sigma:.2e})"
                )
        return failures


def block_success(n: int, t: int, q: float) -> float:
    """Chance that a block of n bits with i.i.d. flips q has at most t flips.

    This is the closed form acceptance check c8 uses. It ignores the rare
    miscorrections that still land in the right coset (three flips in a
    [7,4] block), which add at most 0.8 C(7,3) q^3 — about 2e-4 at q = 0.02,
    inside the tolerance at every workload's block count.
    """
    return sum(math.comb(n, j) * q**j * (1 - q) ** (n - j) for j in range(t + 1))


def _from_outcome(seed: int, outcome) -> Session:
    return Session(
        seed=seed,
        statuses=(outcome.status.value,),
        num_blocks=outcome.num_blocks,
        keys={
            "alice": np.asarray(outcome.alice_key if outcome.alice_key is not None else []),
            "bob": np.asarray(outcome.bob_key if outcome.bob_key is not None else []),
        },
        transcript=outcome.transcript,
    )

