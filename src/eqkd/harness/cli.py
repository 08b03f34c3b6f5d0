"""Command-line front end.

Subcommands::

    run          batch of seeded sessions -> summary JSON, optional CSV
    attack-demo  refined vs lumped estimation under biased interception
    plan         choose (n_test, p) for security targets
    bounds       evaluate the individual security bounds
    codes        validate a nested code pair from files
    serve        one networked endpoint (alice | channel | bob)
    loopback     all three endpoints locally over TCP
    replay       verify a recorded transcript by re-running it
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import socket
import sys
from pathlib import Path

from ..bounds import (
    KEY_RATE_VARIANTS,
    Lemma1Result,
    SamplingInstance,
    SecurityParams,
    key_rate,
    lemma1_bound,
    plan_parameters,
    rate_threshold,
    theorem2_asymptotic,
    theorem2_bound,
    theorem3_fidelity,
)
from ..channel import BiasedInterceptResend, DepolarizingPauli, FixedPauliString, strategy_from_dict
from ..codes import CodeError, css_fingerprint, css_from_meta, load_css, steane_pair
from ..protocol import ProtocolParams, session_meta
from .endpoints import ROLES, serve_endpoint, serve_loopback
from .runner import ExperimentConfig, attack_demo, emit_csv, replay_verify, run_experiment

_PARAM_FIELDS = dataclasses.fields(ProtocolParams)
_PARAM_NAMES = {f.name for f in _PARAM_FIELDS}
_CONFIG_KEYS = {"params", "strategy", "css", "code_files", "seed", *_PARAM_NAMES}


def _print(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _eve(text: str) -> tuple[float, float]:
    try:
        p1, p2 = (float(x) for x in text.split(","))
    except ValueError:
        msg = f"expected two probabilities P1,P2, not {text!r}"
        raise argparse.ArgumentTypeError(msg) from None
    return p1, p2


def _one_or_two_paths(files) -> bool:
    """The rule for ``--code`` and a config's ``code_files``: one or two non-empty paths."""
    return (isinstance(files, list) and len(files) in (1, 2)
            and all(isinstance(f, str) and f for f in files))


def _code_files(text: str) -> list[str]:
    files = text.split(",")
    if not _one_or_two_paths(files):
        msg = f"expected one or two code files FILE[,FILE2], not {text!r}"
        raise argparse.ArgumentTypeError(msg)
    return files


def _add_session_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON session settings; explicit flags win")
    p.add_argument("--n", type=int, help="symbols transmitted per session")
    p.add_argument("--bias-p", type=float, help="rectilinear-basis probability")
    p.add_argument("--m1", type=int, help="test sample size, both-rectilinear class")
    p.add_argument("--m2", type=int, help="test sample size, both-diagonal class")
    p.add_argument("--e-max", type=float, help="acceptance threshold (default 0.11)")
    p.add_argument("--delta-e", type=float, help="threshold margin (default 0.01)")
    p.add_argument("--delta-prime", type=float, help="sampling slack (default p^2/10)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--eve", type=_eve, metavar="P1,P2",
                   help="biased intercept-resend probabilities")
    g.add_argument("--depolarize", type=float, metavar="W", help="symmetric flip weight")
    g.add_argument("--pauli", metavar="LETTERS", help="fixed error string, e.g. IIXZY...")
    p.add_argument("--code", type=_code_files, metavar="FILE[,FILE2]",
                   help="code pair files; one file means the second code is its dual")
    p.add_argument("--seed", type=int, help="base seed (default 0)")


def _refuse_unknown(d: dict, known: set, what: str) -> None:
    if unknown := sorted(d.keys() - known):
        raise ValueError(f"unknown {what}: {', '.join(unknown)}")


def _session_setup(args):
    file_cfg = json.loads(args.config.read_text()) if args.config else {}
    if not isinstance(file_cfg, dict):
        raise ValueError(f"a config file holds a JSON object, not {file_cfg!r}")
    _refuse_unknown(file_cfg, _CONFIG_KEYS, "config keys")
    pd = file_cfg.get("params", {})
    if not isinstance(pd, dict):
        raise ValueError(f"malformed params {pd!r}")
    _refuse_unknown(pd, _PARAM_NAMES, "params keys")
    pd = dict(pd)
    for f in _PARAM_FIELDS:
        if f.name in file_cfg:
            pd[f.name] = file_cfg[f.name]
        flag = getattr(args, "n" if f.name == "n_qubits" else f.name)
        if flag is not None:
            pd[f.name] = flag
    required = [f.name for f in _PARAM_FIELDS if f.default is dataclasses.MISSING]
    missing = [name for name in required if name not in pd]
    if missing:
        raise ValueError(f"missing session settings: {', '.join(missing)}")
    params = ProtocolParams.from_dict(pd)

    if args.eve is not None:
        strategy = BiasedInterceptResend(*args.eve)
    elif args.depolarize is not None:
        strategy = DepolarizingPauli.symmetric(args.depolarize)
    elif args.pauli is not None:
        strategy = FixedPauliString(args.pauli)
    else:
        strategy = strategy_from_dict(file_cfg.get("strategy", {"kind": "passive"}))

    if args.code is not None:
        css = load_css(*args.code)
    elif "css" in file_cfg:
        css = css_from_meta(file_cfg["css"])
    elif "code_files" in file_cfg:
        files = file_cfg["code_files"]
        if not _one_or_two_paths(files):
            raise ValueError(f"malformed code_files {files!r}")
        css = load_css(*files)
    else:
        css = steane_pair()

    seed = args.seed if args.seed is not None else file_cfg.get("seed", 0)
    meta = session_meta(params, strategy, css, seed)
    return params, strategy, css, seed, meta


def _cmd_run(args) -> int:
    params, strategy, css, seed, _meta = _session_setup(args)
    config = ExperimentConfig(
        params=params, strategy=strategy, css=css, trials=args.trials, base_seed=seed
    )
    keep = args.save_transcripts is not None
    result = run_experiment(config, keep_outcomes=keep)
    if args.out is not None:
        emit_csv(result.rows, args.out)
    if keep:
        out = Path(args.save_transcripts)
        out.mkdir(parents=True, exist_ok=True)
        for i, outcome in enumerate(result.outcomes):
            (out / f"trial_{i:04d}.jsonl").write_text(outcome.transcript.to_jsonl())
    _print(result.summary)
    return 0


def _cmd_attack_demo(args) -> int:
    params, _strategy, css, seed, _meta = _session_setup(args)
    if args.eve is None:
        raise ValueError("attack-demo needs --eve P1,P2")
    _print(attack_demo(params, *args.eve, trials=args.trials, base_seed=seed, css=css))
    return 0


def _cmd_plan(args) -> int:
    sec = SecurityParams(
        u=args.u,
        s=args.s,
        k=args.k,
        N=args.n_total,
        a_prime=args.a_prime,
        c=args.c,
    )
    plan = plan_parameters(sec, args.lam, args.p_bad)
    _print(dataclasses.asdict(plan))
    return 0 if plan.feasible else 1


def _cmd_bounds_lemma1(args) -> int:
    inst = SamplingInstance(
        n_total=args.n_total, n_test=args.n_test, p_bad=args.p_bad, lam=args.lam
    )
    res: Lemma1Result = lemma1_bound(inst)
    _print({"bound": res.bound, "exponent": res.exponent})
    return 0


def _cmd_bounds_theorem2(args) -> int:
    exact = theorem2_bound(args.delta, args.k)
    out = {"information_bits": exact}
    if args.asymptotic:
        out["asymptotic"] = theorem2_asymptotic(args.delta, args.k)
    _print(out)
    return 0


def _cmd_bounds_theorem3(args) -> int:
    _print({"fidelity": theorem3_fidelity(args.eps1, args.eps2)})
    return 0


def _cmd_bounds_rate(args) -> int:
    _print({
        "variant": args.variant,
        "error_rate": args.error_rate,
        "key_rate": key_rate(args.error_rate, args.variant),
    })
    return 0


def _cmd_bounds_threshold(args) -> int:
    _print({"variant": args.variant, "threshold": rate_threshold(args.variant)})
    return 0


def _cmd_codes_validate(args) -> int:
    try:
        css = load_css(*args.code)
    except (CodeError, OSError, ValueError) as exc:
        print(f"invalid code pair: {exc}", file=sys.stderr)
        return 1
    _print(
        {
            "n": css.n,
            "key_bits_per_block": css.k,
            "corrects": css.t,
            "outer": {"k_dim": css.c1.k_dim, "d": css.c1.d},
            "inner": {"k_dim": css.c2.k_dim, "d": css.c2.d},
            "fingerprint": css_fingerprint(css),
        }
    )
    return 0


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not (host and port.isdigit() and 1 <= int(port) <= 0xFFFF):
        raise argparse.ArgumentTypeError("addresses look like HOST:PORT, PORT from 1 to 65535")
    return host, int(port)


def _seconds(text: str) -> float:
    with contextlib.suppress(ValueError):
        if 0 < (value := float(text)) < math.inf:
            return value
    raise argparse.ArgumentTypeError(f"expected a positive, finite number of seconds, not {text!r}")


def _cmd_serve(args) -> int:
    return serve_endpoint(
        args.role,
        _session_setup(args),
        listen=None if args.listen is None else socket.create_server(args.listen, backlog=1),
        connect=args.connect,
        out_dir=args.out,
        timeout=args.timeout,
    )


def _cmd_loopback(args) -> int:
    codes = serve_loopback(_session_setup(args), args.out, timeout=args.timeout)
    report = {"exit_codes": codes}
    outcome_path = Path(args.out) / "outcome_channel.json"
    if outcome_path.exists():
        report["channel_outcome"] = json.loads(outcome_path.read_text())
    _print(report)
    return 0 if all(code == 0 for code in codes.values()) else 2


def _cmd_replay(args) -> int:
    ok, detail = replay_verify(args.transcript)
    print(f"{'ok' if ok else 'FAIL'}: {detail}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqkd",
        description="Simulate and analyze biased-basis quantum key distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a batch of seeded sessions")
    _add_session_flags(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--out", type=Path, help="write per-trial CSV here")
    p.add_argument("--save-transcripts", type=Path, metavar="DIR")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("attack-demo", help="biased interception vs both estimators")
    _add_session_flags(p)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=_cmd_attack_demo)

    p = sub.add_parser("plan", help="pick test size and bias for security targets")
    p.add_argument("--n-total", type=int, required=True, metavar="N")
    p.add_argument("--u", type=float, required=True, help="verification exponent")
    p.add_argument("--s", type=float, help="secrecy exponent")
    p.add_argument("--c", type=float, help="secrecy scaling constant (with --a-prime)")
    p.add_argument("--a-prime", type=float, default=1.0)
    p.add_argument("--k", type=int, required=True, help="final key bits")
    p.add_argument("--lam", type=float, required=True, help="test acceptance threshold")
    p.add_argument("--p-bad", type=float, required=True, help="guarded error fraction")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("bounds", help="evaluate individual security bounds")
    bsub = p.add_subparsers(dest="bound", required=True)

    b = bsub.add_parser("lemma1", help="sampling tail bound")
    b.add_argument("--n-test", type=int, required=True)
    b.add_argument("--n-total", type=int, required=True)
    b.add_argument("--lam", type=float, required=True)
    b.add_argument("--p-bad", type=float, required=True)
    b.set_defaults(func=_cmd_bounds_lemma1)

    b = bsub.add_parser("theorem2", help="information bound from a fidelity defect")
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--asymptotic", action="store_true")
    b.set_defaults(func=_cmd_bounds_theorem2)

    b = bsub.add_parser("theorem3", help="fidelity floor from two pass probabilities")
    b.add_argument("--eps1", type=float, required=True)
    b.add_argument("--eps2", type=float, required=True)
    b.set_defaults(func=_cmd_bounds_theorem3)

    b = bsub.add_parser("rate", help="asymptotic key rate at an error rate")
    b.add_argument("--error-rate", type=float, required=True)
    b.add_argument("--variant", default="css_shannon", choices=KEY_RATE_VARIANTS)
    b.set_defaults(func=_cmd_bounds_rate)

    b = bsub.add_parser("threshold", help="zero of the key rate")
    b.add_argument("--variant", default="css_shannon", choices=KEY_RATE_VARIANTS)
    b.set_defaults(func=_cmd_bounds_threshold)

    p = sub.add_parser("codes", help="code utilities")
    csub = p.add_subparsers(dest="codes_cmd", required=True)
    c = csub.add_parser("validate", help="check a nested pair from files")
    c.add_argument("--code", type=_code_files, required=True, metavar="FILE[,FILE2]")
    c.set_defaults(func=_cmd_codes_validate)

    p = sub.add_parser("serve", help="run one networked endpoint")
    _add_session_flags(p)
    p.add_argument("--role", required=True, choices=ROLES)
    p.add_argument("--listen", type=_addr, metavar="HOST:PORT")
    p.add_argument("--connect", type=_addr, metavar="HOST:PORT")
    p.add_argument("--out", type=Path, help="directory for transcript and outcome files")
    p.add_argument("--timeout", type=_seconds, default=30.0)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("loopback", help="run all three endpoints locally")
    _add_session_flags(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--timeout", type=_seconds, default=30.0)
    p.set_defaults(func=_cmd_loopback)

    p = sub.add_parser("replay", help="re-run a recorded transcript and compare")
    p.add_argument("transcript", type=Path)
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, CodeError, OSError) as exc:
        # bad configuration, unreadable files, unusable addresses: no traceback
        print(f"eqkd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
