"""Simulator and analysis toolkit for biased-basis quantum key distribution.

The package splits into five layers: ``channel`` (symbols, attack and noise
strategies, seeded randomness), ``protocol`` (the two-party session with
per-basis error estimation), ``codes`` (nested linear code pairs for
reconciliation and key extraction), ``bounds`` (finite-size security bounds
and the parameter planner), and ``harness`` (experiment runner, CSV, CLI,
and the networked three-process mode). Everything is a classical simulation:
qubits are (basis, bit) records, and attacks are restricted to the
intercept-resend and bit/phase-flip families that this reduction captures.
"""

from .bounds import (
    Lemma1Result,
    ParameterPlan,
    SamplingInstance,
    SecurityParams,
    binary_entropy,
    exponent_A,
    hypergeometric_pmf,
    key_rate,
    lemma1_bound,
    plan_parameters,
    rate_threshold,
    theorem2_asymptotic,
    theorem2_bound,
    theorem3_fidelity,
)
from .channel import (
    BiasedInterceptResend,
    DepolarizingPauli,
    FixedPauliString,
    Passive,
    RngStreams,
    SymbolBlock,
    transmit,
)
from .codes import (
    CssPair,
    LinearCode,
    load_code,
    load_css,
    steane_pair,
    validate_css,
)
from .protocol import (
    AliceMachine,
    BobMachine,
    ErrorEstimate,
    ProtocolParams,
    SessionOutcome,
    SessionStatus,
    alice_prepare,
    biased_attack_rates,
    bob_measure,
    naive_average_rate,
    run_session,
)
from .transcript import Actor, Event, EventKind, SessionTranscript

__version__ = "0.1.0"

__all__ = [
    "Actor",
    "AliceMachine",
    "BiasedInterceptResend",
    "BobMachine",
    "CssPair",
    "DepolarizingPauli",
    "ErrorEstimate",
    "Event",
    "EventKind",
    "FixedPauliString",
    "Lemma1Result",
    "LinearCode",
    "ParameterPlan",
    "Passive",
    "ProtocolParams",
    "RngStreams",
    "SamplingInstance",
    "SecurityParams",
    "SessionOutcome",
    "SessionStatus",
    "SessionTranscript",
    "SymbolBlock",
    "alice_prepare",
    "biased_attack_rates",
    "binary_entropy",
    "bob_measure",
    "exponent_A",
    "hypergeometric_pmf",
    "key_rate",
    "lemma1_bound",
    "load_code",
    "load_css",
    "naive_average_rate",
    "plan_parameters",
    "rate_threshold",
    "run_session",
    "steane_pair",
    "theorem2_asymptotic",
    "theorem2_bound",
    "theorem3_fidelity",
    "transmit",
    "validate_css",
    "__version__",
]
