"""Experiment configuration, execution, sweeps and machine-readable reports.

Configs are flat JSON documents with exactly the `ExperimentConfig`
field names; unknown fields are rejected so a typo cannot silently relax
a security experiment; a config is parsed once, when it is built, and a
run reads what it kept. Reports render as one key-sorted JSON document
(byte-identical for identical configs) or as CSV rows holding the same
report flattened in its own key order: config fields, then counts, then
statistics, then test decisions, then discrimination diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import ClassVar

import numpy as np

from .adversary import HALF_PI, ChannelModel, EveKind, EveStrategy, forwarded_state_symmetry
from .detection import TestDecision, expected_rates, null_ratio_test, qber_test
from .protocol import ProtocolKind, estimate_qber_batch
from .quantum import (
    ALGEBRA_TOL,
    Povm,
    QubitState,
    SX_POVM,
    SZ_POVM,
    X_PLUS,
    Z_PLUS,
    density_equal,
    mixture_density,
    random_povm,
    state_from_bloch,
    state_label,
)
from .rng import GENERATOR_NAME, RngStream, derive_seed, derive_seed_array
from .session import (
    BLOCK,
    STAGE_ESTIMATE,
    STAGE_SWEEP,
    Session,
    protocol_states,
    simulate_session,
)
from .usd import (
    UsdSchemeKind,
    gram_matrix,
    gram_rank,
    idp_povm,
    no_signaling_distributions,
    usd_efficiency,
    usd_feasible,
)

# not called here; kept because bench/tracing.py wraps these names on this module
from .protocol import estimate_qber, sift  # noqa: F401
from .session import pulse_stream  # noqa: F401


def _is_strict_int(value) -> bool:
    # bools are ints in Python; a config saying true is a mistake, not a 1
    return isinstance(value, int) and not isinstance(value, bool)


class ConfigurationError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class InfeasibleStrategyError(ValueError):
    """Strategy cannot exist against this protocol (CLI exit code 3)."""


def check_seed(seed, name: str) -> None:
    """Reject a seed that is not an integer in [0, 2**64).

    `RngStream` masks seeds to 64 bits, so -1 would silently run as
    2**64 - 1 and 2**64 + 42 as 42.
    """
    if not _is_strict_int(seed):
        raise ConfigurationError(f"{name} must be an integer")
    if not (0 <= seed < 2**64):
        raise ConfigurationError(f"{name} must be in [0, 2**64)")


_KINDS = ((ProtocolKind, "protocol"), (EveKind, "eve_strategy"), (UsdSchemeKind, "usd_scheme"))
_FLOAT_FIELDS = ("absorption", "efficiency", "delta", "reveal_fraction", "alpha", "qber_threshold")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings. Building it (`replace` too) checks every
    value and keeps what it parses outside the fields, unseen by equality,
    hashing and `to_dict`: `protocol_kind`, `session` (the engine's
    `Session`: its channel and Eve's strategy) and `expected` (the
    channel's `ExpectedRates`)."""

    protocol: str
    n_pulses: int
    absorption: float = 0.0
    efficiency: float = 1.0
    eve_strategy: str = "none"
    usd_scheme: str = "naive"
    delta: float = 0.0
    reveal_fraction: float = 0.2
    alpha: float = 0.001
    qber_threshold: float = 0.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        kinds = []
        for kind, name in _KINDS:
            try:
                kinds.append(kind(getattr(self, name)))
            except ValueError:
                raise ConfigurationError(f"unknown {name} {getattr(self, name)!r}") from None
        protocol_kind, eve_kind, scheme_kind = kinds
        if not _is_strict_int(self.n_pulses) or self.n_pulses < 1:
            raise ConfigurationError("n_pulses must be a positive integer")
        if self.n_pulses >= 2**63:
            # pulse offsets are int64; no such session could be allocated anyway
            raise ConfigurationError("n_pulses must be below 2**63")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(f"{name} must be a number")
        try:
            channel = ChannelModel(self.absorption, self.efficiency)
            expected = expected_rates(channel)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        if not (0.0 <= self.delta < HALF_PI):
            # checked here: only basis_mismatch hands delta to its strategy
            raise ConfigurationError("delta must be in [0, pi/2)")
        if not (0.0 < self.reveal_fraction <= 1.0):
            raise ConfigurationError("reveal_fraction must be in (0, 1]")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("alpha must be in (0, 1)")
        if not (0.0 <= self.qber_threshold <= 1.0):
            raise ConfigurationError("qber_threshold must be in [0, 1]")
        check_seed(self.master_seed, "master_seed")
        strategy = EveStrategy.of(eve_kind, scheme_kind, self.delta)
        session = Session(self.n_pulses, channel, strategy, self.master_seed)
        object.__setattr__(self, "protocol_kind", protocol_kind)
        object.__setattr__(self, "session", session)
        object.__setattr__(self, "expected", expected)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigurationError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        missing = {"protocol", "n_pulses"} - set(data)
        if missing:
            raise ConfigurationError(f"missing required config fields: {sorted(missing)}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(str(exc)) from exc

    def to_dict(self) -> dict:
        # the fields are flat values, so asdict's deep copy buys nothing
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class RunReport:
    """What one session measured: counts, QBER estimate, test decisions
    and the states Eve forwarded. `to_dict` derives the rest, the
    channel's expectations and the scheme's efficiency, from these and
    the config."""

    config: ExperimentConfig
    arrived: int
    sifted: int
    revealed: int
    qber: float | None
    qber_test: TestDecision | None
    null_ratio_test: TestDecision
    forwarded_z: int
    forwarded_x: int
    rng: ClassVar[str] = GENERATOR_NAME

    def __post_init__(self) -> None:
        if not (self.revealed <= self.sifted <= self.arrived <= self.config.n_pulses):
            raise ValueError("inconsistent counts: need revealed <= sifted <= arrived <= sent")

    def to_dict(self) -> dict:
        report = {}
        for section, value in _report_columns([self]).items():
            if section == "tests":
                report[section] = {
                    test: None if decision is None else decision.to_dict()
                    for test, (decision,) in value.items()
                }
            elif isinstance(value, dict):
                report[section] = {name: cell for name, (cell,) in value.items()}
            else:
                (report[section],) = value
        return report

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _scheme_efficiency(config: ExperimentConfig) -> float | None:
    s = config.session.strategy
    return None if s.scheme is None else usd_efficiency(s.scheme, s.states)


def _report_columns(reports: list[RunReport]) -> dict:
    """`RunReport.to_dict` of every report at once: the same sections and
    keys, in the same order, each holding a list with one value per
    report; a test holds its decisions, None where it did not run."""
    configs = [r.config for r in reports]
    config = {f.name: list(map(attrgetter(f.name), configs)) for f in fields(ExperimentConfig)}
    sent = config["n_pulses"]
    arrived = [r.arrived for r in reports]
    sifted = [r.sifted for r in reports]
    revealed = [r.revealed for r in reports]
    null = [n - a for n, a in zip(sent, arrived)]
    expected = [c.expected for c in configs]
    return {
        "config": config,
        "counts": {
            "sent": sent,
            "arrived": arrived,
            "null": null,
            "sifted": sifted,
            "revealed": revealed,
            "key_length": [s - r for s, r in zip(sifted, revealed)],
        },
        "statistics": {
            "sift_rate": [s / n for s, n in zip(sifted, sent)],
            "qber": [r.qber for r in reports],
            "null_ratio": [None if a == 0 else k / a for k, a in zip(null, arrived)],
            "expected_arrival": [e.expected_arrival for e in expected],
            "expected_null_ratio": [e.expected_null_ratio for e in expected],
        },
        "tests": {
            "qber_test": [r.qber_test for r in reports],
            "null_ratio_test": [r.null_ratio_test for r in reports],
        },
        "usd": {
            "scheme_efficiency": [_scheme_efficiency(c) for c in configs],
            "forwarded_z": [r.forwarded_z for r in reports],
            "forwarded_x": [r.forwarded_x for r in reports],
        },
        "rng": [r.rng for r in reports],
    }


def _check_feasibility(kind: ProtocolKind, strategy: EveStrategy) -> None:
    """Fail fast when a discrimination attack cannot exist for the protocol."""
    if strategy.scheme is None:
        return
    states = protocol_states(kind)
    if usd_feasible(states):
        return
    rank = gram_rank(np.linalg.eigvalsh(gram_matrix(states)))
    raise InfeasibleStrategyError(
        f"unambiguous discrimination of the {len(states)} {kind.value} states "
        f"is impossible: Gram matrix rank {rank} < {len(states)}"
    )


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run one full session and assemble its report.

    Deterministic given the config (including master_seed). Raises
    InfeasibleStrategyError for discrimination attacks on four-state
    protocols, before any pulse is simulated, and ConfigurationError when
    the session does not fit in memory: its engine block, its sifted
    disagreement bits or its reveal sampler cannot be allocated. The
    session runs as a batch of one, through the same engine and reveal
    sampler as a sweep's batches.
    """
    return _run_batch([config])[0]


def _reveal(configs: list[ExperimentConfig], errors: np.ndarray, sifted: list[int]):
    """Each session's QBER estimate (None if it sifted nothing) and its
    number of revealed bits, from one `estimate_qber_batch` call over the
    batch's sifted disagreement bits."""
    # derive_seed(master_seed, 0, STAGE_ESTIMATE) of every session: its estimation stream's seed
    master_seeds = np.array([c.master_seed for c in configs], dtype=np.uint64)
    seeds = derive_seed_array(master_seeds, np.zeros(len(configs), np.uint64), STAGE_ESTIMATE)
    fractions = np.array([c.reveal_fraction for c in configs])
    qber, revealed = estimate_qber_batch(errors, np.array(sifted), fractions, seeds)
    revealed = revealed.tolist()
    return [q if n else None for q, n in zip(qber.tolist(), revealed)], revealed


def _run_batch(configs: list[ExperimentConfig]) -> list[RunReport]:
    """Reports of sessions that share protocol, Eve and scheme kinds, run
    as one engine batch; each equals the report of its config run alone.

    The engine returns each session's counts and the batch's sifted
    disagreement bits, never a whole-session column; one reveal sampler
    call then counts every session's revealed bits and their
    disagreements, and the forwarded states are labelled once per state
    of the batch.
    """
    kind = configs[0].protocol_kind
    sessions = [c.session for c in configs]
    _check_feasibility(kind, sessions[0].strategy)
    try:
        counts = simulate_session(kind, sessions)
        sifted = counts.sifted.tolist()
        qber, revealed = _reveal(configs, counts.errors, sifted)
    except MemoryError:
        n_pulses = sum(c.n_pulses for c in configs)
        raise ConfigurationError(
            f"n_pulses {n_pulses} does not fit in memory; use fewer pulses"
        ) from None
    arrived = counts.arrived.tolist()
    # the id -1 of a suppressed pulse picks the trailing empty label
    labels = np.array([state_label(s) for s in counts.states] + [""])
    forwarded_z, forwarded_x = (
        per_session.tolist()
        for per_session in forwarded_state_symmetry(counts.forwarded, labels[counts.forwarded_ids])
    )

    sent = [c.n_pulses for c in configs]
    null_decisions = null_ratio_test(
        sent,
        [n - a for n, a in zip(sent, arrived)],
        [c.expected.expected_arrival for c in configs],
        [c.alpha for c in configs],
    )
    revealing = [i for i, n in enumerate(revealed) if n > 0]
    decided = qber_test(
        [qber[i] for i in revealing],
        [revealed[i] for i in revealing],
        [configs[i].qber_threshold for i in revealing],
    )
    qber_decisions = dict(zip(revealing, decided))
    return [
        RunReport(
            config=config,
            arrived=arrived[i],
            sifted=sifted[i],
            revealed=revealed[i],
            qber=qber[i],
            qber_test=qber_decisions.get(i),
            null_ratio_test=null_decisions[i],
            forwarded_z=forwarded_z[i],
            forwarded_x=forwarded_x[i],
        )
        for i, config in enumerate(configs)
    ]


SWEEP_PARAMETERS = ("delta", "n_pulses", "absorption", "efficiency", "alpha")


def _batches(configs: list[ExperimentConfig]):
    """Runs of consecutive configs with at most `BLOCK` pulses in all; a
    config of more pulses is a batch by itself."""
    batch, pulses = [], 0
    for config in configs:
        if batch and pulses + config.n_pulses > BLOCK:
            yield batch
            batch, pulses = [], 0
        batch.append(config)
        pulses += config.n_pulses
    if batch:
        yield batch


def sweep(config: ExperimentConfig, parameter: str, values: list) -> list[RunReport]:
    """One report per value, with per-point seeds hashed from the base seed.

    Each point's seed is derived from (master_seed, value index) alone,
    so every report equals a standalone run at that derived seed; points
    share no state, and truncating the value list never changes the
    reports that remain. Every point's config is built, so checked and
    parsed, before any runs. Consecutive points then run as engine
    batches of at most `session.BLOCK` pulses in all (a longer point
    alone), so a sweep of short sessions pays the engine's per-call costs
    once per batch. Whatever its points' lengths, a sweep holds one engine
    block of columns at a time, plus one byte per sifted pulse of the
    running batch and its reveal sampler's working arrays, which list no
    positions; the bookkeeping after the engine is batch array code as well
    (`_run_batch`), and `report_csv_rows` formats the CSV a column at a
    time.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigurationError(
            f"unknown sweep parameter {parameter!r}; choose from {SWEEP_PARAMETERS}"
        )
    configs = [
        replace(
            config,
            **{parameter: value, "master_seed": derive_seed(config.master_seed, index, STAGE_SWEEP)},
        )
        for index, value in enumerate(values)
    ]
    return [report for batch in _batches(configs) for report in _run_batch(batch)]


def _complex_list(vector) -> list:
    return [[float(z.real), float(z.imag)] for z in vector]


def _complex_pairs(matrix: np.ndarray) -> list:
    return [_complex_list(row) for row in matrix]


def usd_check(angles: list[tuple[float, float]]) -> dict:
    """Feasibility report for 1 to 8 states given as (theta, phi) pairs."""
    if not (1 <= len(angles) <= 8):
        raise ConfigurationError("usd_check takes between 1 and 8 states")
    try:
        states = [state_from_bloch(theta, phi) for theta, phi in angles]
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    gram = gram_matrix(states)
    eigvals = np.linalg.eigvalsh(gram)
    rank = gram_rank(eigvals)
    feasible = rank == len(states)
    report = {
        "states": [
            {"theta": float(t), "phi": float(p), "amplitudes": _complex_list(s.vector)}
            for (t, p), s in zip(angles, states)
        ],
        "gram_matrix": _complex_pairs(gram),
        "gram_eigenvalues": [float(v) for v in eigvals],
        "gram_rank": rank,
        "feasible": feasible,
        "optimal_conclusive_rate": None,
    }
    if feasible and len(states) == 2:
        rate = usd_efficiency(UsdSchemeKind.OPTIMAL_IDP, lambda: states)
        report["optimal_conclusive_rate"] = rate
    return report


def _direction_pair(theta: float, phi: float) -> tuple[QubitState, QubitState]:
    """The up and down states along one Bloch direction."""
    anti_phi = phi + math.pi
    if anti_phi >= 2.0 * math.pi:
        anti_phi -= 2.0 * math.pi
    return state_from_bloch(theta, phi), state_from_bloch(math.pi - theta, anti_phi)


DEMO_POVMS = {
    "sz": lambda seed: SZ_POVM,
    "sx": lambda seed: SX_POVM,
    "idp": lambda seed: idp_povm(Z_PLUS, X_PLUS),
    "random": lambda seed: random_povm(RngStream(seed)),
}
DEMO_U_PRIME = (HALF_PI, 0.0)


def no_signaling_demo(
    u: tuple[float, float] = (0.0, 0.0),
    u_prime: tuple[float, float] = DEMO_U_PRIME,
    povm_name: str = "random",
    seed: int = 0,
) -> dict:
    """Equal-mixture walkthrough: two decompositions, one POVM, no gap.

    Builds the 50/50 mixtures of the up/down pairs along two directions,
    checks their densities coincide, and shows that the chosen POVM's
    outcome distributions on the two mixtures agree to arithmetic noise.
    """
    check_seed(seed, "seed")
    try:
        pair_a, pair_b = _direction_pair(*u), _direction_pair(*u_prime)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    if povm_name not in DEMO_POVMS:
        raise ConfigurationError(f"unknown POVM {povm_name!r}; choose from {', '.join(DEMO_POVMS)}")
    povm = DEMO_POVMS[povm_name](seed)
    rho_a = mixture_density(pair_a, (0.5, 0.5))
    rho_b = mixture_density(pair_b, (0.5, 0.5))
    probs_a, probs_b, max_diff = no_signaling_distributions(povm, rho_a, rho_b)
    return {
        "direction_u": {"theta": u[0], "phi": u[1]},
        "direction_u_prime": {"theta": u_prime[0], "phi": u_prime[1]},
        "density_u": _complex_pairs(rho_a.matrix),
        "density_u_prime": _complex_pairs(rho_b.matrix),
        "densities_equal": density_equal(rho_a, rho_b, ALGEBRA_TOL),
        "povm": povm_name,
        "povm_elements": [_complex_pairs(e) for e in povm.elements],
        "distribution_u": [float(p) for p in probs_a],
        "distribution_u_prime": [float(p) for p in probs_b],
        "max_abs_difference": max_diff,
    }


# -- CSV rendering -----------------------------------------------------------

# a decision's `method` is in the JSON report but not in the CSV
_DECISION_COLUMNS = tuple(f.name for f in fields(TestDecision))


def _csv_format(kind: type):
    if kind is type(None):
        return lambda value: ""
    if issubclass(kind, bool):
        return lambda value: "true" if value else "false"
    if issubclass(kind, float):
        return repr
    return str


def _csv_cells(values: list) -> list[str]:
    """One column's cells: None empty, bools lower case, floats by `repr`,
    anything else by `str`. Each type's rule is looked up once, and each
    distinct object formatted once, so a column that repeats one config
    value repeats one string."""
    formats = {kind: _csv_format(kind) for kind in set(map(type, values))}
    objects = dict(zip(map(id, values), values))
    text = {key: formats[type(value)](value) for key, value in objects.items()}
    return list(map(text.__getitem__, map(id, values)))


def report_csv_rows(reports: list[RunReport]) -> list[str]:
    """Header line plus one line per report (nothing for no reports).

    The columns are `to_dict()` flattened in order: sections drop their
    name, and each test prefixes its decision fields with its own. They
    are built and formatted a whole column at a time.
    """
    if not reports:
        return []
    columns = {}
    for section, value in _report_columns(reports).items():
        if section == "tests":
            for test, decisions in value.items():
                for name in _DECISION_COLUMNS:
                    columns[f"{test}_{name}"] = [
                        None if d is None else getattr(d, name) for d in decisions
                    ]
        elif isinstance(value, dict):
            columns.update(value)
        else:
            columns[section] = value
    cells = map(_csv_cells, columns.values())
    return [",".join(columns)] + [",".join(row) for row in zip(*cells)]
