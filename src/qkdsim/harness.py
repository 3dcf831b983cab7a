"""Experiment configuration, execution, sweeps and machine-readable reports.

Configs are flat JSON documents with exactly the `ExperimentConfig`
field names; unknown fields are rejected so a typo cannot silently relax
a security experiment. Reports render as one key-sorted JSON document
(byte-identical for identical configs) or as CSV rows holding the same
report flattened in its own key order: config fields, then counts, then
statistics, then test decisions, then discrimination diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

from .adversary import HALF_PI, ChannelModel, EveKind, EveStrategy, forwarded_state_symmetry
from .detection import TestDecision, expected_rates, null_ratio_test, qber_test
from .protocol import ProtocolKind, estimate_qber, sift
from .quantum import (
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
from .rng import GENERATOR_NAME, RngStream, derive_seed
from .session import (
    BLOCK,
    STAGE_ESTIMATE,
    STAGE_SWEEP,
    Session,
    protocol_states,
    pulse_stream,
    simulate_session,
)
from .usd import (
    UsdSchemeKind,
    gram_matrix,
    gram_rank,
    idp_povm,
    inner_product,
    no_signaling_distributions,
    usd_efficiency,
    usd_feasible,
)


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
        for kind, name in _KINDS:
            try:
                kind(getattr(self, name))
            except ValueError:
                raise ConfigurationError(f"unknown {name} {getattr(self, name)!r}") from None
        if not _is_strict_int(self.n_pulses) or self.n_pulses < 1:
            raise ConfigurationError("n_pulses must be a positive integer")
        if self.n_pulses >= 2**63:
            # pulse offsets are int64; no such session could be allocated anyway
            raise ConfigurationError("n_pulses must be below 2**63")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(f"{name} must be a number")
        for name in ("absorption", "efficiency"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if (1.0 - self.absorption) * self.efficiency <= 0.0:
            raise ConfigurationError("channel never delivers a pulse; nothing to test")
        if not (0.0 <= self.delta < HALF_PI):
            raise ConfigurationError("delta must be in [0, pi/2)")
        if not (0.0 < self.reveal_fraction <= 1.0):
            raise ConfigurationError("reveal_fraction must be in (0, 1]")
        if not (0.0 < self.alpha < 1.0):
            raise ConfigurationError("alpha must be in (0, 1)")
        if not (0.0 <= self.qber_threshold <= 1.0):
            raise ConfigurationError("qber_threshold must be in [0, 1]")
        check_seed(self.master_seed, "master_seed")

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

    def protocol_kind(self) -> ProtocolKind:
        return ProtocolKind(self.protocol)

    def channel(self) -> ChannelModel:
        return ChannelModel(self.absorption, self.efficiency)

    def strategy(self) -> EveStrategy:
        kind, scheme_kind = EveKind(self.eve_strategy), UsdSchemeKind(self.usd_scheme)
        return EveStrategy.of(kind, scheme_kind, self.delta)


@dataclass(frozen=True)
class RunReport:
    """What one session measured: counts, QBER estimate, test decisions
    and discrimination diagnostics. `to_dict` derives the rest from these
    and the config."""

    config: ExperimentConfig
    arrived: int
    sifted: int
    revealed: int
    qber: float | None
    qber_test: TestDecision | None
    null_ratio_test: TestDecision
    scheme_efficiency: float | None
    forwarded_z: int
    forwarded_x: int
    rng: ClassVar[str] = GENERATOR_NAME

    def __post_init__(self) -> None:
        if not (self.revealed <= self.sifted <= self.arrived <= self.config.n_pulses):
            raise ValueError("inconsistent counts: need revealed <= sifted <= arrived <= sent")

    def to_dict(self) -> dict:
        sent = self.config.n_pulses
        null = sent - self.arrived
        expected = expected_rates(self.config.channel())
        return {
            "config": self.config.to_dict(),
            "counts": {
                "sent": sent,
                "arrived": self.arrived,
                "null": null,
                "sifted": self.sifted,
                "revealed": self.revealed,
                "key_length": self.sifted - self.revealed,
            },
            "statistics": {
                "sift_rate": self.sifted / sent,
                "qber": self.qber,
                "null_ratio": None if self.arrived == 0 else null / self.arrived,
                "expected_arrival": expected.expected_arrival,
                "expected_null_ratio": expected.expected_null_ratio,
            },
            "tests": {
                "qber_test": None if self.qber_test is None else self.qber_test.to_dict(),
                "null_ratio_test": self.null_ratio_test.to_dict(),
            },
            "usd": {
                "scheme_efficiency": self.scheme_efficiency,
                "forwarded_z": self.forwarded_z,
                "forwarded_x": self.forwarded_x,
            },
            "rng": self.rng,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _check_feasibility(kind: ProtocolKind, strategy: EveStrategy) -> None:
    """Fail fast when a discrimination attack cannot exist for the protocol."""
    if strategy.scheme is None:
        return
    states = protocol_states(kind)
    if usd_feasible(states):
        return
    raise InfeasibleStrategyError(
        f"unambiguous discrimination of the {len(states)} {kind.value} states "
        f"is impossible: Gram matrix rank {gram_rank(states)} < {len(states)}"
    )


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run one full session and assemble its report.

    Deterministic given the config (including master_seed). Raises
    InfeasibleStrategyError for discrimination attacks on four-state
    protocols, before any pulse is simulated, and ConfigurationError when
    the session's arrays cannot be allocated. The session runs as a batch
    of one.
    """
    return _run_batch([config])[0]


def _run_batch(configs: list[ExperimentConfig]) -> list[RunReport]:
    """Reports of sessions that share protocol, Eve and scheme kinds, run
    as one engine batch; each equals the report of its config run alone."""
    kind = configs[0].protocol_kind()
    sessions = [Session(c.n_pulses, c.channel(), c.strategy(), c.master_seed) for c in configs]
    _check_feasibility(kind, sessions[0].strategy)
    try:
        batch = simulate_session(kind, sessions)
    except MemoryError:
        n_pulses = sum(c.n_pulses for c in configs)
        raise ConfigurationError(
            f"n_pulses {n_pulses} does not fit in memory; use fewer pulses"
        ) from None

    # each distinct state table is labelled once, however many sessions share it
    labels = {table: tuple(map(state_label, table)) for table in dict.fromkeys(batch.state_tables)}
    columns = (batch.alice_bits, batch.alice_bases, batch.arrived, batch.bob_bases, batch.bob_minus)
    arrived, sifted, revealed, qber, symmetry = [], [], [], [], []
    for i, config in enumerate(configs):
        a, b = batch.starts[i], batch.starts[i + 1]
        errors = sift(kind, *(None if column is None else column[a:b] for column in columns))
        estimate, positions = None, ()
        if len(errors) > 0:
            estimate, positions = estimate_qber(
                errors,
                config.reveal_fraction,
                pulse_stream(config.master_seed, 0, STAGE_ESTIMATE),
            )
        arrived.append(int(np.count_nonzero(batch.arrived[a:b])))
        sifted.append(len(errors))
        revealed.append(len(positions))
        qber.append(estimate)
        symmetry.append(
            forwarded_state_symmetry(batch.forwarded_ids[a:b], labels[batch.state_tables[i]])
        )

    null_decisions = null_ratio_test(
        [c.n_pulses for c in configs],
        [c.n_pulses - n for c, n in zip(configs, arrived)],
        [expected_rates(s.channel).expected_arrival for s in sessions],
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
            scheme_efficiency=None if scheme is None else usd_efficiency(scheme),
            forwarded_z=symmetry[i][0],
            forwarded_x=symmetry[i][1],
        )
        for i, (config, scheme) in enumerate(zip(configs, [s.strategy.scheme for s in sessions]))
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
    reports that remain. Every point's config is validated before any
    runs. Consecutive points then run as engine batches of at most
    `session.BLOCK` pulses in all (a longer point alone), so a sweep of
    short sessions pays the engine's per-call costs once per batch, and
    holds at most one block of transcript (or one long point's) at a time.
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
    feasible = usd_feasible(states)
    report = {
        "states": [
            {"theta": float(t), "phi": float(p), "amplitudes": _complex_list(s.vector)}
            for (t, p), s in zip(angles, states)
        ],
        "gram_matrix": _complex_pairs(gram),
        "gram_eigenvalues": [float(v) for v in eigvals],
        "gram_rank": gram_rank(states),
        "feasible": bool(feasible),
        "optimal_conclusive_rate": None,
    }
    if feasible and len(states) == 2:
        report["optimal_conclusive_rate"] = 1.0 - abs(inner_product(states[0], states[1]))
    return report


def _direction_pair(theta: float, phi: float) -> tuple[QubitState, QubitState]:
    """The up and down states along one Bloch direction."""
    anti_phi = phi + math.pi
    if anti_phi >= 2.0 * math.pi:
        anti_phi -= 2.0 * math.pi
    return state_from_bloch(theta, phi), state_from_bloch(math.pi - theta, anti_phi)


def _demo_povm(name: str, seed: int) -> Povm:
    if name == "sz":
        return SZ_POVM
    if name == "sx":
        return SX_POVM
    if name == "idp":
        return idp_povm(Z_PLUS, X_PLUS)
    if name == "random":
        return random_povm(RngStream(seed))
    raise ConfigurationError(f"unknown POVM {name!r}; choose sz, sx, idp or random")


def no_signaling_demo(
    u: tuple[float, float] = (0.0, 0.0),
    u_prime: tuple[float, float] = (HALF_PI, 0.0),
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
    povm = _demo_povm(povm_name, seed)
    rho_a = mixture_density(pair_a, (0.5, 0.5))
    rho_b = mixture_density(pair_b, (0.5, 0.5))
    probs_a, probs_b, max_diff = no_signaling_distributions(
        povm, (pair_a, (0.5, 0.5)), (pair_b, (0.5, 0.5))
    )
    return {
        "direction_u": {"theta": u[0], "phi": u[1]},
        "direction_u_prime": {"theta": u_prime[0], "phi": u_prime[1]},
        "density_u": _complex_pairs(rho_a.matrix),
        "density_u_prime": _complex_pairs(rho_b.matrix),
        "densities_equal": density_equal(rho_a, rho_b, 1e-12),
        "povm": povm_name,
        "povm_elements": [_complex_pairs(e) for e in povm.elements],
        "distribution_u": [float(p) for p in probs_a],
        "distribution_u_prime": [float(p) for p in probs_b],
        "max_abs_difference": max_diff,
    }


# -- CSV rendering -----------------------------------------------------------

# a decision's `method` is in the JSON report but not in the CSV
_DECISION_COLUMNS = tuple(f.name for f in fields(TestDecision))


def _csv_row(report: RunReport) -> dict:
    """`to_dict()` flattened in order: sections drop their name, each test
    prefixes its decision fields with its own."""
    row = {}
    for section, value in report.to_dict().items():
        if section == "tests":
            for test, decision in value.items():
                for name in _DECISION_COLUMNS:
                    row[f"{test}_{name}"] = None if decision is None else decision[name]
        elif isinstance(value, dict):
            row.update(value)
        else:
            row[section] = value
    return row


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_csv_rows(reports: list[RunReport]) -> list[str]:
    """Header line plus one line per report (nothing for no reports)."""
    rows = [_csv_row(report) for report in reports]
    if not rows:
        return []
    return [",".join(rows[0])] + [",".join(_csv_cell(v) for v in row.values()) for row in rows]
