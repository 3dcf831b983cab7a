"""Experiment configuration, execution, sweeps and machine-readable reports.

Configs are flat JSON documents with exactly the `ExperimentConfig`
field names; unknown fields are rejected so a typo cannot silently relax
a security experiment. Every config, a sweep point's and `replace`'s
too, is made by its constructor, which checks and parses it once by the
one check `_check`, so it holds only plain JSON values, and a run reads
what it kept. A report is one ordered set of leaves, each named by its
path (section, key, and for a test its decision field). It renders as
one key-sorted JSON document that nests the paths (`json_text`,
byte-identical for identical configs) or as CSV rows with a column per
leaf in the same order, named by its path without the section: config
fields, then counts, then statistics, then test decisions, then
discrimination diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import ClassVar

import numpy as np

from .adversary import HALF_PI, ChannelModel, EveKind, EveStrategy, forwarded_state_symmetry
from .detection import TestDecision, expected_rates, null_ratio_test, qber_test
from .protocol import ProtocolKind, estimate_qber_batch
from .quantum import (
    B92_STATES,
    QubitState,
    SX_POVM,
    SZ_POVM,
    density_equal,
    mixture_density,
    random_povm,
    state_from_bloch,
    state_labels,
)
from .rng import GENERATOR_NAME, RngStream, derive_seed_array, seed_prefix
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
    gram_eigenvalues,
    gram_matrix,
    gram_rank,
    idp_povm,
    no_signaling_distributions,
    usd_efficiency,
    usd_feasible,
)

# not called here; kept because bench/tracing.py wraps these names on this module
from .protocol import estimate_qber, sift  # noqa: F401
from .session import derive_seed, pulse_stream  # noqa: F401


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


_FLOAT_FIELDS = ("absorption", "efficiency", "delta", "reveal_fraction", "alpha", "qber_threshold")


def _check(config: "ExperimentConfig") -> None:
    """Check every field of `config`, raising ConfigurationError at the
    first bad one, and keep what the checks parse: `protocol_kind`,
    `expected` (the channel's `ExpectedRates`) and `session` (the engine's
    `Session`: its channel and Eve's strategy). The checks run in this
    order, which picks the message when several fields are bad: the three
    kinds, `n_pulses`, that every float field is a number, the channel and
    its expectations, each range, the seed, and last Eve's strategy and
    the session."""
    kinds = []
    for kind, name in (
        (ProtocolKind, "protocol"), (EveKind, "eve_strategy"), (UsdSchemeKind, "usd_scheme")
    ):
        value = getattr(config, name)
        try:
            # only a string names a kind: an enum member parses as itself,
            # and a config that kept one could not print it
            if not isinstance(value, str):
                raise ValueError(value)
            kinds.append(kind(value))
        except ValueError:
            raise ConfigurationError(f"unknown {name} {value!r}") from None
    protocol_kind, eve_kind, scheme_kind = kinds
    if not _is_strict_int(config.n_pulses) or config.n_pulses < 1:
        raise ConfigurationError("n_pulses must be a positive integer")
    if config.n_pulses >= 2**63:
        # pulse offsets are int64; no such session could be allocated anyway
        raise ConfigurationError("n_pulses must be below 2**63")
    for name in _FLOAT_FIELDS:
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{name} must be a number")
    try:
        channel = ChannelModel(config.absorption, config.efficiency)
        expected = expected_rates(channel)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    for name, inside, interval in (
        # checked here: only basis_mismatch hands delta to its strategy
        ("delta", 0.0 <= config.delta < HALF_PI, "[0, pi/2)"),
        ("reveal_fraction", 0.0 < config.reveal_fraction <= 1.0, "(0, 1]"),
        ("alpha", 0.0 < config.alpha < 1.0, "(0, 1)"),
        ("qber_threshold", 0.0 <= config.qber_threshold <= 1.0, "[0, 1]"),
    ):
        if not inside:
            raise ConfigurationError(f"{name} must be in {interval}")
    check_seed(config.master_seed, "master_seed")
    strategy = EveStrategy.of(eve_kind, scheme_kind, config.delta)
    config.__dict__.update(
        protocol_kind=protocol_kind,
        expected=expected,
        session=Session(config.n_pulses, channel, strategy, config.master_seed),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings, each a plain JSON value: the kinds are
    strings, and a float field may be any float, numpy's too. Building it
    (`replace` and a sweep point too) runs the one config check, `_check`,
    which keeps what it parses outside the fields, unseen by equality,
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
        _check(self)

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
    """What one session measured: counts, test decisions, the states Eve
    forwarded and her scheme's conclusive rate (None without a scheme).
    The QBER estimate is the QBER test's statistic, the revealed
    disagreements over the revealed bits. `to_dict` derives the rest, the
    channel's expectations, from these and the config."""

    config: ExperimentConfig
    arrived: int
    sifted: int
    revealed: int
    qber_test: TestDecision | None
    null_ratio_test: TestDecision
    forwarded_z: int
    forwarded_x: int
    scheme_efficiency: float | None
    rng: ClassVar[str] = GENERATOR_NAME

    def __post_init__(self) -> None:
        if not (self.revealed <= self.sifted <= self.arrived <= self.config.n_pulses):
            raise ValueError("inconsistent counts: need revealed <= sifted <= arrived <= sent")

    @property
    def qber(self) -> float | None:
        """The revealed bits' disagreement rate, None if none were revealed."""
        return None if self.qber_test is None else self.qber_test.statistic

    def to_dict(self) -> dict:
        """The report's leaves nested by their paths (see `report_dicts`)."""
        return report_dicts([self])[0]

    def to_json(self) -> str:
        return json_text(self.to_dict())


def json_text(document) -> str:
    """The one JSON layout of every report: indented, keys sorted."""
    return json.dumps(document, indent=2, sort_keys=True)


_CONFIG_FIELDS = tuple(f.name for f in fields(ExperimentConfig))
_DECISION_FIELDS = (*(f.name for f in fields(TestDecision)), "method")


def _report_columns(reports: list[RunReport]) -> dict:
    """Every report's leaves at once, in report order: each path (section,
    key, and for a test its decision field, `method` last) maps to a list
    with one value per report. A test that did not run has None in each
    of its fields."""
    configs = [r.config for r in reports]
    sent = [c.n_pulses for c in configs]
    arrived = [r.arrived for r in reports]
    sifted = [r.sifted for r in reports]
    revealed = [r.revealed for r in reports]
    null = [n - a for n, a in zip(sent, arrived)]
    expected = [c.expected for c in configs]
    tests = {t: list(map(attrgetter(t), reports)) for t in ("qber_test", "null_ratio_test")}
    return {
        **{("config", name): list(map(attrgetter(name), configs)) for name in _CONFIG_FIELDS},
        ("counts", "sent"): sent,
        ("counts", "arrived"): arrived,
        ("counts", "null"): null,
        ("counts", "sifted"): sifted,
        ("counts", "revealed"): revealed,
        ("counts", "key_length"): [s - r for s, r in zip(sifted, revealed)],
        ("statistics", "sift_rate"): [s / n for s, n in zip(sifted, sent)],
        ("statistics", "qber"): [r.qber for r in reports],
        ("statistics", "null_ratio"): [None if a == 0 else k / a for k, a in zip(null, arrived)],
        ("statistics", "expected_arrival"): [e.expected_arrival for e in expected],
        ("statistics", "expected_null_ratio"): [e.expected_null_ratio for e in expected],
        **{
            ("tests", test, name): [None if d is None else getattr(d, name) for d in decisions]
            for test, decisions in tests.items()
            for name in _DECISION_FIELDS
        },
        ("usd", "scheme_efficiency"): [r.scheme_efficiency for r in reports],
        ("usd", "forwarded_z"): [r.forwarded_z for r in reports],
        ("usd", "forwarded_x"): [r.forwarded_x for r in reports],
        ("rng",): [r.rng for r in reports],
    }


def report_dicts(reports: list[RunReport]) -> list[dict]:
    """Each report's leaves nested by their paths, from one
    `_report_columns` call whose columns are zipped into rows; a test
    that did not run is None, not a decision of Nones."""
    columns = _report_columns(reports)
    paths = [(sections, name) for (*sections, name) in columns]
    documents = []
    for row in zip(*columns.values()):
        report = {}
        for (sections, name), value in zip(paths, row):
            node = report
            for section in sections:
                node = node.setdefault(section, {})
            node[name] = value
        tests = report["tests"]
        for test, d in tests.items():
            tests[test] = d if d["method"] else None
        documents.append(report)
    return documents


def _check_feasibility(kind: ProtocolKind, strategy: EveStrategy) -> None:
    """Fail fast when a discrimination attack cannot exist for the
    protocol: `usd_feasible` decides, and on failure the message gives the
    rank of `gram_eigenvalues`' spectrum."""
    if strategy.scheme is None:
        return
    states = protocol_states(kind)
    if usd_feasible(states):
        return
    rank = gram_rank(gram_eigenvalues(states))
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


def _run_batch(configs: list[ExperimentConfig]) -> list[RunReport]:
    """Reports of sessions that share protocol, Eve and scheme kinds, run
    as one engine batch; each equals the report of its config run alone.

    The engine returns each session's counts and the batch's sifted
    disagreement bits, never a whole-session column. One reveal sampler
    call counts every session's revealed bits and their disagreements;
    each session's stream is stage `STAGE_ESTIMATE` of its pulse 0, seeded
    from that pulse's prefix as every engine stage is. The counts stay int64
    arrays through the reveal and both tests, and become Python ints once,
    for the reports. The batch's kets are labelled by one array product
    (`state_labels`), and the scheme's conclusive rates by one
    `usd_efficiency` call, a rate per distinct strategy, off the ket pairs
    the engine rotated for them.
    """
    kind = configs[0].protocol_kind
    sessions = [c.session for c in configs]
    _check_feasibility(kind, sessions[0].strategy)
    master_seeds = np.array([c.master_seed for c in configs], dtype=np.uint64)
    try:
        counts = simulate_session(kind, sessions)
        wrong, revealed = estimate_qber_batch(
            counts.errors,
            counts.sifted,
            np.array([c.reveal_fraction for c in configs]),
            derive_seed_array(STAGE_ESTIMATE, seed_prefix(master_seeds)),
        )
    except MemoryError:
        n_pulses = sum(c.n_pulses for c in configs)
        raise ConfigurationError(
            f"n_pulses {n_pulses} does not fit in memory; use fewer pulses"
        ) from None
    # the id -1 of a suppressed pulse picks the trailing empty label
    labels = np.array(state_labels(counts.vectors) + [""])
    forwarded_z, forwarded_x = forwarded_state_symmetry(
        counts.forwarded, labels[counts.forwarded_ids]
    )
    scheme = sessions[0].strategy.scheme
    rates = usd_efficiency(scheme, counts.pairs).tolist() if scheme else [None] * len(configs)

    sent = np.array([c.n_pulses for c in configs], dtype=np.int64)
    null_decisions = null_ratio_test(
        sent,
        sent - counts.arrived,
        [c.expected.expected_arrival for c in configs],
        [c.alpha for c in configs],
    )
    revealing = np.flatnonzero(revealed)
    decided = qber_test(
        wrong[revealing],
        revealed[revealing],
        np.array([c.qber_threshold for c in configs])[revealing],
    )
    qber_decisions = dict(zip(revealing.tolist(), decided))
    arrived, sifted, revealed, forwarded_z, forwarded_x, strategy = (
        column.tolist()
        for column in (
            counts.arrived, counts.sifted, revealed, forwarded_z, forwarded_x, counts.strategy
        )
    )
    return [
        RunReport(
            config=config,
            arrived=arrived[i],
            sifted=sifted[i],
            revealed=revealed[i],
            qber_test=qber_decisions.get(i),
            null_ratio_test=null_decisions[i],
            forwarded_z=forwarded_z[i],
            forwarded_x=forwarded_x[i],
            scheme_efficiency=rates[strategy[i]],
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
    `derive_seed(master_seed, index, STAGE_SWEEP)`, all points' by one
    `derive_seed_array` call, so every report equals a standalone run at
    that derived seed; points share no state, and truncating the value
    list never changes the reports that remain. Every point's config is
    built before any runs, in value order, by the constructor from the
    base's fields with the point's value and seed, through the one full
    check (`_check`), so a bad value fails at the first bad point with the
    message that config alone gives.
    Consecutive points then run as engine batches of at most
    `session.BLOCK` pulses in all (a longer point alone), so a sweep of
    short sessions pays the engine's per-call costs once per batch.
    Whatever its points' lengths, a sweep holds one engine block of
    columns at a time, plus one byte per sifted pulse of the running
    batch and its reveal sampler's working arrays, which list no
    positions; the bookkeeping after the engine is batch array code as
    well (`_run_batch`), and the reports render from one set of leaf
    columns (`report_csv_rows`, `report_dicts`).
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigurationError(
            f"unknown sweep parameter {parameter!r}; choose from {SWEEP_PARAMETERS}"
        )
    indices = np.arange(len(values), dtype=np.uint64)
    seeds = derive_seed_array(STAGE_SWEEP, seed_prefix(indices ^ np.uint64(config.master_seed)))
    base = config.to_dict()
    configs = [
        ExperimentConfig(**{**base, parameter: value, "master_seed": seed})
        for value, seed in zip(values, seeds.tolist())
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
    eigvals = gram_eigenvalues(states)
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
        pair = np.array([[s.vector for s in states]])
        report["optimal_conclusive_rate"] = usd_efficiency(UsdSchemeKind.OPTIMAL_IDP, pair).item()
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
    "idp": lambda seed: idp_povm(*B92_STATES),
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
        "densities_equal": density_equal(rho_a, rho_b),
        "povm": povm_name,
        "povm_elements": [_complex_pairs(e) for e in povm.elements],
        "distribution_u": [float(p) for p in probs_a],
        "distribution_u_prime": [float(p) for p in probs_b],
        "max_abs_difference": max_diff,
    }


# -- CSV rendering -----------------------------------------------------------

# A CSV cell by its value's exact type: None empty, bools lower case,
# floats by repr, and any other type by str. A numpy float thus prints by
# its str, the text its float's repr and JSON give, not as `np.float64(0.1)`.
_CSV_FORMATS = {
    type(None): lambda value: "",
    bool: {False: "false", True: "true"}.__getitem__,
    float: repr,
}


def _csv_column(values: list):
    """A column's cells, by a format picked once per type in the column."""
    formats = {kind: _CSV_FORMATS.get(kind, str) for kind in set(map(type, values))}
    if len(formats) == 1:
        (format_,) = formats.values()
        return map(format_, values)
    return (formats[type(value)](value) for value in values)


def report_csv_rows(reports: list[RunReport]) -> list[str]:
    """Header line plus one line per report (nothing for no reports).

    A column per leaf of the report, in its order, named by the leaf's
    path without its section, joined by "_" (a section that is a leaf
    names itself); a decision's `method` is JSON-only. Each column picks
    its cells' format once per type it holds (`_csv_column`), and the
    rows are joined as the columns are zipped, with no cache.
    """
    if not reports:
        return []
    columns = {
        "_".join(path[1:] or path): values
        for path, values in _report_columns(reports).items()
        if path[-1] != "method"
    }
    cells = [_csv_column(values) for values in columns.values()]
    return [",".join(columns)] + [",".join(row) for row in zip(*cells)]
