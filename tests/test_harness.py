"""Config ingestion, report assembly, sweeps, feasibility checks and the CLI."""

import contextlib
import io
import json
import math
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from qkdsim import harness, session
from qkdsim.adversary import ChannelModel, EveStrategy
from qkdsim.cli import _sweep_values, main
from qkdsim.detection import expected_rates
from qkdsim.harness import (
    SWEEP_PARAMETERS,
    ConfigurationError,
    ExperimentConfig,
    InfeasibleStrategyError,
    RunReport,
    no_signaling_demo,
    report_csv_rows,
    run_experiment,
    sweep,
    usd_check,
)
from qkdsim.protocol import ProtocolKind
from qkdsim.quantum import state_labels
from qkdsim.rng import derive_seed
from qkdsim.session import BLOCK, STAGE_SWEEP
from qkdsim.usd import usd_efficiency
from reference import batch_states, csv_lines, csv_row

HALF_PI = math.pi / 2
BASE = {"protocol": "b92", "n_pulses": 2_000, "master_seed": 9}


def _count_calls(monkeypatch, name: str, owners=None) -> list:
    """Wrap `name` on each of `owners` (default: every `qkdsim` module
    that has the name) so that every call appends its arguments to the
    one list returned."""
    calls = []
    if owners is None:
        owners = [
            module for key, module in list(sys.modules.items())
            if key.split(".")[0] == "qkdsim" and hasattr(module, name)
        ]
    for owner in owners:
        def counted(*args, original=getattr(owner, name), **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestConfig:
    def test_defaults_filled(self):
        config = ExperimentConfig.from_dict(dict(BASE))
        assert config.eve_strategy == "none"
        assert config.alpha == 0.001
        assert config.reveal_fraction == 0.2

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config fields"):
            ExperimentConfig.from_dict({**BASE, "typo_field": 1})

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigurationError, match="missing required"):
            ExperimentConfig.from_dict({"protocol": "b92"})

    @pytest.mark.parametrize(
        "patch",
        [
            {"protocol": "b93"},
            {"n_pulses": 0},
            {"n_pulses": True},
            {"master_seed": True},
            {"absorption": 1.2},
            {"absorption": 1.0},
            {"eve_strategy": "clone"},
            {"usd_scheme": "best"},
            {"delta": HALF_PI},
            {"reveal_fraction": 0.0},
            {"alpha": 0.0},
            {"qber_threshold": 1.5},
        ],
    )
    def test_invalid_values_rejected(self, patch):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({**BASE, **patch})

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 42])
    def test_master_seed_outside_64_bits_rejected(self, seed):
        """Seeds are not wrapped: 2**64 + 42 would otherwise run seed 42."""
        with pytest.raises(ConfigurationError, match="master_seed"):
            ExperimentConfig.from_dict({**BASE, "master_seed": seed})

    @pytest.mark.parametrize(
        "patch,message",
        [
            ({"protocol": "b93", "n_pulses": 0}, "unknown protocol 'b93'"),
            ({"n_pulses": 0, "delta": "0.1"}, "n_pulses must be a positive integer"),
            ({"delta": "0.1", "absorption": 1.5}, "delta must be a number"),
            ({"absorption": 1.5, "delta": 2.0}, "absorption must be in [0, 1], got 1.5"),
            (
                {"efficiency": 0.0, "delta": 2.0},
                "degenerate channel (absorption 0.0, efficiency 0.0) delivers a pulse too "
                "rarely: its expected null ratio is not finite",
            ),
            ({"delta": 2.0, "master_seed": -1}, "delta must be in [0, pi/2)"),
            ({"reveal_fraction": 0.0, "alpha": 0.0}, "reveal_fraction must be in (0, 1]"),
            ({"alpha": 1.0, "qber_threshold": 2.0}, "alpha must be in (0, 1)"),
            ({"qber_threshold": 2.0, "master_seed": 2**64}, "qber_threshold must be in [0, 1]"),
        ],
    )
    def test_first_failing_check_names_the_error(self, patch, message):
        """With two bad fields the message is the first failing check's, in
        the check's order: kinds, `n_pulses`, numberness, the channel and its
        expectations, the ranges, the seed."""
        with pytest.raises(ConfigurationError) as error:
            ExperimentConfig.from_dict({**BASE, **patch})
        assert str(error.value) == message

    def test_master_seed_bounds_accepted(self):
        for seed in (0, 2**64 - 1):
            assert ExperimentConfig.from_dict({**BASE, "master_seed": seed}).master_seed == seed

    @pytest.mark.parametrize(
        "field,value",
        [("protocol", ["b92"]), ("eve_strategy", None), ("usd_scheme", {"naive": 1})],
    )
    def test_non_string_kinds_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"unknown {field}"):
            ExperimentConfig.from_dict({**BASE, field: value})

    def test_round_trip(self):
        config = ExperimentConfig.from_dict({**BASE, "eve_strategy": "basis_mismatch", "delta": 0.2})
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_parsed_parts_follow_replace(self):
        """`replace` re-parses: the kept session, strategy and expectations
        are the new config's, and the old config keeps its own."""
        config = ExperimentConfig.from_dict({**BASE, "eve_strategy": "basis_mismatch", "delta": 0.2})
        assert config.protocol_kind is ProtocolKind.B92
        assert config.session.strategy.rotation == 0.2
        moved = replace(config, delta=0.3, absorption=0.5, master_seed=4)
        assert moved.session.strategy.rotation == 0.3
        assert moved.session.channel.absorption == 0.5
        assert moved.session.master_seed == 4 and moved.session.n_pulses == BASE["n_pulses"]
        assert moved.expected.expected_arrival == 0.5
        assert config.session.strategy.rotation == 0.2 and config.expected.expected_arrival == 1.0

    def test_parsed_parts_never_leak(self):
        """The kept parts are not fields: the field list, `to_dict`, the
        round trip, equality and hashing see only the 11 config values.
        Besides those a config holds exactly the three parts its check
        parses, whether built, replaced or swept: no other attribute."""
        names = [
            "protocol", "n_pulses", "absorption", "efficiency", "eve_strategy", "usd_scheme",
            "delta", "reveal_fraction", "alpha", "qber_threshold", "master_seed",
        ]
        assert [f.name for f in fields(ExperimentConfig)] == names
        data = {**BASE, "eve_strategy": "usd_suppress", "usd_scheme": "optimal"}
        config = ExperimentConfig.from_dict(data)
        assert list(config.to_dict()) == names
        assert ExperimentConfig.from_dict(config.to_dict()) == config
        twin = ExperimentConfig.from_dict(dict(data))
        assert twin == config and hash(twin) == hash(config)
        assert twin.session is not config.session and twin.session == config.session
        (point,) = (r.config for r in sweep(replace(config, n_pulses=30), "alpha", [0.5]))
        for built in (config, replace(config, alpha=0.5), point):
            assert set(vars(built)) == {*names, "protocol_kind", "expected", "session"}


class TestRunExperiment:
    def test_counts_consistent(self):
        report = run_experiment(ExperimentConfig.from_dict({**BASE, "absorption": 0.2}))
        counts = report.to_dict()["counts"]
        assert counts["arrived"] + counts["null"] == counts["sent"]
        assert counts["sifted"] <= counts["arrived"]
        assert counts["key_length"] == counts["sifted"] - counts["revealed"]

    def test_report_holds_only_measured_values(self):
        """What the session measured, and the conclusive rate of the pair
        Eve's measurement was built from, which the batch reads once per
        distinct strategy; the channel's expectations come from the config."""
        assert [f.name for f in fields(RunReport)] == [
            "config", "arrived", "sifted", "revealed", "qber_test",
            "null_ratio_test", "forwarded_z", "forwarded_x", "scheme_efficiency",
        ]

    def test_qber_is_the_qber_tests_statistic(self):
        attack = {**BASE, "eve_strategy": "intercept_resend"}
        report = run_experiment(ExperimentConfig.from_dict(attack))
        assert report.qber == report.qber_test.statistic > 0.0
        assert report.to_dict()["statistics"]["qber"] == report.qber
        lost = {**BASE, "n_pulses": 1, "efficiency": 1e-6}
        silent = run_experiment(ExperimentConfig.from_dict(lost))
        assert silent.revealed == 0 and silent.qber_test is None and silent.qber is None

    def test_revealed_above_sifted_rejected(self):
        report = run_experiment(ExperimentConfig.from_dict(BASE))
        with pytest.raises(ValueError, match="inconsistent counts"):
            replace(report, revealed=report.sifted + 1)

    def test_arrived_above_sent_rejected(self):
        report = run_experiment(ExperimentConfig.from_dict(BASE))
        with pytest.raises(ValueError, match="inconsistent counts"):
            replace(report, arrived=report.config.n_pulses + 1)

    def test_report_reproducible_from_config_echo(self):
        report = run_experiment(ExperimentConfig.from_dict(BASE))
        echoed = ExperimentConfig.from_dict(report.to_dict()["config"])
        assert run_experiment(echoed).to_json() == report.to_json()

    def test_json_byte_identical(self):
        config = ExperimentConfig.from_dict({**BASE, "eve_strategy": "usd_suppress"})
        assert run_experiment(config).to_json() == run_experiment(config).to_json()

    def test_bb84_usd_suppress_infeasible(self):
        config = ExperimentConfig.from_dict(
            {"protocol": "bb84", "n_pulses": 10, "eve_strategy": "usd_suppress"}
        )
        with pytest.raises(InfeasibleStrategyError, match="Gram matrix rank 2 < 4"):
            run_experiment(config)

    def test_bb84_basis_mismatch_infeasible(self):
        config = ExperimentConfig.from_dict(
            {"protocol": "bb84", "n_pulses": 10, "eve_strategy": "basis_mismatch", "delta": 0.1}
        )
        with pytest.raises(InfeasibleStrategyError):
            run_experiment(config)

    def test_feasible_attack_passes_the_usd_feasible_gate(self, monkeypatch):
        """The gate's success path is one `harness.usd_feasible` call."""
        calls = _count_calls(monkeypatch, "usd_feasible", [harness])
        run_experiment(ExperimentConfig.from_dict({**BASE, "eve_strategy": "usd_suppress"}))
        assert len(calls) == 1

    def test_rng_identifier_recorded(self):
        assert run_experiment(ExperimentConfig.from_dict(BASE)).rng == "splitmix64"

    def test_scheme_diagnostics_present_only_for_usd(self):
        honest = run_experiment(ExperimentConfig.from_dict(BASE))
        assert honest.to_dict()["usd"]["scheme_efficiency"] is None
        attack = run_experiment(
            ExperimentConfig.from_dict({**BASE, "eve_strategy": "usd_suppress"})
        )
        assert attack.to_dict()["usd"]["scheme_efficiency"] == 0.25

    def test_bb84_honest_run_with_optimal_scheme_configured(self, tmp_path, capsys):
        """usd_scheme is ignored by strategies that discriminate nothing."""
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"protocol": "bb84", "n_pulses": 500, "usd_scheme": "optimal"}))
        assert main(["run", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["usd"]["scheme_efficiency"] is None


class TestSweep:
    def test_delta_sweep_qber_column(self):
        config = ExperimentConfig.from_dict(
            {
                "protocol": "b92",
                "n_pulses": 40_000,
                "eve_strategy": "basis_mismatch",
                "reveal_fraction": 1.0,
                "master_seed": 5,
            }
        )
        reports = sweep(config, "delta", [0.0, math.pi / 16, math.pi / 8])
        assert reports[0].qber == 0.0
        assert reports[1].qber > 0.0
        assert reports[2].qber > reports[1].qber

    def test_n_pulses_sweep_sharpens_detection(self):
        config = ExperimentConfig.from_dict(
            {"protocol": "b92", "n_pulses": 1, "eve_strategy": "usd_suppress", "master_seed": 3}
        )
        reports = sweep(config, "n_pulses", [1_000, 10_000, 100_000])
        p_values = [r.null_ratio_test.p_value for r in reports]
        assert all(a >= b for a, b in zip(p_values, p_values[1:]))

    def test_empty_values(self):
        assert sweep(ExperimentConfig.from_dict(BASE), "alpha", []) == []

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError, match="unknown sweep parameter"):
            sweep(ExperimentConfig.from_dict(BASE), "protocol", ["bb84"])

    def test_points_independent_of_each_other(self):
        """Each point equals a standalone run with the derived seed."""
        config = ExperimentConfig.from_dict({**BASE, "absorption": 0.1})
        values = [0.05, 0.1, 0.2]
        reports = sweep(config, "absorption", values)
        for index, value in enumerate(values):
            standalone = run_experiment(
                replace(
                    config,
                    absorption=value,
                    master_seed=derive_seed(config.master_seed, index, STAGE_SWEEP),
                )
            )
            assert standalone.to_json() == reports[index].to_json()


    @pytest.mark.parametrize("block", [1, 600, 1_000])
    def test_reports_independent_of_batching(self, block, monkeypatch):
        """Whichever points share a batch, every report stays the same."""
        config = ExperimentConfig.from_dict(
            {**BASE, "n_pulses": 300, "eve_strategy": "basis_mismatch", "usd_scheme": "optimal"}
        )
        values = [0.0, 0.2, 0.0, 0.7, 1.1, 0.05, 0.0]
        want = [r.to_json() for r in sweep(config, "delta", values)]
        monkeypatch.setattr(harness, "BLOCK", block)
        assert [r.to_json() for r in sweep(config, "delta", values)] == want

    def test_invalid_point_rejected_before_any_point_runs(self, monkeypatch):
        ran = []
        monkeypatch.setattr(harness, "simulate_session", lambda *a: ran.append(a))
        with pytest.raises(ConfigurationError, match="delta"):
            sweep(ExperimentConfig.from_dict(BASE), "delta", [0.1, 0.2, 5.0])
        assert ran == []


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


# (protocol, eve_strategy, usd_scheme); bb84 with usd_suppress is infeasible
_COMBOS = [
    ("b92", "basis_mismatch", "naive"),
    ("b92", "basis_mismatch", "optimal"),
    ("b92", "usd_suppress", "naive"),
    ("b92", "none", "naive"),
    ("bb84", "intercept_resend", "naive"),
    ("bb84", "usd_suppress", "optimal"),
]
_NAN = float("nan")
_VALID = {
    "delta": st.floats(0.0, 1.5),
    "n_pulses": st.integers(1, 400) | st.just(BLOCK + 1),
    "absorption": st.floats(0.0, 0.99),
    "efficiency": st.floats(0.01, 1.0),
    "alpha": st.floats(1e-6, 0.999),
}
_INVALID = {
    "delta": st.sampled_from([-0.1, HALF_PI, 2.0, _NAN, math.inf]),
    "n_pulses": st.sampled_from([0, -3, 1.5]),
    "absorption": st.sampled_from([-0.01, 1.0, 1.5, _NAN]),
    "efficiency": st.sampled_from([0.0, -0.5, 1.01, _NAN]),
    "alpha": st.sampled_from([0.0, 1.0, -1.0, _NAN]),
}


@st.composite
def _sweeps(draw):
    """A base config, a parameter and a value list; about half the lists
    carry one invalid value at a random place."""
    protocol, strategy, scheme = draw(st.sampled_from(_COMBOS))
    base = {
        "protocol": protocol,
        "eve_strategy": strategy,
        "usd_scheme": scheme,
        "n_pulses": draw(st.sampled_from([1, 40, 300])),
        "reveal_fraction": draw(st.sampled_from([0.2, 1.0])),
        "master_seed": draw(st.integers(0, 2**64 - 1)),
    }
    parameter = draw(st.sampled_from(SWEEP_PARAMETERS))
    values = draw(st.lists(_VALID[parameter], min_size=1, max_size=6))
    bad = draw(st.none() | _INVALID[parameter])
    if bad is not None:
        values.insert(draw(st.integers(0, len(values))), bad)
    return base, parameter, values


def _sweep_case(parameter, values, protocol="b92", strategy="basis_mismatch", n_pulses=300):
    base = {"protocol": protocol, "eve_strategy": strategy, "usd_scheme": "naive",
            "n_pulses": n_pulses, "reveal_fraction": 1.0, "master_seed": 77}
    return base, parameter, values


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_sweeps())
# small points that share a batch, then a point above BLOCK alone between them
@example(_sweep_case("n_pulses", [300, 20, BLOCK + 5, 7, 1]))
@example(_sweep_case("delta", [0.0, 0.4, 1.2, 0.0]))
@example(_sweep_case("delta", [0.1, HALF_PI]))
@example(_sweep_case("absorption", [0.1, 0.2], protocol="bb84", strategy="usd_suppress"))
def test_sweep_is_standalone_runs_or_a_clean_error(case):
    """Through the CLI a sweep either exits 0 with one CSV row per value,
    each byte-equal to a standalone `run` at the point's derived seed, or
    exits 2 or 3 with nothing on stdout."""
    base, parameter, values = case
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "base.json"
        path.write_text(json.dumps(base), encoding="utf-8")
        text = ",".join(repr(v) for v in values)
        code, out = _cli(["--output", "csv", "sweep", "--config", str(path),
                          "--param", parameter, "--values", text])
        event(f"exit {code}")
        if code != 0:
            assert code in (2, 3) and out == ""
            return
        lines = out.splitlines()
        assert len(lines) == len(values) + 1
        for index, value in enumerate(values):
            seed = derive_seed(base["master_seed"], index, STAGE_SWEEP)
            path.write_text(json.dumps({**base, parameter: value, "master_seed": seed}))
            code, alone = _cli(["--output", "csv", "run", "--config", str(path)])
            assert code == 0
            assert alone.splitlines() == [lines[0], lines[index + 1]]


_FIELDS = [f.name for f in fields(ExperimentConfig)]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=3,
)
# a valid value per field, so that some drawn configs run
_FIELD_VALUES = {
    "protocol": st.sampled_from(["b92", "bb84"]),
    "n_pulses": st.integers(1, 2_000),
    "absorption": st.floats(0.0, 0.99),
    "efficiency": st.floats(0.01, 1.0),
    "eve_strategy": st.sampled_from(["none", "intercept_resend", "usd_suppress", "basis_mismatch"]),
    "usd_scheme": st.sampled_from(["naive", "optimal"]),
    "delta": st.floats(0.0, 1.5),
    "reveal_fraction": st.floats(0.01, 1.0),
    "alpha": st.floats(1e-6, 0.999),
    "qber_threshold": st.floats(0.0, 1.0),
    "master_seed": st.integers(0, 2**64 - 1),
}


@st.composite
def _config_objects(draw):
    """A JSON object over config fields, at times missing a required one
    or carrying a junk key; each value is, five times in six, a valid one
    for its field, else any JSON value."""
    keys = {"protocol", "n_pulses"} | draw(st.sets(st.sampled_from(_FIELDS)))
    if draw(st.integers(0, 3)) == 0:
        keys.discard(draw(st.sampled_from(["protocol", "n_pulses"])))
    if draw(st.integers(0, 3)) == 0:
        keys.add(draw(st.text(max_size=6)))
    config = {
        key: draw(_FIELD_VALUES[key] if key in _FIELD_VALUES and draw(st.integers(0, 5)) else _JSON)
        for key in sorted(keys)
    }
    n_pulses = config.get("n_pulses")
    if isinstance(n_pulses, int) and not isinstance(n_pulses, bool) and n_pulses > 2_000:
        config["n_pulses"] = 2_000  # keeps every example short
    return config


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_config_objects())
@example({"protocol": "b92", "n_pulses": 500, "eve_strategy": "usd_suppress"})
@example({"protocol": "bb84", "n_pulses": 500, "eve_strategy": "usd_suppress"})
@example({"protocol": "b92", "n_pulses": 50, "absorption": True, "efficiency": [1]})
@example({"protocol": "b92", "n_pulses": 100, "efficiency": True, "delta": False})
def test_run_of_any_json_object_is_a_report_or_a_clean_error(config):
    """`qkdsim run` on any JSON object exits 0 with a report, or 2 or 3
    with nothing on stdout; it never raises."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out = _cli(["run", "--config", str(path)])
    event(f"exit {code}")
    if code == 0:
        report = json.loads(out)
        assert report["counts"]["sent"] == config["n_pulses"]
        assert not any(isinstance(value, bool) for value in report["config"].values())
    else:
        assert code in (2, 3) and out == ""


@pytest.mark.parametrize("value", [True, False, "0.1"], ids=["true", "false", "string"])
@pytest.mark.parametrize(
    "field", ["absorption", "efficiency", "delta", "reveal_fraction", "alpha", "qber_threshold"]
)
def test_float_field_that_is_not_a_number_exits_2(field, value, tmp_path, capsys):
    """A JSON boolean or string in a float field is a config error naming
    the field, not a 0 or 1 that passes the range check."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**BASE, field: value}), encoding="utf-8")
    code = main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"{field} must be a number" in captured.err


_UNREADABLE_CONFIGS = {
    "utf16": (json.dumps(BASE).encode("utf-16"), "config file is not UTF-8 text"),
    "latin1": (
        json.dumps({**BASE, "eve_strategy": "\u00e9"}, ensure_ascii=False).encode("latin-1"),
        "config file is not UTF-8 text",
    ),
    "deep": (b"[" * 100_000 + b"]" * 100_000, "config file nests too deeply to parse as JSON"),
}
_COMMANDS = {"run": [], "sweep": ["--param", "delta", "--values", "0.1"]}


@pytest.mark.parametrize("command", list(_COMMANDS))
@pytest.mark.parametrize("case", list(_UNREADABLE_CONFIGS))
def test_config_that_cannot_be_decoded_exits_2(case, command, tmp_path, capsys):
    """A config in another encoding, or a JSON document nested past the
    parser's recursion limit, is a config error that names the cause, not
    a traceback."""
    data, message = _UNREADABLE_CONFIGS[case]
    path = tmp_path / "config.json"
    path.write_bytes(data)
    code = main([command, "--config", str(path), *_COMMANDS[command]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"error: {message}" in captured.err


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(), st.floats(), st.floats(0.0, 3.2), st.floats(0.0, 6.3))
@example(4.0, 0.0, 0.0, 0.0)
@example(0.0, 2 * math.pi, HALF_PI, 0.0)
@example(math.pi, math.nextafter(2 * math.pi, 0.0), 0.0, math.pi)
def test_demo_of_any_direction_pair_is_a_report_or_a_clean_error(theta, phi, theta2, phi2):
    """`no-signaling-demo` exits 0 or 2 for any pair of float directions."""
    code, out = _cli(["no-signaling-demo", "--povm", "sz",
                      f"--u={theta!r},{phi!r}", f"--u-prime={theta2!r},{phi2!r}"])
    event(f"exit {code}")
    if code == 0:
        assert json.loads(out)["densities_equal"]
    else:
        assert code == 2 and out == ""


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(), st.floats()), max_size=10))
@example([])
@example([(0.0, 0.0), (HALF_PI, 0.0)])
@example([(math.nan, 0.0)])
@example([(0.0, math.inf), (1e308, -math.inf)])
def test_usd_check_of_any_float_pairs_is_a_report_or_a_clean_error(pairs):
    """`usd-check --states` exits 0 or 2 for 0 to 10 pairs of any floats."""
    text = ",".join(f"{theta!r},{phi!r}" for theta, phi in pairs)
    code, out = _cli(["usd-check", f"--states={text}"])
    event(f"exit {code}")
    if code == 0:
        assert len(json.loads(out)["states"]) == len(pairs)
    else:
        assert code == 2 and out == ""


# each subcommand with its own arguments; `{config}` is a 50-pulse config file
_SUBCOMMANDS = {
    "run": ["run", "--config", "{config}"],
    "sweep": ["sweep", "--config", "{config}", "--param", "delta", "--values", "0,0.3"],
    "usd-check": ["usd-check", "--states", "0,0,1.5707963267948966,0"],
    "no-signaling-demo": ["no-signaling-demo", "--povm", "random"],
}


def _exit_code_and_stdout(argv) -> tuple[int, str]:
    """`_cli`, with argparse's SystemExit read as the exit code it carries."""
    try:
        return _cli(argv)
    except SystemExit as exc:
        return exc.code, ""


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(_SUBCOMMANDS)),
    st.integers(),
    st.sampled_from(["json", "csv", "junk"]),
)
@example("usd-check", -1, "json")
@example("usd-check", 2**64, "json")
@example("run", 2**64 - 1, "csv")
@example("no-signaling-demo", 0, "csv")
def test_global_flags_before_or_after_any_subcommand(command, seed, output):
    """`--seed` and `--output` mean the same before and after each
    subcommand: the exit code is 0 or 2, stdout is empty on 2, and both
    placements write the same bytes."""
    flags = ["--seed", str(seed), "--output", output]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "config.json"
        path.write_text(json.dumps({**BASE, "n_pulses": 50}), encoding="utf-8")
        args = [arg.format(config=path) for arg in _SUBCOMMANDS[command]]
        before = _exit_code_and_stdout(flags + args)
        after = _exit_code_and_stdout(args + flags)
    event(f"exit {before[0]}")
    code, out = before
    assert code in (0, 2)
    if code == 2:
        assert out == ""
    if 0 <= seed < 2**64:
        assert after == before
    else:
        assert code == 2 and after == (2, "")


# parameter -> (base config, values, states over both batches)
_LABEL_SWEEPS = {
    # honest B92: two states per batch
    "absorption": ({"n_pulses": 300}, [i * 0.004 for i in range(200)], 2 + 2),
    # 65 mismatch strategies a batch, each with its own rotated pair, all
    # sharing Alice's z+ and x+ (delta 0 forwards those two)
    "delta": (
        {"n_pulses": 500, "eve_strategy": "basis_mismatch"},
        [i * 0.01 for i in range(130)],
        (2 + 2 * 64) + (2 + 2 * 65),
    ),
}


@pytest.mark.parametrize("parameter", list(_LABEL_SWEEPS))
def test_sweep_labels_each_state_once_per_batch(parameter, tmp_path, monkeypatch):
    """Forwarded-state labels come from one `state_labels` call per batch,
    over the rows of that batch's `vectors`, one per distinct ket it
    numbers: not one set per sweep point."""
    calls, batches = [], []

    def counting(vectors):
        calls.append(len(vectors))
        return state_labels(vectors)

    def recording(*args):
        batches.append(simulate(*args))
        return batches[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qkdsim":
            if hasattr(module, "state_labels"):
                monkeypatch.setattr(module, "state_labels", counting)
    simulate = harness.simulate_session
    monkeypatch.setattr(harness, "simulate_session", recording)
    extra, values, n_states = _LABEL_SWEEPS[parameter]
    base = {**BASE, **extra}
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base), encoding="utf-8")
    code, out = _cli(["--output", "csv", "sweep", "--config", str(path),
                      "--param", parameter, "--values", ",".join(map(repr, values))])
    assert code == 0 and len(out.splitlines()) == len(values) + 1
    config = ExperimentConfig.from_dict(base)
    n_batches = len(list(harness._batches([replace(config, **{parameter: v}) for v in values])))
    assert len(batches) == n_batches == 2
    states = [batch_states(batch) for batch in batches]
    assert all(len(set(s)) == len(s) for s in states)
    assert calls == [len(s) for s in states]
    assert sum(calls) == n_states


@pytest.mark.parametrize("output", ["json", "csv"])
def test_sweep_parses_each_config_once(output, tmp_path, monkeypatch):
    """An N-point delta sweep builds N + 1 channels, channel expectations
    and strategies, the base config's and one of each per point: every
    point runs the whole check, as `replace` does, and the engine, the
    null-ratio test and the report read what each config kept, parsing
    nothing again."""
    counts = dict.fromkeys(("channel", "strategy", "expected_rates"), 0)

    def counting_init(name, init):
        def counted(self, *args, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)

        return counted

    def counted_rates(*args, **kwargs):
        counts["expected_rates"] += 1
        return expected_rates(*args, **kwargs)

    monkeypatch.setattr(ChannelModel, "__init__", counting_init("channel", ChannelModel.__init__))
    monkeypatch.setattr(EveStrategy, "__init__", counting_init("strategy", EveStrategy.__init__))
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qkdsim" and hasattr(module, "expected_rates"):
            monkeypatch.setattr(module, "expected_rates", counted_rates)
    values = [i * 0.01 for i in range(130)]
    path = tmp_path / "base.json"
    path.write_text(json.dumps({**BASE, "n_pulses": 500, "eve_strategy": "basis_mismatch"}))
    code, out = _cli(["--output", output, "sweep", "--config", str(path),
                      "--param", "delta", "--values", ",".join(map(repr, values))])
    assert code == 0 and out
    n_configs = len(values) + 1
    assert counts == dict.fromkeys(("channel", "strategy", "expected_rates"), n_configs)


@pytest.mark.parametrize("master_seed", [0, 7, 2**64 - 1])
def test_sweep_point_seeds_are_derive_seed(master_seed):
    """Point i runs at `derive_seed(master_seed, i, STAGE_SWEEP)`, a Python
    int, though all points' seeds come from one array call."""
    base = ExperimentConfig.from_dict({**BASE, "n_pulses": 20, "master_seed": master_seed})
    reports = sweep(base, "alpha", [0.1, 0.2, 0.3, 0.1, 0.5])
    seeds = [report.config.master_seed for report in reports]
    assert seeds == [derive_seed(master_seed, i, STAGE_SWEEP) for i in range(5)]
    assert all(type(seed) is int for seed in seeds)


# parameter -> (base config fields, values); each base is valid, and the
# values cross the checks of the unchanged fields
_POINT_SWEEPS = {
    "delta": ({"eve_strategy": "basis_mismatch", "usd_scheme": "optimal"}, [0.0, 0.4, 1.5, 0]),
    "n_pulses": ({"eve_strategy": "usd_suppress", "absorption": 0.1}, [1, 7, 60]),
    "absorption": ({"efficiency": 0.5}, [0, 0.25, 1e-300, 0.5]),
    "efficiency": (
        {"absorption": 0.3, "eve_strategy": "basis_mismatch", "delta": 0.2}, [1, 0.5, 2e-5]
    ),
    "alpha": ({"protocol": "bb84", "eve_strategy": "intercept_resend"}, [0.5, 1e-9, 0.999]),
}


def test_point_sweeps_cover_every_sweep_parameter():
    assert sorted(_POINT_SWEEPS) == sorted(SWEEP_PARAMETERS)


@pytest.mark.parametrize("parameter", list(_POINT_SWEEPS))
def test_each_sweep_point_config_equals_replace(parameter):
    """Each point's config, built by the cheap copy `_with`, equals
    `replace` of the base at the point's value and seed: in equality,
    hash, `to_dict` (types too), the parsed protocol kind, session and
    channel expectations, and every attribute either keeps."""
    extra, values = _POINT_SWEEPS[parameter]
    base = ExperimentConfig.from_dict({**BASE, "n_pulses": 60, **extra})
    points = [report.config for report in sweep(base, parameter, values)]
    for index, (point, value) in enumerate(zip(points, values)):
        seed = derive_seed(base.master_seed, index, STAGE_SWEEP)
        full = replace(base, **{parameter: value, "master_seed": seed})
        assert point == full and hash(point) == hash(full)
        assert json.dumps(point.to_dict()) == json.dumps(full.to_dict())
        assert point.protocol_kind is full.protocol_kind
        assert (point.session, point.expected) == (full.session, full.expected)
        assert vars(point) == vars(full)
        assert type(getattr(point, parameter)) is type(value)


# parameter -> (bad value, the message the full check gives it), each the
# last value of a sweep whose other values are good
_DEGENERATE = "degenerate channel (absorption 0.0, efficiency {}) delivers a pulse too rarely: " \
    "its expected null ratio is not finite"
_BAD_LAST = {
    "delta": [(v, "delta must be in [0, pi/2)")
              for v in ("nan", "inf", "-inf", "1.5707963267948966", "-0.1")],
    "n_pulses": [("0", "n_pulses must be a positive integer"),
                 ("9223372036854775808", "n_pulses must be below 2**63"),
                 ("-3", "n_pulses must be a positive integer")],
    "absorption": [(v, f"absorption must be in [0, 1], got {v}") for v in ("nan", "1.5", "-inf")],
    "efficiency": [("nan", "efficiency must be in [0, 1], got nan"),
                   ("0", _DEGENERATE.format(0.0)),
                   ("5e-324", _DEGENERATE.format(5e-324)),
                   ("inf", "efficiency must be in [0, 1], got inf")],
    "alpha": [(v, "alpha must be in (0, 1)") for v in ("nan", "0", "1", "-inf")],
}
_GOOD = {
    "delta": "0.3", "n_pulses": "40", "absorption": "0.2", "efficiency": "0.9", "alpha": "0.01"
}


@pytest.mark.parametrize(
    "parameter,bad,message", [(p, *case) for p, cases in _BAD_LAST.items() for case in cases]
)
def test_sweep_rejects_a_bad_late_value_as_replace_does(parameter, bad, message, tmp_path):
    """A bad last value of a sweep exits 2 with nothing on stdout and the
    message `replace` gives for it, which runs the full config check."""
    path = tmp_path / "base.json"
    base = {**BASE, "n_pulses": 40, "eve_strategy": "basis_mismatch"}
    path.write_text(json.dumps(base), encoding="utf-8")
    value = _sweep_values(parameter, bad)[0]
    with pytest.raises(ConfigurationError) as expected:
        replace(ExperimentConfig.from_dict(base), **{parameter: value})
    assert str(expected.value) == message
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--output", "csv", "sweep", "--config", str(path), "--param", parameter,
                     "--values", ",".join([_GOOD[parameter]] * 3 + [bad])])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: {message}\n"


@pytest.mark.parametrize("scheme", ["naive", "optimal"])
def test_scheme_efficiency_read_once_per_distinct_strategy(scheme, monkeypatch):
    """A batch reads its scheme's conclusive rates by one `usd_efficiency`
    call, a rate per distinct strategy, off the pairs it rotated, and each
    report's equals `usd_efficiency` of its strategy's pair rotated afresh
    by the scalar `states()`."""
    base = ExperimentConfig.from_dict(
        {**BASE, "n_pulses": 50, "eve_strategy": "basis_mismatch", "usd_scheme": scheme}
    )
    calls = _count_calls(monkeypatch, "usd_efficiency", [harness])
    reports = sweep(base, "delta", [0.3, 0.3, 1.1, 0.0, 0.3, 1.1])
    assert len(calls) == 1 and len(calls[0][1]) == 3
    monkeypatch.undo()
    for report in reports:
        strategy = report.config.session.strategy
        pair = np.array([[state.vector for state in strategy.states()]])
        assert type(report.scheme_efficiency) is float
        assert report.scheme_efficiency == usd_efficiency(strategy.scheme, pair)[0]
    assert (reports[0].scheme_efficiency == 0.25) == (scheme == "naive")


def test_sweep_reports_the_first_bad_point():
    """Of two bad values, the earlier one's message is the one raised."""
    base = ExperimentConfig.from_dict({**BASE, "n_pulses": 40})
    with pytest.raises(ConfigurationError, match=r"alpha must be in \(0, 1\)"):
        sweep(base, "alpha", [0.1, 1.0, "x"])
    with pytest.raises(ConfigurationError, match="alpha must be a number"):
        sweep(base, "alpha", [0.1, "x", 1.0])


class TestUsdCheck:
    def test_b92_pair(self):
        report = usd_check([(0.0, 0.0), (HALF_PI, 0.0)])
        assert report["feasible"]
        assert report["gram_rank"] == 2
        assert report["optimal_conclusive_rate"] == pytest.approx(1 - 1 / math.sqrt(2))

    def test_bb84_quadruple(self):
        report = usd_check([(0.0, 0.0), (math.pi, 0.0), (HALF_PI, 0.0), (HALF_PI, math.pi)])
        assert not report["feasible"]
        assert report["gram_rank"] == 2
        assert report["optimal_conclusive_rate"] is None

    def test_single_state(self):
        assert usd_check([(0.7, 0.1)])["feasible"]

    @pytest.mark.parametrize("angles", [
        [(0.0, 0.0), (HALF_PI, 0.0)],
        [(0.0, 0.0), (math.pi, 0.0), (HALF_PI, 0.0), (HALF_PI, math.pi)],
    ])
    def test_one_gram_matrix_and_one_spectrum(self, angles, monkeypatch):
        """Rank, feasibility and the report's matrix and eigenvalues all
        come from one Gram matrix and one `gram_eigenvalues` spectrum."""
        grams = _count_calls(monkeypatch, "gram_matrix")
        spectra = _count_calls(monkeypatch, "gram_eigenvalues")
        report = usd_check(angles)
        assert (len(grams), len(spectra)) == (1, 1)
        assert report["gram_rank"] == 2 and report["feasible"] == (len(angles) == 2)

    def test_malformed_angles(self):
        with pytest.raises(ConfigurationError):
            usd_check([(5.0, 0.0)])
        with pytest.raises(ConfigurationError):
            usd_check([])


class TestNoSignalingDemo:
    @pytest.mark.parametrize("povm", ["sz", "sx", "idp", "random"])
    def test_equal_densities_and_distributions(self, povm):
        demo = no_signaling_demo(povm_name=povm, seed=4)
        assert demo["densities_equal"]
        assert demo["max_abs_difference"] <= 1e-10

    def test_each_mixture_density_built_once(self, monkeypatch):
        """Two mixtures, two densities: the distributions reuse the demo's,
        wherever in the package the name is looked up."""
        calls = _count_calls(monkeypatch, "mixture_density")
        assert no_signaling_demo(povm_name="sz")["densities_equal"]
        assert len(calls) == 2

    def test_antipode_past_2pi_wraps_into_range(self):
        """phi 2.5 puts the down state's phi at 5.64, which is below 2 pi but
        above 2 + pi: only a wrap at exactly 2 pi keeps it in range."""
        assert no_signaling_demo(u=(1.0, 2.5), povm_name="sz")["densities_equal"]

    def test_unknown_povm(self):
        with pytest.raises(ConfigurationError):
            no_signaling_demo(povm_name="magic")

    @pytest.mark.parametrize("seed", [-1, 2**64, True])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            no_signaling_demo(seed=seed)


class TestCsv:
    def test_header_and_row_shape(self):
        report = run_experiment(ExperimentConfig.from_dict(BASE))
        lines = report_csv_rows([report, report])
        header = lines[0].split(",")
        config_fields = list(report.to_dict()["config"])
        assert header[: len(config_fields)] == config_fields
        assert header[-4:] == ["scheme_efficiency", "forwarded_z", "forwarded_x", "rng"]
        assert "null_ratio_test_p_value" in header
        assert not any(column.endswith("method") for column in header)
        assert len(header) == 34
        assert len(lines) == 3
        assert len(lines[1].split(",")) == len(header)

    def test_columns_equal_rows_flattened_cell_by_cell(self):
        """Column-wise rendering equals `to_dict()` flattened and formatted
        one report and one cell at a time: int-valued float fields from
        JSON stay ints, a point that sifted nothing has no qber and no qber
        test, one that received nothing has no null ratio, and bools are
        lower case. Every cell is a scalar, so a nested section cannot pass
        as a dict-valued cell through both flattenings."""
        base = ExperimentConfig.from_dict(json.loads(
            '{"protocol": "b92", "n_pulses": 400, "absorption": 0, "efficiency": 1,'
            ' "eve_strategy": "basis_mismatch", "reveal_fraction": 0.3, "master_seed": 3}'
        ))
        reports = [
            *sweep(base, "n_pulses", [1, 400, 2, 3, 1, 500, 2]),
            *sweep(replace(base, usd_scheme="optimal"), "absorption", [0, 0.5, 0.97]),
            run_experiment(replace(base, protocol="bb84", eve_strategy="intercept_resend")),
        ]
        assert report_csv_rows(reports) == csv_lines(reports)
        rows = [csv_row(r) for r in reports]
        assert {type(row["absorption"]) for row in rows} == {int, float}
        assert any(row["qber"] is None and row["qber_test_flagged"] is None for row in rows)
        assert any(row["null_ratio"] is None for row in rows)
        assert {row["null_ratio_test_flagged"] for row in rows} == {True, False}
        scalars = (type(None), bool, int, float, str)
        assert all(isinstance(v, scalars) for row in rows for v in row.values())

    def test_booleans_and_nones_rendered(self):
        report = run_experiment(
            ExperimentConfig.from_dict({**BASE, "eve_strategy": "usd_suppress"})
        )
        header, line = report_csv_rows([report])
        row = dict(zip(header.split(","), line.split(",")))
        assert row["null_ratio_test_flagged"] == "true"
        assert row["qber_test_flagged"] == "false"
        assert row["protocol"] == "b92"

    def test_a_nested_leaf_reaches_json_and_csv(self, monkeypatch):
        """A new leaf is one entry in `_report_columns`: `to_dict` nests its
        path, and the CSV names its column by the path without its section."""
        leaves = harness._report_columns

        def with_funnel(reports):
            columns = leaves(reports)
            columns["funnel", "sent", "expected"] = [r.config.n_pulses / 4 for r in reports]
            return columns

        monkeypatch.setattr(harness, "_report_columns", with_funnel)
        report = run_experiment(ExperimentConfig.from_dict(BASE))
        document = report.to_dict()
        assert list(document)[-2:] == ["rng", "funnel"]
        assert document["funnel"] == {"sent": {"expected": 500.0}}
        header, line = report_csv_rows([report])
        assert header.split(",")[-2:] == ["rng", "sent_expected"]
        assert line.split(",")[-1] == "500.0"

    def test_every_leaf_but_method_has_its_own_column(self):
        """Two leaves of one CSV name would fold into one column: the header
        names each leaf of `to_dict()` apart, less the two tests' `method`."""

        def count(node):
            return sum(map(count, node.values())) if isinstance(node, dict) else 1

        report = run_experiment(ExperimentConfig.from_dict(BASE))
        header = report_csv_rows([report])[0].split(",")
        assert len(header) == len(set(header)) == count(report.to_dict()) - 2 == 34


class TestCli:
    def _write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_json(self, tmp_path, capsys):
        path = self._write_config(tmp_path, BASE)
        assert main(["run", "--config", path]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["protocol"] == "b92"
        assert document["rng"] == "splitmix64"

    def test_run_csv(self, tmp_path, capsys):
        path = self._write_config(tmp_path, BASE)
        assert main(["--output", "csv", "run", "--config", path]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("protocol,")
        assert len(lines) == 2

    def test_run_byte_identical(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {**BASE, "eve_strategy": "usd_suppress"})
        assert main(["run", "--config", path]) == 0
        first = capsys.readouterr().out
        assert main(["run", "--config", path]) == 0
        assert capsys.readouterr().out == first

    def test_seed_override_changes_report(self, tmp_path, capsys):
        path = self._write_config(tmp_path, BASE)
        main(["run", "--config", path])
        base_out = capsys.readouterr().out
        main(["--seed", "123", "run", "--config", path])
        seeded_out = capsys.readouterr().out
        assert base_out != seeded_out
        assert json.loads(seeded_out)["config"]["master_seed"] == 123

    def test_global_flags_accepted_after_subcommand(self, tmp_path, capsys):
        path = self._write_config(tmp_path, BASE)
        main(["run", "--config", path, "--seed", "123"])
        trailing = capsys.readouterr().out
        main(["--seed", "123", "run", "--config", path])
        leading = capsys.readouterr().out
        assert trailing == leading
        assert main(["no-signaling-demo", "--povm", "random", "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["densities_equal"]

    def test_sweep_csv(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {**BASE, "eve_strategy": "basis_mismatch"})
        code = main(
            ["--output", "csv", "sweep", "--config", path, "--param", "delta",
             "--values", "0,0.196,0.392"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4

    def test_sweep_header_when_no_point_reveals(self, tmp_path, capsys):
        """The CSV header does not depend on the data: a sweep in which no
        point reveals anything keeps all 34 columns, with empty qber test
        cells, while its JSON gives a null qber test."""
        path = self._write_config(tmp_path, {
            "protocol": "b92", "n_pulses": 3, "efficiency": 1e-6, "master_seed": 5,
            "eve_strategy": "basis_mismatch",
        })
        argv = ["sweep", "--config", path, "--param", "delta", "--values", "0,0.1,0.2"]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert [point["counts"]["revealed"] for point in document] == [0, 0, 0]
        assert [point["tests"]["qber_test"] for point in document] == [None, None, None]
        assert main(["--output", "csv", *argv]) == 0
        header, *lines = capsys.readouterr().out.strip().splitlines()
        revealing = report_csv_rows([run_experiment(ExperimentConfig.from_dict(BASE))])[0]
        assert header == revealing and len(header.split(",")) == 34
        assert len(lines) == 3
        empty = {f"qber_test_{name}": "" for name in ("statistic", "p_value", "flagged", "alpha")}
        for line in lines:
            cells = line.split(",")
            assert len(cells) == 34
            row = dict(zip(header.split(","), cells))
            assert {name: row[name] for name in empty} == empty

    def test_usd_check_cli(self, capsys):
        assert main(["usd-check", "--states", "0,0,1.5707963267948966,0"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["feasible"]

    def test_no_signaling_demo_cli(self, capsys):
        assert main(["no-signaling-demo", "--povm", "sz"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["densities_equal"]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_demo_seed_outside_64_bits_exits_2(self, seed, capsys):
        """-1 must not run as 2**64 - 1, nor 2**64 as 0."""
        assert main(["--seed", str(seed), "no-signaling-demo"]) == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_usd_check_seed_outside_64_bits_exits_2(self, seed, capsys):
        """usd-check draws nothing, but the seed range rule holds for every subcommand."""
        assert main(["--seed", str(seed), "usd-check", "--states", "0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be in [0, 2**64)" in captured.err

    @pytest.mark.parametrize("flag", ["--u=4,0", "--u-prime=0,7", "--u=nan,0"])
    def test_demo_direction_off_the_sphere_exits_2(self, flag, capsys):
        """theta outside [0, pi] or phi outside [0, 2 pi) is a bad input,
        not a traceback."""
        assert main(["no-signaling-demo", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "out of range" in captured.err

    @pytest.mark.parametrize(
        "command", [["run"], ["sweep", "--param", "delta", "--values", "0.1"]]
    )
    def test_unallocatable_n_pulses_exits_2(self, tmp_path, capsys, command, monkeypatch):
        """10**12 pulses drawn as one engine block fail at the block's first
        8 TB array, before anything is written. (At the default block the
        engine holds one block at a time, so no allocation of its grows
        with the session.)"""
        monkeypatch.setattr(session, "BLOCK", 10**12)
        path = self._write_config(tmp_path, {**BASE, "n_pulses": 10**12})
        assert main([command[0], "--config", path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert "n_pulses 1000000000000 does not fit in memory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command,n_pulses",
        [(["run"], 10_000), (["sweep", "--param", "delta", "--values", "0.1,0.2"], 20_000)],
        ids=["run", "sweep"],
    )
    def test_memory_error_after_the_engine_exits_2(
        self, tmp_path, capsys, monkeypatch, command, n_pulses
    ):
        """The reveal sampler runs after the engine, on the sifted bits: a
        MemoryError there is a config error naming the batch's pulses too,
        and nothing is written."""

        def unallocatable(*args):
            raise MemoryError

        monkeypatch.setattr(harness, "estimate_qber_batch", unallocatable)
        path = self._write_config(tmp_path, {**BASE, "n_pulses": 10_000})
        assert main([command[0], "--config", path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert f"n_pulses {n_pulses} does not fit in memory" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "n_pulses,command",
        [
            (2**63, ["run"]),
            (100, ["sweep", "--param", "n_pulses", "--values", "1e19"]),
            (100, ["sweep", "--param", "n_pulses", "--values", "10,9223372036854775808"]),
        ],
        ids=["run-2**63", "sweep-1e19", "sweep-2**63"],
    )
    def test_n_pulses_beyond_int64_exits_2(self, tmp_path, capsys, n_pulses, command):
        """2**63 pulses or more would wrap the int64 pulse offsets: a config
        error naming n_pulses, before anything is written."""
        path = self._write_config(tmp_path, {**BASE, "n_pulses": n_pulses})
        assert main([command[0], "--config", path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert "n_pulses must be below 2**63" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text,values",
        [
            ("9007199254740993", [2**53 + 1]),
            ("9223372036854775807", [2**63 - 1]),
            (" +12, 9007199254740993 ", [12, 2**53 + 1]),
            ("1e3, 2.0,1_000", [1000, 2, 1000]),
        ],
        ids=["2**53+1", "2**63-1", "signed-and-spaced", "float-forms"],
    )
    def test_n_pulses_sweep_values_are_read_exactly(self, text, values):
        """An integer literal is read as written, not rounded to the
        nearest float, so a value just below 2**63 passes the config check
        (such sweeps never finish, so the parser is checked on its own); an
        integral float form still counts as its float."""
        assert _sweep_values("n_pulses", text) == values
        for value in values:
            assert replace(ExperimentConfig.from_dict(BASE), n_pulses=value).n_pulses == value

    def test_missing_config_file_exits_2(self, capsys):
        assert main(["run", "--config", "/nonexistent.json"]) == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_unknown_field_exits_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {**BASE, "bogus": True})
        assert main(["run", "--config", path]) == 2

    def test_unknown_sweep_param_exits_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path, BASE)
        assert main(["sweep", "--config", path, "--param", "protocol", "--values", "1"]) == 2

    def test_infeasible_combination_exits_3(self, tmp_path, capsys):
        path = self._write_config(
            tmp_path, {"protocol": "bb84", "n_pulses": 10, "eve_strategy": "usd_suppress"}
        )
        assert main(["run", "--config", path]) == 3
        assert "Gram" in capsys.readouterr().err

    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path, BASE)
        assert main(["--seed", str(2**64 + 42), "run", "--config", path]) == 2
        assert "master_seed" in capsys.readouterr().err

    def test_fractional_n_pulses_sweep_exits_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path, BASE)
        argv = ["sweep", "--config", path, "--param", "n_pulses", "--values", "1000,1.7"]
        assert main(argv) == 2
        assert "integers" in capsys.readouterr().err

    def test_empty_sweep_values_exit_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path, BASE)
        for values in ("", " , "):
            argv = ["sweep", "--config", path, "--param", "delta", "--values", values]
            assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "channel",
        [{"efficiency": 5e-324}, {"absorption": 0.9999999999999999, "efficiency": 1e-300}],
        ids=["efficiency-5e-324", "absorption-and-efficiency"],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--config"],
            ["--output", "csv", "run", "--config"],
            ["sweep", "--param", "delta", "--values", "0.1", "--config"],
        ],
        ids=["run", "run-csv", "sweep"],
    )
    def test_channel_with_infinite_expected_null_ratio_exits_2(
        self, tmp_path, capsys, channel, argv
    ):
        """An arrival probability below 1/DBL_MAX would report an expected
        null ratio of inf, which is not JSON: a config error naming the
        channel, before anything is written."""
        path = self._write_config(tmp_path, {**BASE, **channel})
        assert main([*argv, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "channel (absorption" in captured.err

    @pytest.mark.parametrize(
        "channel,named",
        [
            ({"absorption": 1.5}, "absorption"),
            ({"efficiency": -0.1}, "efficiency"),
            ({"absorption": math.nan}, "absorption"),
            ({"efficiency": 0.0}, "channel"),
        ],
        ids=["absorption-1.5", "efficiency-negative", "absorption-nan", "efficiency-0"],
    )
    def test_invalid_channel_exits_2(self, tmp_path, capsys, channel, named):
        """The channel's own checks reject the config (JSON `NaN` parses
        to a float): exit 2, a message naming the field or the channel,
        and nothing on stdout."""
        path = self._write_config(tmp_path, {**BASE, **channel})
        assert main(["run", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err

    def test_sweep_to_infinite_expected_null_ratio_exits_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path, BASE)
        argv = ["sweep", "--config", path, "--param", "efficiency", "--values", "0.5,5e-324"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "delivers a pulse too rarely" in captured.err

    def test_csv_unsupported_for_usd_check(self, capsys):
        assert main(["--output", "csv", "usd-check", "--states", "0,0"]) == 2


def _cache_sizes() -> dict:
    """currsize of every functools cache reachable from a qkdsim module."""
    sizes = {}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qkdsim"]
    for module in modules:
        for name, obj in vars(module).items():
            candidates = [(name, obj)]
            if isinstance(obj, type):
                candidates += [(f"{name}.{attr}", getattr(obj, attr, None)) for attr in vars(obj)]
            for label, candidate in candidates:
                info = getattr(candidate, "cache_info", None)
                if callable(info):
                    sizes[f"{module.__name__}.{label}"] = info().currsize
    return sizes


def test_no_cache_grows_with_distinct_deltas():
    """A long delta sweep must not leave an entry per value behind."""
    values = [i * 1.5 / 200 for i in range(200)]
    before = _cache_sizes()
    for scheme in ("naive", "optimal"):
        config = ExperimentConfig.from_dict(
            {**BASE, "n_pulses": 200, "eve_strategy": "basis_mismatch", "usd_scheme": scheme}
        )
        assert len(sweep(config, "delta", values)) == len(values)
    grown = {
        name: size - before.get(name, 0)
        for name, size in _cache_sizes().items()
        if size - before.get(name, 0) >= 10
    }
    assert grown == {}


def _traced_peak(n_pulses: int, **fields) -> int:
    """tracemalloc's peak inside `run_experiment`, in bytes: by default of
    a B92 suppression session (absorption 0.1, efficiency 0.9)."""
    config = ExperimentConfig.from_dict(
        {**BASE, "n_pulses": n_pulses, "absorption": 0.1, "efficiency": 0.9,
         "eve_strategy": "usd_suppress", **fields}
    )
    tracemalloc.start()
    try:
        run_experiment(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_session_memory_does_not_grow_with_its_length():
    """A session holds one engine block and its sifted bits (about 5% of
    its pulses here), never a whole-session column: 10^6 pulses peak
    below 3 MiB, and within 1 MiB of 2x10^5 pulses. Full-length columns
    of 6 bytes a pulse peaked at 7.7 MiB."""
    small, large = _traced_peak(200_000), _traced_peak(1_000_000)
    assert large < 3 * 2**20
    assert large - small < 2**20


def test_reveal_memory_stays_below_the_position_lists():
    """Half of a lossless BB84 intercept-resend session sifts and half of
    that is revealed, so the reveal sets its peak. Counting the revealed
    disagreements keeps it near 5.5 bytes a pulse; a sampler that listed
    the revealed positions peaked at 8.5 (8.1 MiB at 10^6 pulses)."""
    peak = _traced_peak(
        1_000_000, protocol="bb84", absorption=0.0, efficiency=1.0,
        eve_strategy="intercept_resend", reveal_fraction=0.5,
    )
    assert peak < 7 * 1_000_000
