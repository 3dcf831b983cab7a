"""Per-layer tracing from outside the program.

The tracer wraps public functions of `src/qkdsim` at the name the
*calling* module looks up (for example `session.derive_seed_array`), so
the program's source is never edited and an uninstrumented run pays
nothing. Each call becomes a span (name, start, end, parent span, unit
id) kept in memory; a layer's self time is its spans' time minus their
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from collections import Counter

LAYERS = ("rng", "quantum", "usd", "adversary", "session", "protocol", "detection", "harness", "cli")

# (calling module, name it looks up, span name). The span name is the
# layer that defines the function, then the function.
WRAPS = (
    ("session", "derive_seed_array", "rng.derive_seed_array"),
    ("session", "uniform_array", "rng.uniform_array"),
    ("harness", "derive_seed", "rng.derive_seed"),
    ("session", "measurement_probs", "quantum.measurement_probs"),
    ("session", "born_probabilities", "quantum.born_probabilities"),
    ("usd", "born_probabilities", "quantum.born_probabilities"),
    ("usd", "inner_product", "quantum.inner_product"),
    ("usd", "projector", "quantum.projector"),
    ("usd", "orthogonal_state", "quantum.orthogonal_state"),
    ("usd", "projective_povm", "quantum.projective_povm"),
    ("usd", "rotate_y", "quantum.rotate_y"),
    ("adversary", "rotate_y", "quantum.rotate_y"),
    ("session", "idp_povm", "usd.idp_povm"),
    ("session", "naive_frame_povms", "usd.naive_frame_povms"),
    ("harness", "usd_feasible", "usd.usd_feasible"),
    ("harness", "usd_efficiency", "usd.usd_efficiency"),
    ("harness", "forwarded_state_symmetry", "adversary.forwarded_state_symmetry"),
    ("harness", "simulate_session", "session.simulate_session"),
    ("harness", "protocol_states", "session.protocol_states"),
    ("harness", "pulse_stream", "session.pulse_stream"),
    ("harness", "sift", "protocol.sift"),
    ("harness", "estimate_qber", "protocol.estimate_qber"),
    ("harness", "expected_rates", "detection.expected_rates"),
    ("harness", "null_ratio_test", "detection.null_ratio_test"),
    ("harness", "qber_test", "detection.qber_test"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("cli", "sweep", "harness.sweep"),
    ("cli", "report_csv_rows", "harness.render"),
)

# SplitMix64 advances a stream's state by this odd constant once per
# draw, so draws = (end - start) * inverse mod 2^64.
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_INV = pow(_GOLDEN, -1, 1 << 64)
_MASK = (1 << 64) - 1

ROOT = "bench.unit"

# Per-layer metric -> (unit, kind). "count" is counted at a boundary and
# "computed" is derived from call arguments or array sizes; both repeat
# exactly for one seed, so a later change may cite them as counts.
PER_LAYER = {
    "rng.derive_seed_array.ms": ("ms/op", "timing"),
    "rng.derive_seed_array.calls": ("count/op", "count"),
    "rng.uniform_array.ms": ("ms/op", "timing"),
    "rng.uniform_array.calls": ("count/op", "count"),
    "rng.mix_rounds_per_pulse": ("count/pulse", "computed"),
    "rng.stream_draws": ("count/op", "count"),
    "session.simulate_session.ms": ("ms/op", "timing"),
    "session.simulate_session.self_ms": ("ms/op", "timing"),
    "session.peak_alloc_mb": ("MB", "memory"),
    "session.transcript_bytes_per_pulse": ("B/pulse", "computed"),
    "protocol.sift.ms": ("ms/op", "timing"),
    "protocol.estimate_qber.ms": ("ms/op", "timing"),
    "protocol.revealed": ("count/op", "count"),
    "protocol.sift_yield": ("ratio", "count"),
    "quantum.born_probabilities.calls": ("count/op", "count"),
    "quantum.measurement_probs.calls": ("count/op", "count"),
    "quantum.ms": ("ms/op", "timing"),
    "usd.idp_povm.calls": ("count/op", "count"),
    "usd.naive_frame_povms.calls": ("count/op", "count"),
    "usd.ms": ("ms/op", "timing"),
    "usd.usd_feasible.ms": ("ms/op", "timing"),
    "detection.null_ratio_test.ms": ("ms/op", "timing"),
    "detection.qber_test.ms": ("ms/op", "timing"),
    "detection.calls": ("count/op", "count"),
    "adversary.forwarded_state_symmetry.ms": ("ms/op", "timing"),
    "harness.run_experiment.self_ms": ("ms/op", "timing"),
    "harness.render.ms": ("ms/op", "timing"),
    "harness.sweep.self_ms": ("ms/op", "timing"),
    "cli.main.self_ms": ("ms/op", "timing"),
    **{f"{layer}.share": ("ratio", "timing") for layer in LAYERS},
    "trace.top_level_coverage": ("ratio", "timing"),
    "trace.overhead_frac": ("ratio", "timing"),
}


@contextlib.contextmanager
def session_peak(qk):
    """Yield a list whose one item becomes tracemalloc's peak (bytes) inside
    `simulate_session` calls.

    Kept apart from `Tracer`: tracing every allocation slows the session,
    which would distort the span times.
    """
    peak = [0]
    original = qk.harness.simulate_session

    @functools.wraps(original)
    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    qk.harness.simulate_session = measured
    try:
        yield peak
    finally:
        qk.harness.simulate_session = original


class Tracer:
    """Installs the wrappers on enter, restores the originals on exit."""

    def __init__(self, qk) -> None:
        self.qk = qk
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, unit]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._streams: list[tuple] = []
        self.unit = -1
        self.mix_rounds = 0
        self.stream_draws = 0
        self.session_pulses = 0
        self.transcript_bytes = 0
        self.sifted = 0
        self.revealed = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.unit])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def unit_span(self, unit_index: int):
        """Root span of one timed unit; also closes its scalar-stream count."""
        self.unit = unit_index
        with self.span(ROOT):
            yield
        for stream, start in self._streams:
            self.stream_draws += ((stream._state - start) * _GOLDEN_INV) & _MASK
        self._streams.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def _count_derive(self, args, result) -> None:
        # derive_seed_array(seed, indices, *keys): one mix round for the
        # index, one per extra key, one final
        extra_keys = len(args) - 2
        self.mix_rounds += len(args[1]) * (extra_keys + 2)

    def _count_uniform(self, args, result) -> None:
        self.mix_rounds += len(args[0])

    def _count_transcript(self, args, transcript) -> None:
        self.session_pulses += transcript.n_pulses
        self.transcript_bytes += sum(
            value.nbytes for value in vars(transcript).values() if hasattr(value, "nbytes")
        )

    def _count_sift(self, args, indices) -> None:
        self.sifted += len(indices)

    def _count_reveal(self, args, result) -> None:
        self.revealed += len(result[1])

    def __enter__(self) -> "Tracer":
        qk = self.qk
        after = {
            "rng.derive_seed_array": self._count_derive,
            "rng.uniform_array": self._count_uniform,
            "session.simulate_session": self._count_transcript,
            "protocol.sift": self._count_sift,
            "protocol.estimate_qber": self._count_reveal,
        }
        for module, attr, name in WRAPS:
            self._wrap(getattr(qk, module), attr, name, after.get(name))

        stream_cls = qk.rng.RngStream
        original_init = stream_cls.__init__

        def init(stream, seed):
            original_init(stream, seed)
            self._streams.append((stream, stream._state))

        stream_cls.__init__ = init
        self._restore.append((stream_cls, "__init__", original_init))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, unit in self.spans:
                handle.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "unit": unit}) + "\n")

    def summary(self, n_ops: int, pulses: int) -> dict:
        """Per-layer metrics, per operation unless the name says otherwise."""
        total = Counter()
        self_time = Counter()
        calls = Counter()
        child_time = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        roots = []
        top_level = Counter()
        for index, (name, start, end, parent, unit) in enumerate(self.spans):
            duration = end - start
            total[name] += duration
            self_time[name] += duration - child_time[index]
            calls[name] += 1
            if name == ROOT:
                roots.append((unit, duration))
            elif parent >= 0 and self.spans[parent][0] == ROOT:
                top_level[unit] += duration

        def ms(value):
            return value / 1e6 / n_ops

        def layer_self(layer):
            return sum(v for k, v in self_time.items() if k.startswith(layer + "."))

        wall = sum(d for _, d in roots)
        metrics = {
            "rng.derive_seed_array.ms": ms(total["rng.derive_seed_array"]),
            "rng.derive_seed_array.calls": calls["rng.derive_seed_array"] / n_ops,
            "rng.uniform_array.ms": ms(total["rng.uniform_array"]),
            "rng.uniform_array.calls": calls["rng.uniform_array"] / n_ops,
            "rng.mix_rounds_per_pulse": self.mix_rounds / pulses,
            "rng.stream_draws": self.stream_draws / n_ops,
            "session.simulate_session.ms": ms(total["session.simulate_session"]),
            "session.simulate_session.self_ms": ms(self_time["session.simulate_session"]),
            "session.transcript_bytes_per_pulse": self.transcript_bytes / max(self.session_pulses, 1),
            "protocol.sift.ms": ms(total["protocol.sift"]),
            "protocol.estimate_qber.ms": ms(total["protocol.estimate_qber"]),
            "protocol.revealed": self.revealed / n_ops,
            "protocol.sift_yield": self.sifted / pulses,
            "quantum.born_probabilities.calls": calls["quantum.born_probabilities"] / n_ops,
            "quantum.measurement_probs.calls": calls["quantum.measurement_probs"] / n_ops,
            "quantum.ms": ms(layer_self("quantum")),
            "usd.idp_povm.calls": calls["usd.idp_povm"] / n_ops,
            "usd.naive_frame_povms.calls": calls["usd.naive_frame_povms"] / n_ops,
            "usd.ms": ms(layer_self("usd")),
            "usd.usd_feasible.ms": ms(total["usd.usd_feasible"]),
            "detection.null_ratio_test.ms": ms(total["detection.null_ratio_test"]),
            "detection.qber_test.ms": ms(total["detection.qber_test"]),
            "detection.calls": sum(v for k, v in calls.items() if k.startswith("detection.")) / n_ops,
            "adversary.forwarded_state_symmetry.ms": ms(total["adversary.forwarded_state_symmetry"]),
            "harness.run_experiment.self_ms": ms(self_time["harness.run_experiment"]),
            "harness.render.ms": ms(total["harness.render"]),
            "harness.sweep.self_ms": ms(self_time["harness.sweep"]),
            "cli.main.self_ms": ms(self_time["cli.main"]),
        }
        for layer in LAYERS:
            metrics[f"{layer}.share"] = layer_self(layer) / wall
        metrics["trace.top_level_coverage"] = min(top_level[u] / d for u, d in roots)
        return metrics
