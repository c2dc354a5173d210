"""Outside-in tracing of cebeam's layers for the benchmark's traced run.

``from .x import y`` binds ``y`` in the importing module, so each function
is wrapped under the name its caller looks up (``cebeam.pipeline.
squarem_accelerated_mm``, not ``cebeam.ce_design.squarem_accelerated_mm``).
Every call records a span (name, start, end, parent span); hooks read
counts off arguments and return values.  ``Tracer.restore`` puts every
original back.  The untraced run never constructs a tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute looked up by the caller, span name)
WRAP_POINTS = (
    ("cebeam.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("cebeam.pipeline", "write_json", "pipeline.artifact"),
    ("cebeam.pipeline", "write_csv", "pipeline.artifact"),
    ("numpy", "savetxt", "pipeline.artifact"),
    ("cebeam.pipeline", "bcd_power_allocation", "power_alloc.bcd"),
    ("cebeam.pipeline", "squarem_accelerated_mm", "ce_design.stage2"),
    ("cebeam.ce_design", "mm_map", "ce_design.mm_map"),
    ("cebeam.ce_design", "minorizer_matrix", "ce_design.minorizer"),
    ("cebeam.ce_design", "penalized_objective", "ce_design.objective"),
    ("cebeam.ce_design", "steering_matrix", "ce_design.steering"),
    ("cebeam.pipeline", "averaged_relative_entropy", "model.averaged_entropy"),
    ("cebeam.pipeline", "relative_entropy", "model.relative_entropy"),
    ("cebeam.model", "relative_entropy", "model.relative_entropy"),
    ("cebeam.pipeline", "hypothesis_covariances", "model.covariance"),
    ("cebeam.model", "hypothesis_covariances", "model.covariance"),
    ("cebeam.simulate", "hypothesis_covariances", "model.covariance"),
    ("cebeam.pipeline", "nesterov_epm", "onebit.epm"),
    ("cebeam.onebit", "epm_objective", "onebit.objective"),
    ("cebeam.onebit", "epm_gradient", "onebit.gradient"),
    ("cebeam.pipeline", "detection_curve", "simulate.detection"),
    ("cebeam.simulate", "received_batch", "simulate.generate"),
    ("cebeam.simulate", "quantize_received", "quantizer.quantize"),
    ("cebeam.simulate", "lloyd_max_codebook", "quantizer.codebook"),
    ("cebeam.simulate", "lrt_statistics", "accel.lrt"),
)

# (metric, unit, better) in report order; every traced run reports all of them
PER_LAYER = (
    ("pipeline.self_s", "s", "lower"),
    ("pipeline.artifact_s", "s", "lower"),
    ("power_alloc.bcd_s", "s", "lower"),
    ("power_alloc.sweeps", "count", "lower"),
    ("ce_design.stage2_s", "s", "lower"),
    ("ce_design.stage2_share", "ratio", "lower"),
    ("ce_design.iterations", "count", "lower"),
    ("ce_design.map_evals", "count", "lower"),
    ("ce_design.ms_per_map_eval", "ms", "lower"),
    ("ce_design.mm_map_s", "s", "lower"),
    ("ce_design.minorizer_s", "s", "lower"),
    ("ce_design.minorizer_calls", "count", "lower"),
    ("ce_design.objective_s", "s", "lower"),
    ("ce_design.objective_calls", "count", "lower"),
    ("ce_design.steering_s", "s", "lower"),
    ("ce_design.steering_builds", "count", "lower"),
    ("ce_design.shift_accept_ratio", "ratio", "higher"),
    ("ce_design.squarem_accept_ratio", "ratio", "higher"),
    ("model.entropy_s", "s", "lower"),
    ("model.entropy_calls", "count", "lower"),
    ("model.relative_entropy_calls", "count", "lower"),
    ("model.covariance_s", "s", "lower"),
    ("onebit.epm_s", "s", "lower"),
    ("onebit.epm_share", "ratio", "lower"),
    ("onebit.iterations", "count", "lower"),
    ("onebit.objective_calls", "count", "lower"),
    ("onebit.gradient_calls", "count", "lower"),
    ("onebit.momentum_resets", "count", "lower"),
    ("simulate.detection_s", "s", "lower"),
    ("simulate.detection_share", "ratio", "lower"),
    ("simulate.generate_s", "s", "lower"),
    ("simulate.batches", "count", "lower"),
    ("simulate.trials", "count", "higher"),
    ("simulate.trials_per_s", "1/s", "higher"),
    ("quantizer.quantize_s", "s", "lower"),
    ("quantizer.quantize_s.b1", "s", "lower"),
    ("quantizer.quantize_s.b3", "s", "lower"),
    ("quantizer.values", "count", "higher"),
    ("quantizer.bytes_computed", "B", "lower"),
    ("quantizer.codebook_s", "s", "lower"),
    ("accel.lrt_s", "s", "lower"),
    ("accel.lrt_flops_computed", "flop", "lower"),
    ("accel.lrt_flops_per_byte_computed", "flop/B", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.calls", "count", "lower"),
    ("trace.overhead_s_est", "s", "lower"),
)

NAME, START, END, PARENT = range(4)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.detection_curves: list = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._squarem = (-1, 0, None)        # (stage-2 span, mm_map calls, last output)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        hooks = {
            "power_alloc.bcd": self._on_bcd,
            "ce_design.stage2": self._on_stage2,
            "ce_design.mm_map": self._on_mm_map,
            "onebit.epm": self._on_epm,
            "simulate.detection": self._on_detection,
            "simulate.generate": self._on_generate,
            "quantizer.quantize": self._on_quantize,
            "accel.lrt": self._on_lrt,
        }
        try:
            for module, attr, name in WRAP_POINTS:
                self.wrap(importlib.import_module(module), attr, name, hooks.get(name))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- hooks: counts read off arguments and results -------------------------

    def _on_bcd(self, idx, args, result):
        self.counts["power_alloc.sweeps"] += result.sweeps

    def _on_stage2(self, idx, args, result):
        trace = result[1]
        self.counts["ce_design.iterations"] += trace.iterations
        self.counts["ce_design.map_evals"] += trace.map_evals

    def _on_mm_map(self, idx, args, result):
        # SQUAREM calls the map twice per iteration; the extrapolated point was
        # kept when an iteration's first input is not the previous output.
        parent = self.spans[idx][PARENT]
        if parent < 0 or self.spans[parent][NAME] != "ce_design.stage2":
            return
        stage2, calls, last_out = self._squarem
        calls = calls + 1 if parent == stage2 else 1
        if calls % 2 == 1 and calls > 1:
            self.counts["squarem.transitions"] += 1
            if args[0] is not last_out:
                self.counts["squarem.kept"] += 1
        self._squarem = (parent, calls, result)

    def _on_epm(self, idx, args, result):
        trace = result[1]
        self.counts["onebit.iterations"] += trace.iterations
        self.counts["onebit.momentum_resets"] += trace.momentum_resets

    def _on_detection(self, idx, args, result):
        self.detection_curves.append(result)

    def _on_generate(self, idx, args, result):
        self.counts["simulate.trials"] += result.shape[0]

    def _on_quantize(self, idx, args, result):
        Y, quantizer = args[0], args[1]
        if quantizer is None:
            return
        span = self.spans[idx]
        self.counts[f"quantizer.quantize_s.b{quantizer.bits}"] += span[END] - span[START]
        self.counts["quantizer.values"] += 2 * Y.size
        self.counts["quantizer.bytes_computed"] += Y.nbytes + result.nbytes

    def _on_lrt(self, idx, args, result):
        Y, M = args[0], args[1]
        trials, n_rx, snaps = Y.shape
        # M @ y per snapshot (complex multiply-add = 8 flops) then conj(y) . (M y)
        self.counts["accel.lrt_flops_computed"] += trials * snaps * (8 * n_rx * n_rx + 8 * n_rx)
        self.counts["accel.lrt_bytes_computed"] += Y.nbytes + M.nbytes + result.nbytes

    # -- reduction ------------------------------------------------------------

    def _self_times(self) -> tuple[dict, dict, dict]:
        """Per-name total time, self time and call count."""
        total, child, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += end - start - child.get(idx, 0.0)
        return total, self_time, calls

    def _outermost(self, names: set) -> tuple[float, int]:
        """Time and count of spans in ``names`` not nested in another span in ``names``."""
        spans = self.spans
        time_s, count = 0.0, 0
        for name, start, end, parent in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][NAME] not in names:
                parent = spans[parent][PARENT]
            if parent < 0:
                time_s += end - start
                count += 1
        return time_s, count

    def metrics(self, wall_s: float, per_call_overhead_s: float) -> dict[str, float]:
        total, self_time, calls = self._self_times()
        c = self.counts
        shift_tried = defaultdict(int)
        for name, _, _, parent in self.spans:
            if name == "ce_design.objective" and parent >= 0 \
                    and self.spans[parent][NAME] == "ce_design.mm_map":
                shift_tried[parent] += 1
        maps = calls["ce_design.mm_map"]
        optimistic = sum(1 for n in shift_tried.values() if n == 2)
        entropy_s, entropy_calls = self._outermost({"model.averaged_entropy",
                                                    "model.relative_entropy"})
        values = {
            "pipeline.self_s": self_time["pipeline.run_pipeline"],
            "pipeline.artifact_s": total["pipeline.artifact"],
            "power_alloc.bcd_s": total["power_alloc.bcd"],
            "power_alloc.sweeps": c["power_alloc.sweeps"],
            "ce_design.stage2_s": total["ce_design.stage2"],
            "ce_design.stage2_share": total["ce_design.stage2"] / wall_s,
            "ce_design.iterations": c["ce_design.iterations"],
            "ce_design.map_evals": c["ce_design.map_evals"],
            "ce_design.ms_per_map_eval": 1e3 * total["ce_design.mm_map"] / maps if maps else 0.0,
            "ce_design.mm_map_s": total["ce_design.mm_map"],
            "ce_design.minorizer_s": total["ce_design.minorizer"],
            "ce_design.minorizer_calls": calls["ce_design.minorizer"],
            "ce_design.objective_s": total["ce_design.objective"],
            "ce_design.objective_calls": calls["ce_design.objective"],
            "ce_design.steering_s": total["ce_design.steering"],
            "ce_design.steering_builds": calls["ce_design.steering"],
            "ce_design.shift_accept_ratio": optimistic / maps if maps else 0.0,
            "ce_design.squarem_accept_ratio":
                c["squarem.kept"] / c["squarem.transitions"] if c["squarem.transitions"] else 0.0,
            "model.entropy_s": entropy_s,
            "model.entropy_calls": entropy_calls,
            "model.relative_entropy_calls": calls["model.relative_entropy"],
            "model.covariance_s": self._outermost({"model.covariance"})[0],
            "onebit.epm_s": total["onebit.epm"],
            "onebit.epm_share": total["onebit.epm"] / wall_s,
            "onebit.iterations": c["onebit.iterations"],
            "onebit.objective_calls": calls["onebit.objective"],
            "onebit.gradient_calls": calls["onebit.gradient"],
            "onebit.momentum_resets": c["onebit.momentum_resets"],
            "simulate.detection_s": total["simulate.detection"],
            "simulate.detection_share": total["simulate.detection"] / wall_s,
            "simulate.generate_s": total["simulate.generate"],
            "simulate.batches": calls["simulate.generate"],
            "simulate.trials": c["simulate.trials"],
            "simulate.trials_per_s": (c["simulate.trials"] / total["simulate.detection"]
                                      if total["simulate.detection"] else 0.0),
            "quantizer.quantize_s": total["quantizer.quantize"],
            "quantizer.quantize_s.b1": c["quantizer.quantize_s.b1"],
            "quantizer.quantize_s.b3": c["quantizer.quantize_s.b3"],
            "quantizer.values": c["quantizer.values"],
            "quantizer.bytes_computed": c["quantizer.bytes_computed"],
            "quantizer.codebook_s": total["quantizer.codebook"],
            "accel.lrt_s": total["accel.lrt"],
            "accel.lrt_flops_computed": c["accel.lrt_flops_computed"],
            "accel.lrt_flops_per_byte_computed":
                (c["accel.lrt_flops_computed"] / c["accel.lrt_bytes_computed"]
                 if c["accel.lrt_bytes_computed"] else 0.0),
            "trace.wall_s": wall_s,
            "trace.calls": len(self.spans),
            "trace.overhead_s_est": len(self.spans) * per_call_overhead_s,
        }
        return {name: float(values[name]) for name, _, _ in PER_LAYER}

    def write(self, path: Path) -> None:
        """Span tree as a name table plus [name id, start, end, parent] rows."""
        names = sorted({s[NAME] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[ids[n], round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans]
        path.write_text(json.dumps({"names": names, "fields": ["name", "start_s", "end_s", "parent"],
                                    "spans": rows}, separators=(",", ":")))


def per_call_overhead(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    class Owner:
        @staticmethod
        def noop(x):
            return x

    bare = Owner.noop
    t0 = time.perf_counter()
    for i in range(calls):
        bare(i)
    t_bare = time.perf_counter() - t0
    tracer = Tracer()
    tracer.wrap(Owner, "noop", "noop")
    wrapped = Owner.noop
    t0 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    t_wrapped = time.perf_counter() - t0
    tracer.restore()
    return max(t_wrapped - t_bare, 0.0) / calls
