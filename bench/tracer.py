"""Spans and counters at the public functions of nonarch's layers.

The tracer wraps library functions from the benchmark's side at run time and
edits nothing under src/.  Each wrapped call records a span (name, start,
end, parent) in memory; spans are written out when the run ends.  A span's
self time is its duration minus the time covered by its child spans,
computed on the fly from the call stack.  Counters that need arguments or
results (candidates tested, values drawn) are taken at the same boundaries.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute path) of the wrapped callable
TRACED = {
    "orbital.mc": ("nonarch.orbital", "mc_orbital_multi"),
    "orbital.mask": ("nonarch.orbital", "invertible_mask"),
    "orbital.exact": ("nonarch.orbital", "exact_orbital_integral"),
    "orbital.charfun_batch": ("nonarch.orbital", "measure_charfun_batch"),
    "orbital.empirical_charfun": ("nonarch.orbital", "empirical_charfun"),
    "sampling.rng": ("nonarch.sampling", "RandomStream.integers"),
    "sampling.haar_gl": ("nonarch.sampling", "haar_gl"),
    "sampling.push": ("nonarch.sampling", "orbital_push"),
    "sampling.corner": ("nonarch.sampling", "sample_corner"),
    "matrices.snf": ("nonarch.matrices", "smith_normal_form"),
    "matrices.symdiag": ("nonarch.matrices", "sym_diagonalize"),
    "matrices.matmul": ("nonarch.matrices", "MatF.__matmul__"),
    "field.add": ("nonarch.field", "FieldElement.__add__"),
    "field.sub": ("nonarch.field", "FieldElement.__sub__"),
    "field.neg": ("nonarch.field", "FieldElement.__neg__"),
    "field.mul": ("nonarch.field", "FieldElement.__mul__"),
    "field.inverse": ("nonarch.field", "FieldElement.inverse"),
    "residue.det_mod": ("nonarch.residue", "_det_mod"),
    "characters.chi": ("nonarch.characters", "chi"),
    "params.char_single.delta": ("nonarch.params", "DeltaParam.char_single"),
    "params.char_single.omega": ("nonarch.params", "OmegaParam.char_single"),
}

SPAN_CAP = 200_000  # spans kept for the trace file; aggregates cover every span


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names = list(TRACED)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.counters = defaultdict(float)
        self.durations = {"matrices.snf": [], "matrices.symdiag": []}
        self.open = defaultdict(int)
        self._stack = []  # [span id, child time]
        self._next_id = 0
        self._span_id = array("q")
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self.dropped = 0
        self._restore = []

    # -- installation -----------------------------------------------------
    def install(self, extra_modules=()):
        """Wrap every traced callable, in its defining module and wherever a
        module of nonarch (or one of ``extra_modules``) bound it by import."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nonarch"]
        modules += list(extra_modules)
        for idx, (name, (mod_name, path)) in enumerate(TRACED.items()):
            owner = sys.modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(idx, name, original))
                continue
            original = getattr(owner, path)
            wrapped = self._wrap(idx, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def _wrap(self, idx: int, name: str, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        tracer = self
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            tracer.open[name] += 1
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                tracer.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.open[name] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[1]
                tracer.calls[name] += 1
                if name in tracer.durations:
                    tracer.durations[name].append(dur)
                if hook is not None:
                    hook(args, kwargs, result, dur)
                if span_id < SPAN_CAP:
                    tracer._span_id.append(span_id)
                    tracer._span_name.append(idx)
                    tracer._span_parent.append(parent)
                    tracer._span_start.append(start)
                    tracer._span_end.append(end)
                else:
                    tracer.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the boundaries ---------------------------------
    def _on_orbital_mask(self, args, kwargs, result, dur):
        mats = args[0]
        if result is None:
            return
        count = mats.shape[0]
        self.counters["mask_candidates"] += count
        self.counters["mask_accepted"] += int(result.sum())
        self.counters["mask_bytes"] += count * mats.shape[1] * mats.shape[2] * 8
        if self.open["orbital.mc"]:
            self.counters["mc_candidates"] += count
        if self.open["orbital.exact"]:
            self.counters["exact_enumerated"] += count

    def _on_orbital_mc(self, args, kwargs, result, dur):
        if result is None:
            return
        kind, n_samples = args[1], args[4]
        self.counters["mc_samples"] += n_samples
        self.counters["mc_haar_used"] += n_samples * (2 if kind == "two_sided" else 1)

    def _on_sampling_rng(self, args, kwargs, result, dur):
        if result is not None:
            self.counters["rng_values"] += getattr(result, "size", 1)

    def _on_residue_det_mod(self, args, kwargs, result, dur):
        if self.open["sampling.haar_gl"]:
            self.counters["haar_gl_trials"] += 1

    def _on_field_mul(self, args, kwargs, result, dur):
        family = args[0].params.family
        self.counters[f"mul_{family}_s"] += dur
        self.counters[f"mul_{family}_calls"] += 1

    # -- results -------------------------------------------------------------
    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics.  Times, counts and bytes are per round of the
        workload (totals divided by ``rounds``), so that runs of different
        length compare; ratios, rates and percentiles are taken as they are."""
        c, tot, calls = self.counters, self.total, self.calls

        def ratio(a, b):
            return a / b if b else 0.0

        def pct(name, q):
            xs = sorted(self.durations[name])
            if not xs:
                return 0.0
            return xs[min(len(xs) - 1, int(q * len(xs)))] * 1e6

        field_names = [n for n in self.names if n.startswith("field.")]
        char_single = ("params.char_single.delta", "params.char_single.omega")
        pe = sum(
            v for (name, exc), v in self.raised.items() if exc == "PrecisionExhausted" and name.startswith("matrices.")
        )
        values = {
            "orbital.mask_s": (tot["orbital.mask"], "s"),
            "orbital.mask_calls": (calls["orbital.mask"], "count"),
            "orbital.mask_candidates": (c["mask_candidates"], "count"),
            "orbital.mask_accept_ratio": (ratio(c["mask_accepted"], c["mask_candidates"]), "ratio"),
            "orbital.draw_efficiency": (ratio(c["mc_haar_used"], c["mc_candidates"]), "ratio"),
            "orbital.mask_bytes_computed": (c["mask_bytes"], "bytes"),
            "orbital.mc_s": (tot["orbital.mc"], "s"),
            "orbital.mc_self_s": (self.self_time["orbital.mc"], "s"),
            "orbital.mc_samples_per_s": (ratio(c["mc_samples"], tot["orbital.mc"]), "1/s"),
            "orbital.exact_s": (tot["orbital.exact"], "s"),
            "orbital.exact_enumerated": (c["exact_enumerated"], "count"),
            "orbital.charfun_batch_s": (tot["orbital.charfun_batch"], "s"),
            "orbital.empirical_charfun_s": (tot["orbital.empirical_charfun"], "s"),
            "sampling.rng_s": (tot["sampling.rng"], "s"),
            "sampling.rng_values": (c["rng_values"], "count"),
            "sampling.haar_gl_s": (tot["sampling.haar_gl"], "s"),
            "sampling.haar_gl_calls": (calls["sampling.haar_gl"], "count"),
            "sampling.haar_gl_accept_ratio": (ratio(calls["sampling.haar_gl"], c["haar_gl_trials"]), "ratio"),
            "sampling.push_s": (tot["sampling.push"], "s"),
            "sampling.corner_s": (tot["sampling.corner"], "s"),
            "sampling.corner_calls": (calls["sampling.corner"], "count"),
            "matrices.snf_s": (tot["matrices.snf"], "s"),
            "matrices.snf_calls": (calls["matrices.snf"], "count"),
            "matrices.snf_p50_us": (pct("matrices.snf", 0.5), "us"),
            "matrices.snf_p99_us": (pct("matrices.snf", 0.99), "us"),
            "matrices.symdiag_s": (tot["matrices.symdiag"], "s"),
            "matrices.symdiag_p50_us": (pct("matrices.symdiag", 0.5), "us"),
            "matrices.matmul_s": (tot["matrices.matmul"], "s"),
            "matrices.precision_exhausted": (pe, "count"),
            "field.self_s": (sum(self.self_time[n] for n in field_names), "s"),
            "field.mul_calls": (calls["field.mul"], "count"),
            "field.add_calls": (calls["field.add"], "count"),
            "field.inverse_calls": (calls["field.inverse"], "count"),
            "field.padic.mul_us": (ratio(c["mul_padic_s"], c["mul_padic_calls"]) * 1e6, "us"),
            "field.laurent.mul_us": (ratio(c["mul_laurent_s"], c["mul_laurent_calls"]) * 1e6, "us"),
            "residue.det_mod_s": (tot["residue.det_mod"], "s"),
            "residue.det_mod_calls": (calls["residue.det_mod"], "count"),
            "characters.chi_s": (tot["characters.chi"], "s"),
            "characters.chi_calls": (calls["characters.chi"], "count"),
            "params.char_single_s": (sum(tot[n] for n in char_single), "s"),
            "params.char_single_calls": (sum(calls[n] for n in char_single), "count"),
        }
        per_round = ("s", "count", "bytes")
        return {
            name: {"value": float(v) / (rounds if unit in per_round else 1), "unit": unit}
            for name, (v, unit) in values.items()
        }

    def write(self, path):
        """Write the kept spans as [id, name, parent id, start, end] in order
        of completion; ids count from 0 in order of start, -1 is no parent."""
        spans = [
            [sid, self.names[i], parent, start, end]
            for sid, i, parent, start, end in zip(
                self._span_id, self._span_name, self._span_parent, self._span_start, self._span_end
            )
        ]
        doc = {
            "fields": ["id", "name", "parent", "start", "end"],
            "spans_recorded": self._next_id,
            "spans_dropped": self.dropped,
            "spans": spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
