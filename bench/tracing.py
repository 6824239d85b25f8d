"""Span tracing from outside the package.

A `Tracer` records one span per call at each layer boundary: name,
start, end, parent span and run id.  `Installed` swaps every module
binding of the chosen public functions (and of the numpy/scipy FFT entry
points) for a recording wrapper, and puts the originals back on exit, so
the program itself is never edited and an untraced pass runs the
original functions.  Counts (FFT sizes, solver iterations, bytes
written) are taken at the same boundaries.  Spans stay in memory until
`write_spans`; `summarize` derives busy and self times from them.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

MARK = "__bench_wrapped__"

FFT_ENTRIES = [("numpy.fft", f) for f in ("fft", "ifft", "rfft", "irfft")] + \
              [("scipy.fft", f) for f in ("fft", "ifft", "rfft", "irfft")]

# span names that form a layer of their own; any other span belongs to
# the layer named by the text before its first dot (fft, artifacts, cli)
SINGLE_LAYERS = ("evolve", "evolve.orbital_distance",
                 "functionals.conserved_triple", "minimize.minimize_I",
                 "minimize.minimize_W", "rearrange.rearrange_values")
LAYERS = ("fft",) + SINGLE_LAYERS + ("artifacts", "cli")


def layer_of(name: str) -> str:
    if name in SINGLE_LAYERS:
        return name
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span store plus counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []                 # [name, start, end, parent, run]
        self._stack = []
        self.run = "none"
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        # per FFT call: (span index, entry point, input length, output
        # shape, bytes in plus out)
        self.fft_calls = []
        self.pass_walls = {}            # run id -> wall time of that pass
        self.after_call = None          # called after each non-FFT span

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        return end - span[1]

    @property
    def fft(self) -> dict:
        """(entry point, length) -> [calls, busy s, flops, bytes], computed.

        flops are 5 n log2 n per transformed row.
        """
        out = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        for idx, entry, in_len, out_shape, nbytes in self.fft_calls:
            n = max(in_len, out_shape[-1])
            rows = math.prod(out_shape[:-1])
            span = self.spans[idx]
            rec = out[(entry, n)]
            rec[0] += 1
            rec[1] += span[2] - span[1]
            rec[2] += rows * 5.0 * n * math.log2(n)
            rec[3] += nbytes
        return out

    def durations(self, name: str) -> list:
        """Durations in seconds of every span with this name."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]


def _wrap(tracer, name, fn, after=None, raised=None):
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(idx)
            if raised is not None:
                raised(tracer, exc)
            if tracer.after_call is not None:
                tracer.after_call()
            raise
        except BaseException:
            tracer.close(idx)
            raise
        dur = tracer.close(idx)
        if after is not None:
            after(tracer, args, kwargs, out, dur)
        if tracer.after_call is not None:
            tracer.after_call()
        return out
    setattr(traced, MARK, fn)
    return traced


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# --- counters taken at each boundary ---------------------------------------

def _wrap_fft(tracer, name, fn, entry):
    """Leaf wrapper for an FFT entry point, kept cheap: FFTs are the most
    frequent calls, and work done here lands in the caller's self time."""
    spans, stack, calls = tracer.spans, tracer._stack, tracer.fft_calls
    clock = time.perf_counter

    def traced(a, *args, **kwargs):
        t0 = clock()
        out = fn(a, *args, **kwargs)
        t1 = clock()
        shape = a.shape if hasattr(a, "shape") else (len(a),)
        calls.append((len(spans), entry, shape[-1], out.shape,
                      getattr(a, "nbytes", 0) + out.nbytes))
        spans.append([name, t0, t1, stack[-1] if stack else -1,
                      tracer.run])
        return out
    setattr(traced, MARK, fn)
    return traced


def _count_failure(key):
    def raised(tr, exc):
        tr.counts[key] += 1
    return raised


def _evolve_after(fn):
    def after(tr, args, kwargs, out, dur):
        arg = _bound(fn, args, kwargs)
        tr.counts["evolve.steps"] += round(abs(arg["T"]) / abs(arg["dt"]))
        tr.maxima["evolve.energy_rel_drift"] = max(
            tr.maxima["evolve.energy_rel_drift"], out.rel_drift("E"))
        tr.maxima["evolve.mass_rel_drift"] = max(
            tr.maxima["evolve.mass_rel_drift"], out.rel_drift("H"))
    return after


def _evolve_raised(tr, exc):
    if type(exc).__name__ == "BlowUpError":
        tr.counts["evolve.blowups"] += 1


def _minimize_i_after(tr, args, kwargs, out, dur):
    pair, report = out
    tr.counts["minimize.iterations"] += report.iterations
    tr.counts["minimize.stages"] += report.stages
    for res in (pair.el_residual_phi, pair.el_residual_psi):
        if math.isfinite(res):
            tr.maxima["minimize.residual_max"] = max(
                tr.maxima["minimize.residual_max"], res)


def _minimize_w_after(tr, args, kwargs, out, dur):
    tr.counts["minimize.w_inner_solves"] += out.n_solves
    tr.counts["minimize.w_unavailable"] += out.n_unavailable


def _write_text_after(fn):
    def after(tr, args, kwargs, out, dur):
        path = _bound(fn, args, kwargs)["path"]
        tr.counts["artifacts.writes"] += 1
        tr.counts["artifacts.bytes_written"] += os.path.getsize(path)
    return after


def _save_field_after(fn):
    def after(tr, args, kwargs, out, dur):
        base = _bound(fn, args, kwargs)["basepath"]
        tr.counts["artifacts.writes"] += 2
        tr.counts["artifacts.bytes_written"] += (
            os.path.getsize(base + ".bin") + os.path.getsize(base + ".json"))
    return after


def _cli_exit_after(tr, args, kwargs, out, dur):
    if out != 0:
        tr.counts["cli.nonzero_exits"] += 1


def _targets(kind: str):
    """(module, attribute, span name, after hook, raise hook) to wrap."""
    probe = [
        ("nlskdv.minimize", "minimize_I", "minimize.minimize_I",
         _minimize_i_after, _count_failure("minimize.failures")),
        ("nlskdv.minimize", "minimize_W", "minimize.minimize_W",
         _minimize_w_after, _count_failure("minimize.failures")),
        ("nlskdv.functionals", "conserved_triple",
         "functionals.conserved_triple", None, None),
    ]
    if kind == "probe":
        return probe
    evo = importlib.import_module("nlskdv.evolve")
    art = importlib.import_module("nlskdv.artifacts")
    grid = importlib.import_module("nlskdv.grid")
    importlib.import_module("nlskdv.cli")
    full = probe + [
        ("nlskdv.evolve", "evolve", "evolve", _evolve_after(evo.evolve),
         _evolve_raised),
        ("nlskdv.evolve", "orbital_distance", "evolve.orbital_distance",
         None, None),
        ("nlskdv.rearrange", "rearrange_values",
         "rearrange.rearrange_values", None, None),
        ("nlskdv.artifacts", "atomic_write_text",
         "artifacts.atomic_write_text",
         _write_text_after(art.atomic_write_text), None),
        ("nlskdv.grid", "save_field", "artifacts.save_field",
         _save_field_after(grid.save_field), None),
    ]
    for fn, span in (("main", "cli.main"), ("cmd_solve", "cli.solve"),
                     ("cmd_evolve", "cli.evolve"),
                     ("cmd_wsolve", "cli.w_solve"),
                     ("cmd_sweep", "cli.sweep")):
        full.append(("nlskdv.cli", fn, span,
                     _cli_exit_after if fn == "main" else None, None))
    for fn in ("write_json", "save_pair", "load_pair", "save_wsolution",
               "save_trace"):
        full.append(("nlskdv.artifacts", fn, f"artifacts.{fn}", None, None))
    for mod, fn in FFT_ENTRIES:
        full.append((mod, fn, f"fft.{mod.split('.')[0]}.{fn}", None, None))
    return full


def _scanned_modules():
    names = ["numpy.fft", "scipy.fft"] + sorted(
        m for m in sys.modules if m == "nlskdv" or m.startswith("nlskdv."))
    return [sys.modules[m] for m in names if m in sys.modules]


def wrapped_bindings() -> list:
    """Every (module, attribute) that currently holds a bench wrapper."""
    return [(mod.__name__, attr) for mod in _scanned_modules()
            for attr, val in list(vars(mod).items()) if hasattr(val, MARK)]


class Installed:
    """Context manager that wraps every binding of the target functions.

    kind is "trace" (every layer) or "probe" (the two solver entry
    points, for latency samples in untraced runs, and conserved_triple,
    whose calls inside evolve give the speed clock its mark points).
    """

    def __init__(self, tracer: Tracer, kind: str = "trace"):
        self.tracer = tracer
        self.kind = kind
        self._saved = []

    def __enter__(self):
        importlib.import_module("scipy.fft")
        wrappers = {}
        for mod_name, attr, span, after, raised in _targets(self.kind):
            original = getattr(importlib.import_module(mod_name), attr)
            if span.startswith("fft."):
                wrapper = _wrap_fft(self.tracer, span, original,
                                    f"{mod_name}.{attr}")
            else:
                wrapper = _wrap(self.tracer, span, original, after, raised)
            wrappers[id(original)] = (original, wrapper)
        for mod in _scanned_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self.tracer

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False


# --- derived metrics ---------------------------------------------------------

def summarize(tracer: Tracer) -> dict:
    """Per-layer calls, busy and self seconds over the traced passes.

    busy is the time covered by a layer's outermost spans; self is each
    span's duration minus its direct children's.  Summed over layers,
    self time plus the time no span covers equals the passes' wall time.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    top = defaultdict(float)
    layers = [layer_of(s[0]) for s in spans]
    for i, s in enumerate(spans):
        dur = s[2] - s[1]
        lay = layers[i]
        calls[lay] += 1
        self_s[lay] += dur - child_time[i]
        p = s[3]
        while p >= 0 and layers[p] != lay:
            p = spans[p][3]
        if p < 0:
            busy[lay] += dur
        if s[3] < 0:
            top[s[4]] += dur
    # evolve time net of its distance and conserved-triple children
    nested = 0.0
    for i, s in enumerate(spans):
        if layers[i] in ("evolve.orbital_distance",
                         "functionals.conserved_triple") \
                and s[3] >= 0 and layers[s[3]] == "evolve":
            nested += s[2] - s[1]
    unattributed = sum(wall - top[run]
                       for run, wall in tracer.pass_walls.items())
    return {"calls": dict(calls), "busy": dict(busy), "self": dict(self_s),
            "evolve_net": busy["evolve"] - nested,
            "unattributed": unattributed,
            "wall": sum(tracer.pass_walls.values())}


def write_spans(tracers: list, path: str) -> None:
    """One CSV line per span: id,name,start,end,parent,run (seconds)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("id,name,start,end,parent,run\n")
        offset = 0
        for tr in tracers:
            for i, (name, start, end, parent, run) in enumerate(tr.spans):
                par = parent + offset if parent >= 0 else -1
                fh.write(f"{i + offset},{name},{start!r},{end!r},{par},"
                         f"{run}\n")
            offset += len(tr.spans)
    os.replace(tmp, path)
