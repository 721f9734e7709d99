"""Spans around calls into kipa's modules, recorded from outside the program.

``Tracer.install`` replaces every public function of the layer modules
(``kipa.cli``, ``kipa.datio``, ``kipa.ampcore``, ``kipa.oracle``,
``kipa.calfit``, ``kipa.noise``) with a wrapper on the module object.
Calls between kipa modules go through module attributes or module globals,
so the wrappers see them too. A span is
``[name, start, end, parent, op, work, value, error]``: ``work`` is the
size of the call's input (points, rows, draws, RK4 steps, LM iterations)
and ``value`` a scalar result some metrics need. Spans stay in memory and
are written once, when the run ends.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time

LAYERS = ("cli", "datio", "ampcore", "oracle", "calfit", "noise")
FIT_FUNCTIONS = ("fit_reflection", "fit_bias_sweep", "fit_gain_profile",
                 "fit_noise_temperature", "fit_lorentzian")
NAME, START, END, PARENT, OP, WORK, VALUE, ERROR = range(8)


def layer_modules():
    """Layer name -> imported ``kipa.<layer>`` module."""
    return {layer: importlib.import_module("kipa." + layer) for layer in LAYERS}


def rk4_steps(run):
    """RK4 steps one ``time_domain_gain`` run takes: the step and window
    policy of ``oracle._steady_output`` (two runs for a resonant probe)."""
    wd = run.drive_freq
    if wd != 0.0:
        period = 2.0 * math.pi / abs(wd)
        h = period / math.ceil(period / run.step)
        n_periods = max(2, math.ceil(run.sample_time / period))
        n_periods += n_periods % 2
        n_window = n_periods * round(period / h)
    else:
        h = run.step
        n_window = max(4, math.ceil(run.sample_time / h))
        n_window += n_window % 2
    steps = math.ceil(run.settle_time / h) + n_window
    return steps if wd != 0.0 else 2 * steps


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


# work and value extractors; a failing extractor records None, never breaks
# the traced call
WORK_OF = {
    "ampcore.single_mode_gain": lambda a, k, r: len(r[0]),
    "ampcore.double_mode_gain_bare": lambda a, k, r: len(r.signal_a),
    "ampcore.pump_regime_map": lambda a, k, r: len(r.pump_freqs),
    "ampcore.find_peaks_db": lambda a, k, r: len(_first(a, k, "values_db")),
    "datio.load_trace": lambda a, k, r: len(r),
    "datio.save_trace": lambda a, k, r: len(_first(a, k, "trace")),
    "datio.record_to_json": lambda a, k, r: len(r.encode("utf-8")),
    "cli.emit_plot_data": lambda a, k, r: len(_first(a, k, "spectrum")),
    "oracle.transfer_equivalence": lambda a, k, r: r["draws"],
    "oracle.time_domain_gain": lambda a, k, r: rk4_steps(_first(a, k, "run")),
    "calfit.damped_least_squares": lambda a, k, r: r[1],
}
VALUE_OF = {
    "oracle.transfer_equivalence":
        lambda a, k, r: max(r["max_rel_err_single"], r["max_rel_err_double"]),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def install(self, modules):
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))

    def uninstall(self):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def open(self, name):
        span = [name, time.perf_counter(), None,
                self._stack[-1] if self._stack else -1, self.op, None, None, 0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def close(self, span, error=False):
        span[END] = time.perf_counter()
        span[ERROR] = int(error)
        self._stack.pop()

    def _wrap(self, name, fn):
        extractors = [(slot, table[name]) for slot, table in
                      ((WORK, WORK_OF), (VALUE, VALUE_OF)) if name in table]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span)
            for slot, extract in extractors:
                try:
                    span[slot] = extract(args, kwargs, result)
                except Exception:  # a changed signature loses the count only
                    pass
            return result

        return wrapper

    def add_child_spans(self, path):
        """Adopt the spans a traced child process wrote to ``path``: its
        roots become children of the innermost open span here."""
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        offset = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for span in child["spans"]:
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + offset
            span[OP] = self.op
            self.spans.append(span)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "work",
                                  "value", "error"], "spans": self.spans}, fh)


def summarize(spans, ops):
    """Per-layer metrics of the traced operations, ``ops`` of them.

    ``_ms`` of a function is its mean inclusive time per call, ``_per_s``
    its work per second inside it; ``<layer>.self_ms``, ``<layer>.calls``
    and the call counts are per traced operation.
    """
    n = len(spans)
    child_time = [0.0] * n
    fit_ancestor = [-1] * n
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] += span[END] - span[START]
            fit_ancestor[i] = fit_ancestor[parent]
        if span[NAME].startswith("calfit.") and span[NAME][7:] in FIT_FUNCTIONS:
            fit_ancestor[i] = i

    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    fn = {}  # function name -> totals over its spans
    model_evals = 0
    fits_with_lm = set()
    for i, span in enumerate(spans):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        duration = span[END] - span[START]
        if layer in layer_self:
            layer_self[layer] += duration - child_time[i]
            layer_calls[layer] += 1
        stats = fn.setdefault(name, {"calls": 0, "seconds": 0.0, "work": 0,
                                     "errors": 0, "values": []})
        stats["calls"] += 1
        stats["seconds"] += duration
        stats["work"] += span[WORK] or 0
        stats["errors"] += span[ERROR]
        if span[VALUE] is not None:
            stats["values"].append(span[VALUE])
        if name == "ampcore.single_mode_gain" and fit_ancestor[i] >= 0:
            model_evals += 1
        if name == "calfit.damped_least_squares" and fit_ancestor[i] >= 0:
            fits_with_lm.add(fit_ancestor[i])

    empty = {"calls": 0, "seconds": 0.0, "work": 0, "errors": 0, "values": []}

    def get(name):
        return fn.get(name, empty)

    def ms_per_call(name):
        stats = get(name)
        return stats["seconds"] / stats["calls"] * 1e3 if stats["calls"] else 0.0

    def work_per_call(name):
        stats = get(name)
        return stats["work"] / stats["calls"] if stats["calls"] else 0.0

    def work_per_s(name):
        stats = get(name)
        return stats["work"] / stats["seconds"] if stats["seconds"] > 0 else 0.0

    per_op = max(ops, 1)
    lm_calls = get("calfit.damped_least_squares")["calls"]
    kept = sum(1 for i in fits_with_lm if not spans[i][ERROR])
    metrics = {
        "cli.main_ms": ms_per_call("cli.main"),
        "cli.emit_plot_data_ms": ms_per_call("cli.emit_plot_data"),
        "cli.emit_plot_data_rows": work_per_call("cli.emit_plot_data"),
        "datio.load_config_ms": ms_per_call("datio.load_config"),
        "datio.load_trace_ms": ms_per_call("datio.load_trace"),
        "datio.load_trace_rows_per_s": work_per_s("datio.load_trace"),
        "datio.save_trace_rows_per_s": work_per_s("datio.save_trace"),
        "datio.record_to_json_ms": ms_per_call("datio.record_to_json"),
        "datio.record_bytes": work_per_call("datio.record_to_json"),
        "datio.errors": sum(s["errors"] for name, s in fn.items()
                            if name.startswith("datio.")),
        "ampcore.single_mode_gain_calls": get("ampcore.single_mode_gain")["calls"] / per_op,
        "ampcore.single_mode_gain_ms": ms_per_call("ampcore.single_mode_gain"),
        "ampcore.single_mode_gain_points": work_per_call("ampcore.single_mode_gain"),
        "ampcore.pump_regime_map_ms": ms_per_call("ampcore.pump_regime_map"),
        "ampcore.pump_regime_map_pump_points_per_s": work_per_s("ampcore.pump_regime_map"),
        "ampcore.double_mode_gain_bare_points_per_s":
            work_per_s("ampcore.double_mode_gain_bare"),
        "ampcore.find_peaks_db_ms": ms_per_call("ampcore.find_peaks_db"),
        "ampcore.find_peaks_db_samples": work_per_call("ampcore.find_peaks_db"),
        "ampcore.gain_bandwidth_product_ms": ms_per_call("ampcore.gain_bandwidth_product"),
        "oracle.transfer_equivalence_ms": ms_per_call("oracle.transfer_equivalence"),
        "oracle.draws_per_s": work_per_s("oracle.transfer_equivalence"),
        "oracle.max_rel_err": max(get("oracle.transfer_equivalence")["values"],
                                  default=0.0),
        "oracle.time_domain_gain_ms": ms_per_call("oracle.time_domain_gain"),
        "oracle.rk4_steps": work_per_call("oracle.time_domain_gain"),
        "oracle.rk4_steps_per_s": work_per_s("oracle.time_domain_gain"),
        "calfit.lm_calls": lm_calls / per_op,
        "calfit.lm_iterations": work_per_call("calfit.damped_least_squares"),
        "calfit.model_evals": model_evals / per_op,
        "calfit.refine_useful_ratio": kept / lm_calls if lm_calls else 0.0,
        "calfit.fit_errors": sum(get("calfit." + f)["errors"] for f in FIT_FUNCTIONS),
        "noise.ms": layer_self["noise"] / per_op * 1e3,
    }
    for f in FIT_FUNCTIONS:
        metrics[f"calfit.{f}_ms"] = ms_per_call("calfit." + f)
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = layer_calls[layer] / per_op
        if layer != "noise":
            metrics[f"{layer}.self_ms"] = layer_self[layer] / per_op * 1e3
    return metrics
