"""Spans and counts around the public names of the beamfade modules.

The library has no tracing of its own, so this module records it from the
outside.  Each consuming module imports the names it calls (``from .channel
import weibull_params``), so wrapping a function means rebinding its name in
every beamfade module namespace that holds it, including the module that
defines it, so that calls inside that module are seen as well.  Dataclass
constructors are traced through their ``__post_init__`` validation, which is
where their cost lies; rebinding the class name would break ``isinstance``.

Private helpers are not wrapped.  Their time lands in the self time of the
public caller: ``_eta_exact_many`` in ``fading.analytic_moments`` and
``channel.sample_transmittance``, ``_cdf_distance`` in
``ingest.fit_geometry``.  The ``cli`` layer is wrapped at ``main`` only, so its
self time is argparse, the command loops, CSV formatting and file writing.
"""

from __future__ import annotations

import bisect
import inspect
import statistics
import time

LAYERS = ("channel", "fading", "gaussian", "keyrate", "ingest", "cli")
# longest a command's timed duration may exceed its cli.main span: the time of
# the benchmark's call into main and of the wrapper around it
MAIN_SLACK_S = 0.005


def _optimum(args, kwargs, result):
    return (result.at_cap, result.all_negative)


def _moment_key(args, kwargs, result):
    geometry = args[0] if args else kwargs["geometry"]
    model = kwargs.get("model", args[1] if len(args) > 1 else "approx")
    return (geometry.a_over_W, geometry.sigma_b2, model)


def _fit(args, kwargs, result):
    return (result.gof, result.boundary)


# what a traced call keeps of its arguments or result, for ratios and flags
NOTES = {
    "keyrate.optimize_modulation": _optimum,
    "fading.analytic_moments": _moment_key,
    "channel.sample_transmittance": lambda args, kwargs, result: result.size,
    "ingest.parse_series": lambda args, kwargs, result: result.count,
    "ingest.fit_geometry": _fit,
}


class Tracer:
    """Installs wrappers on enter, removes them on exit, keeps spans in memory.

    A span is ``(name, start, end, parent)`` with ``parent`` the index of the
    enclosing span in ``spans`` or -1.  Calls are single-threaded, so a stack
    of open span indices gives the parent.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.notes = {name: [] for name in NOTES}
        self._stack = []
        self._undo = []

    def reset(self):
        self.spans = []
        self.notes = {name: [] for name in NOTES}

    def _wrap(self, name, fn):
        stack = self._stack
        note = NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if note is not None:
                self.notes[name].append(note(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for layer in LAYERS:
            module = self.modules[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if layer == "cli" and attr != "main":
                    continue
                if inspect.isfunction(obj):
                    self._rebind(obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    original = vars(obj)["__post_init__"]
                    setattr(obj, "__post_init__", self._wrap(f"{layer}.{attr}", original))
                    self._undo.append((obj, "__post_init__", original))
        return self

    def _rebind(self, original, wrapper):
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []
        return False

    def self_times(self):
        """Per span name: (calls, total self seconds).

        Spans nest strictly in one thread, so the part of a span covered by
        its children is the sum of the children's durations.
        """
        out = {}
        for (name, start, end, _), covered in zip(self.spans, self._child_seconds()):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - covered)
        return out

    def _child_seconds(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def problems(self, timed):
        """What is wrong with the spans of one traced workload run, per command.

        ``timed`` holds the measured seconds of each command, in order.  There
        must be one ``cli.main`` span per command, every other span nested in
        one, no span left open, no negative self time, and each command's
        timed seconds at least its ``cli.main`` span and at most MAIN_SLACK_S
        more.  A span that escaped the wrappers, or a command whose time the
        spans miss, breaks one of these.
        """
        if self._stack or any(span is None for span in self.spans):
            return [["a span was left open"] for _ in timed]
        mains = [i for i, (name, _, _, parent) in enumerate(self.spans)
                 if parent == -1 and name == "cli.main"]
        if len(mains) != len(timed):
            return [[f"{len(mains)} cli.main spans for {len(timed)} commands"]
                    for _ in timed]
        out = [[] for _ in timed]
        for index, ((name, start, end, parent), covered) in enumerate(
                zip(self.spans, self._child_seconds())):
            problems = out[max(bisect.bisect_right(mains, index) - 1, 0)]
            if parent == -1 and name != "cli.main":
                problems.append(f"span {name} outside cli.main")
            if end - start - covered < -1e-9:
                problems.append(f"span {name} has self time {end - start - covered:.3g} s")
        for problems, index, seconds in zip(out, mains, timed):
            _, start, end, _ = self.spans[index]
            if not 0 <= seconds - (end - start) <= MAIN_SLACK_S:
                problems.append(f"timed {seconds:.6f} s, cli.main span {end - start:.6f} s")
        return out

    def layer_metrics(self):
        """The per-layer metrics of one traced workload run."""
        per_name = self.self_times()

        def calls(name):
            return per_name.get(name, (0, 0.0))[0]

        def self_s(name):
            return per_name.get(name, (0, 0.0))[1]

        def module(prefix):
            picked = [v for k, v in per_name.items() if k.startswith(prefix + ".")]
            return sum(c for c, _ in picked), sum(s for _, s in picked)

        optima = self.notes["keyrate.optimize_modulation"]
        moment_keys = self.notes["fading.analytic_moments"]
        fits = self.notes["ingest.fit_geometry"]
        n_opt = calls("keyrate.optimize_modulation")
        n_moments = calls("fading.analytic_moments")
        gaussian_calls, gaussian_self = module("gaussian")
        # each objective evaluation of the fit calls pdt_cdf once, directly
        # under the fit_geometry span (the objective helper is private)
        fit_spans = {i for i, span in enumerate(self.spans)
                     if span[0] == "ingest.fit_geometry"}
        objective_evals = sum(1 for span in self.spans
                              if span[0] == "channel.pdt_cdf" and span[3] in fit_spans)
        return {
            "keyrate.key_rate.calls": calls("keyrate.key_rate"),
            "keyrate.optimize_modulation.calls": n_opt,
            "keyrate.evals_per_optimum":
                calls("keyrate.key_rate") / n_opt if n_opt else 0.0,
            "keyrate.holevo_bound.self_s": self_s("keyrate.holevo_bound"),
            "keyrate.mutual_information.self_s": self_s("keyrate.mutual_information"),
            "keyrate.optimize_modulation.self_s": self_s("keyrate.optimize_modulation"),
            "keyrate.at_cap": sum(1 for cap, _ in optima if cap),
            "keyrate.all_negative": sum(1 for _, neg in optima if neg),
            "gaussian.calls": gaussian_calls,
            "gaussian.self_s": gaussian_self,
            "gaussian.CovMat2.constructed": calls("gaussian.CovMat2"),
            "fading.analytic_moments.calls": n_moments,
            "fading.analytic_moments.self_s": self_s("fading.analytic_moments"),
            "fading.analytic_moments.unique_ratio":
                len(set(moment_keys)) / n_moments if n_moments else 0.0,
            "fading.empirical_moments.self_s": self_s("fading.empirical_moments"),
            "channel.sample_transmittance.self_s": self_s("channel.sample_transmittance"),
            "channel.samples_drawn": sum(self.notes["channel.sample_transmittance"]),
            "channel.weibull_params.calls": calls("channel.weibull_params"),
            "channel.weibull_params.self_s": self_s("channel.weibull_params"),
            "channel.pdt_cdf.calls": calls("channel.pdt_cdf"),
            "channel.pdt_cdf.self_s": self_s("channel.pdt_cdf"),
            "ingest.parse_series.self_s": self_s("ingest.parse_series"),
            "ingest.lines_parsed": sum(self.notes["ingest.parse_series"]),
            "ingest.fit_geometry.self_s": self_s("ingest.fit_geometry"),
            "ingest.fit.objective_evals": objective_evals,
            "ingest.fit.gof": statistics.fmean(g for g, _ in fits) if fits else 0.0,
            "ingest.fit.boundary": sum(1 for _, edge in fits if edge),
            "cli.main.self_s": self_s("cli.main"),
        }

    def layer_self_seconds(self):
        """Self time summed per layer, for the report."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, total) in self.self_times().items():
            out[name.split(".", 1)[0]] += total
        return out
