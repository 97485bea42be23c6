"""In-memory span tracer wrapped around branchcouple's module boundaries.

The tracer patches public functions of ``cli``, ``model``, ``ergodicity``,
``lyapunov``, ``paths`` and ``levy`` from outside the package, records one
span per call (name, parent span, start, duration), and derives per-layer
self times and counts from the spans once a round has finished.  Calls of
``StableLike.tail_quantile`` happen once per substep and channel, so they are
folded into one aggregate span per parent span (with a call count) instead of
one span per call; every other boundary keeps one span per call.

A boundary that does not exist in the traced package is skipped, so a
renamed function reads as a layer with no work (0) instead of a crash.
"""

from __future__ import annotations

import json
import time

import numpy as np

# module -> names of the public functions wrapped there
_FUNCTIONS = {
    "cli": ("main",),
    "ergodicity": (
        "hitting_tail",
        "zbar_tail",
        "coupling_tail",
        "tv_upper_bound",
        "cir_mean_hitting_time",
        "cir_hitting_sample",
        "comparison_audit",
        "generator_residual",
        "localize_report",
        "rate_fit",
        "curve_rate_fit",
    ),
    "lyapunov": (
        "certify_drift",
        "eval_generator_1d",
        "eval_generator_xy",
        "jump_integral",
    ),
    "paths": ("mc_system", "mc_coupled", "mc_zbar", "mc_cir", "stream"),
}
_MC = ("paths.mc_system", "paths.mc_coupled", "paths.mc_zbar", "paths.mc_cir")
_GENERATOR = ("lyapunov.eval_generator_1d", "lyapunov.eval_generator_xy")
_QUANTILE = "levy.StableLike.tail_quantile"

# span fields
NAME, PARENT, START, DUR, COUNT, INFO = range(6)


def philox_words(gen) -> int:
    """64-bit words a Philox generator has handed out since it was keyed."""
    state = gen.bit_generator.state
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter - (4 - int(state["buffer_pos"]))


def _scheme_of(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "dt") and hasattr(value, "horizon"):
            return value
    return None


def mc_path_steps(name: str, args, kwargs, out) -> tuple[str, float]:
    """(engine layer, path-steps) of one ``paths.mc_*`` call.

    A path-step is one dt-step of one path.  Paths that the engine stops
    (meeting, absorption, passage, cap abort) count their simulated time up
    to that stop; audit runs (``with_aux``) and Dynkin runs count the full
    horizon for every path.
    """
    scheme = _scheme_of(args, kwargs)
    horizon, dt = scheme.horizon, scheme.dt
    stops = [out["abort"]]
    if name == "paths.mc_coupled":
        layer = "coupled_aux" if kwargs.get("with_aux") else "coupled"
        if layer == "coupled":
            stops.append(out["t_full"])
        else:
            stops = [np.full(out["abort"].shape, np.inf)]
    elif name == "paths.mc_system":
        layer = "system"
        retire = kwargs.get("retire")
        if kwargs.get("dynkin") is not None:
            stops = [np.full(out["abort"].shape, np.inf)]
        if retire in ("low", "both"):
            stops.append(out["tau_minus"])
        if retire in ("high", "both"):
            stops.append(out["tau_plus"])
    else:
        layer = "scalar"
        stops.append(out["hitting"])
    stop = np.minimum(np.minimum.reduce(stops), horizon)
    return layer, float(np.sum(stop) / dt)


class Tracer:
    """Patches the package boundaries while active and keeps spans in memory."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._agg: dict[int, int] = {}  # parent span -> its aggregate quantile span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, parent, time.perf_counter_ns(), 0, 1, {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[DUR] = time.perf_counter_ns() - span[START]
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name in _MC:
                tracer._finish_mc(idx, args, kwargs, out)
            elif name == "paths.stream":
                tracer._adopt_stream(out)
            elif name == "lyapunov.certify_drift":
                tracer.spans[idx][INFO]["nodes"] = int(np.size(out.z_grid))
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_quantile(self, fn):
        tracer = self

        def traced(measure, threshold, u):
            parent = tracer._stack[-1] if tracer._stack else -1
            start = time.perf_counter_ns()
            try:
                return fn(measure, threshold, u)
            finally:
                dur = time.perf_counter_ns() - start
                idx = tracer._agg.get(parent)
                if idx is None:
                    tracer._agg[parent] = len(tracer.spans)
                    tracer.spans.append([_QUANTILE, parent, start, dur, 1, {"entries": int(np.size(u))}])
                else:
                    span = tracer.spans[idx]
                    span[DUR] += dur
                    span[COUNT] += 1
                    span[INFO]["entries"] += int(np.size(u))

        traced.__wrapped__ = fn
        return traced

    def _enclosing_mc(self) -> int | None:
        for idx in reversed(self._stack):
            if self.spans[idx][NAME] in _MC:
                return idx
        return None

    def _adopt_stream(self, gen) -> None:
        idx = self._enclosing_mc()
        if idx is not None:
            self.spans[idx][INFO].setdefault("generators", []).append(gen)

    def _finish_mc(self, idx: int, args, kwargs, out) -> None:
        info = self.spans[idx][INFO]
        gens = info.pop("generators", [])
        info["rng_words"] = sum(philox_words(g) for g in gens)
        try:
            info["layer"], info["path_steps"] = mc_path_steps(
                self.spans[idx][NAME], args, kwargs, out
            )
        except (KeyError, AttributeError, TypeError):
            # an engine whose result no longer carries the stopping arrays:
            # its time still counts, its rate reads 0
            info["layer"], info["path_steps"] = "unknown", 0.0

    # -- patching ----------------------------------------------------------

    def _replace(self, original, wrapped) -> None:
        """Point every package namespace that holds ``original`` at ``wrapped``."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def _modules(self):
        names = ("cli", "model", "ergodicity", "lyapunov", "paths", "levy")
        return [getattr(self.package, n) for n in names if hasattr(self.package, n)]

    def install(self) -> None:
        pkg = self.package
        for mod_name, names in _FUNCTIONS.items():
            module = getattr(pkg, mod_name, None)
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    self._replace(fn, self._wrap("%s.%s" % (mod_name, name), fn))
        model = getattr(pkg, "model", None)
        if model is not None:
            for name, fn in list(vars(model).items()):
                if (
                    not name.startswith("_")
                    and callable(fn)
                    and getattr(fn, "__module__", None) == model.__name__
                    and not isinstance(fn, type)
                ):
                    self._replace(fn, self._wrap("model.%s" % name, fn))
        ergodicity = getattr(pkg, "ergodicity", None)
        tail = getattr(ergodicity, "TailEstimate", None)
        raw = vars(tail).get("from_times") if tail is not None else None
        if isinstance(raw, staticmethod):
            wrapped = self._wrap("ergodicity.TailEstimate.from_times", raw.__func__)
            self._patches.append((tail, "from_times", raw))
            tail.from_times = staticmethod(wrapped)
        stable = getattr(getattr(pkg, "levy", None), "StableLike", None)
        raw = vars(stable).get("tail_quantile") if stable is not None else None
        if callable(raw):
            self._patches.append((stable, "tail_quantile", raw))
            stable.tail_quantile = self._wrap_quantile(raw)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._agg = {}

    # -- output ------------------------------------------------------------

    def dump(self, path, meta: dict) -> None:
        rows = [
            {
                "id": i,
                "name": s[NAME],
                "parent": s[PARENT],
                "start_ns": s[START],
                "dur_ns": s[DUR],
                "count": s[COUNT],
                **{k: v for k, v in s[INFO].items() if k != "generators"},
            }
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": rows}, fh)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced round from its spans."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[DUR]
    self_ns: dict[str, int] = {}
    for i, span in enumerate(spans):
        module = span[NAME].split(".", 1)[0]
        self_ns[module] = self_ns.get(module, 0) + span[DUR] - child_ns[i]

    engine_ns: dict[str, int] = {}
    engine_steps: dict[str, float] = {}
    calls = 0
    words = 0
    steps = 0.0
    quantiles = 0
    jump_ns, jump_calls = 0, 0
    node_ns, nodes = 0, 0
    tail_ns, tail_calls = 0, 0
    for span in spans:
        name, info = span[NAME], span[INFO]
        if name in _MC:
            calls += 1
            layer = info.get("layer", "unknown")
            engine_ns[layer] = engine_ns.get(layer, 0) + span[DUR]
            engine_steps[layer] = engine_steps.get(layer, 0.0) + info.get("path_steps", 0.0)
            words += info.get("rng_words", 0)
            steps += info.get("path_steps", 0.0)
        elif name == _QUANTILE:
            quantiles += info.get("entries", 0)
        elif name == "lyapunov.jump_integral":
            jump_ns += span[DUR]
            jump_calls += 1
        elif name in _GENERATOR and (
            span[PARENT] < 0 or spans[span[PARENT]][NAME] not in _GENERATOR
        ):
            node_ns += span[DUR]
            nodes += 1
        elif name == "ergodicity.TailEstimate.from_times":
            tail_ns += span[DUR]
            tail_calls += 1

    def rate(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out = {}
    for layer in ("coupled", "coupled_aux", "system", "scalar"):
        out["paths.%s.ns_per_path_step" % layer] = rate(
            engine_ns.get(layer, 0), engine_steps.get(layer, 0.0)
        )
    out["paths.rng_words_per_path_step"] = rate(words, steps)
    out["paths.calls"] = calls
    out["paths.path_steps"] = steps
    out["paths.self_s"] = self_ns.get("paths", 0) / 1e9
    out["levy.quantiles_per_path_step"] = rate(quantiles, steps)
    out["levy.self_s"] = self_ns.get("levy", 0) / 1e9
    out["lyapunov.ms_per_node"] = rate(node_ns, nodes, 1e-6)
    out["lyapunov.jump_integral_ms"] = rate(jump_ns, jump_calls, 1e-6)
    out["lyapunov.generator_evals"] = nodes
    out["lyapunov.self_s"] = self_ns.get("lyapunov", 0) / 1e9
    out["ergodicity.tail_estimate_ms"] = rate(tail_ns, tail_calls, 1e-6)
    out["ergodicity.self_s"] = self_ns.get("ergodicity", 0) / 1e9
    out["cli.self_s"] = self_ns.get("cli", 0) / 1e9
    out["model.self_s"] = self_ns.get("model", 0) / 1e9
    return out
