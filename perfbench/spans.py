"""In-memory spans around hardylp's public functions, and the per-layer
metrics derived from them.

`Tracer.install()` wraps, from outside the program:

* every plain function named in a hardylp module's `__all__` (plus `main`
  of `hardylp.cli`, which has no `__all__`), in every hardylp module
  namespace that binds it -- `from .spectral_core import x` copies the
  binding, so wrapping the defining module alone would miss most calls;
* `spectral_core._build_weight`, the near-origin singular-weight table build
  behind the `_refined_weight` cache, counted as quadrature;
* every 1-d and n-d entry point of `numpy.fft`;
* `SampledField.__post_init__` and `Spectrum.__post_init__`, which copy the
  samples on every construction.

A span is `[id, parent_id, name, layer, start, end, attrs]`.  Nothing is
written until `write()`, so the program's stdout is untouched.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time

LAYERS = (
    "spectral_core",
    "littlewood_paley",
    "schur",
    "hardy",
    "stein_weiss",
    "extremal",
    "corpus",
    "report",
    "cli",
)

FFT_FORWARD = ("fft", "fft2", "fftn", "rfft", "rfft2", "rfftn", "ihfft")
FFT_INVERSE = ("ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn", "hfft")

# Span names (without the layer prefix) that make up each category metric.
TRANSFORMS = ("forward_transform", "inverse_transform")
MULTIPLIERS = (
    "apply_multiplier",
    "fractional_laplacian",
    "riesz_transform",
    "gradient",
    "gradient_magnitude",
)
QUADRATURES = ("lq_norm", "weighted_lq_norm", "power_weighted_lq_norm", "_build_weight")
INNER_BALL = ("inner_ball_potential", "inner_ball_potential_radial", "inner_ball_bound_check")


def digest(array) -> str:
    """Content key of an array: dtype, shape and a hash of its bytes."""
    import numpy as np

    data = np.ascontiguousarray(array)
    return f"{data.dtype.str}{data.shape}{hashlib.sha1(data.view(np.uint8)).hexdigest()}"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[list] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), parent, name, layer, self.clock(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[5] = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]} closed out of order")

    def wrap(self, fn, name: str, layer: str, annotate=None):
        """fn with a span around each call; annotate(attrs, args, kwargs,
        result) may add counters to the span after the call returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                annotate(span[6], args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap hardylp and numpy.fft in place; call after importing
        hardylp.cli, so every module and binding exists."""
        import numpy as np

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "hardylp" or name.startswith("hardylp."))
        }
        replacements = {}
        for modname, mod in modules.items():
            layer = modname.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            names = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                names.append("main")
            if layer == "spectral_core":
                names.append("_build_weight")
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    replacements[id(fn)] = (fn, self.wrap(
                        fn, f"{layer}.{attr}", layer, _ANNOTATORS.get(attr)
                    ))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

        for attr in FFT_FORWARD + FFT_INVERSE:
            fn = getattr(np.fft, attr)
            setattr(np.fft, attr, self.wrap(fn, f"numpy.fft.{attr}", "numpy.fft",
                                            _annotate_fft))

        core = modules["hardylp.spectral_core"]
        for cls in (core.SampledField, core.Spectrum):
            cls.__post_init__ = self.wrap(
                cls.__post_init__, f"spectral_core.{cls.__name__}", "spectral_core",
                _annotate_field,
            )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- counters recorded at call time -------------------------------------------


def _annotate_fft(attrs, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    attrs["bytes"] = int(getattr(a, "nbytes", 0)) + int(result.nbytes)
    attrs["input"] = digest(a)


def _annotate_field(attrs, args, kwargs, result):
    obj = args[0]
    values = getattr(obj, "values", None)
    if values is None:
        values = obj.coefficients
    attrs["bytes"] = int(values.nbytes)


def _annotate_decompose(attrs, args, kwargs, result):
    f, part = args[0], args[1]
    attrs["input"] = [
        digest(f.values), f.centering, repr(part.grid), list(part.levels), part.coverage
    ]


def _annotate_inner_ball(attrs, args, kwargs, result):
    attrs["points"] = int(args[0].grid.size)


def _annotate_corpus(attrs, args, kwargs, result):
    attrs["fields"] = len(result) if isinstance(result, list) else 1


def _annotate_report(attrs, args, kwargs, result):
    attrs["bytes"] = len(result.encode())


def _annotate_estimate(attrs, args, kwargs, result):
    attrs["evaluations"] = int(result.evaluations)


_ANNOTATORS = {
    "decompose": _annotate_decompose,
    "inner_ball_potential": _annotate_inner_ball,
    "standard_corpus": _annotate_corpus,
    "gaussian_field": _annotate_corpus,
    "truncated_power_field": _annotate_corpus,
    "random_band_limited_field": _annotate_corpus,
    "reports_to_json": _annotate_report,
    "reports_to_csv": _annotate_report,
    "estimate_constant": _annotate_estimate,
}


# -- metrics ------------------------------------------------------------------


def read_spans(path: str) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    own = [span[5] - span[4] for span in spans]
    for span in spans:
        if span[1] is not None:
            own[span[1]] -= span[5] - span[4]
    return own


def covered(spans: list[list], names) -> tuple[int, float]:
    """(calls, seconds) of the spans named `names`, counting a span nested
    inside another of the same set once, through its outermost ancestor."""
    names = set(names)
    calls, seconds = 0, 0.0
    for span in spans:
        if span[2] not in names:
            continue
        calls += 1
        parent = span[1]
        while parent is not None and spans[parent][2] not in names:
            parent = spans[parent][1]
        if parent is None:
            seconds += span[5] - span[4]
    return calls, seconds


def _outermost(spans, layer):
    """Spans of `layer` whose caller is outside that layer."""
    return [
        s for s in spans
        if s[3] == layer and (s[1] is None or spans[s[1]][3] != layer)
    ]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics named in BENCHMARK.json, from one traced run.

    Ratios over zero calls, and seconds per evaluation without evaluations,
    read 0; `notes()` says which.
    """
    out: dict[str, float] = {}
    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.calls"] = sum(1 for s in spans if s[3] == layer)
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if s[3] == layer)

    fft = [s for s in spans if s[3] == "numpy.fft"]
    forward = [s for s in fft if s[2].rsplit(".", 1)[1] in FFT_FORWARD]
    out["spectral_core.fft_calls"] = len(fft)
    out["spectral_core.fft_s"] = sum(s[5] - s[4] for s in fft)
    out["spectral_core.fft_bytes"] = sum(s[6]["bytes"] for s in fft)
    out["spectral_core.fft_distinct_ratio"] = _ratio(
        len({s[6]["input"] for s in forward}), len(forward)
    )
    built = [s for s in spans if s[2] in ("spectral_core.SampledField", "spectral_core.Spectrum")]
    out["spectral_core.fields_built"] = len(built)
    out["spectral_core.field_bytes"] = sum(s[6]["bytes"] for s in built)
    out["spectral_core.weight_builds"] = sum(
        1 for s in spans if s[2] == "spectral_core._build_weight"
    )
    for key, names in (
        ("transform_s", TRANSFORMS),
        ("multiplier_s", MULTIPLIERS),
        ("quadrature_s", QUADRATURES),
    ):
        out[f"spectral_core.{key}"] = covered(spans, [f"spectral_core.{n}" for n in names])[1]

    calls, seconds = covered(spans, ["littlewood_paley.decompose"])
    keys = {json.dumps(s[6]["input"]) for s in spans if s[2] == "littlewood_paley.decompose"}
    out["littlewood_paley.decompose_calls"] = calls
    out["littlewood_paley.decompose_s"] = seconds
    out["littlewood_paley.partition_s"] = covered(spans, ["littlewood_paley.build_partition"])[1]
    out["littlewood_paley.decompose_distinct_ratio"] = _ratio(len(keys), calls)

    out["hardy.chain_s"] = covered(spans, ["hardy.shell_chain_check"])[1]
    out["hardy.holder_s"] = covered(spans, ["hardy.holder_refinement_check"])[1]
    out["stein_weiss.inner_ball_s"] = covered(
        spans, [f"stein_weiss.{n}" for n in INNER_BALL]
    )[1]
    out["stein_weiss.inner_ball_points"] = sum(
        s[6]["points"] for s in spans if s[2] == "stein_weiss.inner_ball_potential"
    )

    estimates = [s for s in spans if s[2] == "extremal.estimate_constant"]
    evaluations = sum(s[6]["evaluations"] for s in estimates)
    search_s = 0.0
    for est in estimates:
        # the trend re-evaluation on the 2n grid is not one of the counted
        # search evaluations
        trend = [s for s in spans if s[2] == "extremal.evaluate_trial"
                 and _has_ancestor(spans, s, est[0])]
        search_s += (est[5] - est[4]) - sum(s[5] - s[4] for s in trend)
    out["extremal.evaluations"] = evaluations
    out["extremal.s_per_eval"] = search_s / evaluations if evaluations else 0.0

    out["corpus.fields"] = sum(s[6]["fields"] for s in _outermost(spans, "corpus")
                               if "fields" in s[6])
    out["report.bytes"] = sum(s[6].get("bytes", 0) for s in _outermost(spans, "report"))
    return out


def notes(metrics: dict[str, float]) -> dict[str, str]:
    """Why a per-layer metric reads 0 on a workload."""
    out = {}
    if not metrics["littlewood_paley.decompose_calls"]:
        out["littlewood_paley.decompose_distinct_ratio"] = "no decompose call; reads 0"
    if not metrics["extremal.evaluations"]:
        out["extremal.s_per_eval"] = "no estimate_constant call; reads 0"
    if not metrics["report.bytes"]:
        out["report.bytes"] = "no report-module emitter called; reads 0"
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _has_ancestor(spans, span, ancestor_id) -> bool:
    parent = span[1]
    while parent is not None:
        if parent == ancestor_id:
            return True
        parent = spans[parent][1]
    return False
