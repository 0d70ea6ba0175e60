"""Per-layer tracing installed from outside dirlap.

Each listed public function is replaced by a timing wrapper in every dirlap
module that binds it (modules import each other's functions with
`from .x import y`, so `verify.eig`, `isoperimetric.nu` and
`cli.verify_graph` are separate bindings of one function). Spans are kept
in memory, aggregated per function, and read out once the pass has ended.
Self time is a span's duration minus the durations of the wrapped calls
nested in it.
"""

from __future__ import annotations

import importlib
import sys
import time

# layer -> public functions wrapped; "Class.method" wraps a method.
LAYERS = {
    "generators": ["SplitMix64.complex_vector"],
    "graph": ["build_graph", "load_graph", "check_kirchhoff", "connectivity",
              "subset_array", "boundaries"],
    "operators": ["assemble", "dirichlet", "to_euclidean", "metric_inner", "greens_residual"],
    "spectral": ["eig", "numerical_range_boundary", "nu", "operator_norm", "kernel_dimension"],
    "isoperimetric": ["cheeger_exact", "cheeger_heuristic", "infinity_profile", "build_filtration",
                      "m_M_constants"],
    "verify": ["verify_graph", "verify_green", "verify_bounded", "verify_kyfan",
               "verify_dirichlet_bounds", "verify_cheeger_sandwich", "verify_fujiwara",
               "verify_ess_bound_consistency"],
    "cli": ["main"],
    "_io": ["dump_json", "write_text_atomic"],
}


def metric_layer(layer: str) -> str:
    # metric names must start with a letter or digit
    return layer.lstrip("_")


# (layer, function) -> work count taken from the call's arguments and result
COUNTERS = {
    ("generators", "SplitMix64.complex_vector"): ("draws", lambda args, result: 2 * int(args[1])),
    ("spectral", "numerical_range_boundary"): ("angles", lambda args, result: int(args[1])),
    ("isoperimetric", "cheeger_exact"): ("subsets", lambda args, result: 1 << len({int(v) for v in args[1]})),
    ("_io", "dump_json"): ("bytes", lambda args, result: len(result.encode())),
}


def unit(name: str) -> str:
    """Unit of a metric Tracer.metrics reports."""
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "bytes": "bytes"}.get(suffix, "count")


class Tracer:
    """Aggregated spans of the wrapped functions of one process."""

    def __init__(self):
        self.calls: dict[tuple[str, str], int] = {}
        self.self_s: dict[tuple[str, str], float] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self._child_time: list[float] = []

    def _wrap(self, key, fn):
        counter = COUNTERS.get(key, (None, None))[1]
        child_time = self._child_time
        calls, self_s, counts = self.calls, self.self_s, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                nested = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                calls[key] += 1
                self_s[key] += duration - nested
            if counter is not None:
                counts[key] += counter(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key[1])
        return wrapper

    def install(self) -> None:
        """Replace every binding of every listed function in loaded dirlap modules."""
        homes = {layer: importlib.import_module(f"dirlap.{layer}") for layer in LAYERS}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "dirlap" or name.startswith("dirlap."))]
        for layer, functions in LAYERS.items():
            home = homes[layer]
            for qualname in functions:
                key = (layer, qualname)
                self.calls[key], self.self_s[key], self.counts[key] = 0, 0.0, 0
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(key, getattr(cls, meth)))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(key, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            prefix = metric_layer(layer)
            out[f"{prefix}.self_s"] = sum(self.self_s[(layer, q)] for q in functions)
            for qualname in functions:
                key = (layer, qualname)
                short = qualname.rsplit(".", 1)[-1]
                out[f"{prefix}.{short}.calls"] = self.calls[key]
                out[f"{prefix}.{short}.self_s"] = self.self_s[key]
                if key in COUNTERS:
                    out[f"{prefix}.{short}.{COUNTERS[key][0]}"] = self.counts[key]
        return out
