"""Span tracing of ringlab's public functions, from outside the program.

`install` replaces each traced function with a wrapper that records a span
(name, start, end, parent span, job id) in flat in-memory arrays. A function
is replaced in every `ringlab` module that holds it by name (so
`harmonics.all_char_sums` is traced as well as `characters.all_char_sums`),
and a ring kernel is replaced on `Ring` and on every subclass that overrides
it (`ZModRing.sub_vec` never reaches `Ring.sub_vec`). Nothing is changed on
disk; the program under test is only patched inside the traced process.

`layer_metrics` turns a span file into per-function call counts, self time
(span time minus the time covered by its child spans), element counts and
the derivational-degree exact share.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

# Layers are ringlab's modules; each lists the public functions traced.
LAYERS = {
    "rings": (
        "make_ring", "add_vec", "sub_vec", "neg_vec", "mul_vec", "pow_vec",
        "eval_poly_vec", "add_table",
    ),
    "polynomials": ("parse_poly_literal", "derivational_degree"),
    "subgroups": ("value_subgroup", "from_generators", "from_elements"),
    "characters": ("character_group", "all_char_sums", "character_table", "annihilator_mask"),
    "harmonics": (
        "character_bound_check", "exp_sums_all", "te_estimate", "te_sweep",
        "vdc_check", "root_count_bound_check",
    ),
    "combinatorics": (
        "difference_free_max", "verify_difference_free", "sarkozy_bound_check",
        "config_count", "config_count_fourier", "intersectivity_oracle",
    ),
    "paley": ("build_paley", "spectrum", "uniformity_measure", "quasirandomness_verdict"),
    "cli": ("main", "build_parser"),
}
# Ring kernels are methods; make_ring is the one module-level rings function.
RING_METHODS = tuple(f for f in LAYERS["rings"] if f != "make_ring")
JOB_SPAN = "job"


def _elems_returned(args, kwargs, result) -> int:
    return int(getattr(result, "size", 0))


def _elems_dual_square(args, kwargs, result) -> int:
    # all_char_sums(ring, counts): every element against every character.
    return args[0].order ** 2


def _elems_annihilator(args, kwargs, result) -> int:
    # annihilator_mask(ring, generators): each generator against every character.
    return len(args[1]) * args[0].order


ELEMS = {
    **{f"rings.{m}": _elems_returned for m in RING_METHODS},
    "characters.all_char_sums": _elems_dual_square,
    "characters.character_table": _elems_returned,
    "characters.annihilator_mask": _elems_annihilator,
}


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            base = f"{layer}.{fn}"
            names += [f"{base}.calls", f"{base}.self_s"]
            if base in ELEMS:
                names.append(f"{base}.elems")
            if base == "polynomials.derivational_degree":
                names.append(f"{base}.exact_share")
    return names


class Tracer:
    """Spans in flat arrays; the open-span stack supplies each parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.elems: dict[str, int] = {}
        self.ddeg_auto = 0
        self.ddeg_auto_exact = 0
        self._stack: list[int] = []
        self._job = -1

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, fn, *args):
        self._job = job_id
        idx = self.open(self.intern(JOB_SPAN))
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        name_id = self.intern(name)
        count = ELEMS.get(name)
        on_result = self._ddeg_result if name == "polynomials.derivational_degree" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.elems[name] = self.elems.get(name, 0) + count(args, kwargs, result)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def _ddeg_result(self, args, kwargs, result) -> None:
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "auto")
        if mode == "auto":
            self.ddeg_auto += 1
            self.ddeg_auto_exact += result.method == "exact"

    def save(self, path: Path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            meta=np.array(json.dumps({
                "names": self.names,
                "elems": self.elems,
                "ddeg_auto": self.ddeg_auto,
                "ddeg_auto_exact": self.ddeg_auto_exact,
            })),
        )


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def install(tracer: Tracer) -> dict[str, int]:
    """Patch every traced function; returns how many places each was
    replaced in, and raises if a listed function does not exist."""
    modules = {layer: importlib.import_module(f"ringlab.{layer}") for layer in LAYERS}
    ringlab_modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "ringlab" or name.startswith("ringlab."))
    ]
    patched: dict[str, int] = {}
    for layer, functions in LAYERS.items():
        for fn_name in functions:
            if layer == "rings" and fn_name in RING_METHODS:
                continue
            original = getattr(modules[layer], fn_name)
            wrapper = tracer.wrap(f"{layer}.{fn_name}", original)
            places = 0
            for module in ringlab_modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        places += 1
            patched[f"{layer}.{fn_name}"] = places
    for cls in _subclasses(modules["rings"].Ring):
        for method in RING_METHODS:
            if method in cls.__dict__:
                setattr(cls, method, tracer.wrap(f"rings.{method}", cls.__dict__[method]))
                patched[f"rings.{method}"] = patched.get(f"rings.{method}", 0) + 1
    missing = [name for name, places in patched.items() if places == 0]
    if missing:
        raise RuntimeError(f"traced functions not found in ringlab: {missing}")
    return patched


def layer_metrics(path: Path) -> tuple[dict, dict]:
    """Per-function metrics and per-module time shares from a span file.

    Returns (metrics, modules): metrics maps every name of metric_names() to
    a value; modules maps each layer to its self seconds and inclusive
    seconds (time inside its outermost spans) and the total job seconds.
    """
    import numpy as np

    with np.load(path) as data:
        name, start, end = data["name"], data["start"], data["end"]
        parent = data["parent"]
        meta = json.loads(str(data["meta"]))
    names = meta["names"]
    dur = end - start
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_by_name = np.bincount(name, weights=self_time, minlength=k)

    layer_of = np.array([n.split(".")[0] for n in names])
    span_layer = layer_of[name] if len(name) else np.array([], dtype=str)
    parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], "")
    outermost = span_layer != parent_layer
    job_id = names.index(JOB_SPAN) if JOB_SPAN in names else -1
    total = float(dur[name == job_id].sum())

    metrics: dict[str, float] = {}
    for metric in metric_names():
        base, _, field = metric.rpartition(".")
        i = names.index(base) if base in names else -1
        if field == "calls":
            metrics[metric] = int(calls[i]) if i >= 0 else 0
        elif field == "self_s":
            metrics[metric] = float(self_by_name[i]) if i >= 0 else 0.0
        elif field == "elems":
            metrics[metric] = int(meta["elems"].get(base, 0))
        elif field == "exact_share":
            auto = meta["ddeg_auto"]
            metrics[metric] = meta["ddeg_auto_exact"] / auto if auto else 0.0
    modules = {"total_job_s": total}
    for layer in LAYERS:
        in_layer = span_layer == layer
        modules[layer] = {
            "self_s": float(self_time[in_layer].sum()),
            "inclusive_s": float(dur[in_layer & outermost].sum()),
        }
    modules["ddeg_inclusive_s"] = float(
        dur[name == names.index("polynomials.derivational_degree")].sum()
    ) if "polynomials.derivational_degree" in names else 0.0
    return metrics, modules
