"""Spans around heislab's public functions, installed from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper
that records a span: its name, start, end, the span that caused it, and the
work it did.  A name bound by ``from .x import f`` lives in every module that
imported it, and Python looks it up there at call time, so the wrapper is
installed in every heislab module namespace that holds the original object.
``run.py`` installs it in the child process of each traced CLI run and
gathers the child's spans back; spans stay in memory, and ``write`` dumps
them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from time import perf_counter

from checks import gaveau_distance, h3_separation

# span name -> (module, attribute path); the layer boundaries of heislab
LAYERS = {
    "rng.path_generator": ("heislab.rng", "path_generator"),
    "stochastic.sample_endpoints": ("heislab.stochastic", "sample_endpoints"),
    "stochastic.refinement_convergence": ("heislab.stochastic", "refinement_convergence"),
    "stochastic.approximation_report": ("heislab.stochastic", "approximation_report"),
    "heat.SemigroupSampler.init": ("heislab.heat", "SemigroupSampler.__init__"),
    "heat.SemigroupSampler.values": ("heislab.heat", "SemigroupSampler.values"),
    "heat.verify_reverse_poincare": ("heislab.heat", "verify_reverse_poincare"),
    "heat.verify_reverse_logsobolev": ("heislab.heat", "verify_reverse_logsobolev"),
    "heat.verify_wang_harnack": ("heislab.heat", "verify_wang_harnack"),
    "heat.verify_strong_feller": ("heislab.heat", "verify_strong_feller"),
    "heat.strong_feller_modulus": ("heislab.heat", "strong_feller_modulus"),
    "heat.pde_oracle_h3": ("heislab.heat", "pde_oracle_h3"),
    "heat.verify_integrated_harnack": ("heislab.heat", "verify_integrated_harnack"),
    "differential.cd_terms": ("heislab.differential", "cd_terms"),
    "differential.check_cd_inequality": ("heislab.differential", "check_cd_inequality"),
    "geometry.cc_distance": ("heislab.geometry", "cc_distance"),
    "records.records_to_csv": ("heislab.records", "records_to_csv"),
    "cli.run": ("heislab.cli", "run"),
}

MC_VERIFIERS = (
    "heat.verify_reverse_poincare", "heat.verify_reverse_logsobolev",
    "heat.verify_wang_harnack", "heat.verify_strong_feller", "heat.strong_feller_modulus",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "work")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0     # time covered by direct child spans
        self.work = None     # dict of work figures, for the spans that have them


def _endpoint_work(bound, result):
    a = bound.arguments
    return {"path_steps": float(a["samples"]) * float(a["K"])}


def _grid_work(bound, result):
    steps = float(result.meta["steps"])
    cells = math.prod(s - 2 for s in result.values.shape)
    return {"steps": steps, "cell_steps": cells * steps}


def _distance_work(bound, result):
    """Relative excess of the returned distance over Gaveau's, on heisenberg(1) only."""
    a = bound.arguments
    form, x, y = a["form"], a["x"], a["y"]
    if (form.n, form.d) != (2, 1) or float(form.coeffs[0, 1, 0]) != 1.0:
        return {}
    w, c = h3_separation(x.w, x.c[0], y.w, y.c[0])
    exact = gaveau_distance(w, c)
    if exact == 0.0:
        return {}
    return {"max_rel_excess": result.distance / exact - 1.0}


WORK = {
    "stochastic.sample_endpoints": _endpoint_work,
    "heat.pde_oracle_h3": _grid_work,
    "geometry.cc_distance": _distance_work,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []   # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        sig = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            span = Span(name, parent, perf_counter())
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child += span.end - span.start
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = work(bound, result)
            return result

        return wrapper

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        for modname, _ in LAYERS.values():
            importlib.import_module(modname)
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "heislab" or k.startswith("heislab."))]
        for name, (modname, attr) in LAYERS.items():
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(name, original))
                self._installed.append((owner, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    def write(self, path, rounds):
        """One CSV line per span; ``rounds`` gives each traced round's span range."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("round,id,parent,name,start,end\n")
            for r, (lo, hi) in enumerate(rounds):
                for sid in range(lo, hi):
                    s = self.spans[sid]
                    fh.write(f"{r},{sid},{s.parent},{s.name},{s.start!r},{s.end!r}\n")


def aggregate(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds and summed work."""
    out = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": {}})
        dur = s.end - s.start
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - s.child
        for key, val in (s.work or {}).items():
            prev = agg["work"].get(key)
            if key.startswith("max_"):
                agg["work"][key] = val if prev is None else max(prev, val)
            else:
                agg["work"][key] = val + (prev or 0.0)
    return out


def layer_metrics(spans) -> dict:
    """The per-layer metrics of one traced round (0 where a layer is unused)."""
    agg = aggregate(spans)

    def get(name, key="s"):
        return agg.get(name, {}).get(key, 0)

    def work(name, key):
        return agg.get(name, {}).get("work", {}).get(key, 0.0)

    def rate(name, key):
        dur = get(name)
        return work(name, key) / dur if dur > 0 else 0.0

    return {
        "rng.path_generator.calls": get("rng.path_generator", "calls"),
        "rng.path_generator.s": get("rng.path_generator"),
        "stochastic.sample_endpoints.s": get("stochastic.sample_endpoints"),
        "stochastic.sample_endpoints.path_steps_per_s":
            rate("stochastic.sample_endpoints", "path_steps"),
        "stochastic.sample_endpoints.self_s": get("stochastic.sample_endpoints", "self_s"),
        "stochastic.convergence.s": get("stochastic.refinement_convergence")
        + get("stochastic.approximation_report"),
        "heat.SemigroupSampler.init.calls": get("heat.SemigroupSampler.init", "calls"),
        "heat.SemigroupSampler.init.s": get("heat.SemigroupSampler.init"),
        "heat.SemigroupSampler.values.calls": get("heat.SemigroupSampler.values", "calls"),
        "heat.SemigroupSampler.values.s": get("heat.SemigroupSampler.values"),
        "heat.verifiers.self_s": sum(get(n, "self_s") for n in MC_VERIFIERS),
        "heat.pde_oracle_h3.s": get("heat.pde_oracle_h3"),
        "heat.pde_oracle_h3.steps": work("heat.pde_oracle_h3", "steps"),
        "heat.pde_oracle_h3.cell_steps_per_s": rate("heat.pde_oracle_h3", "cell_steps"),
        "heat.verify_integrated_harnack.s": get("heat.verify_integrated_harnack"),
        "differential.cd_terms.calls": get("differential.cd_terms", "calls"),
        "differential.cd_terms.s": get("differential.cd_terms"),
        "differential.check_cd_inequality.calls":
            get("differential.check_cd_inequality", "calls"),
        "differential.check_cd_inequality.self_s":
            get("differential.check_cd_inequality", "self_s"),
        "geometry.cc_distance.calls": get("geometry.cc_distance", "calls"),
        "geometry.cc_distance.s": get("geometry.cc_distance"),
        "geometry.cc_distance.max_rel_excess": work("geometry.cc_distance", "max_rel_excess"),
        "records.records_to_csv.s": get("records.records_to_csv"),
        "cli.run.self_s": get("cli.run", "self_s"),
    }


def missed(spans, layers) -> list:
    """The layers of ``layers`` that no span in ``spans`` hit: a missed binding."""
    hit = {s.name for s in spans}
    return [name for name in layers if name not in hit]
