"""Per-layer spans around the public functions of the diskmaps modules.

Nothing in the package changes: the tracer replaces functions and methods
at every name callers look them up by (module attributes bound by
`from .x import f`, class attributes for methods) and puts the originals
back on `uninstall`.  Each wrapped call becomes a span with its name,
layer, start, end, parent span and report id, kept in memory and written
out when the run ends.  A layer's self time is its spans' durations minus
the part of each interval that child spans cover.

Bookkeeping the tracer does inside a span (counting points, tracking
radii) is recorded as the span's `pre`/`post` overhead and is covered
together with the child, so it is charged to neither the child nor its
parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = ("cli", "reports", "catalog", "expr", "maps", "potential", "grids",
          "ellipticity", "coefficients", "lengths", "bounds")
_MODULES = LAYERS + ("wirtinger", "kernels")


class Span:
    __slots__ = ("name", "layer", "kind", "start", "end", "pre", "post", "parent",
                 "report", "n", "extra", "error")

    def __init__(self, name: str, layer: str, kind: str, parent: int, report):
        self.name, self.layer, self.kind = name, layer, kind
        self.parent, self.report = parent, report
        self.start = self.end = 0.0
        self.pre = self.post = 0.0
        self.n = 0
        self.extra: Dict[str, float] = {}
        self.error: Optional[str] = None

    def as_dict(self, origin: float) -> dict:
        return {"name": self.name, "layer": self.layer, "kind": self.kind,
                "start": self.start - origin, "end": self.end - origin,
                "pre": self.pre, "post": self.post, "parent": self.parent,
                "report": self.report, "n": self.n, "error": self.error, **self.extra}


def self_times(spans: List[Span]) -> List[float]:
    """Duration of each span minus the union of its children's intervals.

    A child's interval includes its tracer overhead (pre before start, post
    after end) and is clipped to the parent's interval.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        ivs = sorted((max(c.start - c.pre, s.start), min(c.end + c.post, s.end))
                     for c in children.get(i, ()))
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


class _MapProxy:
    """Forwards a map, adding the points requested through it to a span."""

    def __init__(self, m, span: Span, counted: Tuple[str, ...]):
        self._m, self._span, self._counted = m, span, counted

    def __getattr__(self, name):
        attr = getattr(self._m, name)
        if name not in self._counted:
            return attr

        def counted(z, *args, **kwargs):
            if name == "jet":
                self._span.extra["jets"] = self._span.extra.get("jets", 0) + 1
            else:
                self._span.n += int(np.size(z))
            return attr(z, *args, **kwargs)

        return counted


class Tracer:
    """Installs span wrappers into an imported diskmaps package."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"diskmaps.{name}")
                        for name in _MODULES}
        self.modules["__init__"] = importlib.import_module("diskmaps")
        self.origin = time.perf_counter()
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.report = None
        self._seen: Dict[str, set] = defaultdict(set)
        self._patches: List[Tuple[object, str, object]] = []

    # --- reports and spans -------------------------------------------------------

    def begin_report(self, report_id) -> None:
        self.report = report_id
        self._seen.clear()

    def _count_new(self, key: str, values) -> int:
        seen = self._seen[key]
        before = len(seen)
        seen.update(values)
        return len(seen) - before

    def _call(self, fn, name, layer, kind, args, kwargs, pre_hook, post_hook):
        t0 = time.perf_counter()
        sp = Span(name, layer, kind, self._stack[-1] if self._stack else -1, self.report)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        if pre_hook is not None:
            args = pre_hook(sp, args)
        sp.start = time.perf_counter()
        sp.pre = sp.start - t0
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            sp.end = time.perf_counter()
            sp.error = type(exc).__name__
            self._stack.pop()
            raise
        sp.end = time.perf_counter()
        self._stack.pop()
        if post_hook is not None:
            post_hook(sp, result)
            sp.post = time.perf_counter() - sp.end
        return result

    def _wrap(self, fn, layer: str, kind: str = "call", pre_hook=None, post_hook=None):
        name = f"{layer}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, layer, kind, args, kwargs, pre_hook, post_hook)

        return traced

    # --- hooks -------------------------------------------------------------------

    def _map_eval(self, kind: str, radii: bool) -> Callable:
        def hook(sp: Span, args):
            z = np.asarray(args[1], dtype=complex).ravel()
            sp.n = int(z.size)
            sp.extra["new_points"] = self._count_new(kind + ":points", z.tolist())
            if radii:
                r = np.round(np.abs(z), 12).tolist()
                sp.extra["new_radii"] = self._count_new(kind + ":radii", r)
            return args
        return hook

    @staticmethod
    def _expr_points(sp: Span, args):
        sp.n = int(np.size(args[1]))
        return args

    @staticmethod
    def _proxy_map(counted: Tuple[str, ...]):
        def hook(sp: Span, args):
            if args and not isinstance(args[0], _MapProxy):
                args = (_MapProxy(args[0], sp, counted),) + tuple(args[1:])
            return args
        return hook

    def _grid_field(self, sp: Span, args):
        field = args[0]
        layer = field.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{field.__qualname__}"
        state = {"best": None}
        sp.extra.update(field_calls=0, windows=0, useful=0)

        def traced_field(z):
            vals = self._call(field, name, layer, "field", (z,), {}, None, None)
            t0 = time.perf_counter()
            arr = np.asarray(vals, dtype=float)
            top = float(np.max(np.where(np.isfinite(arr), arr, -np.inf)))
            sp.extra["field_calls"] += 1
            sp.n += int(np.size(z))
            if state["best"] is None:
                state["best"] = top
            else:
                sp.extra["windows"] += 1
                if top > state["best"]:
                    sp.extra["useful"] += 1
                    state["best"] = top
            sp.extra["overhead"] = sp.extra.get("overhead", 0.0) + time.perf_counter() - t0
            return vals

        return (traced_field,) + tuple(args[1:])

    @staticmethod
    def _count_rows(sp: Span, result):
        sp.extra["rows"] = len(result)

    @staticmethod
    def _count_bytes(sp: Span, result):
        sp.extra["bytes"] = len(result)

    # --- the install plan ------------------------------------------------------------

    def _plan(self):
        """(owner, attribute, layer, kind, pre_hook, post_hook) for every wrapper."""
        m = self.modules
        plan = [(m["cli"], "main", "cli", "report", None, None)]
        for fn in ("render_json", "render_csv"):
            plan.append((m["reports"], fn, "reports", "render", None, self._count_bytes))
        for fn in ("builtin_map", "kalaj_extremal", "harmonic_catalog"):
            plan.append((m["catalog"], fn, "catalog", "build", None, None))
        plan.append((m["catalog"].MapDefinition, "build", "catalog", "build", None, None))
        plan.append((m["expr"], "parse_expr", "expr", "parse", None, None))
        for fn in ("value_array", "jet_arrays"):
            plan.append((m["expr"], fn, "expr", "expr-eval", self._expr_points, None))
        for fn in ("eval_value", "eval_jet"):
            plan.append((m["expr"], fn, "expr", "expr-eval", None, None))
        map_eval = self._map_eval("map-eval", radii=False)
        for cls in ("PlanarMap", "DslMap", "SeriesMap", "CallableMap"):
            for meth in ("value", "jet", "values", "jets"):
                plan.append((getattr(m["maps"], cls), meth, "maps", "map-eval",
                             map_eval, None))
        pot = m["potential"]
        green_eval = self._map_eval("green-eval", radii=True)
        plan.append((pot.GreenPotential, "__init__", "potential", "green-build", None, None))
        for meth in ("value", "jet", "values", "jets", "derivatives"):
            plan.append((pot.GreenPotential, meth, "potential", "green-eval", green_eval, None))
        for meth in ("value", "jet", "values", "jets"):
            plan.append((pot.PoissonMap, meth, "potential", "poisson-eval", None, None))
        for fn in ("solve_poisson", "poisson_extension", "laplacian_residual",
                   "green_potential", "poisson_integral", "green_derivative_sup"):
            plan.append((pot, fn, "potential", "call", None, None))
        plan.append((m["grids"], "grid_supremum", "grids", "scan", self._grid_field, None))
        for fn in ("polar_grid", "shell_ladder"):
            plan.append((m["grids"], fn, "grids", "call", None, None))
        for fn in ("frontier", "min_kprime", "qc_constant", "check_theorem11",
                   "check_prop14", "lemma22_check"):
            plan.append((m["ellipticity"], fn, "ellipticity", "call", None, None))
        plan.append((m["ellipticity"], "invert_map", "ellipticity", "newton",
                     self._proxy_map(("jet",)), None))
        requested = self._proxy_map(("values", "value", "jets"))
        for fn in ("extract_coeffs", "bloch_norm"):
            plan.append((m["coefficients"], fn, "coefficients", "call", requested, None))
        for meth in ("__init__", "eval"):
            plan.append((m["coefficients"].MajorantSpec, meth, "coefficients", "call",
                         None, None))
        for fn in ("perimeter", "radial_length", "length_sup", "_length_sup_detail",
                   "boundary_length", "radial_length_limit"):
            plan.append((m["lengths"], fn, "lengths", "call", requested, None))
        for fn in ("radial_integral_profile", "subharmonic_radial_check"):
            plan.append((m["lengths"], fn, "lengths", "call", None, None))
        for fn in ("coefficient_bounds_report", "derivative_bounds_report"):
            plan.append((m["bounds"], fn, "bounds", "call", None, self._count_rows))
        return plan

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_id: Dict[int, List[Tuple[object, str]]] = defaultdict(list)
        for mod in self.modules.values():
            for attr, value in vars(mod).items():
                if callable(value):
                    by_id[id(value)].append((mod, attr))
        for owner, attr, layer, kind, pre, post in self._plan():
            if attr not in vars(owner):
                continue  # inherited method: wrapped on the class defining it
            original = vars(owner)[attr]
            wrapper = self._wrap(original, layer, kind, pre, post)
            sites = [(owner, attr)] if isinstance(owner, type) else by_id[id(original)]
            for site, name in sites:
                self._patches.append((site, name, getattr(site, name)))
                setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patches):
            setattr(site, name, original)
        self._patches.clear()
        self._stack.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict(self.origin)) + "\n")


# --- per-layer metrics -----------------------------------------------------------


def _ancestor_kinds(spans: List[Span]) -> List[frozenset]:
    """For each span, the set of kinds among its ancestors (parents come first)."""
    out: List[frozenset] = []
    for s in spans:
        if s.parent < 0:
            out.append(frozenset())
        else:
            p = spans[s.parent]
            out.append(out[s.parent] | {p.kind, "layer:" + p.layer})
    return out


def layer_metrics(spans: List[Span], rounds: int) -> Dict[str, float]:
    """Per-layer metrics over the traced rounds; counts and times per round."""
    selfs = self_times(spans)
    anc = _ancestor_kinds(spans)
    per = max(rounds, 1)
    acc: Dict[str, float] = defaultdict(float)
    for s, own, up in zip(spans, selfs, anc):
        dur = s.end - s.start
        acc[f"{s.layer}.self_s"] += own - s.extra.get("overhead", 0.0)
        if s.kind == "report":
            acc["report_s"] += dur
        elif s.kind == "render":
            acc["render_s"] += dur
            acc["bytes"] += s.extra.get("bytes", 0)
        elif s.kind == "build" and "layer:catalog" not in up:
            acc["catalog_build_s"] += dur
        elif s.kind == "parse":
            acc["parse_s"] += dur
        elif s.kind == "expr-eval":
            acc["expr_points"] += max(s.n, 1)
            acc["expr_s"] += dur
            if "green-eval" in up or "green-build" in up:
                acc["source_samples"] += max(s.n, 1)
        elif s.kind == "map-eval" and "map-eval" not in up:
            acc["map_points"] += s.n
            acc["map_s"] += dur
            acc["map_new"] += s.extra.get("new_points", 0)
            acc["map_scalar"] += s.name.endswith((".value", ".jet"))
        elif s.kind == "green-eval":
            acc["green_points"] += s.n
            acc["green_s"] += dur
            acc["green_new"] += s.extra.get("new_points", 0)
            acc["green_radii"] += s.extra.get("new_radii", 0)
            acc["green_scalar"] += s.name.endswith((".value", ".jet"))
        elif s.kind == "green-build":
            acc["green_build_s"] += dur
        elif s.kind == "scan":
            acc["scans"] += 1
            acc["grid_points"] += s.n
            for key in ("field_calls", "windows", "useful"):
                acc[key] += s.extra.get(key, 0)
        elif s.kind == "newton":
            acc["solves"] += 1
            acc["solve_jets"] += s.extra.get("jets", 0)
            acc["newton_failures"] += s.error == "ConvergenceError"
        if s.layer == "potential" and "layer:potential" not in up:
            acc["potential_s"] += dur
        if s.layer in ("coefficients", "lengths"):
            acc[f"{s.layer}_points"] += s.n
        if s.layer == "bounds":
            acc["rows"] += s.extra.get("rows", 0)

    def ratio(a: str, b: str, scale: float = 1.0) -> float:
        return scale * acc[a] / acc[b] if acc[b] else 0.0

    out = {f"{layer}.self_s": acc[f"{layer}.self_s"] / per
           for layer in LAYERS if layer != "reports"}
    out.update({
        "reports.render_s": acc["render_s"] / per,
        "reports.bytes": acc["bytes"] / per,
        "catalog.build_s": acc["catalog_build_s"] / per,
        "expr.points": acc["expr_points"] / per,
        "expr.us_per_point": ratio("expr_s", "expr_points", 1e6),
        "expr.parse_s": acc["parse_s"] / per,
        "maps.points": acc["map_points"] / per,
        "maps.eval_s": acc["map_s"] / per,
        "maps.scalar_calls": acc["map_scalar"] / per,
        "maps.unique_point_frac": ratio("map_new", "map_points"),
        "potential.points": acc["green_points"] / per,
        "potential.eval_s": acc["green_s"] / per,
        "potential.us_per_point": ratio("green_s", "green_points", 1e6),
        "potential.source_samples": acc["source_samples"] / per,
        "potential.source_samples_per_point": ratio("source_samples", "green_points"),
        "potential.build_s": acc["green_build_s"] / per,
        "potential.scalar_calls": acc["green_scalar"] / per,
        "potential.distinct_radii_frac": ratio("green_radii", "green_points"),
        "potential.unique_point_frac": ratio("green_new", "green_points"),
        "potential.report_share": ratio("potential_s", "report_s"),
        "grids.scans": acc["scans"] / per,
        "grids.field_calls": acc["field_calls"] / per,
        "grids.points": acc["grid_points"] / per,
        "grids.refine_useful_frac": ratio("useful", "windows"),
        "ellipticity.newton_solves": acc["solves"] / per,
        "ellipticity.newton_failures": acc["newton_failures"] / per,
        "ellipticity.jets_per_solve": ratio("solve_jets", "solves"),
        "coefficients.points": acc["coefficients_points"] / per,
        "lengths.points": acc["lengths_points"] / per,
        "bounds.rows": acc["rows"] / per,
    })
    return out
