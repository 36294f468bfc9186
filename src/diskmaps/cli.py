"""Command-line interface: subcommand dispatch and report assembly.

Every invocation prints one document, JSON by default:

    {"config": {...resolved run configuration...},
     "reports": [...],
     "summary": {"worst_margin": ..., "status": ...}}

Exit codes: 0 all checks hold (or pure data), 1 some report violated,
2 usage or configuration error, 3 numerical failure (a map that fails to
evaluate on a length quadrature's path, on a coefficient circle, at an
explicit `bounds --points` point or on more than 1% of a scan's grid, or a
nan pair-check margin, which includes a map that is not finite at a pair's
endpoint).  Identical argv yields
byte-identical output: reductions are deterministic, field order is fixed,
floats render in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import BoundContext, coefficient_bounds_report, derivative_bounds_report
from .catalog import MapDefinition, builtin_map, catalog_names, parse_params
from .coefficients import extract_coeffs
from .ellipticity import EllipticityParams, check_prop14, check_theorem11, frontier
from .grids import GridSpec
from .lengths import (boundary_length, length_sup, perimeter, radial_length,
                      radial_length_limit, subharmonic_radial_check)
from .maps import DslMap, JetEvaluationError, PlanarMap, at_point
from .potential import (QuadratureConfig, laplacian_stencils, solve_poisson,
                        stencil_residual)
from .reports import render_csv, render_json
from .wirtinger import WirtingerJet, jet_metrics

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_DEFAULT_POINTS = "0.25, 0.5j, -0.3+0.4j"


def _parse_complex(text: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError:
        raise ValueError(f"cannot parse complex number from {text!r}")
    if not cmath.isfinite(z):
        raise ValueError(f"complex number {text.strip()!r} must be finite")
    return z


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and infinities are usage errors."""
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return x


def _parse_points(text: str) -> List[complex]:
    items = [p for chunk in text.split(";") for p in chunk.split(",")]
    pts = [_parse_complex(p) for p in items if p.strip()]
    if not pts:
        raise ValueError("no points given")
    return pts


def _parse_radii(text: str, flag: str) -> List[float]:
    """A comma list of radii; an item that is no number is named with its flag."""
    radii = []
    for item in text.split(","):
        try:
            radii.append(float(item))
        except ValueError:
            raise ValueError(f"{flag} takes comma-separated numbers, got {item.strip()!r} "
                             f"in {text!r}") from None
    return radii


def _parse_pairs(text: str) -> List[Tuple[complex, complex]]:
    pairs = []
    for chunk in text.replace(";", ",").split(","):
        if not chunk.strip():
            continue
        sides = chunk.split(":")
        if len(sides) != 2:
            raise ValueError(f"pair {chunk!r} must look like z1:z2")
        pairs.append((_parse_complex(sides[0]), _parse_complex(sides[1])))
    if not pairs:
        raise ValueError("no pairs given")
    return pairs


def _grid_from(args) -> GridSpec:
    return GridSpec(
        radial_count=args.radial_count,
        angular_count=args.angular_count,
        max_radius=args.max_radius,
        refine_rounds=args.refine_rounds,
    )


def _quad_from(args) -> QuadratureConfig:
    return QuadratureConfig(
        radial_nodes=args.radial_nodes,
        angular_nodes=args.angular_nodes,
        boundary_nodes=args.boundary_nodes,
    )


def _source_term(args) -> Optional[str]:
    """The --g source, or None for the Laplace problem ("" or "0")."""
    return None if args.g.strip() in ("", "0") else args.g


def _build_map(args, quad: QuadratureConfig
               ) -> Tuple[PlanarMap, Dict[str, object], Optional[MapDefinition]]:
    chosen = [name for name, flag in
              (("--map", args.map), ("--catalog", args.catalog), ("--psi", args.psi))
              if flag is not None]
    if len(chosen) != 1:
        raise ValueError("exactly one map source required: --map, --catalog, or --psi")
    if args.map is not None:
        return DslMap(args.map), {"map": args.map}, None
    if args.catalog is not None:
        definition = builtin_map(args.catalog, parse_params(args.param))
        return definition.build(), {"catalog": definition.name,
                                    "parameters": definition.parameters}, definition
    m = solve_poisson(args.psi, _source_term(args), config=quad)
    return m, {"psi": args.psi, "g": args.g}, None


def _summary(reports: List[object]) -> Dict[str, object]:
    margins: List[float] = []
    statuses: List[str] = []
    for rep in reports:
        margin = getattr(rep, "margin", None)
        if margin is None:
            margin = getattr(rep, "worst_margin", None)
        if isinstance(margin, float) and math.isfinite(margin):
            margins.append(margin)
        status = getattr(rep, "status", None)
        if status is None and hasattr(rep, "holds_on_sample"):
            status = "holds" if rep.holds_on_sample else "violated"
        if status is not None:
            statuses.append(status)
    if "violated" in statuses:
        status = "violated"
    elif "indeterminate" in statuses:
        status = "indeterminate"
    elif statuses:
        status = "holds"
    else:
        status = "data"
    return {"worst_margin": min(margins) if margins else None, "status": status}


def _emit(args, config: Dict[str, object], reports: List[object]) -> int:
    summary = _summary(reports)
    if args.format == "json":
        text = render_json({"config": config, "reports": reports, "summary": summary})
    else:
        text = render_csv(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_VIOLATED if summary["status"] == "violated" else EXIT_OK


def _config_base(args, command: str, source_desc: Dict[str, object],
                 grid: Optional[GridSpec] = None,
                 quad: Optional[QuadratureConfig] = None) -> Dict[str, object]:
    cfg: Dict[str, object] = {"command": command}
    cfg.update(source_desc)
    if grid is not None:
        cfg["grid"] = grid
    if quad is not None:
        cfg["quad"] = quad
    cfg["format"] = args.format
    return cfg


# --- subcommand handlers ---------------------------------------------------


def _cmd_analyze(args) -> int:
    quad = _quad_from(args)
    m, source_desc, _ = _build_map(args, quad)
    points = _parse_points(args.points)
    jets = m.jets(np.array(points))
    rows = []
    for i, z in enumerate(points):
        row: Dict[str, object] = {"type": "PointMetrics", "point": z}
        try:
            jet = WirtingerJet(*at_point(z, (part[i] for part in jets)))
            metrics = jet_metrics(jet)
            row.update({
                "value": jet.value, "dz": jet.dz, "dzbar": jet.dzbar,
                "op_norm": metrics.op_norm, "lower_norm": metrics.lower_norm,
                "jacobian": metrics.jacobian, "dilatation": metrics.dilatation,
            })
            if args.K is not None:
                row["defect"] = metrics.op_norm**2 - args.K * metrics.jacobian
        except ValueError as exc:
            row["error"] = str(exc)
        rows.append(row)
    config = _config_base(args, "analyze", source_desc, quad=quad)
    config["points"] = points
    if args.K is not None:
        config["K"] = args.K
    return _emit(args, config, rows)


def _cmd_frontier(args) -> int:
    quad = _quad_from(args)
    grid = _grid_from(args)
    m, source_desc, _ = _build_map(args, quad)
    Ks = args.K or [1.0, 1.5, 2.0, 4.0]
    report = frontier(m, Ks, grid)
    config = _config_base(args, "frontier", source_desc, grid=grid, quad=quad)
    config["K_values"] = sorted(float(k) for k in Ks)
    return _emit(args, config, [report])


def _cmd_bounds(args) -> int:
    quad = _quad_from(args)
    grid = _grid_from(args)
    m, source_desc, definition = _build_map(args, quad)
    diag = definition.diagnostics if definition is not None else {}

    params = None
    if args.K is not None:
        params = EllipticityParams(K=args.K, Kprime=args.Kprime or 0.0)
    elif args.Kprime is not None:
        raise ValueError("--Kprime requires --K")

    # Context resolution order: explicit flag, value pinned by the catalog
    # construction, measurement.  Measured geometry sits ~1e-4 below the
    # true sup, which would flip equality rows to violated; pinned values
    # keep sharp catalog cases at zero margin.
    provenance = {}
    R = args.R
    if R is not None:
        provenance["R"] = "given"
    elif isinstance(diag.get("exact_R"), float) and math.isfinite(diag["exact_R"]):
        R = diag["exact_R"]
        provenance["R"] = "catalog-exact"
    elif not args.no_measure:
        # An unconverged measurement is left unset, so the rows that read it
        # are indeterminate, as with --no-measure.
        boundary = boundary_length(m)
        if boundary.converged:
            R = boundary.value / (2.0 * math.pi)
        provenance["R"] = ("boundary-polyline" if boundary.converged
                           else "boundary-polyline, not converged")
    perimeter_sup = args.perimeter_sup
    if perimeter_sup is not None:
        provenance["perimeter_sup"] = "given"
    elif R is not None:
        # The suite identifies the perimeter sup with the boundary image
        # length 2 pi R (circle-image perimeters increase toward it).
        perimeter_sup = 2.0 * math.pi * R
        provenance["perimeter_sup"] = "2piR"
    radial_sup = args.radial_sup
    if radial_sup is not None:
        provenance["radial_sup"] = "given"
    elif isinstance(diag.get("exact_radial_sup"), float):
        radial_sup = diag["exact_radial_sup"]
        provenance["radial_sup"] = "catalog-exact"
    elif not args.no_measure:
        sup, detail = length_sup(m, "radial", grid)
        if detail["converged"]:
            radial_sup = sup
        provenance["radial_sup"] = ("angle-grid" if detail["converged"]
                                    else "angle-grid, not converged")

    coeffs = extract_coeffs(m, count=args.n_max if args.n_max > 32 else 32)
    ctx = BoundContext(params=params, R=R,
                       perimeter_sup=perimeter_sup, radial_sup=radial_sup,
                       coeffs=coeffs if coeffs.valid else None)
    points = _parse_points(args.points) if args.points else None
    reports: List[object] = []
    reports.extend(coefficient_bounds_report(ctx, n_max=args.n_max))
    reports.extend(derivative_bounds_report(ctx, m, grid, points=points,
                                            per_point=args.per_point))
    config = _config_base(args, "bounds", source_desc, grid=grid, quad=quad)
    config["context"] = {
        "K": params.K if params else None,
        "Kprime": params.Kprime if params else None,
        "R": R, "perimeter_sup": perimeter_sup, "radial_sup": radial_sup,
        "provenance": provenance, "n_max": args.n_max,
        "coeff_disagreement": coeffs.disagreement, "coeffs_valid": coeffs.valid,
    }
    return _emit(args, config, reports)


def _cmd_coeffs(args) -> int:
    quad = _quad_from(args)
    m, source_desc, _ = _build_map(args, quad)
    radii = tuple(_parse_radii(args.radii, "--radii"))
    table = extract_coeffs(m, count=args.count, radii=radii)
    config = _config_base(args, "coeffs", source_desc, quad=quad)
    config["count"] = args.count
    config["radii"] = list(radii)
    return _emit(args, config, [table])


def _cmd_length(args) -> int:
    quad = _quad_from(args)
    grid = _grid_from(args)
    m, source_desc, _ = _build_map(args, quad)
    reports: List[object] = []
    radii = _parse_radii(args.r, "--r") if args.r else [0.5, 0.9, 0.99]
    # Each rule keeps its own default node count unless --nodes is given.
    nodes = {} if args.nodes is None else {"nodes": args.nodes}
    if args.kind in ("perimeter", "both"):
        for r in radii:
            reports.append(perimeter(m, r, **nodes))
    if args.kind in ("radial", "both"):
        for r in radii:
            reports.append(radial_length(m, r, args.theta, **nodes))
    if args.kind == "boundary":
        reports.append(boundary_length(m))
    if args.kind in ("sup-perimeter", "sup-radial"):
        kind = args.kind.split("-", 1)[1]
        value, detail = length_sup(m, kind, grid)
        reports.append({"type": "LengthSup", "kind": kind, "value": value,
                        **detail})
    if args.kind == "radial-limit":
        value, converged = radial_length_limit(m, args.theta)
        reports.append({"type": "RadialLimit", "theta": args.theta, "value": value,
                        "converged": converged})
    config = _config_base(args, "length", source_desc, grid=grid, quad=quad)
    config.update({"kind": args.kind, "radii": radii, "theta": args.theta})
    return _emit(args, config, reports)


def _cmd_solve(args) -> int:
    quad = _quad_from(args)
    g = _source_term(args)
    m = solve_poisson(args.psi, g, config=quad)
    points = _parse_points(args.points)
    pts = np.array(points, dtype=complex)
    # Residuals where the stencil stays inside the disk.  One values call
    # takes the other points and every stencil, whose last column is the
    # point itself.
    inner = 1.0 - np.abs(pts) >= 2 * args.residual_h
    stencils = laplacian_stencils(pts[inner], args.residual_h)
    outer = np.count_nonzero(~inner)
    sampled = m.values(np.concatenate([pts[~inner], stencils.ravel()]))
    at_stencils = sampled[outer:].reshape(stencils.shape)
    values = np.empty(pts.size, dtype=complex)
    values[~inner], values[inner] = sampled[:outer], at_stencils[:, -1]
    residuals = np.full(pts.size, None, dtype=object)
    residuals[inner] = stencil_residual(at_stencils, g or "0", pts[inner],
                                        args.residual_h).tolist()
    rows = [{"type": "SolutionSample", "point": z, "value": at_point(z, [value])[0],
             "residual": residual}
            for z, value, residual in zip(points, values, residuals)]
    config = _config_base(args, "solve", {"psi": args.psi, "g": args.g}, quad=quad)
    config["points"] = points
    config["residual_h"] = args.residual_h
    return _emit(args, config, rows)


def _cmd_check_thm11(args) -> int:
    quad = _quad_from(args)
    m, source_desc, _ = _build_map(args, quad)
    pairs = _parse_pairs(args.pairs)
    report = check_theorem11(m, args.omega, args.alpha, args.C1, args.C2,
                             pairs, line_nodes=args.line_nodes)
    config = _config_base(args, "check-thm11", source_desc, quad=quad)
    config.update({"omega": args.omega, "alpha": args.alpha, "C1": args.C1,
                   "C2": args.C2, "pairs": [list(p) for p in pairs],
                   "line_nodes": args.line_nodes})
    return _emit(args, config, [report])


def _cmd_check_prop14(args) -> int:
    quad = _quad_from(args)
    m, source_desc, _ = _build_map(args, quad)
    pairs = _parse_pairs(args.pairs) if args.pairs else None
    report = check_prop14(m, args.C3, pairs)
    config = _config_base(args, "check-prop14", source_desc, quad=quad)
    config.update({"C3": args.C3,
                   "pairs": "given" if pairs is not None else "seeded-default"})
    return _emit(args, config, [report])


def _cmd_check_subharmonic(args) -> int:
    grid = _grid_from(args)
    report = subharmonic_radial_check(args.phi, grid)
    config = _config_base(args, "check-subharmonic", {"phi": args.phi}, grid=grid)
    return _emit(args, config, [report])


def _cmd_catalog(args) -> int:
    rows = []
    for name, schema in catalog_names().items():
        rows.append({"type": "CatalogEntry", "name": name, "parameters": schema})
    config = _config_base(args, "catalog", {})
    return _emit(args, config, rows)


# --- parser ----------------------------------------------------------------


def _add_map_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--map", help="map as a DSL expression in z")
    p.add_argument("--catalog", help="catalog map name (see the catalog subcommand)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="catalog map parameter (repeatable)")
    p.add_argument("--psi", help="boundary data DSL for a Poisson-built map")
    p.add_argument("--g", default="0", help="Laplacian DSL for a Poisson-built map")


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radial-count", type=int, default=96)
    p.add_argument("--angular-count", type=int, default=192)
    p.add_argument("--max-radius", type=_finite_float, default=1.0 - 1e-4)
    p.add_argument("--refine-rounds", type=int, default=3)


def _add_quad(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radial-nodes", type=int, default=128,
                   help="starting radial panel grid: N // 16 panels of 16 Gauss nodes, "
                        "split where they do not resolve the source")
    p.add_argument("--angular-nodes", type=int, default=256)
    p.add_argument("--boundary-nodes", type=int, default=512)


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="output path (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskmaps",
        description="Distortion analysis of planar maps on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, *, map_source=True, grid=False, quad=True):
        p = sub.add_parser(name, help=help_text)
        if map_source:
            _add_map_source(p)
        if grid:
            _add_grid(p)
        if quad:
            _add_quad(p)
        _add_output(p)
        p.set_defaults(handler=handler)
        return p

    p = command("analyze", _cmd_analyze, "per-point jet metrics")
    p.add_argument("--points", default=_DEFAULT_POINTS)
    p.add_argument("--K", type=_finite_float, help="also report the defect at this K")

    command("frontier", _cmd_frontier, "min-K' sweep over K values",
            grid=True).add_argument("--K", type=_finite_float, action="append")

    p = command("bounds", _cmd_bounds, "coefficient and derivative bound reports",
                grid=True)
    p.add_argument("--K", type=_finite_float)
    p.add_argument("--Kprime", type=_finite_float)
    p.add_argument("--R", type=_finite_float)
    p.add_argument("--perimeter-sup", type=_finite_float)
    p.add_argument("--radial-sup", type=_finite_float)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--points", help="explicit derivative evaluation points")
    p.add_argument("--per-point", action="store_true")
    p.add_argument("--no-measure", action="store_true",
                   help="skip automatic measurement of missing context")

    p = command("coeffs", _cmd_coeffs, "Fourier coefficient extraction")
    p.add_argument("--count", type=int, default=32)
    p.add_argument("--radii", default="0.4,0.6,0.8")

    p = command("length", _cmd_length, "perimeters and radial lengths", grid=True)
    p.add_argument("--kind", default="perimeter",
                   choices=("perimeter", "radial", "both", "boundary",
                            "sup-perimeter", "sup-radial", "radial-limit"))
    p.add_argument("--r", help="comma-separated radii")
    p.add_argument("--theta", type=_finite_float, default=0.0)
    p.add_argument("--nodes", type=int,
                   help="trapezoid angles of a perimeter (default 512), or Gauss nodes "
                        "of a ray's starting panels (default 32)")

    p = command("solve", _cmd_solve, "Poisson solve with sampled residuals",
                map_source=False)
    p.add_argument("--psi", required=True, help="boundary data DSL")
    p.add_argument("--g", default="0", help="Laplacian DSL")
    p.add_argument("--points", default=_DEFAULT_POINTS)
    p.add_argument("--residual-h", type=_finite_float, default=1e-3)

    p = command("check-thm11", _cmd_check_thm11,
                "two-sided growth and chord-integral check")
    p.add_argument("--omega", required=True, help="majorant DSL in t")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--C1", type=_finite_float, required=True)
    p.add_argument("--C2", type=_finite_float, required=True)
    p.add_argument("--pairs", required=True, help="pairs z1:z2 separated by ; or ,")
    p.add_argument("--line-nodes", type=int, default=129)

    p = command("check-prop14", _cmd_check_prop14, "analytic-part domination check")
    p.add_argument("--C3", type=_finite_float, required=True)
    p.add_argument("--pairs", help="pairs z1:z2 (default: seeded sample)")

    p = command("check-subharmonic", _cmd_check_subharmonic,
                "radial-integral bound for a subharmonic density",
                map_source=False, grid=True, quad=False)
    p.add_argument("--phi", required=True, help="density DSL, real-valued")

    command("catalog", _cmd_catalog, "list catalog map names",
            map_source=False, quad=False)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # One parser per process: parse_args leaves it unchanged, each call
    # gets a fresh namespace, and "append" options copy their lists.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, JetEvaluationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
