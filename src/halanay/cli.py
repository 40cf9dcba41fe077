"""Command-line front end: config ingestion, pipelines, reports.

Subcommands: certify (run the configured analysis and write a JSON
report), simulate (integrate the system and write a CSV trajectory),
verify (certify, simulate, and check the trajectory against the
certified envelope), and mlf (print one Mittag-Leffler value). Exit
codes: 0 pass/feasible, 2 infeasible or envelope violation, 1 input
error (usage errors included).
"""

import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ExprSyntaxError,
    HalanayError,
    InfeasiblePointError,
    MlfDomainError,
    StructureError,
)
from .expr import parse
from .fdde import SolverConfig, check_envelope, solve, write_csv
from .halanay import NONE, ScanGrid, envelope as decay_envelope
# certify and classify_conditions are not called here; perfbench/tracer.py
# wraps both by name
from .halanay import certify, classify_conditions  # noqa: F401
from .lmi import certify_lmi
from .mlf import check_orders, ml
from .positivity import DelaySystem, certify_positive

__all__ = [
    "RunConfig",
    "load_config",
    "run",
    "main",
]

ANALYSES = ("positive", "lmi", "halanay-scalar")
GRID_NOTE = (
    "certificate is grid-relative: conditions were checked on the scan "
    "grid only, not beyond t_max"
)

_TOP_KEYS = {
    "alpha", "dim", "tau", "analysis", "A", "B", "q", "phi",
    "gamma", "sigma", "a_bounded", "scan", "solver", "output",
}
_SECTION_KEYS = {
    "scan": {"t_max", "n_points"},
    "solver": {"t_end", "h", "tolerance"},
    "output": {"csv_path", "report_path"},
}


@dataclass(frozen=True)
class RunConfig:
    system: DelaySystem
    analysis: str
    gamma: object  # TimeExpr or None
    sigma: object
    a_bounded: object  # bool or None
    scan: ScanGrid
    solver: object  # SolverConfig or None
    tolerance: float
    csv_path: str
    report_path: str


def _want(errors, data, key, types, path=None):
    path = path or key
    if key not in data:
        errors.append((path, "missing required field"))
        return None
    val = data[key]
    if isinstance(val, bool) or not isinstance(val, types):
        errors.append((path, f"expected {types[0].__name__}, got {val!r}"))
        return None
    return val


def _expr(errors, raw, path, var):
    if not isinstance(raw, str):
        errors.append((path, f"expected an expression string, got {raw!r}"))
        return None
    try:
        return parse(raw, var)
    except ExprSyntaxError as exc:
        errors.append((path, str(exc)))
        return None


def _matrix(errors, data, key, rows, cols):
    raw = data.get(key)
    if raw is None:
        errors.append((key, "missing required field"))
        return None
    if not isinstance(raw, list) or len(raw) != rows or any(
        not isinstance(r, list) or len(r) != cols for r in raw
    ):
        errors.append((key, f"expected a {rows}x{cols} matrix of strings"))
        return None
    out = []
    for i, row in enumerate(raw):
        out.append(tuple(_expr(errors, e, f"{key}[{i}][{j}]", "t")
                         for j, e in enumerate(row)))
    if any(e is None for row in out for e in row):
        return None
    return tuple(out)


def load_config(path):
    """Read and fully parse a JSON run configuration.

    Every expression is parsed eagerly; all problems are aggregated into
    one ConfigError listing the offending field paths.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError([("(file)", str(exc))])
    except json.JSONDecodeError as exc:
        raise ConfigError([("(file)", f"invalid JSON: {exc}")])
    if not isinstance(data, dict):
        raise ConfigError([("(file)", "top level must be a JSON object")])

    errors = []
    for key in sorted(set(data) - _TOP_KEYS):
        errors.append((key, "unknown field"))
    for section, known in _SECTION_KEYS.items():
        raw = data.get(section)
        if isinstance(raw, dict):
            for key in sorted(set(raw) - known):
                errors.append((f"{section}.{key}", "unknown field"))

    alpha = _want(errors, data, "alpha", (int, float))
    if alpha is not None:
        try:
            check_orders(alpha)
        except MlfDomainError as exc:
            errors.append(("alpha", str(exc)))
            alpha = None
    dim = _want(errors, data, "dim", (int,))
    if dim is not None and dim < 1:
        errors.append(("dim", f"must be >= 1, got {dim}"))
        dim = None
    tau = _want(errors, data, "tau", (int, float))
    if tau is not None and not (math.isfinite(tau) and tau > 0):
        errors.append(("tau", f"must be positive, got {tau}"))
        tau = None
    analysis = _want(errors, data, "analysis", (str,))
    if analysis is not None and analysis not in ANALYSES:
        errors.append(("analysis", f"must be one of {ANALYSES}, got {analysis!r}"))
        analysis = None

    raw_q = data.get("q")
    q, n_delays = None, 1
    if raw_q is None:
        errors.append(("q", "missing required field"))
    elif isinstance(raw_q, str):
        e = _expr(errors, raw_q, "q", "t")
        q = (e,) if e is not None else None
    elif isinstance(raw_q, list) and raw_q:
        if analysis == "lmi":
            errors.append(("q", "analysis = lmi takes a single delay"))
        parsed = tuple(_expr(errors, e, f"q[{i}]", "t") for i, e in enumerate(raw_q))
        q = parsed if all(e is not None for e in parsed) else None
        n_delays = len(parsed)
    else:
        errors.append(("q", f"expected an expression string or list, got {raw_q!r}"))

    A = B = None
    if analysis == "halanay-scalar" and dim not in (None, 1):
        errors.append(("dim", "halanay-scalar analysis requires dim = 1"))
    elif dim is not None:
        # B is the block row [B_1 ... B_K], one dim x dim block per delay
        A = _matrix(errors, data, "A", dim, dim)
        B = _matrix(errors, data, "B", dim, dim * n_delays)

    phi = None
    raw_phi = data.get("phi")
    if not isinstance(raw_phi, list) or (dim is not None and len(raw_phi) != dim):
        count = "" if dim is None else f"{dim} "
        errors.append(("phi", f"expected a list of {count}expression strings"))
    else:
        parsed = tuple(_expr(errors, e, f"phi[{i}]", "s") for i, e in enumerate(raw_phi))
        phi = parsed if all(e is not None for e in parsed) else None

    lmi_exprs = []
    for key in ("gamma", "sigma"):
        if key not in data and analysis == "lmi":
            errors.append((key, "required when analysis = lmi"))
        elif key in data and analysis not in (None, "lmi"):
            errors.append((key, "needs analysis = lmi"))
        lmi_exprs.append(_expr(errors, data[key], key, "t") if key in data else None)
    gamma, sigma = lmi_exprs

    a_bounded = data.get("a_bounded")
    if a_bounded is not None and not isinstance(a_bounded, bool):
        errors.append(("a_bounded", f"expected true/false, got {a_bounded!r}"))
        a_bounded = None
    elif a_bounded is not None and analysis == "lmi":
        errors.append(("a_bounded", "needs analysis = positive or halanay-scalar"))

    scan = None
    raw_scan = data.get("scan")
    if not isinstance(raw_scan, dict):
        errors.append(("scan", "missing required object {t_max, n_points}"))
    else:
        t_max = _want(errors, raw_scan, "t_max", (int, float), "scan.t_max")
        n_points = _want(errors, raw_scan, "n_points", (int,), "scan.n_points")
        if t_max is not None and n_points is not None:
            try:
                scan = ScanGrid(float(t_max), n_points)
            except ValueError as exc:
                errors.append(("scan", str(exc)))

    solver = None
    tolerance = 0.02
    raw_solver = data.get("solver")
    if raw_solver is not None:
        if not isinstance(raw_solver, dict):
            errors.append(("solver", "expected an object {t_end, h, ...}"))
        else:
            t_end = _want(errors, raw_solver, "t_end", (int, float), "solver.t_end")
            h = _want(errors, raw_solver, "h", (int, float), "solver.h")
            tol = raw_solver.get("tolerance", 0.02)
            if (isinstance(tol, (int, float)) and not isinstance(tol, bool)
                    and math.isfinite(tol) and tol >= 0):
                tolerance = float(tol)
            else:
                errors.append(("solver.tolerance",
                               f"must be a finite number >= 0, got {tol!r}"))
            if t_end is not None and h is not None:
                try:
                    solver = SolverConfig(float(t_end), float(h))
                except ValueError as exc:
                    errors.append(("solver", str(exc)))

    output = data.get("output", {})
    if not isinstance(output, dict):
        errors.append(("output", "expected an object {csv_path, report_path}"))
        output = {}
    csv_path = output.get("csv_path", "trajectory.csv")
    report_path = output.get("report_path", "report.json")
    names_ok = True
    for name, val in (("csv_path", csv_path), ("report_path", report_path)):
        if not isinstance(val, str) or not val:
            errors.append((f"output.{name}", f"expected a file name, got {val!r}"))
            names_ok = False
    if names_ok and os.path.normpath(report_path) == os.path.normpath(csv_path):
        errors.append(("output.report_path",
                       f"{report_path!r} would overwrite the trajectory CSV"))

    if errors:
        raise ConfigError(errors)
    return RunConfig(
        system=DelaySystem(alpha=float(alpha), dim=dim, A=A, B=B, q=q,
                           tau=float(tau), phi=phi),
        analysis=analysis,
        gamma=gamma,
        sigma=sigma,
        a_bounded=a_bounded,
        scan=scan,
        solver=solver,
        tolerance=tolerance,
        csv_path=csv_path,
        report_path=report_path,
    )


def _strict_json(obj):
    """The report with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _certify(cfg):
    """Run the configured analysis; returns (verdict_json, certificate, norm_tag)."""
    if cfg.analysis == "lmi":
        verdict, cert = certify_lmi(cfg.system, cfg.gamma, cfg.sigma, cfg.scan)
        return asdict(verdict), cert, "l2"
    # halanay-scalar is the positive route at dim 1, where a = -A[0][0] is
    # given directly: a negative one is an input error, not a NONE verdict
    verdict, cert = certify_positive(cfg.system, cfg.scan,
                                     a_bounded=cfg.a_bounded)
    if cfg.analysis == "halanay-scalar" and verdict.a0 < 0:
        raise InfeasiblePointError("a must be nonnegative on the grid")
    return asdict(verdict), cert, "l1"


def _simulate(cfg, cert, norm_tag, out_dir):
    traj = solve(cfg.system, cfg.solver)
    env_vals = None
    if cert is not None:
        env_vals = decay_envelope(cert, cfg.system.alpha, traj.grid)
        if norm_tag == "l2":
            env_vals = np.sqrt(env_vals)
    csv_path = os.path.join(out_dir, cfg.csv_path)
    write_csv(traj, csv_path, envelope_values=env_vals, norm_tag=norm_tag)
    sim_json = {
        "t_end": float(traj.grid[-1]),  # t_end rounded to the h grid
        "h": cfg.solver.h,
        "nodes": len(traj.grid),
        "clamped_nodes": list(traj.clamped),
        "csv_path": csv_path,
    }
    return traj, env_vals, sim_json


def run(command, cfg, out_dir="."):
    """Execute one subcommand; returns (report dict, exit code)."""
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "tool": {"name": "halanay", "version": __version__},
        "command": command,
        "analysis": cfg.analysis,
        "scan": {"t_max": cfg.scan.t_max, "n_points": cfg.scan.n_points},
        "note": GRID_NOTE,
    }
    if command in ("simulate", "verify") and cfg.solver is None:
        raise ConfigError([("solver", "required for simulate/verify")])
    verdict, cert, norm_tag = _certify(cfg)
    report["verdict"] = verdict
    report["certificate"] = None if cert is None else asdict(cert)
    report["norm"] = norm_tag
    code = 0 if cert is not None else 2
    if command == "certify":
        return report, code
    if command == "simulate":
        _, _, sim_json = _simulate(cfg, cert, norm_tag, out_dir)
        report["simulation"] = sim_json
        return report, 0
    if command != "verify":
        raise ValueError(f"unknown command {command!r}")
    if cert is None:
        return report, 2
    traj, env_vals, sim_json = _simulate(cfg, cert, norm_tag, out_dir)
    report["simulation"] = sim_json
    chk = check_envelope(traj, norm_tag, env_vals, cfg.tolerance)
    report["envelope_check"] = asdict(chk)
    return report, 0 if chk.passed else 2


def _summary_lines(report):
    lines = []
    verdict = report["verdict"]
    if "feasible" in verdict:
        lines.append(f"lmi feasibility: {verdict['feasible']} "
                     f"(worst eigenvalue {verdict['worst_eigen']:.6g} "
                     f"at t={verdict['worst_t']:.6g})")
    lines.append(f"condition class: {verdict['case_tag']}")
    cert = report.get("certificate")
    if cert:
        lines.append(
            f"certificate: lambda*={cert['lambda_star']:.8g} "
            f"w0={cert['w0']:.8g} M={cert['M']:.8g} ({cert['case_tag']})"
        )
    elif verdict["case_tag"] == NONE:
        lines.append("no certificate: neither smallness condition holds")
    else:  # only the lmi route withholds a certificate from a tagged verdict
        lines.append("no certificate: the lmi blocks are not negative semidefinite")
    chk = report.get("envelope_check")
    if chk:
        lines.append(
            f"envelope check: max_ratio={chk['max_ratio']:.6g} "
            f"passed={chk['passed']}"
        )
    sim = report.get("simulation")
    if sim:
        lines.append(f"trajectory: {sim['csv_path']} ({sim['nodes']} nodes)")
    return lines


def main(argv=None):
    import argparse  # here, not at module level: only main parses arguments

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # a usage error is bad input: exit 1, not 2
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="halanay-certify",
        description=(
            "Decay certificates and direct simulation for fractional-order "
            "delay systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("certify", "run the configured analysis and write a JSON report"),
        ("simulate", "integrate the system and write a CSV trajectory"),
        ("verify", "certify, simulate, and check the envelope"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
    p_mlf = sub.add_parser("mlf", help="evaluate E_{alpha,beta}(x)")
    p_mlf.add_argument("alpha", type=float)
    p_mlf.add_argument("beta", type=float)
    p_mlf.add_argument("x", type=float)
    args = parser.parse_args(argv)

    try:
        if args.command == "mlf":
            print(repr(ml(args.x, args.alpha, args.beta)))
            return 0
        cfg = load_config(args.config)
        report, code = run(args.command, cfg, args.out)
        report_path = os.path.join(args.out, cfg.report_path)
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(_strict_json(report), fh, indent=2, allow_nan=False)
            fh.write("\n")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (StructureError, InfeasiblePointError) as exc:
        print(f"not certifiable: {exc}", file=sys.stderr)
        return 2
    except (HalanayError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in _summary_lines(report):
        print(line)
    print(f"note: {GRID_NOTE}", file=sys.stderr)
    print(f"report: {report_path}")
    return code


if __name__ == "__main__":
    sys.exit(main())
