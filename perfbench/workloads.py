"""Seeded workloads: input generators, operations and output checks.

Every workload turns ``--seed`` into inputs written under its work
directory; the package receives only those files (JSON configs, or JSON
argument arrays for ``ml-mix``). Each operation's output is checked
after its timer stops. References are computed before the timed loop,
either by an mpmath oracle that shares no code with the package or,
for the bundled coefficient sets, read from ``references.json``.
"""

import copy
import json
import math
import os

import mpmath
import numpy as np

from tracer import ML_BANDS, ml_band

# lambda* references were recorded on the scan grid; a refined argmin
# (or a one-sided root) may move lambda* by ~1e-4 relative. A wrong
# root or a wrong route is off by far more.
LAMBDA_RTOL = 1e-3
# worst block eigenvalue against numpy's eigvalsh on the same grid
EIGEN_ATOL = 1e-8
# E_alpha(-x) against an mpmath series; values lie in (0, 1]
ML_ATOL = 1e-10
# sub-semigroup inequality E(-lam t^a) E(-lam s^a) <= E(-lam (t+s)^a)
SEMIGROUP_SLACK = 1e-12
# a root must be bracketed this tightly: h(lam - d) < 0 < h(lam + d)
ROOT_BRACKET = 1e-9
# discrete Lyapunov gap allowed on the ABM trajectory (L1 scheme error)
LYAPUNOV_TOL = 1e-3

# Op sizes keep many short passes (5 to 16) in a run: the machine's
# speed jitters by 10-30% from pass to pass, and a median over many
# passes rejects the slow ones. The bundled scans are cut from 2001
# points to 501 (and the two-delay config to 251) so the four certify
# operations cost about the same, ~0.5-0.7 s each.
SIZES = {
    "full": {
        "bundled_points": 501,
        "scalar_points": 251,
        "lmi_points": 101,
        "lmi_configs": 4,
        "verify_solver": (80.0, 0.01),  # t_end, h: 8001 nodes
        "ml_triples": 10_000,  # as in acceptance criterion 2
        "ml_triples_a1": 18,  # 54 mpmath-regime calls per pass
        "roots": 1_000,  # as in acceptance criterion 6
    },
    "tiny": {
        "bundled_points": 101,
        "scalar_points": 101,
        "lmi_points": 51,
        "lmi_configs": 1,
        "verify_solver": (10.0, 0.02),
        "ml_triples": 200,
        "ml_triples_a1": 2,
        "roots": 20,
    },
}

VERIFY_SCAN = {"t_max": 100.0, "n_points": 101}


# -- independent oracles ------------------------------------------------

def mp_ml(x, alpha, beta=1.0):
    """E_alpha,beta(x) by its power series in adaptive precision."""
    u = 0.0 if x == 0.0 else abs(x) ** (1.0 / alpha)
    with mpmath.workdps(30 + int(u / math.log(10.0))):
        xm, am, bm = mpmath.mpf(x), mpmath.mpf(alpha), mpmath.mpf(beta)
        floor = mpmath.mpf(10) ** (-25)
        total = mpmath.mpf(0)
        k = 0
        while True:
            term = xm**k / mpmath.gamma(am * k + bm)
            total += term
            if k > u and abs(term) < floor * (1 + abs(total)):
                return float(total)
            k += 1


def mp_root(alpha, a, bs, qs):
    """Rate-equation root by 80 plain bisection steps on mpmath values."""
    def h(lam):
        return lam - a + sum(b / mp_ml(-lam * q**alpha, alpha)
                             for b, q in zip(bs, qs))

    lo, hi = 0.0, a
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if h(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _num(v):
    return repr(float(v))


def _uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _stratified(rng, n, lo, hi):
    """n draws with exactly one in each of n equal strata, shuffled.

    Keeps the spread of a parameter, and so the cost of the calls it
    drives, the same for every seed.
    """
    cells = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return lo + (hi - lo) * rng.permutation(cells)


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    return path


# -- CLI workloads ------------------------------------------------------

class CliWorkload:
    """User commands: ``load_config`` + ``run`` on each generated config.

    ``items`` hold the config path and what its report must show.
    """

    command = "certify"
    # op_s.tail: ~40 operations a run leave 4 beyond the 90th percentile;
    # the maximum of so few would track single slow stretches of the host
    tail_pct = 90.0

    def __init__(self, items, out_dir):
        self.items = items
        self.out_dir = out_dir

    def input_files(self):
        return [it["path"] for it in self.items]

    def rates(self, pass_times):
        return {}

    def run_pass(self, pkg, tracer, clock):
        times, outs = [], []
        for i, it in enumerate(self.items):
            if tracer is not None:
                tracer.begin_op(f"{it['name']}#{i}")
            t0 = clock()
            try:
                out = self.op(pkg, it)
            except Exception as exc:  # counted as a failed operation
                out = exc
            times.append(clock() - t0)
            outs.append(out)
        return times, outs

    def op(self, pkg, it):
        cfg = pkg.cli.load_config(it["path"])
        report, code = pkg.cli.run(self.command, cfg, self.out_dir)
        return {"report": report, "code": code}

    def check(self, outs):
        """(failed operations, messages) for one pass."""
        failures = []
        for it, out in zip(self.items, outs):
            why = self.problem(it, out)
            if why:
                failures.append(f"{it['name']}: {why}")
        return len(failures), failures

    def problem(self, it, out):
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        exp = it["expect"]
        report = out["report"]
        if out["code"] != exp["code"]:
            return f"exit code {out['code']}, expected {exp['code']}"
        cert = report.get("certificate")
        if cert is None:
            return "no certificate"
        if cert["case_tag"] != exp["case_tag"]:
            return f"case_tag {cert['case_tag']}, expected {exp['case_tag']}"
        if "feasible" in exp and report["verdict"].get("feasible") != exp["feasible"]:
            return f"feasible {report['verdict'].get('feasible')}"
        if "worst_eigen" in exp:
            ref = exp["worst_eigen"]
            got = report["verdict"]["worst_eigen"]
            if not abs(got - ref) <= EIGEN_ATOL * (1.0 + abs(ref)):
                return f"worst_eigen {got!r}, reference {ref!r}"
        lam, ref = cert["lambda_star"], exp["lambda_star"]
        if not abs(lam - ref) <= LAMBDA_RTOL * abs(ref):
            return f"lambda* {lam!r}, reference {ref!r}"
        if "grid_argmin" in exp and cert["grid_argmin"] != exp["grid_argmin"]:
            return f"grid_argmin {cert['grid_argmin']}, expected {exp['grid_argmin']}"
        return None


class VerifyWorkload(CliWorkload):
    """``verify`` plus one ``lyapunov_check`` of the computed trajectory.

    ``run`` does not return the trajectory, so ``cli.solve`` is wrapped
    for the whole benchmark by a one-line hook that keeps its last
    result.
    """

    command = "verify"
    # ~18 operations a run, two thirds of them the slower example 1: the
    # 90th percentile would be the second-slowest op, so take the 75th
    tail_pct = 75.0

    def op(self, pkg, it):
        out = super().op(pkg, it)
        traj = pkg.captured.pop("traj")
        out["lyapunov"] = pkg.fdde.lyapunov_check(traj, it["alpha"])
        return out

    def problem(self, it, out):
        why = super().problem(it, out)
        if why:
            return why
        exp, report = it["expect"], out["report"]
        if not report["envelope_check"]["passed"]:
            return f"envelope violated: {report['envelope_check']}"
        if report["simulation"]["nodes"] != exp["nodes"]:
            return f"{report['simulation']['nodes']} nodes, expected {exp['nodes']}"
        if not out["lyapunov"] <= LYAPUNOV_TOL:
            return f"lyapunov gap {out['lyapunov']!r} exceeds {LYAPUNOV_TOL}"
        return None


def _bundled(root, name):
    with open(os.path.join(root, "configs", name), encoding="utf-8") as fh:
        return json.load(fh)


def _reference(refs, name, n_points):
    entry = refs[name]
    return entry["case_tag"], entry["lambda_star"][str(n_points)]


def scalar_two_delay(rng, n_points):
    """A halanay-scalar config with two delays whose rate is minimal at t=0.

    a(t) grows without bound (so the ratio route applies) while both
    couplings and both delays shrink, so lambda(t) increases in t and
    lambda* is the root at t = 0. |x| stays in the series band.
    """
    alpha = _uniform(rng, 0.6, 0.65)
    a0, a1 = _uniform(rng, 0.8, 1.0), _uniform(rng, 0.003, 0.005)
    b0 = [_uniform(rng, 0.1, 0.15), _uniform(rng, 0.05, 0.1)]
    b1 = [_uniform(rng, 0.02, 0.05) for _ in range(2)]
    q0 = [_uniform(rng, 0.5, 1.0) for _ in range(2)]
    r = [_uniform(rng, 0.3, 0.8) for _ in range(2)]
    cfg = {
        "alpha": alpha,
        "dim": 1,
        "tau": 2.0,
        "analysis": "halanay-scalar",
        "A": [[f"-{_num(a0)}-{_num(a1)}*t"]],
        "B": [[f"{_num(b0[k])}+{_num(b1[k])}/(1+t)" for k in range(2)]],
        "q": [f"{_num(q0[k])}+{_num(r[k])}/(1+t)" for k in range(2)],
        "phi": [f"{_num(_uniform(rng, 0.2, 0.5))}+"
                f"{_num(_uniform(rng, 0.1, 0.3))}*cos(s)"],
        "scan": {"t_max": 100.0, "n_points": n_points},
    }
    lam = mp_root(alpha, a0, [b0[k] + b1[k] for k in range(2)],
                  [q0[k] + r[k] for k in range(2)])
    expect = {"code": 0, "case_tag": "RATIO", "lambda_star": lam,
              "grid_argmin": 0.0}
    return cfg, expect


def lmi_dim4(rng, n_points):
    """A dim-4 lmi config that is feasible by construction.

    A is diagonally dominant with small oscillating off-diagonal
    entries, B is small and nonnegative, gamma and sigma are constants
    with sigma/gamma < 1, and the delay grows with t, so lambda* is the
    root at t_max. The seed perturbs a fixed base system by a few
    percent, which keeps the Jacobi sweep count (and so the cost) the
    same for every seed. The reference worst eigenvalue comes from
    numpy's eigvalsh on coefficients evaluated here, not by the package.
    """
    d = 4
    alpha = _uniform(rng, 0.6, 0.7)
    diag = np.array([1.6, 1.9, 2.2, 2.5]) * rng.uniform(0.97, 1.03, d)
    wob = rng.uniform(0.15, 0.2, d)
    freq = rng.uniform(0.8, 1.2, d)
    off = rng.choice([-1.0, 1.0], (d, d)) * rng.uniform(0.1, 0.15, (d, d))
    phase = rng.uniform(0.0, 2.0 * math.pi, (d, d))
    bmag = rng.uniform(0.03, 0.05, (d, d))
    gamma = _uniform(rng, 0.45, 0.55)
    sigma = gamma * _uniform(rng, 0.5, 0.6)
    q0, r = _uniform(rng, 0.6, 0.8), _uniform(rng, 0.4, 0.6)

    A = [[None] * d for _ in range(d)]
    B = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i == j:
                A[i][j] = f"-{_num(diag[i])}-{_num(wob[i])}*sin({_num(freq[i])}*t)^2"
            else:
                A[i][j] = f"{_num(off[i, j])}*cos(t+{_num(phase[i, j])})"
            B[i][j] = f"{_num(bmag[i, j])}*(1+sin(t+{_num(phase[j, i])})^2)/2"
    cfg = {
        "alpha": alpha,
        "dim": d,
        "tau": 2.0,
        "analysis": "lmi",
        "A": A,
        "B": B,
        "q": f"{_num(q0)}+{_num(r)}*t/(1+t)",
        "phi": [f"{_num(_uniform(rng, 0.1, 0.5))}+"
                f"{_num(_uniform(rng, 0.1, 0.3))}*cos(s)" for _ in range(d)],
        "gamma": _num(gamma),
        "sigma": _num(sigma),
        "scan": {"t_max": 100.0, "n_points": n_points},
    }

    ts = np.linspace(0.0, 100.0, n_points)
    a = np.empty((n_points, d, d))
    b = np.empty((n_points, d, d))
    for i in range(d):
        for j in range(d):
            if i == j:
                a[:, i, j] = -diag[i] - wob[i] * np.sin(freq[i] * ts) ** 2
            else:
                a[:, i, j] = off[i, j] * np.cos(ts + phase[i, j])
            b[:, i, j] = bmag[i, j] * (1 + np.sin(ts + phase[j, i]) ** 2) / 2
    eye = np.eye(d)
    top = np.concatenate([a.transpose(0, 2, 1) + a + gamma * eye, b], axis=2)
    bottom = np.concatenate([b.transpose(0, 2, 1),
                             np.broadcast_to(-sigma * eye, b.shape)], axis=2)
    worst = float(np.linalg.eigvalsh(np.concatenate([top, bottom], axis=1)).max())

    q_end = q0 + r * 100.0 / 101.0
    expect = {"code": 0, "case_tag": "BOUNDED_GAP", "feasible": True,
              "worst_eigen": worst,
              "lambda_star": mp_root(alpha, gamma, [sigma], [q_end]),
              "grid_argmin": 100.0}
    return cfg, expect


def verify_variant(rng, root, refs, example, k, t_end, h):
    """A bundled example on a coarse scan with a long horizon and new phi.

    Only the initial function is drawn from the seed, so lambda* keeps
    its recorded reference while the trajectory changes.
    """
    name = f"example{example}.json"
    cfg = copy.deepcopy(_bundled(root, name))
    if example == 1:
        cfg["phi"] = [
            f"{_num(_uniform(rng, 0.15, 0.25))}-{_num(_uniform(rng, 0.3, 0.5))}*cos(s)",
            f"{_num(_uniform(rng, 0.05, 0.15))}+{_num(_uniform(rng, 0.05, 0.15))}*s",
            f"log(s+3)-{_num(_uniform(rng, 0.4, 0.6))}",
        ]
    else:
        cfg["phi"] = [f"{_num(_uniform(rng, 0.2, 0.4))}-"
                      f"{_num(_uniform(rng, 0.4, 0.6))}*cos({_num(_uniform(rng, 1.5, 2.5))}*s)"]
    cfg["scan"] = dict(VERIFY_SCAN)
    cfg["solver"] = {"t_end": t_end, "h": h, "tolerance": 0.02}
    cfg["output"] = {"csv_path": f"verify{example}-{k}.csv",
                     "report_path": f"verify{example}-{k}_report.json"}
    case_tag, lam = _reference(refs, name, VERIFY_SCAN["n_points"])
    expect = {"code": 0, "case_tag": case_tag, "lambda_star": lam,
              "nodes": int(round(t_end / h)) + 1}
    return cfg, expect


def build_cli(workload, rng, root, refs, size, work_dir):
    size = SIZES[size]
    specs = []  # (name, config, expect)
    if workload == "certify-bundled":
        for ex in (1, 2, 3):
            name = f"example{ex}.json"
            cfg = _bundled(root, name)
            cfg["scan"]["n_points"] = size["bundled_points"]
            case_tag, lam = _reference(refs, name, size["bundled_points"])
            expect = {"code": 0, "case_tag": case_tag, "lambda_star": lam}
            if cfg["analysis"] == "lmi":
                expect["feasible"] = True
            specs.append((name, cfg, expect))
        specs.append(("scalar2.json",
                      *scalar_two_delay(rng, size["scalar_points"])))
        cls = CliWorkload
    elif workload == "lmi-wide":
        for k in range(size["lmi_configs"]):
            specs.append((f"lmi{k}.json", *lmi_dim4(rng, size["lmi_points"])))
        cls = CliWorkload
    else:
        # three operations of two costs: the median of the op times then
        # falls inside one cost group, not on the gap between two
        for k, ex in enumerate((1, 3, 1)):
            cfg, expect = verify_variant(rng, root, refs, ex, k,
                                         *size["verify_solver"])
            specs.append((f"verify{ex}-{k}.json", cfg, expect))
        cls = VerifyWorkload
    items = []
    for name, cfg, expect in specs:
        items.append({"name": name, "alpha": cfg["alpha"], "expect": expect,
                      "path": _write(os.path.join(work_dir, name), cfg)})
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    return cls(items, out_dir)


# -- ml-mix ---------------------------------------------------------------

class MlMixWorkload:
    """Direct library traffic: E_alpha(-x) triples and rate-equation roots.

    The triples follow acceptance criterion 2 (alpha, lambda, t, s) and
    the roots criterion 6 (alpha, a, b, q); see ``build_ml_mix`` for how
    every seed gets the same share of each argument band. Each ``ml``
    call and each ``lambda_at`` call is one operation.
    """

    SUBSAMPLE_PER_BAND = 12
    # 31,000 operations a pass: 31 beyond the 99.9th percentile, which
    # lands among the 54 mpmath-regime calls
    tail_pct = 99.9

    def __init__(self, path, data):
        self.path = path
        tri = data["triples"]
        al = np.asarray(tri["alpha"])
        lam = np.asarray(tri["lam"])
        t, s = np.asarray(tri["t"]), np.asarray(tri["s"])
        # argument triples per criterion-2 tuple: E(-lam t^a), E(-lam s^a),
        # E(-lam (t+s)^a); built here so the timed loop only calls ml
        xs = np.stack([-lam * t**al, -lam * s**al, -lam * (t + s) ** al], axis=1)
        self.ml_args = [(float(x), float(a)) for row, a in zip(xs, al)
                        for x in row]
        roots = data["roots"]
        self.root_args = [
            (float(a), float(aa), [float(b)], [float(q)])
            for a, aa, b, q in zip(roots["alpha"], roots["a"], roots["b"],
                                   roots["q"])
        ]
        self.subsample = self._pick_subsample()
        self.refs = {i: mp_ml(*self.ml_args[i]) for i in self.subsample}

    def _pick_subsample(self):
        """First few calls of each band whose oracle stays affordable."""
        picked = {b: [] for b in ML_BANDS}
        for i, (x, a) in enumerate(self.ml_args):
            if x != 0.0 and abs(x) ** (1.0 / a) > 90.0:
                continue
            band = picked[ml_band(x, a)]
            if len(band) < self.SUBSAMPLE_PER_BAND:
                band.append(i)
        return [i for b in ML_BANDS for i in picked[b]]

    def input_files(self):
        return [self.path]

    def rates(self, pass_times):
        """ml calls and roots per second of their own busy time."""
        n_ml = len(self.ml_args)
        ml_s = sum(sum(p[:n_ml]) for p in pass_times)
        root_s = sum(sum(p[n_ml:]) for p in pass_times)
        passes = len(pass_times)
        return {"ml_calls_per_s": n_ml * passes / ml_s,
                "roots_per_s": len(self.root_args) * passes / root_s}

    def run_pass(self, pkg, tracer, clock):
        mlf, hal = pkg.mlf, pkg.halanay
        times = []
        vals = []
        if tracer is not None:
            tracer.begin_op("ml")
        for x, a in self.ml_args:
            t0 = clock()
            try:
                v = mlf.ml(x, a)
            except Exception as exc:  # counted as a failed operation
                v = exc
            times.append(clock() - t0)
            vals.append(v)
        if tracer is not None:
            tracer.begin_op("lambda_at")
        lams = []
        for args in self.root_args:
            t0 = clock()
            try:
                v = hal.lambda_at(*args)
            except Exception as exc:  # counted as a failed operation
                v = exc
            times.append(clock() - t0)
            lams.append(v)
        return times, (vals, lams, pkg)

    def check(self, outs):
        """(failed operations, messages); a failed tuple fails its 3 calls."""
        vals, lams, pkg = outs
        bad = set()
        failures = []
        for i, v in enumerate(vals):
            if isinstance(v, Exception) or not math.isfinite(v):
                bad.add(i)
                failures.append(f"ml{self.ml_args[i]}: {v!r}")
        for k in range(0, len(vals), 3):
            if bad.intersection((k, k + 1, k + 2)):
                continue
            if vals[k] * vals[k + 1] - vals[k + 2] > SEMIGROUP_SLACK:
                bad.update((k, k + 1, k + 2))
                failures.append(f"sub-semigroup fails at tuple {k // 3}")
        for i, ref in self.refs.items():
            if i not in bad and not abs(vals[i] - ref) <= ML_ATOL:
                bad.add(i)
                failures.append(f"ml{self.ml_args[i]} = {vals[i]!r}, "
                                f"mpmath {ref!r}")
        failed = len(bad)
        ml = pkg.mlf.ml
        for (alpha, a, bs, qs), lam in zip(self.root_args, lams):
            if isinstance(lam, Exception):
                failed += 1
                failures.append(f"lambda_at{(alpha, a, bs, qs)}: {lam!r}")
                continue
            d = ROOT_BRACKET * max(1.0, a)

            def h(z):
                return z - a + bs[0] / ml(-z * qs[0] ** alpha, alpha)

            below = lam - d <= 0.0 or h(lam - d) < 0.0
            if not (below and h(lam + d) > 0.0):
                failed += 1
                failures.append(f"lambda_at{(alpha, a, bs, qs)} = {lam!r} "
                                "is not bracketed")
        return failed, failures


def build_ml_mix(rng, size, work_dir):
    n_tri, n_roots = SIZES[size]["ml_triples"], SIZES[size]["roots"]
    n_a1 = SIZES[size]["ml_triples_a1"]
    n_bulk = n_tri - n_a1
    # The mpmath fallback (alpha > 0.995 inside the cancellation window)
    # costs ~5-10 ms a call, 100x any other call, so its share is fixed
    # rather than drawn: n_a1 tuples whose three calls all land in that
    # band (u = (lam t^alpha)^(1/alpha) from ~6.7 to ~20), stratified so
    # every seed spreads them alike over the band. The bulk tuples keep
    # alpha below 0.995 and never reach it.
    tri = {
        "alpha": np.concatenate([_stratified(rng, n_bulk, 0.1, 0.995),
                                 _stratified(rng, n_a1, 0.9955, 0.9995)]),
        "lam": np.concatenate([rng.uniform(0.01, 2.0, n_bulk),
                               _stratified(rng, n_a1, 1.5, 2.0)]),
        "t": np.concatenate([rng.uniform(0.0, 5.0, n_bulk),
                             _stratified(rng, n_a1, 4.5, 5.0)]),
        "s": np.concatenate([rng.uniform(0.0, 5.0, n_bulk),
                             _stratified(rng, n_a1, 4.5, 5.0)]),
    }
    order = rng.permutation(n_tri)
    data = {"triples": {k: v[order].tolist() for k, v in tri.items()}}
    a = rng.uniform(0.05, 1.2, n_roots)
    data["roots"] = {
        "alpha": _stratified(rng, n_roots, 0.1, 1.0).tolist(),
        "a": a.tolist(),
        "b": (a * rng.uniform(0.0, 0.95, n_roots)).tolist(),
        "q": rng.uniform(0.0, 1.0, n_roots).tolist(),
    }
    path = _write(os.path.join(work_dir, "ml_mix.json"), data)
    with open(path, encoding="utf-8") as fh:
        return MlMixWorkload(path, json.load(fh))


WORKLOADS = ("certify-bundled", "lmi-wide", "verify-long", "ml-mix")


def build(workload, seed, root, refs, size, work_dir):
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "ml-mix":
        return build_ml_mix(rng, size, work_dir)
    return build_cli(workload, rng, root, refs, size, work_dir)
