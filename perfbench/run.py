"""halanay benchmark: seeded workloads, end-to-end timings, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): certify-bundled, lmi-wide,
verify-long, ml-mix. The package is imported from ``src/`` of the
checkout this directory sits in; nothing is installed.

With ``--trace 0`` the workload runs whole passes, untraced, for about
``--seconds`` (at least one pass; the run stops after the pass whose
end lands nearest that time), and the last line of
stdout is a JSON object with the end-to-end metrics. With ``--trace 1``
untraced and traced passes alternate for the same time and the last
line carries the per-layer metrics. Earlier lines print every metric by
name with its unit, plus the environment; the full record (and, when
traced, the spans of the first traced pass) goes to
``perfbench/.work/results/``.

End-to-end times are in reference seconds (see ``calibrate.py``): the
measured seconds scaled by a calibration loop timed between passes, so
the host's drift cancels. The raw seconds are printed as ``*.raw``.

``--size tiny`` shrinks every input for the smoke test, and
``--references`` points the bundled-config checks at another file.
"""

import argparse
import array
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import numpy as np

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_RUNS = 7
SETUP_TIMEOUT_S = 120
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mib": "MiB",
}
# printed for reading, not part of the result line
EXTRA_UNITS = {
    "wall_s.raw": "s",
    "op_s.p50.raw": "s",
    "op_s.tail.raw": "s",
    "setup_s.raw": "s",
    "calibration.loop_s": "s",
    "failed_frac": "frac",
    "passes": "count",
    "op_s.tail.percentile": "%",
    "op_s.tail.samples": "count",
    "ml_calls_per_s": "1/s",
    "roots_per_s": "1/s",
}


def layer_unit(name):
    if name.endswith("bytes"):
        return "B"
    if ".calls" in name:
        return "count"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_per_root"):
        return "ratio"
    return "s"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--references",
                   default=os.path.join(HERE, "references.json"))
    return p.parse_args(argv)


def git_commit():
    """Commit of the checkout from .git files, or None outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def thread_count():
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment():
    import mpmath
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": thread_count(),
        "blas": {v: os.environ.get(v) for v in BLAS_VARS},
        "HALANAY_THREADS": os.environ.get("HALANAY_THREADS", "unset"),
        "machine": platform.machine(),
    }


def measure_setup(files):
    """Median over fresh interpreters of import + parse + one warm-up call.

    Returns (reference seconds, raw seconds); each probe is scaled by
    the calibration loop it times right after its set-up.
    """
    probe = os.path.join(HERE, "setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, probe, *files], capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=True)
        elapsed, loop_s = map(float, done.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.factor([loop_s]))
    return statistics.median(scaled), raw


def load_package():
    import halanay.cli
    import halanay.expr
    import halanay.fdde
    import halanay.halanay
    import halanay.lmi
    import halanay.mlf

    pkg = types.SimpleNamespace(
        cli=halanay.cli, halanay=halanay.halanay, lmi=halanay.lmi,
        fdde=halanay.fdde, mlf=halanay.mlf, expr=halanay.expr, captured={})
    solve = pkg.cli.solve

    def keep_trajectory(*args, **kwargs):
        traj = solve(*args, **kwargs)
        pkg.captured["traj"] = traj
        return traj

    pkg.cli.solve = keep_trajectory
    return pkg


def warm_up(pkg):
    pkg.halanay.lambda_at(0.5, 1.0, [0.3], [1.0])
    for x, alpha in ((-0.5, 0.6), (-20.0, 0.7), (-10.0, 0.998), (-500.0, 0.5)):
        pkg.mlf.ml(x, alpha)


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, n_ops, failed, messages):
        self.attempted += n_ops
        self.failed += failed
        self.messages.extend(messages[: max(0, 20 - len(self.messages))])


def timed_pass(wl, pkg, tracer=None):
    """One pass, traced when a tracer is given; checks are left to the caller.

    Returns (wall seconds, per-operation seconds, outputs).
    """
    if tracer is None:
        t0 = time.perf_counter()
        times, outs = wl.run_pass(pkg, None, time.perf_counter)
        return time.perf_counter() - t0, times, outs
    tracer.reset()
    tracer.install(pkg)
    try:
        t0 = time.perf_counter()
        times, outs = wl.run_pass(pkg, tracer, time.perf_counter)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.end_op()
    return wall, times, outs


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "halanay", "__init__.py")) or \
            not os.path.isdir(os.path.join(ROOT, "configs")):
        print(f"perfbench: no halanay source tree at {ROOT}", file=sys.stderr)
        return 2
    os.environ.pop("HALANAY_THREADS", None)
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(args.references, encoding="utf-8") as fh:
        refs = json.load(fh)

    work_dir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, refs, args.size,
                             work_dir)
        setup_s, setup_runs = measure_setup(wl.input_files())
        pkg = load_package()
        warm_up(pkg)
        result = measure(args, wl, pkg, tracing)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    tally = result["tally"]
    extra = result["extra"]
    extra["setup_runs_s"] = setup_runs
    extra["setup_s.raw"] = statistics.median(setup_runs)
    extra["failed_frac"] = tally.failed / tally.attempted
    e2e = result["e2e"]
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "env": env,
        "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.messages,
        "end_to_end": e2e, "extra": extra, "per_layer": result.get("layers"),
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "results", stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if "spans" in result:
        with open(os.path.join(WORK, "results", stem + "-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result["spans"], fh)

    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for msg in tally.messages:
        print(f"FAILED {msg}")
    for name, value in sorted({**e2e, **extra}.items()):
        unit = E2E_UNITS.get(name) or EXTRA_UNITS.get(name)
        if unit:
            print(f"{name} {value!r} {unit}")
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in result["layers"].items()}
        for name, m in sorted(metrics.items()):
            print(f"{name} {m['value']!r} {m['unit']}")
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def measure(args, wl, pkg, tracing):
    tally = Tally()
    walls = []
    pass_times = []  # per pass, compact, so peak RSS barely grows per pass
    traced_walls, counts, times, spans = [], None, [], None
    repeat = True
    tracer = tracing.Tracer() if args.trace else None
    start = time.perf_counter()
    loop_times = calibrate.sample()
    while True:
        wall, op, outs = timed_pass(wl, pkg)
        loop_times += calibrate.sample()
        tally.add(len(op), *wl.check(outs))
        walls.append(wall)
        pass_times.append(array.array("d", op))
        if tracer is not None:
            wall, op, outs = timed_pass(wl, pkg, tracer)
            tally.add(len(op), *wl.check(outs))
            traced_walls.append(wall)
            pass_counts = tracing.layer_counts(tracer)
            if counts is None:
                counts, spans = pass_counts, tracer.dump()
            repeat = repeat and pass_counts == counts
            times.append(tracing.layer_times(tracer))
        # stop after the pass whose end lands nearest the deadline
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(walls) >= args.seconds:
            break

    # one float64 buffer, so peak RSS does not grow with the pass count
    op_times = np.concatenate([np.frombuffer(p) for p in pass_times])
    raw = {
        "wall_s": statistics.median(walls),
        "op_s.p50": float(np.median(op_times)),
        "op_s.tail": float(np.percentile(op_times, wl.tail_pct)),
    }
    scale = calibrate.factor(loop_times)
    e2e = {k: v * scale for k, v in raw.items()}
    extra = {k + ".raw": v for k, v in raw.items()}
    extra.update({
        "calibration.loop_s": statistics.median(loop_times),
        "passes": len(walls),
        "op_s.tail.percentile": wl.tail_pct,
        "op_s.tail.samples": len(op_times),
    })
    extra.update(wl.rates(pass_times))
    out = {"tally": tally, "e2e": e2e, "extra": extra}
    if tracer is not None:
        layers = dict(counts)
        layers.update(tracing.median_times(times))
        layers["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        out["layers"] = layers
        out["spans"] = spans
        extra["traced_passes"] = len(traced_walls)
        extra["counts_repeat"] = repeat
    return out


if __name__ == "__main__":
    sys.exit(main())
