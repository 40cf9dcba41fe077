"""The benchmark tracer can wrap and restore every name it looks up.

perfbench/tracer.py replaces module attributes of the package by name.
Installing and uninstalling it here makes a refactor that unbinds one of
those names fail this suite, not only the benchmark's slow smoke test.
"""

import importlib.util
import types

import halanay.cli
import halanay.expr
import halanay.fdde
import halanay.halanay
import halanay.lmi
import halanay.mlf

from conftest import REPO


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package():
    return types.SimpleNamespace(
        cli=halanay.cli, halanay=halanay.halanay, lmi=halanay.lmi,
        fdde=halanay.fdde, mlf=halanay.mlf, expr=halanay.expr)


def snapshot(pkg):
    return {(name, attr): getattr(mod, attr)
            for name, mod in vars(pkg).items() for attr in dir(mod)}


def test_tracer_installs_and_uninstalls_cleanly():
    pkg = package()
    before = snapshot(pkg)
    eval_array = halanay.expr.TimeExpr.eval_array
    tracer = load_tracer().Tracer()
    tracer.install(pkg)
    try:
        assert halanay.lmi.max_eigen_sym is not before[("lmi", "max_eigen_sym")]
        assert halanay.halanay.lambda_at(0.5, 1.0, [0.3], [1.0]) > 0.0
        assert tracer.leaves["halanay.lambda_at"][0] == 1
    finally:
        tracer.uninstall()
    assert snapshot(pkg) == before
    assert halanay.expr.TimeExpr.eval_array is eval_array
