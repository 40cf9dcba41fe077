import gc
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

from halanay import cli
from halanay.cli import (
    GRID_NOTE,
    RunConfig,
    load_config,
    main,
    run,
)
from halanay.errors import ConfigError
from halanay.halanay import ScanGrid, certify
from halanay.mlf import ALPHA_MIN
from halanay.positivity import DelaySystem, initial_amplitude

from conftest import REPO


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return str(path)


def scalar_cfg(**overrides):
    data = {
        "alpha": 0.65,
        "dim": 1,
        "tau": 2.0,
        "analysis": "halanay-scalar",
        "A": [["-0.3"]],
        "B": [["0.2"]],
        "q": "2",
        "phi": ["1+0.2*s"],
        "scan": {"t_max": 50.0, "n_points": 501},
        "solver": {"t_end": 5.0, "h": 0.01},
        "output": {"csv_path": "run.csv", "report_path": "report.json"},
    }
    data.update(overrides)
    return data


# -------------------------------------------------------------- load_config

def test_load_bundled_configs(config_dir):
    for name, analysis, dim in (
        ("example1.json", "positive", 3),
        ("example2.json", "positive", 2),
        ("example3.json", "lmi", 1),
    ):
        cfg = load_config(str(config_dir / name))
        assert isinstance(cfg, RunConfig)
        assert cfg.analysis == analysis
        assert cfg.system.dim == dim
        assert cfg.scan == ScanGrid(100.0, 2001)
        assert len(cfg.system.A) == dim and len(cfg.system.A[0]) == dim
    cfg3 = load_config(str(config_dir / "example3.json"))
    assert cfg3.gamma is not None and cfg3.sigma is not None
    assert cfg3.gamma.eval(0.0) == 0.3


def test_errors_are_aggregated_with_field_paths(tmp_path):
    bad = scalar_cfg(
        alpha=1.5,
        analysis="lmi",
        A=[["-0.3+u"]],
        extra_key=1,
    )
    del bad["solver"]
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, bad))
    paths = [p for p, _ in exc.value.errors]
    assert "alpha" in paths
    assert "A[0][0]" in paths
    assert "gamma" in paths and "sigma" in paths
    assert "extra_key" in paths
    assert len(paths) >= 5

    # without a valid dim, phi's message names no count
    for dim in (None, 0):
        nodim = scalar_cfg(dim=dim, phi="1")
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, nodim))
        assert ("phi", "expected a list of expression strings") in exc.value.errors
        assert "dim" in {p for p, _ in exc.value.errors}


@pytest.mark.parametrize("alpha", [1e-12, 0, math.nextafter(ALPHA_MIN, 0.0)])
def test_alpha_below_the_mlf_floor_is_a_config_error(tmp_path, config_dir,
                                                      capsys, alpha):
    data = json.loads((config_dir / "example1.json").read_text())
    data["alpha"] = alpha
    path = write_cfg(tmp_path, data)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == [
        ("alpha", f"alpha must lie in [{ALPHA_MIN:g}, 1], got {alpha!r}")]
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "\n  alpha: " in err
    data["alpha"] = ALPHA_MIN
    assert load_config(write_cfg(tmp_path, data)).system.alpha == ALPHA_MIN


def test_outputs_may_not_overwrite_each_other(tmp_path):
    for csv_path, report_path in (
        ("run.csv", "run.csv"),
        ("out/run.csv", "out/./run.csv"),
    ):
        data = scalar_cfg(output={"csv_path": csv_path, "report_path": report_path})
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, data))
        assert exc.value.errors == [(
            "output.report_path",
            f"{report_path!r} would overwrite the trajectory CSV")]
    # no script is written beside the CSV, so any name not the report's is free
    data = scalar_cfg(output={"csv_path": "run.gp", "report_path": "run.csv"})
    assert load_config(write_cfg(tmp_path, data)).csv_path == "run.gp"


def test_missing_or_malformed_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    lst = tmp_path / "list.json"
    lst.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_config(str(lst))


def test_dimension_mismatch_is_reported(tmp_path):
    bad = scalar_cfg(analysis="positive", dim=2, phi=["1", "1"])  # A stays 1x1
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, bad))
    assert any(p == "A" for p, _ in exc.value.errors)


def test_every_route_takes_a_delay_list(tmp_path, config_dir, capsys):
    two = {"B": [["0.1", "0.1"]], "q": ["0.5", "1.5"]}
    for analysis in ("halanay-scalar", "positive"):
        cfg = load_config(write_cfg(tmp_path, scalar_cfg(analysis=analysis, **two)))
        assert [e.source for e in cfg.system.q] == ["0.5", "1.5"]

    # example 3 with its one delay in a list certifies byte for byte as the
    # bare string does
    data = json.loads((config_dir / "example3.json").read_text())
    outputs = []
    for q in (data["q"], [data["q"]]):
        path = write_cfg(tmp_path, dict(data, q=q))
        assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 0
        outputs.append((capsys.readouterr(),
                        (tmp_path / "example3_report.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_an_empty_delay_list_is_refused(tmp_path):
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, scalar_cfg(q=[])))
    assert exc.value.errors == [
        ("q", "expected an expression string or a non-empty list, got []")]


def test_unknown_nested_fields_are_reported(tmp_path, capsys):
    data = scalar_cfg()
    data["solver"]["corrector_iters"] = 2  # the solver has no sweeps to set
    data["solver"]["tolerence"] = 0.5
    data["scan"]["npoints"] = 5
    data["output"]["csv"] = 5
    data["solver"]["h"] = "fine"  # reported in the same run
    path = write_cfg(tmp_path, data)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    paths = {p for p, msg in exc.value.errors if msg == "unknown field"}
    assert paths == {"solver.corrector_iters", "solver.tolerence",
                     "scan.npoints", "output.csv"}
    assert "solver.h" in {p for p, _ in exc.value.errors}
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 1
    assert "solver.corrector_iters: unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [[], 0, "", False, None],
                         ids=["list", "zero", "empty", "false", "null"])
def test_output_must_be_an_object(tmp_path, bad):
    # a falsy non-object used to load silently with the default file names
    data = scalar_cfg()
    data["output"] = bad
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, data))
    assert exc.value.errors == [
        ("output", "expected an object {csv_path, report_path}")]


def test_scan_points_are_capped(tmp_path):
    # the solver's node guard: a scan of 1e8 points is refused on load,
    # before any (2, d, d, n) sample stack is allocated
    data = scalar_cfg()
    data["scan"]["n_points"] = 10**8
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, data))
    assert [p for p, _ in exc.value.errors] == ["scan"]
    assert "n_points must lie in [2, 1e+07]" in exc.value.errors[0][1]


def test_tolerance_must_be_finite(tmp_path):
    # json reads Infinity, and an infinite tolerance passes every trajectory
    for bad in (math.inf, math.nan, -0.1, "0.02", True):
        data = scalar_cfg()
        data["solver"]["tolerance"] = bad
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, data))
        assert [p for p, _ in exc.value.errors] == ["solver.tolerance"]
    data = scalar_cfg()
    data["solver"]["tolerance"] = 0
    assert load_config(write_cfg(tmp_path, data)).tolerance == 0.0


def test_a_parsed_config_keeps_few_tracked_objects(tmp_path):
    # every object a config keeps alive counts toward the collector's
    # thresholds during later runs; compiled expressions hold ~19 each,
    # where closure cells held ~35
    d = 4
    data = {
        "alpha": 0.65, "dim": d, "tau": 2.0, "analysis": "lmi",
        "A": [[f"-{1.6 + 0.3 * i}-0.17*sin({1 + 0.1 * i}*t)^2" if i == j
               else f"0.12*cos(t+{0.5 + i + 0.1 * j})" for j in range(d)]
              for i in range(d)],
        "B": [[f"0.04*(1+sin(t+{0.3 * j + 0.1 * i})^2)/2" for j in range(d)]
              for i in range(d)],
        "q": "0.7+0.5*t/(1+t)",
        "phi": [f"{0.1 + 0.1 * i}+0.2*cos(s)" for i in range(d)],
        "gamma": "0.5", "sigma": "0.28",
        "scan": {"t_max": 100.0, "n_points": 201},
    }
    n_exprs = 2 * d * d + 1 + d + 2
    path = write_cfg(tmp_path, data)
    load_config(path)  # warm the regex and import caches
    gc.collect()
    before = len(gc.get_objects())
    cfg = load_config(path)
    gc.collect()
    kept = len(gc.get_objects()) - before
    assert cfg.system.dim == d
    assert kept <= 28 * n_exprs, kept


def test_scalar_route_samples_each_coefficient_once(tmp_path, eval_counts):
    multi = scalar_cfg(B=[["0.1", "0.1+0.05*sin(t)"]], q=["0.5", "1.5"])
    cfg = load_config(write_cfg(tmp_path, multi))
    report, code = run("certify", cfg, out_dir=str(tmp_path))
    assert code == 0
    assert report["certificate"]["M"] == pytest.approx(1.0, abs=1e-12)
    assert eval_counts and set(eval_counts.values()) == {1}


def test_analysis_specific_validation(tmp_path):
    with pytest.raises(ConfigError):
        load_config(write_cfg(tmp_path, scalar_cfg(analysis="spectral")))
    nolmi = scalar_cfg(analysis="lmi")
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, nolmi))
    assert {"gamma", "sigma"} <= {p for p, _ in exc.value.errors}
    # gamma and sigma on a non-lmi analysis are refused even when they parse
    stray = scalar_cfg(gamma="0.3", sigma="0.2")
    with pytest.raises(ConfigError) as exc:
        load_config(write_cfg(tmp_path, stray))
    assert [p for p, _ in exc.value.errors] == ["gamma", "sigma"]


@pytest.mark.parametrize("extra", [
    {"gamma": "0.3", "sigma": "0.2"}, {"gamma": "0.3"}, {"sigma": "banana("},
])
def test_gamma_and_sigma_need_the_lmi_analysis(tmp_path, config_dir, capsys,
                                               extra):
    # the positive route reads neither, so setting one is a config mistake
    data = json.loads((config_dir / "example1.json").read_text())
    data.update(extra)
    path = write_cfg(tmp_path, data)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    wrong = [(p, m) for p, m in exc.value.errors if m == "needs analysis = lmi"]
    assert wrong == [(key, "needs analysis = lmi") for key in extra]
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    for key in extra:
        assert f"  {key}: needs analysis = lmi" in err


def test_a_bounded_needs_a_scalar_or_positive_analysis(tmp_path, config_dir):
    # the lmi route has no a to bound: the key used to be ignored silently
    data = json.loads((config_dir / "example3.json").read_text())
    for flag in (False, True):
        data["a_bounded"] = flag
        with pytest.raises(ConfigError) as exc:
            load_config(write_cfg(tmp_path, data))
        assert [p for p, _ in exc.value.errors] == ["a_bounded"]
    for analysis in ("positive", "halanay-scalar"):
        cfg = load_config(write_cfg(tmp_path, scalar_cfg(
            analysis=analysis, a_bounded=False)))
        assert cfg.a_bounded is False


# ---------------------------------------------------------------------- run

def test_run_verify_reports_certificate_and_envelope(tmp_path, config_dir):
    cfg = load_config(str(config_dir / "example3.json"))
    report, code = run("verify", cfg, out_dir=str(tmp_path))
    assert code == 0
    assert report["analysis"] == "lmi"
    assert report["verdict"]["feasible"]
    assert report["certificate"]["lambda_star"] >= 0.05
    assert report["envelope_check"]["passed"]
    assert list(report["envelope_check"]) == [
        "max_ratio", "first_violation_t", "tolerance", "passed"]
    assert report["norm"] == "l2"
    assert report["note"] == GRID_NOTE
    json.dumps(report)  # fully serializable
    csv = tmp_path / "example3.csv"
    assert csv.exists()
    header = csv.read_text().splitlines()[0].split(",")
    assert len(header) == 1 + 5  # dim + 5 bookkeeping columns


@pytest.mark.parametrize("name", ["example1.json", "example2.json", "example3.json"])
def test_bundled_certificates_match_recorded_rates(tmp_path, config_dir, name):
    # lambda* recorded by the benchmark at the bundled 2001-point scans
    refs = json.loads((REPO / "perfbench" / "references.json").read_text())[name]
    cfg = load_config(str(config_dir / name))
    assert cfg.scan.n_points == 2001
    report, code = run("certify", cfg, out_dir=str(tmp_path))
    assert code == 0
    cert = report["certificate"]
    assert cert["case_tag"] == refs["case_tag"]
    want = refs["lambda_star"]["2001"]
    assert cert["lambda_star"] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_run_certify_none_verdict_exits_two(tmp_path):
    cfg = load_config(write_cfg(tmp_path, scalar_cfg(B=[["0.4"]])))
    report, code = run("certify", cfg, out_dir=str(tmp_path))
    assert code == 2
    assert report["certificate"] is None
    assert report["verdict"]["case_tag"] == "NONE"


def test_scalar_route_rejects_negative_decay(tmp_path, capsys):
    # a scalar a = -A[0][0] is given directly, so a < 0 is an input error
    # (not certifiable), while the column sums of the positive route read
    # it as a NONE verdict
    path = write_cfg(tmp_path, scalar_cfg(A=[["0.1-0.01*t"]]))
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 2
    assert "a must be nonnegative" in capsys.readouterr().err
    cfg = load_config(write_cfg(tmp_path, scalar_cfg(
        analysis="positive", A=[["0.1-0.01*t"]])))
    report, code = run("certify", cfg, out_dir=str(tmp_path))
    assert code == 2 and report["certificate"] is None


def test_run_simulate_without_certificate_still_writes_csv(tmp_path):
    cfg = load_config(write_cfg(tmp_path, scalar_cfg(B=[["0.4"]])))
    report, code = run("simulate", cfg, out_dir=str(tmp_path))
    assert code == 0
    data = np.loadtxt(str(tmp_path / "run.csv"), delimiter=",", skiprows=1)
    assert np.all(np.isnan(data[:, -1])) and np.all(np.isnan(data[:, -2]))
    report2, code2 = run("verify", cfg, out_dir=str(tmp_path))
    assert code2 == 2
    assert "envelope_check" not in report2


def test_verify_passes_on_a_zero_history(tmp_path, config_dir, capsys):
    # phi = 0 gives M = 0 and a zero envelope, which the zero trajectory
    # meets: the claim 0 <= 0 holds
    data = json.loads((config_dir / "example1.json").read_text())
    data["phi"] = ["0", "0", "0"]
    path = write_cfg(tmp_path, data)
    assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
    assert "max_ratio=0 passed=True" in capsys.readouterr().out
    report = json.loads((tmp_path / "example1_report.json").read_text())
    assert report["certificate"]["M"] == 0.0
    assert report["envelope_check"]["max_ratio"] == 0.0
    assert report["envelope_check"]["passed"] is True
    # the CSV's ratio column agrees with the report: 0/0 is ratio 0
    data = np.loadtxt(tmp_path / "example1.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 2001 and not data[:, -1].any()


def test_run_verify_checks_two_delay_certificates(tmp_path, config_dir):
    # a two-delay certificate holds on the trajectory, as halanay-scalar and
    # as example 1 with B split in halves over its delay and a second one
    scalar = scalar_cfg(B=[["0.1", "0.05+0.05*sin(t)"]], q=["0.5", "1.5"])
    positive = json.loads((config_dir / "example1.json").read_text())
    positive["B"] = [[f"({e})/2" for e in row] * 2 for row in positive["B"]]
    positive["q"] = [positive["q"], "0.5+0.3*sin(t)^2"]
    for data in (scalar, positive):
        cfg = load_config(write_cfg(tmp_path, data))
        assert len(cfg.system.q) == 2
        report, code = run("verify", cfg, out_dir=str(tmp_path))
        assert code == 0, cfg.analysis
        assert report["certificate"]["lambda_star"] > 0.0
        assert report["envelope_check"]["passed"] is True


def test_simulate_takes_a_delay_list(tmp_path, capsys):
    path = write_cfg(tmp_path, scalar_cfg(B=[["0.1", "0.1"]], q=["0.5", "1.5"]))
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == f"note: {GRID_NOTE}\n"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["simulation"]["nodes"] == 501
    # the config's fields land in one DelaySystem
    sys_ = load_config(path).system
    assert isinstance(sys_, DelaySystem)
    assert (sys_.alpha, sys_.dim, sys_.tau) == (0.65, 1, 2.0)
    assert [e.source for e in (*sys_.q, sys_.A[0][0], *sys_.B[0], *sys_.phi)] == [
        "0.5", "1.5", "-0.3", "0.1", "0.1", "1+0.2*s"]


def test_report_gives_the_horizon_solved(tmp_path):
    # t_end 1.0 rounds to two steps of 0.6: the CSV and the report end at 1.2
    cfg = load_config(write_cfg(tmp_path, scalar_cfg(solver={"t_end": 1.0, "h": 0.6})))
    report, code = run("simulate", cfg, out_dir=str(tmp_path))
    assert code == 0
    assert report["simulation"]["t_end"] == 1.2
    assert report["simulation"]["nodes"] == 3
    rows = (tmp_path / "run.csv").read_text().splitlines()
    assert rows[-1].split(",")[0] == "1.2"


def test_simulate_writes_the_csv_and_the_report_alone(tmp_path, config_dir):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(config_dir / "example1.json"),
                 "--out", str(out)])
    assert code == 0
    assert sorted(os.listdir(out)) == ["example1.csv", "example1_report.json"]
    report = json.loads((out / "example1_report.json").read_text())
    assert list(report["simulation"]) == [
        "t_end", "h", "nodes", "clamped_nodes", "csv_path"]


def test_every_route_reports_the_scalar_verdict(tmp_path, config_dir):
    # each route reduces to one scalar problem and reports its verdict; the
    # lmi route adds what its eigen scan found
    cfgs = [load_config(str(config_dir / f"example{k}.json")) for k in (1, 3)]
    cfgs.append(load_config(write_cfg(tmp_path, scalar_cfg())))
    condition = ["case_tag", "sigma", "a0", "p", "c_star", "a_bounded"]
    eigen_scan = ["feasible", "worst_eigen", "worst_t"]
    for cfg in cfgs:
        report, _ = run("certify", cfg, out_dir=str(tmp_path))
        want = condition + (eigen_scan if cfg.analysis == "lmi" else [])
        assert list(report["verdict"]) == want, cfg.analysis


def test_scalar_route_is_the_positive_route_at_dim_one(tmp_path):
    # a time-varying one-delay system gives the same verify report either way
    one = scalar_cfg(alpha=0.6, tau=1.5, A=[["-(2+0.5*sin(t))"]],
                     B=[["0.4+0.3*cos(t)^2"]], q="1+0.5*sin(t)^2",
                     scan={"t_max": 50.0, "n_points": 1001})
    reports = []
    for analysis in ("halanay-scalar", "positive"):
        cfg = load_config(write_cfg(tmp_path, dict(one, analysis=analysis)))
        report, code = run("verify", cfg, out_dir=str(tmp_path))
        assert code == 0
        reports.append([report[k] for k in
                        ("verdict", "certificate", "envelope_check")])
    assert reports[0] == reports[1]
    # with two delays, certify is halanay.certify on -A[0][0], the B row
    # and the q list, bit for bit
    two = scalar_cfg(B=[["0.1", "0.05+0.05*sin(t)"]], q=["0.5", "1.5"])
    cfg = load_config(write_cfg(tmp_path, two))
    report, code = run("certify", cfg, out_dir=str(tmp_path))
    assert code == 0
    sys_, ts = cfg.system, cfg.scan.times()
    verdict, cert = certify(
        sys_.alpha, ts, -sys_.A[0][0].eval_array(ts),
        np.vstack([b.eval_array(ts) for b in sys_.B[0]]),
        np.vstack([q.eval_array(ts) for q in sys_.q]), np.zeros_like(ts),
        initial_amplitude(sys_, "l1"))
    assert (report["verdict"], report["certificate"]) == (asdict(verdict),
                                                           asdict(cert))


def test_run_simulate_requires_solver_section(tmp_path, monkeypatch):
    data = scalar_cfg()
    cfg_full = load_config(write_cfg(tmp_path, data))
    del data["solver"]
    cfg = load_config(write_cfg(tmp_path, data))
    _, code = run("certify", cfg, out_dir=str(tmp_path))
    assert code == 0

    # simulate and verify refuse it, and run an unknown command, before
    # certifying anything or creating the output directory
    calls = []
    monkeypatch.setattr(cli, "certify_positive", lambda *a, **k: calls.append(a))
    out = tmp_path / "new"
    for command in ("simulate", "verify"):
        with pytest.raises(ConfigError) as exc:
            run(command, cfg, out_dir=str(out))
        assert exc.value.errors == [("solver", "required for simulate/verify")]
    with pytest.raises(ValueError, match=r"^unknown command 'bogus'$"):
        run("bogus", cfg_full, out_dir=str(out))
    assert calls == [] and not out.exists()


# --------------------------------------------------------------------- main

def test_main_verify_bundled_config(tmp_path, config_dir, capsys):
    code = main([
        "verify", "--config", str(config_dir / "example3.json"),
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[0].startswith("lmi feasibility: True")
    assert lines[1] == "condition class: BOUNDED_GAP"
    assert "envelope check:" in out.out
    assert GRID_NOTE in out.err
    report = json.loads((tmp_path / "example3_report.json").read_text())
    assert report["envelope_check"]["passed"]
    # floats survive the JSON round trip exactly
    cfg = load_config(str(config_dir / "example3.json"))
    direct, _ = run("certify", cfg, out_dir=str(tmp_path))
    assert report["certificate"]["lambda_star"] == (
        direct["certificate"]["lambda_star"]
    )


def test_main_names_why_there_is_no_certificate(tmp_path, config_dir, capsys):
    # gamma 5 breaks the blocks while the scalar problem stays BOUNDED_GAP,
    # so the line after the condition class must not read like a pass
    data = json.loads((config_dir / "example3.json").read_text())
    data["gamma"] = "5"
    path = write_cfg(tmp_path, data)
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("lmi feasibility: False (worst eigenvalue 4.6 ")
    assert lines[1:3] == [
        "condition class: BOUNDED_GAP",
        "no certificate: the lmi blocks are not negative semidefinite",
    ]
    report = json.loads((tmp_path / "example3_report.json").read_text())
    assert report["certificate"] is None
    assert report["verdict"]["feasible"] is False

    none_cfg = write_cfg(tmp_path, scalar_cfg(B=[["0.4"]]))
    assert main(["certify", "--config", none_cfg, "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "condition class: NONE",
        "no certificate: neither smallness condition holds",
    ]


def test_main_exit_codes(tmp_path, config_dir, capsys):
    bad = write_cfg(tmp_path, scalar_cfg(alpha=7.0))
    assert main(["certify", "--config", bad, "--out", str(tmp_path)]) == 1
    assert "config error" in capsys.readouterr().err

    assert main([
        "certify", "--config", str(tmp_path / "missing.json"),
        "--out", str(tmp_path),
    ]) == 1

    none_cfg = write_cfg(tmp_path, scalar_cfg(B=[["0.4"]]))
    assert main(["certify", "--config", none_cfg, "--out", str(tmp_path)]) == 2

    # negative delay-matrix entry: the positivity route refuses outright
    struct = write_cfg(tmp_path, scalar_cfg(analysis="positive", B=[["-0.1"]]))
    assert main(["certify", "--config", struct, "--out", str(tmp_path)]) == 2
    assert "not certifiable" in capsys.readouterr().err

    # a solution that leaves float range is a solver failure, not a violation
    growing = write_cfg(tmp_path, scalar_cfg(
        analysis="positive", alpha=0.45, A=[["5"]], B=[["0"]],
        solver={"t_end": 50.0, "h": 0.01}))
    assert main(["simulate", "--config", growing, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not finite at t=19." in err


@pytest.mark.parametrize("argv", [
    [], ["certify"], ["certify", "--config"], ["plot"]],
    ids=["no_arguments", "no_config", "no_config_value", "unknown_subcommand"])
def test_usage_errors_exit_one(argv, capsys):
    # 2 means "not certifiable or envelope violated"; bad input is 1
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: halanay-certify") and "error:" in err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["certify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: halanay-certify")


def test_main_reports_constant_expression_errors(tmp_path, capsys):
    lmi = scalar_cfg(analysis="lmi", A=[["-0.2"]], B=[["0.05"]], q="0.5",
                     phi=["1"], gamma="1/0", sigma="0.1")
    path = write_cfg(tmp_path, lmi)
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'1/0'" in err
    assert "Traceback" not in err


def test_main_certifies_a_long_sum_and_rejects_deep_nesting(
        tmp_path, capsys):
    # a 2,000-term coefficient is one loop to evaluate
    long_sum = write_cfg(tmp_path, scalar_cfg(A=[["-0.3" + "+0*t" * 1999]]))
    assert main(["certify", "--config", long_sum, "--out", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    deep = write_cfg(tmp_path, scalar_cfg(A=[["(" * 300 + "-0.3" + ")" * 300]]))
    assert main(["certify", "--config", deep, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "A[0][0]: expression nested too deeply" in err
    assert "Traceback" not in err


def test_run_config_pickles(config_dir):
    cfg = load_config(str(config_dir / "example1.json"))
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg
    ts = np.linspace(0.0, 10.0, 11)
    assert (back.system.A[0][0].eval_array(ts).tobytes()
            == cfg.system.A[0][0].eval_array(ts).tobytes())


def test_main_reports_unwritable_output_paths(tmp_path, capsys):
    # a directory missing under --out is an input error, not a traceback
    for command, output in (
        ("verify", {"csv_path": "nodir/x.csv", "report_path": "r.json"}),
        ("certify", {"csv_path": "x.csv", "report_path": "nodir/r.json"}),
    ):
        path = write_cfg(tmp_path, scalar_cfg(output=output))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nodir" in err, command
        assert "Traceback" not in err


def test_main_writes_strict_json(tmp_path, capsys):
    # an unstable positive system: a(t) < 0, so the ratio margin p is infinite
    unstable = scalar_cfg(analysis="positive", A=[["0.1"]], B=[["0.05"]])
    path = write_cfg(tmp_path, unstable)
    assert main(["certify", "--config", path, "--out", str(tmp_path)]) == 2

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (tmp_path / "report.json").read_text()
    report = json.loads(text, parse_constant=reject)
    assert report["verdict"]["p"] is None
    assert report["verdict"]["a0"] == pytest.approx(-0.1, abs=1e-12)


def test_main_mlf_subcommand(capsys):
    assert main(["mlf", "0.65", "1", "-0.0784"]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(0.9179, abs=5e-4)
    assert main(["mlf", "1.5", "1", "0.0"]) == 1
    assert "error" in capsys.readouterr().err
    # beta above 1 lies outside mlf's domain
    assert main(["mlf", "1e-9", "2", "-2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "beta must lie" in captured.err


def test_mlf_overflow_is_an_error_line_even_with_warnings_as_errors():
    # E_{1/2}(26.9) would overflow; a positive argument is refused outright
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "halanay.cli",
         "mlf", "0.5", "1", "26.9"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "argument must be finite and at most 0" in proc.stderr


def test_mlf_tiny_order_is_an_error_line_even_with_warnings_as_errors():
    # below the alpha floor the angle form overflowed: a traceback at 1e-20
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "halanay.cli",
         "mlf", "1e-20", "1", "-5"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert "alpha must lie" in proc.stderr


def test_console_entry_point_golden_run(tmp_path, config_dir):
    proc = subprocess.run(
        [
            sys.executable, "-m", "halanay.cli", "verify",
            "--config", str(config_dir / "example1.json"),
            "--out", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # the package top level imports no submodule, so -m runs cli only once
    assert "RuntimeWarning" not in proc.stderr
    assert "condition class: RATIO" in proc.stdout
    assert "(RATIO)" in proc.stdout
    assert "report:" in proc.stdout
    assert GRID_NOTE in proc.stderr
    assert sorted(os.listdir(tmp_path)) == ["example1.csv", "example1_report.json"]
    report = json.loads((tmp_path / "example1_report.json").read_text())
    assert report["certificate"]["lambda_star"] >= 0.075
    assert report["certificate"]["w0"] == 0.0
    assert report["envelope_check"]["passed"]
    data = np.loadtxt(str(tmp_path / "example1.csv"), delimiter=",", skiprows=1)
    assert data.shape[1] == 3 + 5
    # simulated l1 norm stays under the certified envelope column
    ratio = data[:, -1]
    assert np.nanmax(ratio) <= 1.02


def run_script(lines):
    """Run lines of Python in a fresh interpreter that imports src/."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )


def test_mlf_import_loads_only_what_it_uses():
    proc = run_script([
        "import sys",
        "import halanay.mlf",
        "print(*(m for m in sys.modules if m.startswith('halanay')))",
    ])
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "halanay.mlf" in loaded
    assert "halanay.cli" not in loaded
    assert "halanay.fdde" not in loaded


def test_solver_import_loads_no_route_and_no_expressions():
    # fdde integrates sampled arrays: it needs no route and no parser
    proc = run_script([
        "import sys",
        "import halanay.fdde",
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'halanay'))",
    ])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["halanay", "halanay.errors", "halanay.fdde"]


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves the tests only
    proc = run_script([
        "import sys",
        "import halanay.cli",
        "assert 'scipy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy'))",
    ])
    assert proc.returncode == 0, proc.stderr


def test_cli_import_defers_argparse():
    # only main parses arguments, so importing the module skips argparse
    proc = run_script([
        "import sys",
        "import halanay.cli",
        "assert 'argparse' not in sys.modules",
    ])
    assert proc.returncode == 0, proc.stderr


def test_runs_without_mpmath(tmp_path, config_dir):
    # mpmath is a test dependency only; with it unimportable, ml past the
    # series band (beta = alpha near 1, and alpha = 1) and certify still run
    proc = run_script([
        "import sys",
        "sys.modules['mpmath'] = None",
        "from halanay import cli",
        "from halanay.mlf import ml",
        "print(ml(-9.0, 0.997, 0.997))",
        "print(ml(-7.0, 1.0))",
        f"cfg = cli.load_config({str(config_dir / 'example1.json')!r})",
        f"report, code = cli.run('certify', cfg, out_dir={str(tmp_path)!r})",
        "print(code)",
        "print(report['certificate']['lambda_star'])",
    ])
    assert proc.returncode == 0, proc.stderr
    ml_a, ml_b, code, lam = proc.stdout.split()
    assert 0.0 < float(ml_a) < 1.0
    assert float(ml_b) == pytest.approx(math.exp(-7.0), rel=1e-13)
    assert code == "0"
    assert float(lam) > 0.0
