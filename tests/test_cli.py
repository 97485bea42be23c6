"""Command-line front end: config resolution, exit codes, artifacts, and
reproducibility of the written JSON across worker counts."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from branchcouple.cli import DEFAULT_CONFIG, main
from branchcouple.levy import measure_from_config, suggest_cutoff
from branchcouple.lyapunov import certify, jump_integral, make_h, meeting_time_budget
from branchcouple.model import params_from_config


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def _load(out):
    with open(str(out) + ".json") as fh:
        return json.load(fh)


def test_invalid_model_exits_2_and_names_parameter(tmp_path, capsys):
    code, _ = _run(tmp_path, "simulate", "--set", "model.b1=0")
    assert code == 2
    assert "b1" in capsys.readouterr().err


def test_unknown_measure_family_exits_2(tmp_path, capsys):
    code, _ = _run(
        tmp_path, "simulate", "--set", 'model.n1={"family": "nonsense"}'
    )
    assert code == 2
    assert "nonsense" in capsys.readouterr().err


def test_invalid_certificate_exits_3(tmp_path, capsys):
    # barrier level below the drift root cannot certify the exit bound
    code, _ = _run(
        tmp_path,
        "drift-check",
        "--set",
        'experiment={"function": "w", "M": 0.5}',
    )
    assert code == 3
    assert "barrier" in capsys.readouterr().err


def test_simulate_writes_json_and_trace(tmp_path):
    code, out = _run(
        tmp_path,
        "simulate",
        "--seed",
        "3",
        "--dt",
        "0.002",
        "--set",
        "scheme.horizon=1.0",
        "--set",
        'experiment.init=[2.0, 1.0]',
    )
    assert code == 0
    payload = _load(out)
    assert payload["schema"] == 1
    assert payload["experiment"] == "simulate"
    assert payload["seed"] == 3
    assert payload["config"]["scheme"]["dt"] == 0.002
    assert payload["scheme"]["dt"] == 0.002
    assert "jump_cutoff" in payload["scheme"]
    assert payload["model_conditions"]["uniform_ergodicity_expected"] is True
    assert payload["results"]["init"] == [2.0, 1.0]
    assert payload["results"]["final"]["X"] >= 0.0

    with open(str(out) + "_trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "X", "Xt", "Y", "Yt", "Z", "Zbar", "event"]
    assert len(rows) == 1 + 500 + 1  # header + n_steps + initial point


def test_config_file_then_set_overrides(tmp_path):
    cfg = {
        "scheme": {"dt": 0.002, "horizon": 0.5},
        "experiment": {"init": [3.0, 0.5]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out = _run(
        tmp_path,
        "simulate",
        "--config",
        str(cfg_path),
        "--set",
        "experiment.init=[4.0, 0.5]",
    )
    assert code == 0
    payload = _load(out)
    assert payload["config"]["scheme"]["horizon"] == 0.5
    # --set wins over the config file
    assert payload["results"]["init"] == [4.0, 0.5]


def test_step_explosion_exits_5_without_traceback(tmp_path, capsys):
    code, _ = _run(
        tmp_path,
        "simulate",
        "--set",
        'experiment={"init":[1e5,1.0]}',
        "--set",
        "scheme.dt=1.0",
        "--set",
        "scheme.horizon=0.01",
    )
    err = capsys.readouterr().err
    assert code == 5
    assert "subdivision" in err
    assert "Traceback" not in err


def test_empty_coupling_tail_inits_exit_2(tmp_path, capsys):
    code, _ = _run(
        tmp_path, "coupling-tail", "--set", 'experiment={"inits": []}'
    )
    assert code == 2
    assert "inits" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value", [("dt", '"abc"'), ("jump_cutoff", '"x"'), ("meet_tol", '"abc"')]
)
def test_non_numeric_scheme_value_exits_2(tmp_path, capsys, key, value):
    code, _ = _run(tmp_path, "simulate", "--set", "scheme.%s=%s" % (key, value))
    err = capsys.readouterr().err
    assert code == 2
    assert key in err
    assert "Traceback" not in err


def test_infinite_horizon_exits_2(tmp_path, capsys):
    # json.loads parses Infinity as a float
    code, _ = _run(tmp_path, "simulate", "--set", "scheme.horizon=Infinity")
    err = capsys.readouterr().err
    assert code == 2
    assert "horizon" in err
    assert "Traceback" not in err


def test_jump_cutoff_overrides_only_the_cutoff(tmp_path):
    # a finite-activity second component: the automatic scheme picks the
    # compensator mode and a scale-dependent meeting tolerance
    argv = [
        "simulate",
        "--set",
        'model.n2={"family": "cpp", "lambda": 2.0, "size": 0.5}',
        "--set",
        "scheme.horizon=0.2",
        "--set",
        "experiment.init=[3.0, 1.0]",
    ]
    code, out = _run(tmp_path, *argv)
    assert code == 0
    plain = _load(out)["scheme"]
    code, out = _run(tmp_path, *argv, "--set", "scheme.jump_cutoff=0.25")
    assert code == 0
    cut = _load(out)["scheme"]
    assert cut["jump_cutoff"] == 0.25
    for key in ("meet_tol", "small_jump_mode", "dt", "horizon", "state_cap"):
        assert cut[key] == plain[key]


def test_bad_set_syntax_exits_2(tmp_path, capsys):
    code, _ = _run(tmp_path, "simulate", "--set", "noequalsign")
    assert code == 2
    assert "dotted.key" in capsys.readouterr().err


def test_drift_check_writes_certificate(tmp_path):
    code, out = _run(
        tmp_path,
        "drift-check",
        "--set",
        'experiment={"function": "f", "M": 1.0, "n_grid": 80}',
    )
    assert code == 0
    payload = _load(out)
    res = payload["results"]
    assert res["valid"] is True
    assert res["certified_C"] > 0.0
    assert res["function"] == "f"
    assert res["t0"] > 0.0
    with open(str(out) + "_drift.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["z", "LV"]
    assert len(rows) == 81


@pytest.mark.parametrize("horizon,vacuous", [(20.0, True), (1e9, False)])
def test_drift_check_flags_vacuous_budget(tmp_path, horizon, vacuous):
    # the h budget at the default model is about 2.8e4
    code, out = _run(
        tmp_path,
        "drift-check",
        "--set",
        'experiment={"function": "h", "n_grid": 40}',
        "--set",
        "scheme.horizon=%r" % horizon,
    )
    assert code == 0
    res = _load(out)["results"]
    assert res["valid"] is True
    assert res["t0_vacuous"] is vacuous
    # the smallest per-node ratio of -LV to the error estimate of its jump term
    z, lv = np.loadtxt(str(out) + "_drift.csv", delimiter=",", skiprows=1).T
    p = params_from_config(DEFAULT_CONFIG["model"])
    _, err = jump_integral(p.n1, make_h(p), z)
    assert res["C_over_err"] == pytest.approx(np.min(-lv / (z * err)))


@pytest.mark.parametrize("function,target", [("f", "Zbar"), ("h", "Xdiff")])
def test_drift_check_certify_and_budget_agree_exactly(tmp_path, function, target):
    code, out = _run(
        tmp_path,
        "drift-check",
        "--set",
        'experiment={"function": "%s", "M": 1.0}' % function,
    )
    assert code == 0
    res = _load(out)["results"]
    p = params_from_config(DEFAULT_CONFIG["model"])
    cert = certify(p, function, M=1.0)
    budget = meeting_time_budget(p, 1.0, target)
    assert res["certified_C"] == cert.certified_C == budget.certified_C
    assert res["t0"] == cert.t0 == budget.t0


def test_drift_check_overflowing_junction_exits_1_without_traceback(tmp_path, capsys):
    # at alpha2 = 1.001 the junction l1 = 2 (2q/b)^1000 of f exceeds double range
    code, _ = _run(
        tmp_path,
        "drift-check",
        "--set",
        "model.alpha2=1.001",
        "--set",
        'experiment={"function": "f", "M": 5.0}',
    )
    assert code == 1
    assert "junction l1" in capsys.readouterr().err


@pytest.mark.parametrize("alpha2,reason", [(0.9, "alpha2 > 1"), (1.001, "junction l1")])
def test_localize_marks_uncomputable_budget_unavailable(tmp_path, alpha2, reason):
    code, out = _run(
        tmp_path,
        "localize",
        "--paths",
        "50",
        "--set",
        "scheme.horizon=1",
        "--set",
        "scheme.dt=0.01",
        "--set",
        "model.alpha2=%r" % alpha2,
    )
    assert code == 0
    budgets = _load(out)["results"]["budgets"]
    assert reason in budgets["Zbar"]["unavailable"]
    assert budgets["Xdiff"]["certified_C"] > 0.0


def test_hitting_writes_tail_and_fit(tmp_path):
    code, out = _run(
        tmp_path,
        "hitting",
        "--paths",
        "400",
        "--dt",
        "0.002",
        "--set",
        "scheme.horizon=4.0",
        "--set",
        'experiment={"level": 1.0, "direction": "down", "start": 10.0}',
    )
    assert code == 0
    payload = _load(out)
    tail = payload["results"]["tail"]
    assert tail["n"] == 400
    assert tail["p_hat"][0] == 1.0
    assert "rate_fit" in payload["results"] or "rate_fit_unavailable" in payload["results"]
    with open(str(out) + "_tail.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "p_hat", "wilson_lo", "wilson_hi"]


def test_cir_check_agrees_with_closed_form(tmp_path):
    code, out = _run(
        tmp_path,
        "cir-check",
        "--paths",
        "2000",
        "--dt",
        "0.005",
        "--set",
        'experiment={"b": 1.0, "gamma": 1.0, "sigma": 1.0, "z1": 5.0}',
    )
    assert code == 0
    payload = _load(out)
    res = payload["results"]
    assert res["exact_mean"] == pytest.approx(1.6094379124341003, rel=1e-9)
    assert res["within_3se"] is True


def test_comparison_audit_subcommand(tmp_path):
    code, out = _run(
        tmp_path,
        "comparison-audit",
        "--paths",
        "200",
        "--dt",
        "0.002",
        "--set",
        "scheme.horizon=2.0",
        "--set",
        'experiment={"M": 5.0, "init": [2.5, 2.5, 1.2, 0.2]}',
    )
    assert code == 0
    payload = _load(out)
    res = payload["results"]
    for name in ("pair_order", "difference_below_Z", "Z_below_Zbar"):
        assert res[name]["frac_over_tol"] <= 0.05
    assert res["M"] == 5.0
    # the default cutoff resolves jumps at 4x the Zbar equilibrium
    m = payload["config"]["model"]
    zbar_eq = ((2.0 * m["k"] * 5.0 + m["a2"]) / m["b2"]) ** (1.0 / (m["alpha2"] - 1.0))
    want = suggest_cutoff(measure_from_config(m["n2"]), 0.002, 4.0 * zbar_eq)
    assert payload["scheme"]["jump_cutoff"] >= want


def test_couple_subcommand_with_aux(tmp_path):
    code, out = _run(
        tmp_path,
        "couple",
        "--dt",
        "0.002",
        "--set",
        "scheme.horizon=1.0",
        "--set",
        'experiment={"init": [2.0, 2.0, 1.5, 0.2], "with_aux": true, "M": 5.0}',
    )
    assert code == 0
    payload = _load(out)
    assert payload["results"]["with_aux"] is True
    with open(str(out) + "_trace.csv") as fh:
        header = fh.readline().strip().split(",")
        first = fh.readline().strip().split(",")
    assert header == ["t", "X", "Xt", "Y", "Yt", "Z", "Zbar", "event"]
    # aux columns populated on a with_aux run
    assert first[5] != "" and first[6] != ""


def test_worker_count_invariance_subprocess(tmp_path):
    base = [
        sys.executable,
        "-m",
        "branchcouple.cli",
        "coupling-tail",
        "--seed",
        "77",
        "--paths",
        "600",
        "--dt",
        "0.002",
        "--set",
        "scheme.horizon=4.0",
        "--set",
        'experiment={"inits": [[4.0, 1.0, 2.0, 0.3]]}',
    ]
    outs = []
    for tag, workers in (("w1", "1"), ("w2", "2")):
        out = tmp_path / tag
        res = subprocess.run(
            base + ["--workers", workers, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out)
    a = _load(outs[0])
    b = _load(outs[1])
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b
    csv_a = (tmp_path / "w1_tail.csv").read_bytes()
    csv_b = (tmp_path / "w2_tail.csv").read_bytes()
    assert csv_a == csv_b


@pytest.mark.parametrize(
    "command, experiment, key",
    [
        ("drift-check", '{"function":"f","M":"abc"}', "M"),
        ("drift-check", '{"function":"f","n_grid":"abc"}', "n_grid"),
        ("drift-check", '{"function":"g","region":["a","b"]}', "region"),
        ("hitting", '{"level":"abc"}', "level"),
        ("cir-check", '{"z1":"abc"}', "z1"),
        ("comparison-audit", '{"M":"abc"}', "M"),
        ("localize", '{"start_scale":"abc"}', "start_scale"),
    ],
    ids=["drift-check-M", "drift-check-n_grid", "drift-check-region", "hitting-level",
         "cir-check-z1", "comparison-audit-M", "localize-start_scale"],
)
def test_non_numeric_experiment_value_exits_2(tmp_path, capsys, command, experiment, key):
    code, _ = _run(tmp_path, command, "--set", "experiment=" + experiment)
    assert code == 2
    assert "experiment key %s must be numeric" % key in capsys.readouterr().err
