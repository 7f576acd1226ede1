"""Command-line interface tests: output formats, exit codes, determinism."""
import csv
import io
import json
import math
import os

import numpy as np
import pytest

from conftest import DEFAULT_CONFIG
from ssnorm.cli import _load_train_configs, main
from ssnorm.simplex import circumradius
from ssnorm.training import (OptimizerConfig, ToyModelConfig,
                             make_synthetic_dataset,
                             schedule_insensitivity_experiment)

CONFIG = json.loads(DEFAULT_CONFIG.read_text())


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ project

def test_project_sparsemax_known_value(capsys):
    code, out, _ = run(["project", "--fn", "sparsemax", "--z", "0.8,0.6,0.1"],
                       capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == [0.6, 0.4, 0.0]
    assert payload["stage"] == "Sparsemax"
    assert payload["support"] == [0, 1]


def test_project_sparsestmax_face(capsys):
    code, out, _ = run(["project", "--fn", "sparsestmax",
                        "--z", "0.5,0.3,0.2", "--r", "0.6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["p"][0] - 0.81) <= 0.005
    assert abs(payload["p"][1] - 0.19) <= 0.005
    assert payload["p"][2] == 0.0


def test_project_twelve_significant_digits(capsys):
    code, out, _ = run(["project", "--fn", "sparsestmax",
                        "--z", "0.5,0.3,0.2", "--r", "0.3"], capsys)
    payload = json.loads(out)
    for v in payload["p"]:
        assert float(f"{v:.12g}") == v
    code, out, _ = run(["project", "--fn", "softmax", "--z", "0.5,0.3,0.2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["stage"] == "Softmax"
    assert payload["support"] == [0, 1, 2]
    for v in payload["p"]:
        assert float(f"{v:.12g}") == v


def test_project_support_lists_nonzero_entries(capsys):
    # exp(-800) underflows to 0, so softmax's support is not every index.
    code, out, _ = run(["project", "--fn", "softmax", "--z", "800,0"], capsys)
    assert code == 0
    assert json.loads(out) == {"p": [1.0, 0.0], "stage": "Softmax", "support": [0]}


def test_project_negative_radius_names_flag(capsys):
    code, out, err = run(["project", "--fn", "sparsestmax",
                          "--z", "0.5,0.5", "--r", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "--r" in err


@pytest.mark.parametrize("r", ["nan", "inf"])
def test_project_non_finite_radius_names_flag(capsys, r):
    code, out, err = run(["project", "--z", "0.5,0.5", "--r", r], capsys)
    assert code == 2
    assert out == ""
    assert f"--r: must be a finite number >= 0, got {r}" in err


@pytest.mark.parametrize("args", [
    ["project", "--z", "nan,0.5", "--r", "0.3"],
    ["project", "--fn", "softmax", "--z", "0.5,inf"],
    ["trajectory", "--z", "1,-inf,1"]], ids=["project", "softmax", "trajectory"])
def test_non_finite_logits_name_flag(capsys, args):
    code, out, err = run(args, capsys)
    assert code == 2
    assert out == ""
    assert "--z: values must be finite" in err


def test_project_usage_errors(capsys):
    assert run(["project", "--fn", "sparsestmax", "--z", "0.5"], capsys)[0] == 2
    assert run(["project", "--fn", "sparsestmax", "--z", "a,b"], capsys)[0] == 2
    assert run(["project", "--fn", "sparsestmax", "--z", "0.5,0.5"],
               capsys)[0] == 2  # missing --r
    assert run(["project", "--fn", "sparsemax", "--z", "0.5,0.5",
                "--k", "3"], capsys)[0] == 2


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["gradcheck"], ["trajectory", "--z", "1,1,1"], ["train", "--config", "x.json"],
    ["bench", "--dims", "1x1x1x1"], ["verify"]], ids=lambda args: args[0])
def test_negative_seed_exits_2(capsys, args):
    code, out, err = run([*args, "--seed", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "--seed: must be >= 0, got -1" in err


# ---------------------------------------------------------------- gradcheck

def test_gradcheck_k3_passes(capsys):
    code, out, _ = run(["gradcheck", "--trials", "100", "--k", "3",
                        "--seed", "0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["max_rel_error"] < 1e-5


def test_gradcheck_k4_passes(capsys):
    code, out, _ = run(["gradcheck", "--trials", "100", "--k", "4",
                        "--seed", "1"], capsys)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_gradcheck_zero_trials_usage_error(capsys):
    assert run(["gradcheck", "--trials", "0"], capsys)[0] == 2
    code, out, err = run(["gradcheck", "--k", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "--k: must be >= 2, got 1" in err


# --------------------------------------------------------------- trajectory

def test_trajectory_csv_shape_and_convergence(capsys, tmp_path):
    out_path = tmp_path / "traj.csv"
    code, _, _ = run(["trajectory", "--z", "1.0,1.0,1.0", "--steps", "50",
                      "--seed", "0", "--out", str(out_path)], capsys)
    assert code == 0
    with out_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 51
    assert list(rows[0]) == ["step", "r", "p1", "p2", "p3"]
    for t, row in enumerate(rows):
        assert int(row["step"]) == t
        assert float(row["r"]) == min(circumradius(3), t / 50)
    final = [float(rows[-1][f"p{i}"]) for i in (1, 2, 3)]
    assert sorted(final) == [0.0, 0.0, 1.0]


def test_trajectory_single_step_two_rows(capsys):
    code, out, _ = run(["trajectory", "--z", "0.4,0.6", "--steps", "1"],
                       capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + initial + final
    code, out, err = run(["trajectory", "--z", "0.4,0.6", "--steps", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "--steps: must be >= 1, got 0" in err


def test_trajectory_seed_reproducible(capsys):
    _, a, _ = run(["trajectory", "--z", "0.2,0.5,0.3", "--steps", "20",
                   "--seed", "9"], capsys)
    _, b, _ = run(["trajectory", "--z", "0.2,0.5,0.3", "--steps", "20",
                   "--seed", "9"], capsys)
    assert a == b
    _, c, _ = run(["trajectory", "--z", "0.2,0.5,0.3", "--steps", "20",
                   "--seed", "10"], capsys)
    assert a != c


# -------------------------------------------------------------------- train

def _write_config(tmp_path, overrides=None):
    cfg = json.loads(json.dumps(CONFIG))
    if overrides:
        for section, vals in overrides.items():
            cfg[section].update(vals)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_default_config_converges(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    out_csv = tmp_path / "log.csv"
    code, out, _ = run(["train", "--config", str(cfg), "--out", str(out_csv)],
                       capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["all_gates_one_hot"] is True
    assert summary["steps"] == 100
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    # Without --out the CSV goes to stderr; stdout holds the same summary.
    code, out_2, err = run(["train", "--config", str(cfg)], capsys)
    assert code == 0
    assert err == out_csv.read_bytes().decode()
    assert out_2 == out and out.count("\n") == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_1(capsys, tmp_path):
    # At lr = 1e6 activations reach 1e161 by step 15.  There the last
    # layer's input is about 6e134, its grad_x overflows, and the backward
    # of the layer below rejects that as its upstream tensor.
    cfg = _write_config(tmp_path, {"optimizer": {"lr": 1e6}})
    out_csv = tmp_path / "log.csv"
    code, out, err = run(["train", "--config", str(cfg), "--out", str(out_csv)],
                         capsys)
    assert code == 1
    assert out == ""
    assert err == "step 15: upstream tensor must be finite\n"
    assert not out_csv.exists()


def test_train_unconverged_exits_1(capsys, tmp_path):
    # One epoch ends below the circumradius, so no gate freezes.
    cfg = _write_config(tmp_path, {"optimizer": {"epochs": 1}})
    code, out, _ = run(["train", "--config", str(cfg), "--out",
                        str(tmp_path / "log.csv")], capsys)
    assert code == 1
    summary = json.loads(out)
    assert summary["all_gates_one_hot"] is False
    assert "selection" not in summary


def test_train_missing_config_exits_2(capsys, tmp_path):
    code, _, err = run(["train", "--config", str(tmp_path / "nope.json")],
                       capsys)
    assert code == 2
    assert "--config" in err
    path = tmp_path / "config.json"
    for text, message in (('{"model": ', "--config: invalid JSON"),
                          ("[1, 2]", "--config: " + str(path) + " must hold a JSON object")):
        path.write_text(text)
        code, out, err = run(["train", "--config", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert message in err


@pytest.mark.parametrize("args,message", [
    pytest.param(["train", "--config", "{tmp}"], "--config: cannot read {tmp}: ",
                 id="config-directory"),
    pytest.param(["train", "--config", "{tmp}/latin1.json"],
                 "--config: invalid JSON in {tmp}/latin1.json: ", id="config-not-utf8"),
    pytest.param(["train", "--config", "{tmp}/config.json", "--out", "{tmp}"],
                 "--out: cannot write {tmp}: ", id="out-directory"),
    pytest.param(["trajectory", "--z", "1,1,1", "--out", "{tmp}/missing/x.csv"],
                 "--out: cannot write {tmp}/missing/x.csv: ", id="out-missing-directory"),
])
def test_unusable_path_exits_2(capsys, tmp_path, args, message):
    _write_config(tmp_path, {"optimizer": {"epochs": 1}})
    (tmp_path / "latin1.json").write_bytes('{"data": {"noise": 1.0}} é'.encode("latin-1"))
    code, out, err = run([a.format(tmp=tmp_path) for a in args], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(message.format(tmp=tmp_path))
    assert err.count("\n") == 1  # the message alone, no traceback


@pytest.mark.parametrize("out,reason", [
    ("{tmp}", "Is a directory"),
    ("{tmp}/missing/x.csv", "No such file or directory"),
    ("", "No such file or directory"),
])
def test_train_rejects_out_before_the_run(capsys, tmp_path, monkeypatch, out, reason):
    # An --out that no write could succeed on fails before training, which
    # would otherwise run to the end and lose its log.
    def no_run(*args):
        raise AssertionError("train ran")
    monkeypatch.setattr("ssnorm.cli.train", no_run)
    out = out.format(tmp=tmp_path)
    before = sorted(tmp_path.rglob("*"))
    code, stdout, err = run(["train", "--config", str(DEFAULT_CONFIG), "--out", out], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"--out: cannot write {out}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_train_seed_override_changes_bytes_not_convergence(capsys, tmp_path):
    cfg = _write_config(tmp_path)
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a, out_a, _ = run(["train", "--config", str(cfg), "--out",
                            str(a_csv)], capsys)
    code_b, out_b, _ = run(["train", "--config", str(cfg), "--seed", "7",
                            "--out", str(b_csv)], capsys)
    assert code_a == code_b == 0
    assert a_csv.read_text() != b_csv.read_text()
    assert json.loads(out_a)["all_gates_one_hot"] is True
    assert json.loads(out_b)["all_gates_one_hot"] is True


def test_train_config_schedule_matches_default_ramp(capsys, tmp_path):
    default_csv, knot_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["train", "--config", str(_write_config(tmp_path)), "--out",
         str(default_csv)], capsys)
    cfg = _write_config(tmp_path, {"optimizer": {"schedule": [[0, 0], [100, 1]]}})
    code, _, _ = run(["train", "--config", str(cfg), "--out", str(knot_csv)],
                     capsys)
    assert code == 0
    assert knot_csv.read_text() == default_csv.read_text()


@pytest.mark.parametrize("subcommand", ["train", "sweep"])
@pytest.mark.parametrize("section,key,value,named", [
    pytest.param("model", "bogus", 1, "model.bogus", id="unknown-key"),
    pytest.param("model", None, [1], "model", id="section-not-object"),
    pytest.param("data", "n_samples", "abc", "data.n_samples", id="non-numeric"),
    pytest.param("optimizer", "lr", None, "optimizer.lr", id="null-number"),
    pytest.param("optimizer", "lr", 10**400, "optimizer.lr", id="int-beyond-float64"),
    pytest.param("model", "omega", "IN", "model.omega", id="string-for-list"),
    pytest.param("model", "batch_size", 40.0, "model.batch_size",
                 id="float-for-integer"),
    pytest.param("model", "layer_widths", [8, 8, 8, "8"], "model.layer_widths",
                 id="bad-list-item"),
    pytest.param("optimizer", "schedule", {"total_steps": 100},
                 "optimizer.schedule", id="schedule-not-a-knot-list"),
    pytest.param("optimizer", "schedule", [[0, 0.0]], "optimizer.schedule",
                 id="schedule-one-knot"),
    pytest.param("optimizer", "schedule", [[0, 0.5], [10, 0.2]],
                 "optimizer.schedule", id="schedule-decreasing-r"),
    pytest.param("optimizer", "schedule", [[0, 0], [10, "x"]],
                 "optimizer.schedule", id="schedule-non-numeric-r"),
    pytest.param("optimizer", "schedule", [[False, 0], [True, True]],
                 "optimizer.schedule", id="schedule-boolean-knot"),
    pytest.param("extra", None, {}, "extra", id="unknown-section"),
    pytest.param("data", "n_samples", 2, "--config: n_samples must be >= n_classes (4)",
                 id="fewer-samples-than-classes"),
    pytest.param("model", "n_classes", 1, "--config: n_classes must be >= 2, got 1",
                 id="one-class"),
])
def test_bad_config_names_key_and_exits_2(capsys, tmp_path, subcommand,
                                          section, key, value, named):
    cfg = json.loads(json.dumps(CONFIG))
    if key is None:
        cfg[section] = value
    else:
        cfg[section][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run([subcommand, "--config", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert named in err


@pytest.mark.parametrize("model,args,named", [
    pytest.param({"omega": ["IN", "BN", "LN", "GN"], "gn_groups": 0}, [],
                 "gn_groups", id="gn-groups-zero"),
    pytest.param({"omega": ["IN", "BN", "LN", "GN"], "gn_groups": 3}, [],
                 "gn_groups", id="gn-groups-not-dividing"),
    pytest.param({}, ["--seed", "-1"], "--seed", id="negative-seed"),
    pytest.param({"seed": -1}, [], "--config", id="negative-seed-in-file"),
])
def test_train_unusable_model_exits_2(capsys, tmp_path, model, args, named):
    cfg = _write_config(tmp_path, {"model": model})
    code, out, err = run(["train", "--config", str(cfg), *args], capsys)
    assert code == 2
    assert out == ""
    assert named in err


def test_train_zero_epochs_exits_2(capsys, tmp_path):
    cfg = _write_config(tmp_path, {"optimizer": {
        "epochs": 0, "schedule": [[0, 0.0], [10, 1.0]]}})
    code, _, err = run(["train", "--config", str(cfg)], capsys)
    assert code == 2
    assert "epochs" in err


def test_bench_config_is_the_default_config():
    # The toy-train benchmark runs bench/toy_default.json, while the tests
    # and the README use configs/toy_default.json: what is measured must be
    # what is tested.
    bench = DEFAULT_CONFIG.parents[1] / "bench" / "toy_default.json"
    model, opt, (x, labels) = _load_train_configs(str(DEFAULT_CONFIG), None)
    b_model, b_opt, (b_x, b_labels) = _load_train_configs(str(bench), None)
    assert (b_model, b_opt) == (model, opt)
    assert np.array_equal(b_x, x) and np.array_equal(b_labels, labels)


# -------------------------------------------------------------------- sweep

def test_sweep_matches_insensitivity_experiment(capsys, tmp_path):
    code, out, _ = run(["sweep", "--config", str(_write_config(tmp_path)),
                        "--epochs", "3", "--fractions", "0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["total_steps"] == 15
    assert [(r["fraction"], r["ri_step"]) for r in payload["runs"]] == [(0.5, 7)]
    model = ToyModelConfig(**{**CONFIG["model"],
                              "omega": tuple(CONFIG["model"]["omega"])})
    opt = OptimizerConfig(**{**CONFIG["optimizer"], "epochs": 3})
    data = make_synthetic_dataset(0, 200, (3, 8, 8), 4)
    [log] = schedule_insensitivity_experiment(model, opt, data, [7])
    assert payload["runs"][0]["accuracy"] == log.final_accuracy
    assert payload["runs"][0]["final_loss"] == float(f"{log.rows[-1].loss:.12g}")
    assert payload["spread_pp"] == 0.0
    assert payload["loss_spread"] == 0.0


def test_sweep_usage_errors(capsys, tmp_path):
    cfg = str(_write_config(tmp_path))
    code, _, err = run(["sweep", "--config", cfg, "--epochs", "0"], capsys)
    assert code == 2
    assert "--epochs" in err
    assert run(["sweep", "--config", cfg, "--epochs", "2",
                "--fractions", "0.0"], capsys)[0] == 2
    # 5 steps: a fraction landing on step 0 or on the last step is unusable.
    for fraction, step in (("0.1", 0), ("0.9", 4)):
        code, _, err = run(["sweep", "--config", cfg, "--epochs", "1",
                            "--fractions", fraction], capsys)
        assert code == 2
        assert f"--fractions: {fraction}" in err and f"at {step} " in err
        assert "[1, 3]" in err
    assert run(["sweep", "--config", str(tmp_path / "nope.json")],
               capsys)[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--epochs", "2"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


# -------------------------------------------------------------------- bench

def test_bench_small_valid_json(capsys):
    code, out, _ = run(["bench", "--dims", "2x4x8x8", "--reps", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"combined_ms", "sparse_ms", "ratio", "workers"}
    assert payload["combined_ms"] > 0
    assert payload["workers"] == len(os.sched_getaffinity(0))


def test_bench_zero_dims_exits_2(capsys):
    assert run(["bench", "--dims", "0x4x8x8", "--reps", "1"], capsys)[0] == 2
    assert run(["bench", "--dims", "2x4x8", "--reps", "1"], capsys)[0] == 2
    assert run(["bench", "--dims", "2x4x8x8", "--reps", "0"], capsys)[0] == 2
    code, out, err = run(["bench", "--dims", "2x4xAx8", "--reps", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "--dims: could not parse '2x4xAx8'" in err


# ------------------------------------------------------------------- verify

def test_verify_clean_exit_0(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_injected_fault_exit_1(capsys, monkeypatch):
    # A finite-difference check that reports a large error must fail verify.
    import ssnorm.cli as cli
    monkeypatch.setattr(cli, "vjp_gradcheck", lambda *args: 1.0)
    code, out, _ = run(["verify"], capsys)
    assert code == 1
    assert "gradient_finite_difference  FAIL" in out
    code, out, _ = run(["verify", "--json"], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_verify_json_output(capsys):
    code, out, _ = run(["verify", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])
