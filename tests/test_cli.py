"""End-to-end command-line tests on a scaled-down synthetic instance."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rss_select
from rss_select.cli import main
from rss_select.data import Dataset, save_dataset
from rss_select.stability import load_scores_csv

SYNTH_FLAGS = ["--dims", "12x12x4", "--mask", "400", "--clusters", "10,10,8,8,8",
               "--n-per-group", "10", "--seed", "0"]


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_synth(out_dir, extra=()):
    assert main(["synth", "--out-dir", str(out_dir), *SYNTH_FLAGS, *extra]) == 0
    return out_dir / "dataset"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthetic instance, clustered and scored, shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    data = _run_synth(root / "synth")
    assert main([
        "cluster", "--dataset", str(data), "--q", "40", "--seed", "1",
        "--restarts", "2", "--out-dir", str(root / "cluster"),
    ]) == 0
    parcellation = root / "cluster" / "parcellation.csv"
    assert main([
        "select", "--dataset", str(data), "--method", "rss",
        "--parcellation", str(parcellation), "--K", "5",
        "--out-dir", str(root / "sel_rss"),
    ]) == 0
    return {
        "root": root,
        "data": data,
        "truth": root / "synth" / "ground_truth.csv",
        "parcellation": parcellation,
        "rss_scores": root / "sel_rss" / "scores.csv",
    }


def test_synth_writes_container_and_repeats_bit_for_bit(tmp_path):
    first = _run_synth(tmp_path / "a")
    second = _run_synth(tmp_path / "b")
    for name in ("manifest.json", "X.bin", "mask.bin"):
        assert _sha(first / name) == _sha(second / name)
    assert _sha(tmp_path / "a" / "ground_truth.csv") == _sha(tmp_path / "b" / "ground_truth.csv")

    manifest = json.loads((tmp_path / "a" / "manifest_synth.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["args"]["dims"] == "12x12x4"
    for path, checksum in manifest["outputs"].items():
        import pathlib

        assert hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest() == checksum


@pytest.mark.parametrize("threshold", ["nan", "100"])
def test_synth_rejects_an_impossible_constraint_threshold(tmp_path, capsys, threshold):
    """A threshold that is not a number, or that too few triples can meet,
    fails at once with the range that works, before anything is drawn."""
    started = time.monotonic()
    code = main(["synth", "--out-dir", str(tmp_path / "out"), *SYNTH_FLAGS,
                 "--constraint-threshold", threshold])
    assert code == 1 and time.monotonic() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and "[-6.442, 6.442]" in err
    assert not (tmp_path / "out" / "dataset").exists()


def test_cluster_rerun_is_deterministic_and_warns_on_odd_q(workspace, tmp_path, capsys):
    again = tmp_path / "cluster2"
    assert main([
        "cluster", "--dataset", str(workspace["data"]), "--q", "40", "--seed", "1",
        "--restarts", "2", "--out-dir", str(again),
    ]) == 0
    assert _sha(again / "parcellation.csv") == _sha(workspace["parcellation"])
    assert _sha(again / "parcellation.json") == _sha(workspace["parcellation"].with_suffix(".json"))
    sidecar = json.loads((again / "parcellation.json").read_text())
    assert sidecar["q"] == 40
    assert sidecar["seed"] == 1
    assert sidecar["spatial_weight"] == 0.0
    assert len(sidecar["lloyd"]) == 2  # one record per restart
    for record in sidecar["lloyd"]:
        assert sorted(record) == ["converged", "iterations", "wcss"]
        assert 1 <= record["iterations"] <= 300
        assert record["converged"] == (record["iterations"] < 300)
    assert min(r["wcss"] for r in sidecar["lloyd"]) == pytest.approx(sidecar["inertia"], rel=1e-9)
    capsys.readouterr()

    # n=20 makes the suggested q range [40, 100]; q=5 is outside it
    assert main([
        "cluster", "--dataset", str(workspace["data"]), "--q", "5",
        "--restarts", "1", "--out-dir", str(tmp_path / "lowq"),
    ]) == 0
    assert "outside the suggested range" in capsys.readouterr().err


def test_select_supports_every_method(workspace, tmp_path):
    flags = {
        "rss": ["--parcellation", str(workspace["parcellation"]), "--K", "5"],
        "rand-l1": ["--K", "8"],
        "l1": [],
        "l2": [],
        "ttest": [],
    }
    for method, extra in flags.items():
        out = tmp_path / method
        assert main([
            "select", "--dataset", str(workspace["data"]), "--method", method,
            "--out-dir", str(out), *extra,
        ]) == 0
        loaded = load_scores_csv(out / "scores.csv")
        assert loaded["score"].size == 400
        assert np.isfinite(loaded["score"]).all()
        if method in ("rss", "rand-l1"):
            assert loaded["count"].max() > 0
        else:
            assert loaded["count"].max() == 0
        meta = json.loads((out / "scores_meta.json").read_text())
        assert meta["method"] == method


def test_select_rss_without_parcellation_fails(workspace, tmp_path, capsys):
    code = main([
        "select", "--dataset", str(workspace["data"]), "--method", "rss",
        "--out-dir", str(tmp_path / "fail"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", [["rss", "--alpha", "0.2"],
                                    ["rand-l1", "--row-fraction", "0.2"]])
def test_select_on_one_class_row_subsamples_fails_with_the_cause(tmp_path, capsys, method):
    """Six rows at a row fraction of 0.2 draw one row per fit, so every fit
    sees one class and has no finite intercept. Such fits are not converged,
    and the run fails with an error that names one-class rows, instead of
    writing scores of 0 for every voxel."""
    data = tmp_path / "synth" / "dataset"
    assert main(["synth", "--out-dir", str(data.parent), "--dims", "8x8x4", "--mask", "200",
                 "--clusters", "5,5,5,5,5", "--n-per-group", "3"]) == 0
    assert main(["cluster", "--dataset", str(data), "--q", "10",
                 "--out-dir", str(tmp_path / "parc")]) == 0
    capsys.readouterr()
    code = main(["select", "--dataset", str(data), "--method", *method, "--K", "20",
                 "--parcellation", str(tmp_path / "parc" / "parcellation.csv"),
                 "--out-dir", str(tmp_path / "sel")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: 20 of 20 resampled fits failed to converge")
    assert "20 of them on drawn rows of one class" in err and "Traceback" not in err
    assert not (tmp_path / "sel" / "scores.csv").exists()


def test_select_l1_on_labels_of_one_class_fails_with_the_cause(tmp_path, capsys):
    """A single L1 fit on labels of one class has no finite intercept; the
    run fails with an error that names it, instead of writing scores of 0."""
    rng = np.random.default_rng(3)
    data = tmp_path / "dataset"
    save_dataset(Dataset(X=rng.normal(size=(10, 30)), y=np.ones(10, dtype=int)), data)
    code = main(["select", "--dataset", str(data), "--method", "l1",
                 "--out-dir", str(tmp_path / "sel")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "labels hold one class" in err
    assert "Traceback" not in err
    assert not (tmp_path / "sel" / "scores.csv").exists()


def test_select_threads_flag_never_changes_bytes(workspace, tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main([
            "select", "--dataset", str(workspace["data"]), "--method", "rss",
            "--parcellation", str(workspace["parcellation"]), "--K", "6",
            "--threads", threads, "--out-dir", str(out),
        ]) == 0
        outs.append(out / "scores.csv")
    assert _sha(outs[0]) == _sha(outs[1])


def test_eval_pr_outputs(workspace, tmp_path):
    out = tmp_path / "pr"
    assert main([
        "eval", "--scores", str(workspace["rss_scores"]),
        "--truth", str(workspace["truth"]), "--top-t", "15",
        "--out-dir", str(out),
    ]) == 0
    lines = (out / "pr_curve.csv").read_text().splitlines()
    assert lines[0] == "threshold,precision,recall"
    assert len(lines) > 1
    summary = json.loads((out / "pr_summary.json").read_text())
    assert set(summary) == {"auc", "T", "top_t_precision", "n_truth"}
    assert summary["T"] == 15
    assert summary["n_truth"] == 44  # 10+10+8+8+8
    assert 0.0 <= summary["auc"] <= 1.0
    assert 0.0 <= summary["top_t_precision"] <= 1.0


def test_eval_accuracy_on_held_out_split(workspace, tmp_path):
    test_data = tmp_path / "heldout"
    assert main(["synth", "--out-dir", str(test_data), "--dims", "12x12x4",
                 "--mask", "400", "--clusters", "10,10,8,8,8",
                 "--n-per-group", "10", "--seed", "7"]) == 0
    scores = load_scores_csv(workspace["rss_scores"])["score"]
    tau = float(np.quantile(scores[scores > 0], 0.5))
    out = tmp_path / "acc"
    assert main([
        "eval", "--scores", str(workspace["rss_scores"]),
        "--train", str(workspace["data"]), "--test", str(test_data / "dataset"),
        "--tau", str(tau), "--out-dir", str(out),
    ]) == 0
    report = json.loads((out / "accuracy.json").read_text())
    assert set(report) == {"tau", "n_features", "lambda_ridge", "accuracy"}
    assert report["n_features"] >= 1
    assert 0.0 <= report["accuracy"] <= 1.0


def test_eval_cv_threshold(workspace, tmp_path):
    out = tmp_path / "cv"
    assert main([
        "eval", "--scores", str(workspace["rss_scores"]),
        "--cv-train", str(workspace["data"]),
        "--grid", "0.1,0.2,0.3", "--folds", "4",
        "--out-dir", str(out),
    ]) == 0
    report = json.loads((out / "cv_threshold.json").read_text())
    assert report["chosen_tau"] in (0.1, 0.2, 0.3)
    assert report["grid"] == [0.1, 0.2, 0.3]
    assert report["n_folds"] == 4


def test_eval_with_no_mode_selected_fails(workspace, tmp_path, capsys):
    code = main([
        "eval", "--scores", str(workspace["rss_scores"]),
        "--out-dir", str(tmp_path / "nothing"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("given", ["--train", "--test"])
def test_eval_accuracy_needs_both_train_and_test(workspace, tmp_path, capsys, given):
    out = tmp_path / "acc"
    code = main([
        "eval", "--scores", str(workspace["rss_scores"]), "--truth", str(workspace["truth"]),
        given, str(workspace["data"]), "--tau", "0.1", "--out-dir", str(out),
    ])
    assert code == 1
    assert "needs --train, --test and --tau" in capsys.readouterr().err
    assert not (out / "accuracy.json").exists()


def test_eval_cv_rejects_fold_count_outside_the_classes(workspace, tmp_path, capsys):
    code = main([
        "eval", "--scores", str(workspace["rss_scores"]), "--cv-train", str(workspace["data"]),
        "--folds", "0", "--out-dir", str(tmp_path / "cv"),
    ])
    assert code == 1
    assert "n_folds must lie in [2, 10] (2 to the smaller class count)" in capsys.readouterr().err


def test_eval_on_a_truncated_scores_file_fails_without_a_traceback(workspace, tmp_path):
    """A scores file cut off in the middle of a row is an error naming the
    file and line, not a crash."""
    text = workspace["rss_scores"].read_text()
    scores = tmp_path / "scores.csv"
    scores.write_text(text[: text.index("\n", len(text) // 2) + 4])
    src = Path(rss_select.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rss_select", "eval", "--scores", str(scores),
                           "--truth", str(workspace["truth"]), "--out-dir", str(tmp_path / "pr")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and f"{scores}, line " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_perm_writes_false_positive_report(workspace, tmp_path):
    out = tmp_path / "perm"
    assert main([
        "perm", "--dataset", str(workspace["data"]), "--method", "rss",
        "--parcellation", str(workspace["parcellation"]), "--K", "5",
        "--tau", "0.4", "--replicates", "2", "--out-dir", str(out),
    ]) == 0
    report = json.loads((out / "permutation_report.json").read_text())
    assert report["tau"] == 0.4
    assert report["B"] == 2
    assert len(report["permuted_counts"]) == 2
    assert report["estimate"] == pytest.approx(np.mean(report["permuted_counts"]))
    assert report["observed_count"] >= 0
    assert report["selector"]["method"] == "rss"


def test_perm_rejects_score_only_methods(workspace, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "perm", "--dataset", str(workspace["data"]), "--method", "ttest",
            "--tau", "0.4", "--out-dir", str(tmp_path / "bad"),
        ])
    assert exc.value.code == 2


def test_version_flag_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _env_with_src():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = Path(rss_select.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "rss_select", "--version"],
                          capture_output=True, text=True, env=_env_with_src())
    assert proc.returncode == 0
    assert "rss" in proc.stdout


def test_cli_start_up_imports_no_scipy():
    """Importing the CLI and building its parser loads no scipy module: only
    ``cluster`` imports scipy.sparse, at its first Lloyd step."""
    code = ("import sys; import rss_select.cli as c; c.build_parser(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_with_src())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point_is_installed():
    proc = subprocess.run(["rss", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "rss" in proc.stdout
