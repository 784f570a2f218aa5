"""End-to-end command-line tests on a scaled-down synthetic instance."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rss_select
from rss_select.cli import build_parser, main
from rss_select.data import Dataset, save_dataset
from rss_select.stability import load_scores_csv, save_scores_csv

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
    assert sidecar["inertia"] == min(r["wcss"] for r in sidecar["lloyd"])
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
        if method in ("rss", "rand-l1"):  # the health of the K fits
            assert meta["fits_not_converged"] == 0 and meta["solver_iterations"] > 0
        else:
            assert "solver_iterations" not in meta


def test_select_rss_without_parcellation_fails(workspace, tmp_path, capsys):
    code = main([
        "select", "--dataset", str(workspace["data"]), "--method", "rss",
        "--out-dir", str(tmp_path / "fail"),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("method", [["rss", "--alpha", "0.2", "--parcellation", "{parc}"],
                                    ["rand-l1", "--alpha", "0.2"]])
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
    parc = tmp_path / "parc" / "parcellation.csv"
    code = main(["select", "--dataset", str(data), "--K", "20", "--out-dir", str(tmp_path / "sel"),
                 "--method", *(flag.format(parc=parc) for flag in method)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: 20 of 20 resampled fits failed to converge")
    assert "20 of them on drawn rows of one class" in err and "Traceback" not in err
    assert not (tmp_path / "sel" / "scores.csv").exists()


@pytest.mark.parametrize("method", ["l1", "l2"])
def test_select_single_fit_on_labels_of_one_class_fails_with_the_cause(tmp_path, capsys, method):
    """A single L1 or ridge fit on labels of one class has no finite
    intercept; the run fails with an error that names it, instead of
    writing scores of 0 (l1) or of about 1e-22 (l2)."""
    rng = np.random.default_rng(3)
    data = tmp_path / "dataset"
    save_dataset(Dataset(X=rng.normal(size=(10, 30)), y=np.ones(10, dtype=int)), data)
    code = main(["select", "--dataset", str(data), "--method", method,
                 "--out-dir", str(tmp_path / "sel")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "labels hold one class" in err
    assert "Traceback" not in err
    assert not (tmp_path / "sel" / "scores.csv").exists()


def test_select_rand_l1_takes_its_row_fraction_from_alpha(workspace, tmp_path, capsys):
    """--alpha is the row fraction of both count methods: rand-l1 at 0.3
    draws other rows than at the default 0.5, and records the value it
    used. The flag it replaced is gone."""
    outs = []
    for extra in ([], ["--alpha", "0.3"]):
        out = tmp_path / f"alpha{len(extra)}"
        assert main(["select", "--dataset", str(workspace["data"]), "--method", "rand-l1",
                     "--K", "20", "--out-dir", str(out), *extra]) == 0
        outs.append(out)
    assert _sha(outs[0] / "scores.csv") != _sha(outs[1] / "scores.csv")
    metas = [json.loads((out / "scores_meta.json").read_text()) for out in outs]
    assert [meta["alpha"] for meta in metas] == [0.5, 0.3]
    assert all("row_fraction" not in meta for meta in metas)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        main(["select", "--dataset", str(workspace["data"]), "--method", "rand-l1",
              "--row-fraction", "0.3", "--out-dir", str(tmp_path / "gone")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --row-fraction" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, unread", [
    ("select", ["--method", "ttest", "--K", "5", "--beta", "0.3", "--block", "2x2x2"],
     "ttest does not read --K, --beta, --block"),
    ("select", ["--method", "rand-l1", "--beta", "0.3", "--parcellation", "{parcellation}"],
     "rand-l1 does not read --parcellation, --beta"),
    ("select", ["--method", "rss", "--parcellation", "{parcellation}", "--lambda-ridge", "7",
                "--weakness", "0.2"], "rss does not read --weakness, --lambda-ridge"),
    ("perm", ["--method", "rand-l1", "--tau", "0.4", "--block", "2x2x2"],
     "rand-l1 does not read --block"),
])
def test_selector_refuses_a_flag_its_method_does_not_read(workspace, tmp_path, capsys, command,
                                                          flags, unread):
    """A selector flag that the chosen method never reads is an error that
    names it, before anything is written, not a run whose manifest records
    the flag as if it had acted."""
    out = tmp_path / "sel"
    code = main([command, "--dataset", str(workspace["data"]), "--out-dir", str(out),
                 *(f.format(**workspace) for f in flags)])
    assert code == 1
    assert capsys.readouterr().err == f"error: method {unread}\n"
    assert not any(out.iterdir())


def test_select_threads_flag_never_changes_bytes(workspace, tmp_path):
    """The scores and their metadata, fit health included, are the same
    bytes at one and two threads, for rss (one batch) and for rand-l1 with
    K=70 (batches of 64 and 6)."""
    for method in (["rss", "--parcellation", str(workspace["parcellation"]), "--K", "6"],
                   ["rand-l1", "--K", "70"]):
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{method[0]}-t{threads}"
            assert main([
                "select", "--dataset", str(workspace["data"]), "--threads", threads,
                "--out-dir", str(out), "--method", *method,
            ]) == 0
            outs.append(out)
        for name in ("scores.csv", "scores_meta.json"):
            assert _sha(outs[0] / name) == _sha(outs[1] / name)


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


@pytest.mark.parametrize("flags, message", [
    (["--truth", "{truth}", "--tau", "0.3"], "needs --train, --test and --tau"),
    (["--cv-train", "{data}", "--top-t", "3"], "--top-t needs --truth"),
    (["--truth", "{truth}", "--grid", "0.3,0.5"], "--grid needs --cv-train"),
    (["--cv-train", "{data}", "--grid", ""], "could not convert string to float"),
])
def test_eval_refuses_a_flag_it_would_ignore(workspace, tmp_path, capsys, flags, message):
    """A flag of a mode that is not selected, or an empty grid, is an error
    before anything is written, not a run that drops the flag."""
    out = tmp_path / "eval"
    code = main(["eval", "--scores", str(workspace["rss_scores"]), "--out-dir", str(out),
                 *(f.format(**workspace) for f in flags)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert not any(out.iterdir())


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


def test_eval_accuracy_rejects_scores_of_another_dataset(workspace, tmp_path, capsys):
    """Scores of a 200-voxel dataset do not index the 400 voxels of the
    train and test containers: the accuracy path refuses them, as the
    cross-validation path does."""
    other = tmp_path / "other"
    assert main(["synth", "--out-dir", str(other), "--dims", "8x8x4", "--mask", "200",
                 "--clusters", "5,5,5,5,5", "--n-per-group", "10"]) == 0
    assert main(["select", "--dataset", str(other / "dataset"), "--method", "ttest",
                 "--out-dir", str(tmp_path / "sel")]) == 0
    capsys.readouterr()
    out = tmp_path / "acc"
    code = main(["eval", "--scores", str(tmp_path / "sel" / "scores.csv"),
                 "--train", str(workspace["data"]), "--test", str(workspace["data"]),
                 "--tau", "0", "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: scores must align with dataset features\n"
    assert not (out / "accuracy.json").exists()


def test_eval_accuracy_rejects_training_labels_of_one_class(tmp_path, capsys):
    rng = np.random.default_rng(4)
    data = tmp_path / "dataset"
    save_dataset(Dataset(X=rng.normal(size=(10, 30)), y=np.ones(10, dtype=int)), data)
    scores = tmp_path / "scores.csv"
    save_scores_csv(scores, np.linspace(0.0, 1.0, 30))
    out = tmp_path / "acc"
    code = main(["eval", "--scores", str(scores), "--train", str(data), "--test", str(data),
                 "--tau", "0.5", "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "one class" in err and "Traceback" not in err
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


def _assert_one_manifest(out_dir, command):
    """The out-dir holds one manifest, of ``command``, whose every input
    and output exists with the recorded checksum; returns the manifest."""
    assert sorted(p.name for p in out_dir.glob("manifest_*.json")) == [f"manifest_{command}.json"]
    manifest = json.loads((out_dir / f"manifest_{command}.json").read_text())
    assert manifest["command"] == command and manifest["outputs"]
    for path, checksum in {**manifest["inputs"], **manifest["outputs"]}.items():
        assert _sha(Path(path)) == checksum
    return manifest


def test_every_command_writes_one_manifest_of_its_arguments(workspace, tmp_path):
    data, parcellation = str(workspace["data"]), str(workspace["parcellation"])
    runs = {
        "synth": [*SYNTH_FLAGS],
        "cluster": ["--dataset", data, "--q", "40", "--seed", "1", "--restarts", "2"],
        "select": ["--dataset", data, "--method", "rss", "--parcellation", parcellation,
                   "--K", "5"],
        "eval": ["--scores", str(workspace["rss_scores"]), "--truth", str(workspace["truth"])],
        "perm": ["--dataset", data, "--method", "rand-l1", "--K", "4", "--tau", "0.4",
                 "--replicates", "2"],
    }
    for command, flags in runs.items():
        argv = [command, *flags, "--out-dir", str(tmp_path / command)]
        assert main(argv) == 0
        manifest = _assert_one_manifest(tmp_path / command, command)
        parsed = vars(build_parser().parse_args(argv))
        del parsed["func"]
        assert manifest["args"] == parsed
        assert bool(manifest["inputs"]) == (command != "synth")


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


def test_perm_rejects_score_only_methods(workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "perm", "--dataset", str(workspace["data"]), "--method", "ttest",
            "--tau", "0.4", "--out-dir", str(tmp_path / "bad"),
        ])
    assert exc.value.code == 2
    choices = capsys.readouterr().err.splitlines()[-1].split("choose from", 1)[1]
    assert "rss" in choices and "rand-l1" in choices


# The property test over main: tiny instances, and flag values mostly inside
# the ranges the commands accept, with values on the far side of each. One
# argv in ten ends in a flag that no command has, so that argparse exits 2.
_TINY = ["--dims", "6x6x4", "--mask", "80", "--clusters", "2,2,2,2,2", "--n-per-group", "6"]


def _one(*values):
    return st.sampled_from(values)


def _flag(flag, values):
    return values.map(lambda v: [flag, v])


def _maybe(flag, values):
    """No flag, or ``flag`` with a drawn value."""
    return st.one_of(st.just([]), _flag(flag, values))


def _argv(tiny):
    """argv for one of the five commands, without --out-dir."""
    data, parcellation = tiny["data"], tiny["parcellation"]
    fractions = _one("0.2", "0.5", "0.8", "1", "0", "nan")
    seeds = _one("0", "1", "2")
    taus = _one("0", "0.1", "0.5", "1", "-1", "nan")
    count_flags = [
        _maybe("--alpha", fractions), _maybe("--beta", fractions),
        _maybe("--weakness", fractions),
        _maybe("--block", _one("1x1x1", "2x2x2", "3x1x2", "0x1x1", "2x2")),
        _maybe("--threads", _one("1", "2", "3", "0")), _maybe("--seed", seeds),
    ]
    synth = st.tuples(
        st.just(["synth"]),
        _flag("--dims", _one("6x6x4", "5x5x4", "8x4x4", "4x4x4", "6x6")),
        _flag("--mask", _one("80", "60", "40", "0")),
        _flag("--clusters", _one("2,2,2,2,2", "1,2,1,1,1", "3,2,2,2,2", "2,1,2,2,2",
                                 "0,2,2,2,2", "2,2,3,2,2")),
        _flag("--n-per-group", _one("6", "3", "8", "0")),
        _maybe("--noise-sd", _one("1", "0.5", "0", "-1", "nan")), _maybe("--seed", seeds),
    )
    cluster = st.tuples(
        st.just(["cluster", "--dataset", data]),
        _flag("--q", _one("24", "12", "40", "30", "0", "100")),
        _maybe("--restarts", _one("1", "2", "3", "0")),
        _maybe("--max-lloyd-iters", _one("1", "5", "20", "0")),
        _maybe("--spatial-weight", _one("0", "0.5", "2", "-1", "nan")), _maybe("--seed", seeds),
    )
    select = st.tuples(
        st.just(["select", "--dataset", data]),
        _flag("--method", _one("rss", "rand-l1", "l1", "l2", "ttest")),
        _flag("--K", _one("1", "3", "6", "0")), _maybe("--parcellation", st.just(parcellation)),
        _maybe("--lambda-ridge", _one("1", "0.1", "0", "-1")), *count_flags,
    )
    datasets = _one(data, tiny["data2"])
    modes = [
        st.tuples(st.just(["--truth", tiny["truth"]]),
                  _maybe("--top-t", _one("1", "10", "80", "0", "81"))),
        st.tuples(_flag("--train", datasets), _flag("--test", datasets), _flag("--tau", taus)),
        st.tuples(st.just(["--cv-train", data]), _maybe("--folds", _one("2", "3", "5", "0")),
                  _maybe("--grid", _one("0.1,0.2", "0.5", "0,0.3,0.9", "", "a"))),
    ]
    evaluate = st.tuples(
        st.just(["eval", "--scores", tiny["scores"]]),
        *(st.one_of(st.just([]), mode.map(_join)) for mode in modes),
        _one([], [], [], ["--top-t", "5"], ["--test", data], ["--tau", "0.1"], ["--grid", "0.5"]),
        _maybe("--lambda-ridge", _one("1", "0.1", "0", "-1")), _maybe("--seed", seeds),
    )
    perm = st.tuples(
        st.just(["perm", "--dataset", data]),
        _flag("--method", _one("rss", "rand-l1", "ttest")), _flag("--K", _one("1", "2", "4", "0")),
        st.just(["--parcellation", parcellation]),
        _flag("--tau", taus), _flag("--replicates", _one("1", "2", "3", "0")),
        _maybe("--perm-seed", seeds), *count_flags,
    )
    unknown = st.integers(0, 9).map(lambda i: ["--no-such-flag"] if i == 5 else [])
    return st.tuples(st.one_of(synth, cluster, select, evaluate, perm), unknown).map(
        lambda drawn: _join((*drawn[0], drawn[1])))


def _join(parts):
    return [token for part in parts for token in part]


def _call(argv):
    """(exit status, stderr) of main(argv); a usage error is status 2."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.startswith("manifest_")}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """An 80-voxel, 12-row instance with a held-out twin, a parcellation and
    ttest scores."""
    root = tmp_path_factory.mktemp("tiny")
    data = str(root / "data" / "dataset")
    for argv in (["synth", "--out-dir", str(root / "data"), *_TINY],
                 ["synth", "--out-dir", str(root / "data2"), *_TINY, "--seed", "7"],
                 ["cluster", "--dataset", data, "--q", "24", "--out-dir", str(root / "parc")],
                 ["select", "--dataset", data, "--method", "ttest", "--out-dir", str(root / "sel")]):
        assert _call(argv)[0] == 0
    return {"root": root, "data": data, "data2": str(root / "data2" / "dataset"),
            "truth": str(root / "data" / "ground_truth.csv"),
            "parcellation": str(root / "parc" / "parcellation.csv"),
            "scores": str(root / "sel" / "scores.csv")}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_main_writes_a_manifest_or_fails_with_an_error_line(tiny, data):
    """Any argv either succeeds, leaving one manifest whose checksums hold
    and outputs that a rerun reproduces byte for byte; or fails with exit
    status 1, an error line and no manifest; or is a usage error (2). No
    exception escapes main."""
    argv = data.draw(_argv(tiny))
    with tempfile.TemporaryDirectory(dir=tiny["root"]) as scratch:
        first, second = Path(scratch, "first"), Path(scratch, "second")
        code, err = _call([*argv, "--out-dir", str(first)])
        assert "Traceback" not in err
        if code == 0:
            _assert_one_manifest(first, argv[0])
            assert _call([*argv, "--out-dir", str(second)])[0] == 0
            assert _files(first) == _files(second)
        elif code == 1:
            assert err.splitlines()[-1].startswith("error: ")
            assert not list(first.glob("manifest_*.json"))
        else:
            assert code == 2 and "usage: rss" in err


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
