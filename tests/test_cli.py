"""CLI surface: every command end-to-end at miniature scale, flag
validation, exit codes, and result files."""
import csv
import json
import os

import numpy as np
import pytest

from fabme.cli import main
from fabme import data as D


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert main(["synth", "--n", "12", "--classes", "2", "--seed", "3",
                 "--size", "32", "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_writes_images_labels_manifest(self, synth_dir):
        images = sorted((synth_dir / "images").iterdir())
        labels = sorted((synth_dir / "labels").iterdir())
        assert len(images) == 12 and len(labels) == 12
        assert (synth_dir / "manifest.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["synth", "--n", "3", "--classes", "4", "--seed", "9", "--out", str(out)])
        for pa, pb in zip(sorted((a / "images").iterdir()), sorted((b / "images").iterdir())):
            assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("flags, message", [
        (["--n", "-3"], "--n -3 must be >= 1"), (["--n", "0"], "--n 0 must be >= 1"),
        (["--size", "0"], "width 0 and height 0 >= 1"),
    ])
    def test_bad_count_or_size_exit_1_and_no_dir(self, flags, message, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", *flags, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTile:
    def test_tile_roundtrip(self, tmp_path, rng):
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "labels").mkdir(parents=True)
        img = (rng.random((700, 1300, 3)) * 255).astype(np.uint8)
        D.write_ppm(src / "images" / "a.ppm", img)
        D.write_labels(src / "labels" / "a.txt",
                       [D.Annotation(1, 0.3, 0.4, 0.05, 0.05), D.Annotation(2, 0.8, 0.6, 0.06, 0.04)])
        out = tmp_path / "tiles"
        assert main(["tile", "--in", str(src), "--out", str(out), "--size", "640"]) == 0
        assert (out / "manifest.csv").exists() and (out / "stats.csv").exists()

    def test_empty_dir_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["tile", "--in", str(empty), "--out", str(tmp_path / "o")]) == 1
        assert "no images found" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_size_below_one_exit_1(self, synth_dir, tmp_path, capsys, size):
        out = tmp_path / "tiles"
        capsys.readouterr()
        assert main(["tile", "--in", str(synth_dir), "--out", str(out), "--size", size]) == 1
        assert f"error: tile size {size} must be >= 1" in capsys.readouterr().err
        assert not list(out.glob("*/images/*"))


class TestParams:
    def test_fabme_not_heavier_than_baseline(self, tmp_path, capsys):
        out = tmp_path / "res"
        assert main(["params", "--variant", "fabme", "baseline",
                     "--scale", "s", "--out", str(out)]) == 0
        with open(out / "params.csv") as f:
            rows = {r["variant"]: int(r["params"]) for r in csv.DictReader(f)}
        assert rows["fabme"] <= rows["baseline"]

    def test_all_ablation_variants(self, tmp_path):
        out = tmp_path / "res"
        assert main(["params", "--variant", "c2f1", "c2f2", "c2f3", "c2f4", "emca-only",
                     "--scale", "nano-test", "--out", str(out)]) == 0


class TestGradcheckCmd:
    @pytest.mark.parametrize("block", ["emca", "ss2d"])
    def test_block_passes(self, tmp_path, capsys, block):
        out = tmp_path / "res"
        assert main(["gradcheck", "--block", block, "--out", str(out)]) == 0
        assert "PASS max_rel_err" in capsys.readouterr().out
        assert (out / f"gradcheck_{block}.csv").exists()


class TestBenchCmd:
    def test_csv_emitted(self, tmp_path):
        out = tmp_path / "res"
        assert main(["bench", "--op", "ss2d", "--sweep", "16,64",
                     "--d-model", "8", "--repeats", "2", "--out", str(out)]) == 0
        with open(out / "bench_ss2d.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["operator", "L", "d_model", "d_state", "mean_ns", "p95_ns"]


class TestTrainEvalCmds:
    def test_train_then_eval(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--variant", "baseline", "--scale", "nano-test",
                     "--data", str(synth_dir), "--out", str(out),
                     "--epochs", "1", "--seed", "0"])
        assert code == 0
        assert (out / "baseline.fabck").exists()
        assert (out / "baseline.fabck.spec").exists()
        assert (out / "history_baseline.csv").read_text().splitlines()[0].endswith(",train_s,eval_s")
        env = json.loads((out / "environment.json").read_text())
        assert env["numpy"] == np.__version__
        assert set(env) == {"numpy", "openblas_core", "exp_float64", "simd", "blas_threads"}
        capsys.readouterr()
        code = main(["eval", "--model", str(out / "baseline.fabck"),
                     "--data", str(synth_dir), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "mAP@0.5 =" in printed and "%" in printed
        assert (out / "eval.csv").exists()

    def test_eval_missing_model_exit_1(self, synth_dir, tmp_path, capsys):
        assert main(["eval", "--model", str(tmp_path / "nope.fabck"),
                     "--data", str(synth_dir), "--out", str(tmp_path / "o")]) == 1

    def test_eval_bad_conf_exit_1(self, tmp_path, capsys):
        # the threshold is checked before the checkpoint or data are read
        assert main(["eval", "--model", str(tmp_path / "nope.fabck"), "--data", str(tmp_path),
                     "--out", str(tmp_path / "o"), "--conf", "2"]) == 1
        assert "TrainConfig.eval_conf 2.0 must be in [0, 1)" in capsys.readouterr().err

    def test_eval_on_ground_truth_is_100_percent(self, synth_dir, tmp_path,
                                                 capsys, monkeypatch):
        # an oracle model whose predictions are the ground truth itself
        out = tmp_path / "run"
        assert main(["train", "--variant", "baseline", "--scale", "nano-test",
                     "--data", str(synth_dir), "--out", str(out),
                     "--epochs", "1", "--seed", "0"]) == 0
        labels = {p.stem: D.read_labels(p) for p in sorted((synth_dir / "labels").iterdir())}
        stems = sorted(labels)
        cursor = {"i": 0}

        def gt_decode(outputs, num_classes, strides=(8, 16, 32), conf_thresh=0.25,
                      iou_thresh=0.45, max_det=300):
            n = outputs[0].data.shape[0]
            batch = []
            for _ in range(n):
                anns = labels[stems[cursor["i"]]]
                cursor["i"] += 1
                batch.append((np.ones(len(anns)), np.array([a.class_id for a in anns]),
                              np.array([a.corners(32, 32) for a in anns]).reshape(-1, 4)))
            return batch

        import fabme.graph
        monkeypatch.setattr(fabme.graph, "decode_columns", gt_decode)
        capsys.readouterr()
        code = main(["eval", "--model", str(out / "baseline.fabck"),
                     "--data", str(synth_dir), "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == 0 and "mAP@0.5 = 100.00%" in printed

    def test_train_zero_classes_exit_1(self, synth_dir, tmp_path, capsys):
        # 0 is a value, not "take the class count from the labels"
        assert main(["train", "--scale", "nano-test", "--data", str(synth_dir),
                     "--out", str(tmp_path / "o"), "--epochs", "1", "--classes", "0"]) == 1
        assert "error: num_classes 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--epochs", "0"], "max_epochs must be strictly positive"),
        (["--epochs", "-3"], "max_epochs must be strictly positive"),
        (["--epochs", "1", "--stop-map", "7"], "stop_map 7.0 must be <= 1"),
        (["--epochs", "1", "--stop-map", "nan"], "stop_map nan must be finite"),
    ])
    def test_train_rejects_bad_overrides_exit_1(self, synth_dir, tmp_path, capsys, flags,
                                                 message):
        # the overrides pass through TrainConfig's checks, and no
        # checkpoint of an untrained model is written
        out = tmp_path / "o"
        assert main(["train", "--scale", "nano-test", "--data", str(synth_dir),
                     "--out", str(out), *flags]) == 1
        assert f"error: TrainConfig.{message}" in capsys.readouterr().err
        assert not list(out.glob("*.fabck"))

    def test_train_missing_data_exit_1(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["train", "--data", str(empty), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("empty_part", ["train", "val"])
    def test_train_on_split_with_an_empty_side_exit_1(self, empty_part, tmp_path, capsys):
        # `fabme tile` leaves train/images empty when no train-side source has an annotated tile
        root = tmp_path / "tiles"
        full = "val" if empty_part == "train" else "train"
        assert main(["synth", "--n", "3", "--classes", "2", "--seed", "3", "--size", "32",
                     "--out", str(root / full)]) == 0
        (root / empty_part / "images").mkdir(parents=True)
        capsys.readouterr()
        assert main(["train", "--scale", "nano-test", "--data", str(root),
                     "--out", str(tmp_path / "o"), "--epochs", "1"]) == 1
        assert f"error: no images found in {root / empty_part}" in capsys.readouterr().err

    def test_train_on_tile_output_as_split(self, tmp_path, monkeypatch):
        from fabme import train as TR
        src = tmp_path / "src"
        (src / "images").mkdir(parents=True)
        (src / "labels").mkdir()
        scenes = TR.gen_synth_dataset(6, 2, seed=4, width=192, height=128,
                                      min_defects=2, max_defects=4)
        for i, scene in enumerate(scenes):
            D.write_ppm(src / "images" / f"src{i}.ppm", scene.image)
            D.write_labels(src / "labels" / f"src{i}.txt", scene.annotations)
        tiles = tmp_path / "tiles"
        assert main(["tile", "--in", str(src), "--out", str(tiles), "--size", "64"]) == 0
        seen = {}
        real_train = TR.train

        def recording_train(model, train_items, val_items, cfg, progress=None):
            seen["train"] = {it[2] for it in train_items}
            seen["val"] = {it[2] for it in val_items}
            return real_train(model, train_items, val_items, cfg, progress)

        monkeypatch.setattr(TR, "train", recording_train)
        assert main(["train", "--variant", "baseline", "--scale", "nano-test",
                     "--data", str(tiles), "--out", str(tmp_path / "run"), "--epochs", "1"]) == 0
        with open(tiles / "manifest.csv") as f:
            source_of = {row["tile_id"]: row["source_id"] for row in csv.DictReader(f)}
        # every tile is used on the side that `fabme tile` put it on
        for part in ("train", "val"):
            assert seen[part] == {p.stem for p in (tiles / part / "images").iterdir()}
        train_sources = {source_of[t] for t in seen["train"]}
        val_sources = {source_of[t] for t in seen["val"]}
        assert train_sources and val_sources and not train_sources & val_sources

    def test_ablation_table(self, synth_dir, tmp_path):
        out = tmp_path / "abl"
        code = main(["train", "--ablation", "--scale", "nano-test",
                     "--data", str(synth_dir), "--out", str(out),
                     "--epochs", "1", "--seed", "0"])
        assert code == 0
        with open(out / "ablation.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["variant", "val_map50", "best_epoch", "epochs_run"]
        assert [r[0] for r in rows[1:]] == ["baseline", "emca-only", "fabme"]


class TestFailedRunLeavesNoOut:
    @pytest.mark.parametrize("command", ["train", "eval", "bench"])
    def test_exit_1_creates_no_out_dir(self, command, tmp_path, capsys):
        # the inputs are checked before --out is created
        flags = {"train": ["--data", str(tmp_path), "--epochs", "0"],
                 "eval": ["--data", str(tmp_path), "--model", str(tmp_path / "nope.fabck")],
                 "bench": ["--sweep", "16", "--repeats", "0"]}[command]
        out = tmp_path / "o"
        assert main([command, *flags, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestFlagValidation:
    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["params", "--variant", "baseline", "--bogus", "1"])

    def test_params_takes_no_seed(self, capsys):
        # a parameter count does not depend on the seed
        with pytest.raises(SystemExit):
            main(["params", "--variant", "baseline", "--seed", "1"])

    def test_unknown_variant_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["params", "--variant", "resnet"])

    @pytest.mark.parametrize("flags", [["--repeats", "0"], ["--sweep", "16,0"], ["--sweep", "-4"],
                                       ["--d-model", "0"], ["--d-state", "0"],
                                       ["--op", "attention", "--d-model", "0"]])
    def test_bench_rejects_counts_below_one(self, flags, tmp_path, capsys):
        assert main(["bench", "--sweep", "16", "--repeats", "1", *flags,
                     "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err
