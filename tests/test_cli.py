"""End-to-end command behavior: exit codes, manifests, reproducibility."""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from bioaffect import params, session_io
from bioaffect.cli import dispatch
from test_files import cut_after

TRIALS_SPEC = {
    "kind": "trials",
    "n_subjects": 2,
    "trials_per_subject": 2,
    "trial_seconds": 10.0,
    "rng_seed": 5,
    "fps": 0.4,
}

TRAIN_CONFIG = {
    "variant": "bmmn",
    "epochs": 1,
    "batch_size": 8,
    "lr": 1e-3,
    "seed": 5,
}

PRETRAIN_CONFIG = {"epochs": 1, "lr": 1e-3, "batch_size": 8, "seed": 5}


def _tree_digest(root: Path, skip=("manifest.json",)) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(TRIALS_SPEC))
    corpus_dir = root / "corpus"
    assert dispatch(["synth", "--spec", str(spec_path), "--out", str(corpus_dir)]) == 0
    return root, corpus_dir


@pytest.fixture(scope="module")
def processed(corpus):
    root, corpus_dir = corpus
    samples = root / "samples.bin"
    assert dispatch(["preprocess", "--in", str(corpus_dir), "--out", str(samples)]) == 0
    return root, samples


class TestSynth:
    def test_writes_sessions_labels_and_manifest(self, corpus):
        _, corpus_dir = corpus
        assert (corpus_dir / "labels.jsonl").exists()
        assert (corpus_dir / "manifest.json").exists()
        sessions = [p for p in corpus_dir.iterdir() if p.is_dir()]
        assert len(sessions) == 4
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["seed"] == 5
        assert "wall_time_s" in manifest

    def test_therapy_kind(self, tmp_path):
        spec_path = tmp_path / "therapy.json"
        spec_path.write_text(
            json.dumps({"kind": "therapy", "minutes": 2.0, "fps": 0.2, "rng_seed": 1})
        )
        out = tmp_path / "therapy"
        assert dispatch(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert (out / "patient00_therapy").is_dir()

    def test_config_hash_covers_the_seed(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({**TRIALS_SPEC, "n_subjects": 1, "trials_per_subject": 1,
                                         "trial_seconds": 5.0}))

        def config_hash(name, seed):
            out = tmp_path / name
            assert dispatch(["synth", "--spec", str(spec_path), "--out", str(out),
                             "--seed", seed]) == 0
            return json.loads((out / "manifest.json").read_text())["config_sha256"]

        first = config_hash("s1", "1")
        assert first == config_hash("s1_again", "1")
        assert first != config_hash("s2", "2")

    def test_unknown_kind_is_validation_error(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps({"kind": "wat"}))
        assert dispatch(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 1


class TestPreprocess:
    def test_sample_count_matches_frames(self, processed):
        _, samples = processed
        sidecar = json.loads(Path(str(samples) + ".json").read_text())
        assert sidecar["n_samples"] == 16  # 4 sessions x 4 frames
        assert sidecar["segment_len"] == 1000

    def test_does_not_mutate_inputs(self, corpus, tmp_path):
        root, corpus_dir = corpus
        before = _tree_digest(corpus_dir)
        assert dispatch(
            ["preprocess", "--in", str(corpus_dir), "--out", str(tmp_path / "s.bin")]
        ) == 0
        assert _tree_digest(corpus_dir) == before

    def test_reproducible_outputs(self, corpus, tmp_path):
        _, corpus_dir = corpus
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert dispatch(["preprocess", "--in", str(corpus_dir), "--out", str(a)]) == 0
        assert dispatch(["preprocess", "--in", str(corpus_dir), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTrainEval:
    def test_smoke_pipeline(self, processed, tmp_path):
        root, samples = processed
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(TRAIN_CONFIG))
        model_dir = tmp_path / "model"
        assert dispatch(
            ["train", "--variant", "bmmn", "--data", str(samples),
             "--config", str(cfg), "--out", str(model_dir)]
        ) == 0
        assert (model_dir / "params.ckpt").exists()
        assert (model_dir / "metrics.csv").exists()
        assert (model_dir / "manifest.json").exists()
        report = tmp_path / "report"
        assert dispatch(
            ["eval", "--model", str(model_dir), "--data", str(samples),
             "--out", str(report)]
        ) == 0
        payload = json.loads(Path(str(report) + ".json").read_text())
        assert payload["n"] == 4
        assert set(payload["per_label"]) == {
            "valence", "arousal", "liking", "neutral", "disgust", "joy",
            "surprise", "anger", "fear", "sadness",
        }
        assert Path(str(report) + ".csv").exists()

    def test_truncated_samples_file_exits_1(self, processed, tmp_path, capsys):
        from bioaffect.bmmn import BmmnModel, FusionVariant, ModelSpec, save_model

        _, samples = processed
        model_dir = tmp_path / "model"
        save_model(BmmnModel(ModelSpec(variant=FusionVariant.BMMN), seed=0), model_dir)
        blob = samples.read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(blob[: len(blob) // 2])
        code = dispatch(
            ["eval", "--model", str(model_dir), "--data", str(cut),
             "--out", str(tmp_path / "report")]
        )
        assert code == 1
        assert "truncated" in capsys.readouterr().err

    def test_variant_without_bae_exits_1(self, processed, tmp_path):
        _, samples = processed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, "variant": "bae1"}))
        code = dispatch(
            ["train", "--variant", "bae1", "--data", str(samples),
             "--config", str(cfg), "--out", str(tmp_path / "m")]
        )
        assert code == 1

    def test_metrics_reproducible(self, processed, tmp_path):
        _, samples = processed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TRAIN_CONFIG))
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert dispatch(
                ["train", "--data", str(samples), "--config", str(cfg),
                 "--out", str(out)]
            ) == 0
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
        assert (outs[0] / "params.ckpt").read_bytes() == (outs[1] / "params.ckpt").read_bytes()


class TestTrainManifest:
    def test_config_hash_covers_the_variant(self, processed, tmp_path):
        _, samples = processed
        pcfg = tmp_path / "pretrain.json"
        pcfg.write_text(json.dumps({**PRETRAIN_CONFIG, "epochs": 0}))
        bae_dir = tmp_path / "bae"
        assert dispatch(["pretrain-bae", "--data", str(samples), "--config", str(pcfg),
                         "--out", str(bae_dir)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, "epochs": 0}))

        def config_hash(variant, name):
            out = tmp_path / name
            assert dispatch(["train", "--variant", variant, "--data", str(samples),
                             "--config", str(cfg), "--bae", str(bae_dir),
                             "--out", str(out)]) == 0
            return json.loads((out / "manifest.json").read_text())["config_sha256"]

        bae1 = config_hash("bae1", "m1")
        assert bae1 == config_hash("bae1", "m1_again")
        assert bae1 != config_hash("bae2", "m2")


class TestPretrainManifest:
    def test_config_hash_covers_the_seed(self, processed, tmp_path):
        _, samples = processed
        pcfg = tmp_path / "pretrain.json"
        pcfg.write_text(json.dumps({**PRETRAIN_CONFIG, "epochs": 0}))

        def config_hash(name, *flags):
            out = tmp_path / name
            assert dispatch(["pretrain-bae", "--data", str(samples), "--out", str(out),
                             *flags]) == 0
            return json.loads((out / "manifest.json").read_text())["config_sha256"]

        def settings_hash(**fields):
            text = json.dumps({**PRETRAIN_CONFIG, "epochs": 0, **fields}, sort_keys=True)
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        assert config_hash("s1", "--config", str(pcfg), "--seed", "1") == settings_hash(seed=1)
        assert config_hash("s2", "--config", str(pcfg), "--seed", "2") == settings_hash(seed=2)
        assert config_hash("file", "--config", str(pcfg)) == settings_hash()


class TestPretrainAndJointTrain:
    def test_pretrain_then_bae2(self, processed, tmp_path):
        _, samples = processed
        pcfg = tmp_path / "pretrain.json"
        pcfg.write_text(json.dumps(PRETRAIN_CONFIG))
        bae_dir = tmp_path / "bae"
        assert dispatch(
            ["pretrain-bae", "--data", str(samples), "--config", str(pcfg),
             "--out", str(bae_dir), "--dump-latents", "2"]
        ) == 0
        assert (bae_dir / "bae.ckpt").exists()
        curve = (bae_dir / "bae_losses.csv").read_text().splitlines()
        assert curve[0] == "channel,epoch,loss"
        assert len(curve) == 1 + 2 * (PRETRAIN_CONFIG["epochs"] + 1)
        latents = (bae_dir / "latents.csv").read_text().splitlines()
        assert latents[0].startswith("frame_index,channel,z0") and latents[0].endswith("z127")
        assert len(latents) == 1 + 2 * 2  # two samples, two channels
        recon = (bae_dir / "reconstructions.csv").read_text().splitlines()
        assert recon[0] == "frame_index,channel,position,original,reconstructed"
        assert len(recon) == 1 + 2 * 2 * 1000
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, "variant": "bae2"}))
        model_dir = tmp_path / "bae2_model"
        assert dispatch(
            ["train", "--variant", "bae2", "--data", str(samples),
             "--config", str(cfg), "--out", str(model_dir), "--bae", str(bae_dir)]
        ) == 0
        meta = json.loads((model_dir / "model.json").read_text())
        assert meta["variant"] == "bae2"


class TestAssess:
    def test_assess_short_session(self, processed, tmp_path):
        root, samples = processed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TRAIN_CONFIG))
        model_dir = tmp_path / "model"
        assert dispatch(
            ["train", "--data", str(samples), "--config", str(cfg),
             "--out", str(model_dir)]
        ) == 0
        spec_path = tmp_path / "therapy.json"
        spec_path.write_text(
            json.dumps({"kind": "therapy", "minutes": 3.0, "fps": 0.2, "rng_seed": 2})
        )
        therapy_dir = tmp_path / "therapy"
        assert dispatch(["synth", "--spec", str(spec_path), "--out", str(therapy_dir)]) == 0
        out = tmp_path / "assessment"
        with pytest.warns(UserWarning):
            code = dispatch(
                ["assess", "--model", str(model_dir),
                 "--session", str(therapy_dir / "patient00_therapy"),
                 "--out", str(out)]
            )
        assert code == 0
        payload = json.loads(Path(str(out) + ".json").read_text())
        assert payload["clipped_windows"] is True
        assert {"pre", "post", "movement", "magnitude"} <= set(payload)
        rows = Path(str(out) + ".csv").read_text().splitlines()
        assert rows[0] == "patient,phase,valence_scaled,arousal_scaled,quadrant"
        assert len(rows) == 3


class TestAblate:
    def test_three_arm_summary(self, processed, tmp_path):
        _, samples = processed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TRAIN_CONFIG))
        out = tmp_path / "ablation"
        assert dispatch(
            ["ablate", "--data", str(samples), "--config", str(cfg),
             "--out", str(out)]
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"bio_only", "face_only", "multimodal"}
        for arm in summary:
            assert (out / arm / "report.csv").exists()
            assert (out / arm / "params.ckpt").exists()


class TestUnfinishedRuns:
    """A command that fails mid-write keeps each target's previous bytes
    (or leaves no file), no temporary file and no new manifest."""

    def test_samples_cut_mid_write(self, corpus, tmp_path, monkeypatch):
        _, corpus_dir = corpus
        out = tmp_path / "samples.bin"
        out.write_bytes(b"previous samples")
        monkeypatch.setattr(session_io, "write_file", cut_after(3))
        assert dispatch(["preprocess", "--in", str(corpus_dir), "--out", str(out)]) == 2
        assert out.read_bytes() == b"previous samples"
        assert os.listdir(tmp_path) == ["samples.bin"]

    def test_checkpoint_cut_mid_write(self, processed, tmp_path, monkeypatch):
        _, samples = processed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**TRAIN_CONFIG, "epochs": 0}))
        model_dir = tmp_path / "model"
        model_dir.mkdir()
        (model_dir / "params.ckpt").write_bytes(b"previous checkpoint")
        monkeypatch.setattr(params, "write_file", cut_after(2))
        assert dispatch(
            ["train", "--data", str(samples), "--config", str(cfg), "--out", str(model_dir)]
        ) == 2
        assert (model_dir / "params.ckpt").read_bytes() == b"previous checkpoint"
        assert sorted(os.listdir(model_dir)) == ["params.ckpt"]

    def test_failed_rename_exits_nonzero(self, corpus, tmp_path, monkeypatch, capsys):
        _, corpus_dir = corpus

        def refuse(src, dst):
            raise PermissionError(f"cannot rename onto {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "samples.bin"
        assert dispatch(["preprocess", "--in", str(corpus_dir), "--out", str(out)]) == 2
        assert "cannot rename" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestMalformedInputs:
    """A malformed config, spec or model description exits 1 and names the file."""

    def _train_args(self, command, samples, cfg, tmp_path):
        return [command, "--data", str(samples), "--config", str(cfg), "--out", str(tmp_path / "o")]

    @pytest.mark.parametrize("command", ["train", "pretrain-bae"])
    def test_invalid_config_json(self, processed, tmp_path, capsys, command):
        _, samples = processed
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": 1,\n "lr": }\n')
        assert dispatch(self._train_args(command, samples, cfg, tmp_path)) == 1
        assert f"{cfg}:2:8: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("train", {**TRAIN_CONFIG, "epoch": 3}),
        ("pretrain-bae", {**PRETRAIN_CONFIG, "epoch": 3}),
        ("train", {**TRAIN_CONFIG, "variant": "bmmn3"}),
        ("train", {**TRAIN_CONFIG, "epochs": "ten"}),
        ("pretrain-bae", {**PRETRAIN_CONFIG, "batch_size": 0}),
        ("pretrain-bae", {**PRETRAIN_CONFIG, "epochs": -1}),
        ("pretrain-bae", {**PRETRAIN_CONFIG, "lr": -1.0}),
        ("pretrain-bae", {**PRETRAIN_CONFIG, "lr": 0.0}),
    ])
    def test_bad_config_field(self, processed, tmp_path, capsys, command, config):
        _, samples = processed
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert dispatch(self._train_args(command, samples, cfg, tmp_path)) == 1
        assert f"{cfg}: " in capsys.readouterr().err

    def test_invalid_synth_spec_json(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"kind": "trials", "n_subjects": 2')
        assert dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "c")]) == 1
        assert f"{spec}:1:" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("spec_obj", [
        {"kind": "therapy", "minutes": 2.0, "fps": 0},
        {"kind": "therapy", "minutes": -1.0},
        {"kind": "therapy", "minutes": 2.0, "signal_hz": 256.0},
        {"kind": "therapy", "minutes": 2.0, "start_valence": 12.0},
        {"kind": "therapy", "minutes": 2.0, "face_size": 0},
        {**TRIALS_SPEC, "fps": 0},
        {**TRIALS_SPEC, "trial_seconds": 0},
        {**TRIALS_SPEC, "planted_map": {"ecg_rate": "joy"}},
        {**TRIALS_SPEC, "planted_map": {"ecg_rat": "arousal"}},
        {**TRIALS_SPEC, "planted_map": {"face_orientation": "valence"}},
        {**TRIALS_SPEC, "planted_map": ["ecg_rate"]},
    ])
    def test_out_of_range_synth_spec(self, tmp_path, capsys, spec_obj):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(spec_obj))
        assert dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "c")]) == 1
        assert f"{spec}: " in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("minutes", ["0", "-2", "nan"])
    def test_bad_window_minutes(self, tmp_path, capsys, minutes):
        from bioaffect.bmmn import BmmnModel, save_model

        model_dir = tmp_path / "model"
        save_model(BmmnModel.build_toy("bmmn"), model_dir)
        spec = tmp_path / "therapy.json"
        spec.write_text(json.dumps({"kind": "therapy", "minutes": 1.0, "fps": 0.2}))
        assert dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "t")]) == 0
        code = dispatch(
            ["assess", "--model", str(model_dir),
             "--session", str(tmp_path / "t" / "patient00_therapy"),
             "--window-minutes", minutes, "--out", str(tmp_path / "assessment")]
        )
        assert code == 1
        assert "window_minutes" in capsys.readouterr().err
        assert not Path(str(tmp_path / "assessment") + ".json").exists()

    @pytest.mark.parametrize("damaged, row, field, message", [
        ("frames/frames.csv", 1, 1, "frame 1 timestamp nan is not finite"),
        ("patient00_therapy_EDA.csv", 500, 0, "timestamp is not a number"),
        ("patient00_therapy_ECG.csv", 700, 1, "sample value nan is not finite"),
        # no header: row 0 edits the file's second line, frame 1
        ("frames/landmarks.csv", 0, 3, "landmark coordinate nan is not finite"),
    ])
    def test_non_finite_session_field_exits_1(self, tmp_path, capsys, damaged, row, field,
                                              message):
        from bioaffect.bmmn import BmmnModel, save_model

        model_dir = tmp_path / "model"
        save_model(BmmnModel.build_toy("bmmn"), model_dir)
        spec = tmp_path / "therapy.json"
        spec.write_text(json.dumps({"kind": "therapy", "minutes": 1.0, "fps": 0.2}))
        assert dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "t")]) == 0
        session = tmp_path / "t" / "patient00_therapy"
        path = session / damaged
        lines = path.read_text().splitlines()
        parts = lines[row + 1].split(",")
        parts[field] = "nan"
        lines[row + 1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "assessment"
        with np.errstate(all="raise", under="ignore"):  # as `main` sets them
            code = dispatch(["assess", "--model", str(model_dir), "--session", str(session),
                             "--out", str(out)])
        assert code == 1
        assert f"{path}:{row + 2}: {message}" in capsys.readouterr().err
        assert not Path(str(out) + ".json").exists()

    @pytest.mark.parametrize("header", [b"P5\n-1 -1\n255\n", b"P5\n0 5\n255\n"])
    def test_pgm_without_positive_dimensions_exits_1(self, tmp_path, capsys, header):
        from bioaffect.bmmn import BmmnModel, save_model

        model_dir = tmp_path / "model"
        save_model(BmmnModel.build_toy("bmmn"), model_dir)
        spec = tmp_path / "therapy.json"
        spec.write_text(json.dumps({"kind": "therapy", "minutes": 1.0, "fps": 0.2}))
        assert dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "t")]) == 0
        session = tmp_path / "t" / "patient00_therapy"
        pgm = session / "frames" / "1.pgm"
        pgm.write_bytes(header)
        out = tmp_path / "assessment"
        with np.errstate(all="raise", under="ignore"):  # as `main` sets them
            code = dispatch(["assess", "--model", str(model_dir), "--session", str(session),
                             "--out", str(out)])
        assert code == 1
        assert f"{pgm}: PGM width and height must be positive" in capsys.readouterr().err
        assert not Path(str(out) + ".json").exists()

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[: len(text) // 2], "invalid JSON"),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "bae_arch"}),
         "missing field 'bae_arch'"),
    ])
    def test_damaged_model_description(self, processed, tmp_path, capsys, damage, message):
        from bioaffect.bmmn import BmmnModel, save_model

        _, samples = processed
        model_dir = tmp_path / "model"
        save_model(BmmnModel.build_toy("bmmn"), model_dir)
        meta = model_dir / "model.json"
        meta.write_text(damage(meta.read_text()))
        code = dispatch(
            ["eval", "--model", str(model_dir), "--data", str(samples),
             "--out", str(tmp_path / "report")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{meta}:" in err and message in err

    def test_checkpoint_with_a_repeated_name_exits_1(self, processed, tmp_path, capsys):
        import struct

        from bioaffect.bmmn import BmmnModel, save_model

        _, samples = processed
        model_dir = tmp_path / "model"
        save_model(BmmnModel.build_toy("bmmn"), model_dir)
        ckpt = model_dir / "params.ckpt"
        blob = bytearray(ckpt.read_bytes())
        (n1,) = struct.unpack_from("<H", blob, 20)
        ndim1 = blob[22 + n1]
        second = 22 + n1 + 1 + 4 * ndim1
        (n2,) = struct.unpack_from("<H", blob, second)
        assert n2 == n1  # e.g. "....conv1.w" then "....conv1.b"
        first_name = bytes(blob[22 : 22 + n1])
        blob[second + 2 : second + 2 + n1] = first_name
        ckpt.write_bytes(bytes(blob))
        code = dispatch(
            ["eval", "--model", str(model_dir), "--data", str(samples),
             "--out", str(tmp_path / "report")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"parameter name {first_name.decode()!r} repeated at byte offset {second}" in err

    def test_checkpoint_with_too_many_dimensions_exits_1(self, processed, tmp_path, capsys):
        import struct

        from bioaffect.bmmn import BmmnModel, save_model

        _, samples = processed
        model_dir = tmp_path / "model"
        save_model(BmmnModel.build_toy("bmmn"), model_dir)
        # One parameter "w" of 65 dimensions of length 1: its ndim is at offset 23.
        header = b"BAPC" + struct.pack("<IQI", 1, 0, 1) + struct.pack("<H", 1) + b"w"
        shape = struct.pack("<B", 65) + struct.pack("<65I", *[1] * 65)
        (model_dir / "params.ckpt").write_bytes(header + shape + bytes(8))
        code = dispatch(
            ["eval", "--model", str(model_dir), "--data", str(samples),
             "--out", str(tmp_path / "report")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{model_dir / 'params.ckpt'}: ndim of 'w' at byte offset 23 is 65" in err

    def test_face_feature_model_exits_1(self, processed, tmp_path, capsys):
        from bioaffect.bmmn import BmmnModel, save_model

        _, samples = processed
        model_dir = tmp_path / "model"
        save_model(BmmnModel.build_toy("bmmn"), model_dir)
        meta = model_dir / "model.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "spatial_passthrough": 512}))
        code = dispatch(
            ["eval", "--model", str(model_dir), "--data", str(samples),
             "--out", str(tmp_path / "report")]
        )
        assert code == 1
        assert f"{meta}: field 'spatial_passthrough' is 512" in capsys.readouterr().err

    @pytest.mark.parametrize("command, value", [
        ("eval", float("nan")), ("assess", float("nan")), ("train", float("-inf")),
    ])
    def test_non_finite_checkpoint_value_exits_1(self, processed, tmp_path, capsys,
                                                 command, value):
        import struct

        from bioaffect.bmmn import BmmnModel, save_model

        _, samples = processed
        model_dir = tmp_path / "model"
        save_model(BmmnModel.build_toy("bae2"), model_dir)
        ckpt = model_dir / "params.ckpt"
        store = params.load_params(ckpt)
        names = store.names()
        before = sum(store[n].data.size for n in names[: names.index("head.fc.b")])
        blob = bytearray(ckpt.read_bytes())
        offset = len(blob) - 8 * store.n_values() + 8 * before
        blob[offset : offset + 8] = struct.pack("<d", value)
        ckpt.write_bytes(bytes(blob))
        out = tmp_path / "out"
        if command == "eval":
            argv = ["eval", "--model", str(model_dir), "--data", str(samples), "--out", str(out)]
        elif command == "assess":
            spec = tmp_path / "therapy.json"
            spec.write_text(json.dumps({"kind": "therapy", "minutes": 1.0, "fps": 0.2}))
            assert dispatch(["synth", "--spec", str(spec), "--out", str(tmp_path / "t")]) == 0
            argv = ["assess", "--model", str(model_dir), "--out", str(out),
                    "--session", str(tmp_path / "t" / "patient00_therapy")]
        else:
            bae_dir = tmp_path / "bae"
            bae_dir.mkdir()
            ckpt = ckpt.rename(bae_dir / "bae.ckpt")
            argv = ["train", "--variant", "bae2", "--data", str(samples), "--out", str(out),
                    "--bae", str(bae_dir)]
        with np.errstate(all="raise", under="ignore"):  # as `main` sets them
            assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert (f"{ckpt}: values of 'head.fc.b': non-finite value {value} "
                f"at byte offset {offset}") in err
        assert not out.exists() and not Path(str(out) + ".json").exists()

    def test_non_finite_sample_exits_1(self, processed, tmp_path, capsys):
        import struct

        from bioaffect.bmmn import BmmnModel, save_model

        _, samples = processed
        model_dir = tmp_path / "model"
        save_model(BmmnModel.build_toy("bmmn"), model_dir)
        blob = bytearray(samples.read_bytes())
        # The first span follows the 16-byte header, the u32 span count and
        # its own channel byte and u32 length.
        assert struct.unpack_from("<B", blob, 20) == (0,)  # an ECG span
        span_at = 16 + 4 + 5
        blob[span_at + 8 : span_at + 16] = struct.pack("<d", float("nan"))
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with np.errstate(all="raise", under="ignore"):  # as `main` sets them
            code = dispatch(
                ["eval", "--model", str(model_dir), "--data", str(bad),
                 "--out", str(tmp_path / "report")]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{bad}: ECG span 0 at byte offset {span_at}: scaled trace values" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["eval", "train", "pretrain-bae"])
    def test_version_1_samples_file_exits_1(self, processed, tmp_path, capsys, command):
        # Only the version field is read before the file is refused.
        import struct

        from bioaffect.bmmn import BmmnModel, save_model

        _, samples = processed
        blob = bytearray(samples.read_bytes())
        struct.pack_into("<I", blob, 4, 1)
        old = tmp_path / "old.bin"
        old.write_bytes(bytes(blob))
        out = tmp_path / "out"
        if command == "eval":
            save_model(BmmnModel.build_toy("bmmn"), tmp_path / "model")
            argv = ["eval", "--model", str(tmp_path / "model"), "--data", str(old),
                    "--out", str(out)]
        else:
            argv = [command, "--data", str(old), "--out", str(out)]
        assert dispatch(argv) == 1
        err = capsys.readouterr().err
        assert (f"{old}: sample file version 1 (byte offset 4) is no longer read; "
                "re-run `bioaffect preprocess`") in err
        assert not out.exists() and not Path(str(out) + ".json").exists()


class TestGradcheckCommand:
    def test_single_op_passes(self, capsys):
        assert dispatch(["--plain", "gradcheck", "--op", "linear"]) == 0
        out = capsys.readouterr().out
        assert "linear" in out and "PASS" in out

    def test_unknown_op_is_runtime_failure(self):
        assert dispatch(["--plain", "gradcheck", "--op", "nope"]) == 2


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        assert dispatch(["synth", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_unknown_command_exits_1(self):
        assert dispatch(["frobnicate"]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert dispatch(
            ["synth", "--spec", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]
        ) == 1
