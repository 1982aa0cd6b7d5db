"""Exit codes of the ``facemark`` command line, run through ``cli_dispatch``: 0 on
success, 1 on a usage error, 2 on a runtime failure, with no traceback on
standard error in any case."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from _synth import identity_images, texture_images
from facemark import cli, imageops, pipeline
from facemark import watermarknet as wm

DATA = Path(__file__).resolve().parent / "data"


def _dispatch(capsys, *argv):
    code = cli.cli_dispatch([str(arg) for arg in argv])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, captured.out, captured.err


def _manifest(root, images, identities):
    """A manifest of ``images``, each a P6 PPM if it has 3 channels and else a P5 PGM."""
    lines = []
    for i, (image, identity) in enumerate(zip(images, identities)):
        name = f"img{i}.{'ppm' if len(image) == 3 else 'pgm'}"
        imageops.save_image(image, root / name)
        lines.append(f"{name},{identity}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root / "manifest.csv"


def test_train_embedder_exits_0_and_writes_a_loadable_embedder(tmp_path, capsys):
    from facemark import bioeval

    images, identities = identity_images(3, 4, size=16, seed=2)
    manifest = _manifest(tmp_path, images, identities)
    (tmp_path / "emb.cfg").write_text("epochs=2\nbatch_size=4\nbase_channels=3\nembed_dim=4\n", encoding="utf-8")
    out = tmp_path / "emb.emb"
    code, _, err = _dispatch(capsys, "train-embedder", "--config", tmp_path / "emb.cfg", manifest, out)
    assert code == 0, err
    assert bioeval.load_embedder(out).config.image_size == 16


@pytest.mark.parametrize("channels", [1, 3])
def test_train_embedder_takes_the_channel_count_of_the_manifest_images(tmp_path, capsys, channels):
    from facemark import bioeval

    images, identities = identity_images(3, 4, size=16, seed=2, channels=channels)
    manifest = _manifest(tmp_path, images, identities)
    (tmp_path / "emb.cfg").write_text("epochs=2\nbatch_size=4\nbase_channels=3\nembed_dim=4\n", encoding="utf-8")
    out = tmp_path / "emb.emb"
    code, _, err = _dispatch(capsys, "train-embedder", "--config", tmp_path / "emb.cfg", manifest, out)
    assert code == 0, err
    assert bioeval.load_embedder(out).config.image_channels == channels
    # the command trains exactly what the library trains on the images it wrote
    config = bioeval.EmbedderTrainConfig(epochs=2, batch_size=4, base_channels=3, embed_dim=4)
    stored = pipeline.load_manifest_images(pipeline.load_manifest(manifest), channels)
    bioeval.save_embedder(bioeval.train_embedder(stored, identities, config)[0], tmp_path / "library.emb")
    assert out.read_bytes() == (tmp_path / "library.emb").read_bytes()

    (tmp_path / "verify.cfg").write_text("far_targets=0.1\nmodes=original-original\n", encoding="utf-8")
    code, _, err = _dispatch(capsys, "verify", "--config", tmp_path / "verify.cfg", "--embedder", out, manifest,
                             tmp_path / "report.txt")
    assert code == 0, err
    assert "incomplete" not in err


def test_verify_without_a_listed_source_exits_2_naming_the_mode_and_the_source(tmp_path, capsys):
    from facemark import bioeval

    images, identities = identity_images(3, 4, size=16, seed=2)
    manifest = _manifest(tmp_path, images, identities)
    config = bioeval.EmbedderTrainConfig(epochs=1, batch_size=4, base_channels=3, embed_dim=4)
    stored = pipeline.load_manifest_images(pipeline.load_manifest(manifest), 3)
    bioeval.save_embedder(bioeval.train_embedder(stored, identities, config)[0], tmp_path / "emb.emb")
    # The default modes: original-original is scorable, watermarked-original needs a watermarked manifest.
    code, _, err = _dispatch(capsys, "verify", "--embedder", tmp_path / "emb.emb", manifest, tmp_path / "report.txt")
    assert code == 2
    assert err == "error: pairing mode 'watermarked-original' needs 'watermarked' embeddings, but there are none\n"
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("first", [1, 3])
def test_train_embedder_on_mixed_pgm_and_ppm_images_exits_2_naming_the_odd_one(tmp_path, capsys, first):
    images, identities = identity_images(2, 2, size=16, seed=2, channels=first)
    odd, _ = identity_images(1, 1, size=16, seed=3, channels=4 - first)
    manifest = _manifest(tmp_path, [*images, odd[0]], [*identities, "id0000"])
    (tmp_path / "emb.cfg").write_text("epochs=1\n", encoding="utf-8")
    code, _, err = _dispatch(capsys, "train-embedder", "--config", tmp_path / "emb.cfg", manifest, tmp_path / "out.emb")
    assert code == 2
    assert err.startswith("error: ") and f"img4.{'ppm' if first == 1 else 'pgm'}" in err
    assert not (tmp_path / "out.emb").exists()


def _run_the_paper_pipeline(root, capsys):
    """Watermark training, dataset watermarking, the robustness sweep, an embedder trained on each of the
    original and watermarked sets, and verification with each, all through ``cli_dispatch`` in ``root``.
    Returns every file the run leaves in ``root``, by relative path."""
    root.mkdir()
    images, identities = identity_images(4, 3, size=16)
    original = _manifest(root, images, identities)
    marked = root / "marked" / "manifest.csv"
    (root / "wm.cfg").write_text("steps=2\nbatch_size=4\nimage_size=16\nmessage_length=8\nbase_channels=4\n"
                                 "encoder_blocks=2\ndecoder_blocks=2\ncheckpoint_interval=1\n", encoding="utf-8")
    (root / "emb.cfg").write_text("epochs=2\nbatch_size=4\nbase_channels=4\nembed_dim=4\n", encoding="utf-8")
    (root / "verify.cfg").write_text("far_targets=0.1\n", encoding="utf-8")
    model, message = ["--model", root / "wm.wmf"], ["--message", "01100110"]
    steps = [
        ["train-wm", "--config", root / "wm.cfg", "--checkpoint-dir", root / "checkpoints", "--history",
         root / "history.csv", original, root / "wm.wmf"],
        ["watermark-dataset", *model, *message, original, root / "marked"],
        ["sweep", *model, *message, original, root / "sweep.csv"],
        ["train-embedder", "--config", root / "emb.cfg", original, root / "original.emb"],
        ["train-embedder", "--config", root / "emb.cfg", marked, root / "marked.emb"],
        *(["verify", "--config", root / "verify.cfg", "--embedder", root / f"{name}.emb", original, marked,
           root / f"{name}_report.txt"] for name in ("original", "marked")),
    ]
    for argv in steps:
        code, _, err = _dispatch(capsys, *argv)
        assert code == 0, (argv[0], err)
        assert "failed" not in err and "incomplete" not in err, (argv[0], err)
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_the_paper_pipeline_runs_through_the_command_line_and_repeats_byte_for_byte(tmp_path, capsys):
    first = _run_the_paper_pipeline(tmp_path / "first", capsys)
    second = _run_the_paper_pipeline(tmp_path / "second", capsys)
    assert {"checkpoints/checkpoint_step1.wmf", "checkpoints/checkpoint_step2.wmf", "marked/img11.ppm",
            "sweep.csv", "original_report.txt", "marked_report.txt"} <= set(first)
    assert list(first) == list(second)
    assert [name for name in first if first[name] != second[name]] == []


def test_sweep_exits_0_and_writes_one_row_per_cell(tmp_path, capsys):
    config = pipeline.TrainConfig(
        steps=1, batch_size=2, image_size=16, message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=1,
    )
    model, _ = pipeline.train_watermark(config, texture_images(2, 16, seed=4))
    wm.save_model(model, tmp_path / "model.wmf")
    manifest = _manifest(tmp_path, texture_images(2, 16, seed=5), ["a", "b"])
    (tmp_path / "sweep.cfg").write_text("sweep_kinds=crop,jpeg\ncrop_grid=1.0,0.75\njpeg_grid=90\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    code, _, err = _dispatch(
        capsys, "sweep", "--config", tmp_path / "sweep.cfg", "--model", tmp_path / "model.wmf", "--message", "1011",
        manifest, out,
    )
    assert code == 0, err
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 3  # header + three cells


def test_help_exits_0(capsys):
    code, out, _ = _dispatch(capsys, "--help")
    assert code == 0 and "watermark-dataset" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "missing subcommand"),
        (["extract", "--model", "m.wmf", "--bogus", "in.ppm"], "--bogus"),
        (["extract", "in.ppm"], "--model"),
    ],
    ids=["no-subcommand", "unknown-flag", "missing-required"],
)
def test_usage_errors_exit_1(capsys, argv, message):
    code, _, err = _dispatch(capsys, *argv)
    assert code == 1
    assert err.startswith("usage error: ") and message in err


@pytest.mark.parametrize("command", ["train-wm", "train-embedder", "watermark-dataset", "sweep", "verify"])
def test_a_manifest_that_does_not_exist_exits_2(tmp_path, capsys, command):
    missing = tmp_path / "missing.csv"
    (tmp_path / "run.cfg").write_text("seed=1\n", encoding="utf-8")
    model = ["--model", DATA / "golden_model.wmf", "--message", "01100110"]
    argv = {
        "train-wm": ["--config", tmp_path / "run.cfg", missing, tmp_path / "out.wmf"],
        "train-embedder": ["--config", tmp_path / "run.cfg", missing, tmp_path / "out.emb"],
        "watermark-dataset": [*model, missing, tmp_path / "out"],
        "sweep": [*model, missing, tmp_path / "out.csv"],
        "verify": ["--embedder", DATA / "golden_embedder.emb", missing, tmp_path / "out.txt"],
    }[command]
    code, _, err = _dispatch(capsys, command, *argv)
    assert code == 2
    assert err.startswith("error: ") and "missing.csv" in err
    assert not any(path.name.startswith("out") for path in tmp_path.iterdir())


@pytest.mark.parametrize("given", ["neither", "both"])
@pytest.mark.parametrize("command", ["embed", "watermark-dataset", "sweep", "verify"])
def test_neither_or_both_of_an_exclusive_flag_pair_exits_1(tmp_path, capsys, command, given):
    pair = ("--embeddings", "--embedder") if command == "verify" else ("--message", "--signature")
    flags = [] if given == "neither" else [pair[0], tmp_path / "a", pair[1], tmp_path / "b"]
    model = ["--model", DATA / "golden_model.wmf"]
    argv = {
        "embed": [*model, *flags, tmp_path / "in.ppm", tmp_path / "out.ppm"],
        "watermark-dataset": [*model, *flags, tmp_path / "manifest.csv", tmp_path / "out"],
        "sweep": [*model, *flags, tmp_path / "manifest.csv", tmp_path / "out.csv"],
        "verify": [*flags, tmp_path / "out.txt"],
    }[command]
    code, _, err = _dispatch(capsys, command, *argv)
    assert code == 1
    assert err.startswith("usage error: ") and pair[0] in err and pair[1] in err
    assert not any(path.name.startswith("out") for path in tmp_path.iterdir())


def test_python_m_facemark_runs_the_command_line_without_a_warning():
    env = {**os.environ, "PYTHONPATH": str(DATA.parents[1] / "src")}
    argv = [sys.executable, "-m", "facemark", "--help"]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "train-wm" in result.stdout
    assert "RuntimeWarning" not in result.stderr
