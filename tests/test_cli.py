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
    lines = []
    for i, (image, identity) in enumerate(zip(images, identities)):
        imageops.save_ppm(image, root / f"img{i}.ppm")
        lines.append(f"img{i}.ppm,{identity}")
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
