"""Config keys, training reruns with byte-identical outputs whatever the BLAS thread
variables or the usable core count, `train-wm` checkpoints, training memory that
stays at one step's graph, sweeps and dataset watermarking that give the serial
outputs on any worker count, and manifests that list an image twice."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from facemark import bioeval, pipeline

ROOT = Path(__file__).resolve().parents[1]

# Two default-shaped training steps on a small model. p_aug=1 sends every
# step's decoder input through crop or resize, so conv2d also runs at the
# odd spatial sizes those produce.
TRAIN_SCRIPT = """
import sys
from pathlib import Path

from _synth import texture_images
from facemark import pipeline, watermarknet

out = Path(sys.argv[1])
config = pipeline.TrainConfig(
    steps=2, batch_size=4, message_length=8, base_channels=8,
    encoder_blocks=2, decoder_blocks=3, p_aug=1.0, aug_kinds=("crop", "resize"), seed=5,
)
model, history = pipeline.train_watermark(config, texture_images(6, seed=3))
watermarknet.save_model(model, out / "model.wmf")
pipeline.write_history(history, out / "history.csv")
"""


def _train_in_subprocess(out_dir):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    subprocess.run(
        [sys.executable, "-c", TRAIN_SCRIPT, str(out_dir)],
        env=env,
        check=True,
        timeout=300,
    )
    return (out_dir / "model.wmf").read_bytes(), (out_dir / "history.csv").read_bytes()


def test_training_repeats_byte_for_byte_at_one_blas_thread(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    model_a, history_a = _train_in_subprocess(first)
    model_b, history_b = _train_in_subprocess(second)
    assert history_a.count(b"\n") == 3  # header + 2 steps
    assert model_a == model_b
    assert history_a == history_b


# `train-wm` through cli_dispatch. At 32 px and 16 channels the conv GEMMs
# are large enough that OpenBLAS threads them when it may, which changes the
# bits unless facemark's import pins it to one thread.
CLI_TRAIN_SCRIPT = """
import os
import sys
from pathlib import Path

if sys.argv[2] == "one-core":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

from facemark import cli, imageops  # before numpy: the import pins BLAS to one thread
from _synth import texture_images  # noqa: E402

out = Path(sys.argv[1])
lines = []
for i, image in enumerate(texture_images(4, 32, seed=6)):
    imageops.save_ppm(image, out / f"img{i}.ppm")
    lines.append(f"img{i}.ppm,id{i}")
(out / "train.csv").write_text("\\n".join(lines) + "\\n", encoding="utf-8")
(out / "train.cfg").write_text(
    "steps=2\\nbatch_size=4\\nimage_size=32\\nmessage_length=8\\nbase_channels=16\\n"
    "encoder_blocks=2\\ndecoder_blocks=3\\nseed=1\\n",
    encoding="utf-8",
)
argv = ["train-wm", "--config", str(out / "train.cfg"), "--history", str(out / "history.csv"),
        str(out / "train.csv"), str(out / "model.wmf")]
sys.exit(cli.cli_dispatch(argv))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_train_wm_bytes_ignore_blas_threads_and_core_count(tmp_path):
    runs = {"blas1": ("1", "all-cores"), "blas2": ("2", "all-cores"), "one-core": (None, "one-core"),
            "all-cores": (None, "all-cores")}
    outputs = {}
    for name, (blas_threads, cores) in runs.items():
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        if blas_threads:
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = blas_threads
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
        out = tmp_path / name
        out.mkdir()
        subprocess.run([sys.executable, "-c", CLI_TRAIN_SCRIPT, str(out), cores], env=env, check=True, timeout=300,
                       capture_output=True)
        outputs[name] = ((out / "model.wmf").read_bytes(), (out / "history.csv").read_bytes())
    assert outputs["blas1"][1].count(b"\n") == 3  # header + 2 steps
    for name, files in outputs.items():
        assert files == outputs["blas1"], name


def _config_text(value):
    """A default written back as its config-file value."""
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else repr(value)


@pytest.mark.parametrize(
    "cls",
    [pipeline.TrainConfig, pipeline.VerifyOptions, bioeval.EmbedderTrainConfig, pipeline.SweepSpec],
    ids=["train", "verify", "embedder", "sweep"],
)
def test_every_config_field_is_a_key_that_parses_back_to_its_default(cls):
    for field in fields(cls):
        parsed = pipeline.parse_config(cls, {field.name: _config_text(field.default)})
        assert getattr(parsed, field.name) == field.default, field.name
    assert pipeline.parse_config(cls, {field.name: _config_text(field.default) for field in fields(cls)}) == cls()


def test_sweep_config_keeps_jpeg_qualities_as_ints():
    spec = pipeline.parse_config(pipeline.SweepSpec, {"sweep_kinds": "crop,jpeg", "jpeg_grid": "90,80.0"})
    assert spec.cells == (("crop", (1.0, 0.95, 0.9, 0.85, 0.8, 0.75)), ("jpeg", (90, 80)))
    assert [type(q) for q in spec.cells[1][1]] == [int, int]


# Bad values each command's config must reject with exit 1 before reading any
# image. The manifest names a missing image, which would exit 2 if the config
# were parsed after it.
@pytest.mark.parametrize(
    "command, line, key",
    [
        ("train-wm", "message_length=0", "message_length"),
        ("train-wm", "base_channels=0", "base_channels"),
        ("train-wm", "image_channels=2", "image_channels"),
        ("train-embedder", "batch_size=0", "batch_size"),
        ("train-embedder", "batch_size=1", "batch_size"),
        ("train-embedder", "base_channels=0", "base_channels"),
        ("train-wm", "lr=-1", "lr"),
        ("train-wm", "lr=nan", "lr"),
        ("train-wm", "beta1=1.5", "beta1"),
        ("train-wm", "beta2=-0.1", "beta2"),
        ("train-wm", "eps=0", "eps"),
        ("train-wm", "image_size=4", "image_size"),
        ("train-wm", "image_size=0", "image_size"),
        ("train-wm", "checkpoint_interval=-3", "checkpoint_interval"),
        ("train-embedder", "lr=-1", "lr"),
        ("train-embedder", "lr=inf", "lr"),
        ("sweep", "jpeg_grid=50.5", "jpeg_grid"),
        ("sweep", "jpeg_grid=inf", "jpeg_grid"),
    ],
)
def test_cli_config_values_rejected_before_images_are_read(tmp_path, capsys, command, line, key):
    from facemark import cli

    (tmp_path / "data.csv").write_text("missing.ppm,id0\n", encoding="utf-8")
    (tmp_path / "run.cfg").write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    extra = ["--model", str(ROOT / "tests" / "data" / "golden_model.wmf"), "--message", "01100110"] if command == "sweep" else []
    argv = [command, "--config", str(tmp_path / "run.cfg"), *extra, str(tmp_path / "data.csv"), str(out)]
    assert cli.cli_dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and key in err
    assert "Traceback" not in err
    assert not out.exists()


# Two training steps per augmentation kind, each step's decoder input going
# through that kind. The parameter digests were recorded at one BLAS thread;
# a change to an augmentation's draws or arithmetic changes them.
AUGMENTED_SCRIPT = """
import hashlib

from _synth import texture_images
from facemark import pipeline

images = texture_images(6, 16, seed=8)
for kind in ("crop", "resize", "brightness", "contrast", "jpeg"):
    config = pipeline.TrainConfig(
        steps=2, batch_size=3, image_size=16, message_length=4, base_channels=4, encoder_blocks=1,
        decoder_blocks=1, p_aug=1.0, aug_kinds=(kind,), crop_range=(0.5, 1.0), resize_range=(0.5, 1.0),
        brightness_range=(0.5, 3.0), contrast_range=(0.5, 3.0), jpeg_range=(10, 90), seed=4,
    )
    model, _ = pipeline.train_watermark(config, images)
    digest = hashlib.sha256()
    for _, node in model.params.items():
        digest.update(node.value.tobytes())
    print(kind, digest.hexdigest()[:16])
"""
AUGMENTED_DIGESTS = {
    "crop": "de231c9910e5939d",
    "resize": "b924a8a1a2a23f1b",
    "brightness": "3bcc17b017e539ac",
    "contrast": "806e813eeff588be",
    "jpeg": "a50c23e0a3b86e36",
}


def test_one_adam_step_per_training_step(monkeypatch):
    from _synth import texture_images
    from facemark import tensorgrad as tg

    calls = []
    adam_step = tg.adam_step
    monkeypatch.setattr(tg, "adam_step", lambda params, **kw: (calls.append(params), adam_step(params, **kw)))
    config = pipeline.TrainConfig(
        steps=2, batch_size=2, image_size=16, message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=1,
    )
    model, _ = pipeline.train_watermark(config, texture_images(3, 16, seed=2))
    assert calls == [model.params, model.params]
    assert model.params.step_count == model.step == 2


def test_augmented_training_per_kind_repeats_recorded_parameters():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    result = subprocess.run(
        [sys.executable, "-c", AUGMENTED_SCRIPT], env=env, check=True, timeout=300, capture_output=True, text=True
    )
    assert dict(line.split() for line in result.stdout.splitlines()) == AUGMENTED_DIGESTS


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("crop_range", (0.8, 0.7), "low end above high end"),
        ("resize_range", (0.0, 1.0), "resize ratio must lie in (0, 1]"),
        ("crop_range", (0.75, 1.5), "crop ratio must lie in (0, 1]"),
        ("brightness_range", (float("nan"), 2.0), "brightness factor must be > 0"),
        ("contrast_range", (-1.0, 2.0), "contrast factor must be > 0"),
        ("jpeg_range", (50.5, 90), "jpeg quality must be an integer"),
        ("jpeg_range", (50, float("inf")), "jpeg quality must be an integer"),
        ("crop_range", (0.2, 1.0), "decoder needs at least 8 pixels"),
    ],
    ids=["order", "resize-zero", "crop-above-one", "brightness-nan", "contrast-negative", "jpeg-fraction", "jpeg-inf", "crop-below-decoder"],
)
def test_train_config_range_names_its_field(field, value, match):
    with pytest.raises(ValueError, match=re.escape(f"{field} ({value[0]}, {value[1]}) violates") + ".*" + re.escape(match)):
        pipeline.TrainConfig(**{field: value})


def test_train_wm_cli_writes_checkpoints_at_the_interval(tmp_path):
    from _synth import texture_images
    from facemark import cli, imageops

    lines = []
    for i, image in enumerate(texture_images(4, 16, seed=6)):
        imageops.save_ppm(image, tmp_path / f"img{i}.ppm")
        lines.append(f"img{i}.ppm,id{i}")
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "train.cfg").write_text(
        "steps=4\nbatch_size=2\nimage_size=16\nmessage_length=8\nbase_channels=8\n"
        "encoder_blocks=2\ndecoder_blocks=3\ncheckpoint_interval=2\nseed=1\n",
        encoding="utf-8",
    )
    checkpoints = tmp_path / "ckpt"
    argv = ["train-wm", "--config", str(tmp_path / "train.cfg"), "--checkpoint-dir", str(checkpoints),
            str(tmp_path / "train.csv"), str(tmp_path / "model.wmf")]
    assert cli.cli_dispatch(argv) == 0
    assert sorted(p.name for p in checkpoints.iterdir()) == ["checkpoint_step2.wmf", "checkpoint_step4.wmf"]
    assert (checkpoints / "checkpoint_step4.wmf").read_bytes() == (tmp_path / "model.wmf").read_bytes()


def _traced_peak(fn):
    """Peak bytes the Python allocators (numpy's included) hold while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_watermark_training_holds_one_step_graph_at_a_time():
    from _synth import texture_images

    images = texture_images(4, 16, seed=1)

    def train(steps):
        config = pipeline.TrainConfig(
            steps=steps, batch_size=4, image_size=16, message_length=8, base_channels=8,
            encoder_blocks=2, decoder_blocks=3, p_aug=0.0, seed=3,
        )
        return lambda: pipeline.train_watermark(config, images)

    one, three = _traced_peak(train(1)), _traced_peak(train(3))
    assert three <= one * 1.02, (one, three)


def test_embedder_training_holds_one_batch_graph_at_a_time():
    from _synth import identity_images

    images, labels = identity_images(8, 2, size=16, seed=2)

    def train(epochs):  # one batch per epoch: the whole set
        config = bioeval.EmbedderTrainConfig(embed_dim=4, epochs=epochs, batch_size=16, base_channels=2, seed=2)
        return lambda: bioeval.train_embedder(images, labels, config)

    one, three = _traced_peak(train(1)), _traced_peak(train(3))
    assert three <= one * 1.02, (one, three)


# ---------------------------------------------------------------------------
# per-image paths spread over the cores
# ---------------------------------------------------------------------------

TINY_CONFIG = pipeline.TrainConfig(
    steps=1, batch_size=2, image_size=16, message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=1,
)
TINY_MESSAGE = [1, 0, 1, 1]


@pytest.fixture(scope="module")
def tiny_model():
    from _synth import texture_images

    model, _ = pipeline.train_watermark(TINY_CONFIG, texture_images(2, 16, seed=4))
    return model


def _rows(cells):
    return [(c.kind, c.factor, repr(c.mean_bit_acc), repr(c.std), c.n, c.reason) for c in cells]


def test_sweep_rows_and_failing_cells_repeat_on_any_worker_count(conv_workers, monkeypatch, tiny_model):
    from _synth import texture_images
    from facemark import imageops

    images = texture_images(3, 16, seed=5)
    # crop 0.4 leaves 6x6 pixels, below the decoder's minimum, so that cell fails on its first image
    spec = pipeline.SweepSpec(
        sweep_kinds=("crop", "jpeg"), crop_grid=(1.0, 0.75, 0.4), jpeg_grid=(90, 60), repetitions=2, seed=7,
    )
    # Two planted failures late in the (jpeg, 60) cell: the first in (repetition, image) order names it.
    planted = {pipeline._derive_seed(7, "jpeg", 1, 1, 1): "first", pipeline._derive_seed(7, "jpeg", 1, 1, 2): "second"}
    apply_transform = imageops.apply_transform

    def failing_transform(image, transform):
        if transform.seed in planted:
            raise RuntimeError(f"planted {planted[transform.seed]} failure")
        return apply_transform(image, transform)

    monkeypatch.setattr(imageops, "apply_transform", failing_transform)
    rows = {}
    for workers in (1, 2, 3):
        conv_workers(workers)
        rows[workers] = _rows(pipeline.run_sweep(tiny_model, images, TINY_MESSAGE, spec))
    assert rows[2] == rows[1] and rows[3] == rows[1]
    by_cell = {(kind, factor): (n, reason) for kind, factor, _, _, n, reason in rows[1]}
    assert by_cell[("crop", 0.4)] == (0, "decoder needs at least 8x8 pixels, got 6x6")
    assert by_cell[("jpeg", 60)] == (4, "planted first failure")  # rep 0's three images, then rep 1's image 0
    assert all(n == 6 and reason is None for key, (n, reason) in by_cell.items() if key not in (("crop", 0.4), ("jpeg", 60)))


def _write_images(root, images, bad_at=()):
    """PPMs in two subdirectories plus a manifest; an unreadable file at each ``bad_at`` index."""
    from facemark import imageops

    entries = []
    for i, image in enumerate(images):
        rel = f"sub{i % 2}/img{i}.ppm"
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        if i in bad_at:
            (root / rel).write_bytes(b"not an image")
        else:
            imageops.save_ppm(image, root / rel)
        entries.append(f"{rel},id{i % 3}")
    (root / "manifest.csv").write_text("\n".join(entries) + "\n", encoding="utf-8")
    return root / "manifest.csv"


def test_watermark_dataset_outputs_repeat_on_any_worker_count(conv_workers, tmp_path, tiny_model):
    import hashlib

    from _synth import texture_images

    manifest = pipeline.load_manifest(_write_images(tmp_path / "in", texture_images(20, 16, seed=6), bad_at=(5, 12)))
    outputs = {}
    for workers in (1, 2, 3):
        conv_workers(workers)
        out_dir = tmp_path / f"out{workers}"
        result = pipeline.watermark_dataset(tiny_model, manifest, TINY_MESSAGE, out_dir)
        digests = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.rglob("*.p*"))}
        failed = [(str(Path(path).relative_to(tmp_path)), reason.replace(str(tmp_path), "")) for path, reason in result.failed]
        outputs[workers] = (digests, result.manifest.entries, failed, result.written, result.mean_psnr.hex(),
                            result.manifest_path.read_text(encoding="utf-8"))
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    digests, entries, failed, written, _, _ = outputs[1]
    assert written == 18 and len(digests) == 18
    assert entries == [e for i, e in enumerate(manifest.entries) if i not in (5, 12)]
    assert [path for path, _ in failed] == ["in/sub1/img5.ppm", "in/sub0/img12.ppm"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_sweeps_after_its_parent_has_mapped(conv_workers, tiny_model):
    import signal

    from _synth import texture_images
    from facemark import tensorgrad as tg

    conv_workers(2)
    images = texture_images(2, 16, seed=5)
    spec = pipeline.SweepSpec(sweep_kinds=("crop",), crop_grid=(1.0, 0.75))
    serial = _rows(pipeline.run_sweep(tiny_model, images, TINY_MESSAGE, spec))
    assert tg._POOL.submitted > 0
    pid = os.fork()
    if pid == 0:  # child: a hung map dies at the alarm
        code = 1
        try:
            signal.alarm(30)
            code = 0 if _rows(pipeline.run_sweep(tiny_model, images, TINY_MESSAGE, spec)) == serial else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


@pytest.mark.parametrize("second", ["img0.ppm", "./img0.ppm", "sub/../img0.ppm"])
def test_load_manifest_rejects_an_image_listed_twice(tmp_path, second):
    from _synth import texture_images

    _write_images(tmp_path, texture_images(2, 16, seed=1))
    (tmp_path / "img0.ppm").write_bytes((tmp_path / "sub0/img0.ppm").read_bytes())
    (tmp_path / "sub").mkdir()
    (tmp_path / "dup.csv").write_text(f"# source_tag: original\nimg0.ppm,a\nsub1/img1.ppm,b\n\n{second},c\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"dup.csv:5: image {second!r} is already listed on line 2")):
        pipeline.load_manifest(tmp_path / "dup.csv")


def test_watermark_dataset_cli_rejects_an_image_listed_twice(tmp_path, capsys):
    from _synth import texture_images
    from facemark import cli

    manifest = _write_images(tmp_path, texture_images(2, 16, seed=1))
    manifest.write_text("sub0/img0.ppm,a\nsub1/img1.ppm,b\nsub0/img0.ppm,a\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = ["watermark-dataset", "--model", str(ROOT / "tests" / "data" / "golden_model.wmf"), "--message", "01100110",
            str(manifest), str(out)]
    assert cli.cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "manifest.csv:3:" in err and "line 1" in err
    assert "Traceback" not in err
    assert not out.exists()
