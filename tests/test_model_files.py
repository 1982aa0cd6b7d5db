"""Golden WMF1 and EMB1 files: rebuilt byte for byte, and unchanged by load -> save.

``tests/data/golden_model.wmf`` and ``tests/data/golden_embedder.emb`` were
written from the repository root by

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python tests/test_model_files.py tests/data

which runs :func:`write_golden_files`: a 2-step watermark training run (with
running statistics) and a 2-epoch embedder training run, each saved in its
container format. Training repeats exactly only at a fixed BLAS thread
count, so the rebuild runs in a subprocess pinned to one thread.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"
WMF_NAME = "golden_model.wmf"
EMB_NAME = "golden_embedder.emb"


def write_golden_files(out_dir):
    from _synth import identity_images, texture_images
    from facemark import bioeval, pipeline, watermarknet

    out_dir = Path(out_dir)
    config = pipeline.TrainConfig(
        steps=2, batch_size=4, message_length=8, base_channels=4,
        encoder_blocks=2, decoder_blocks=2, p_aug=0.0, seed=3,
    )
    model, _ = pipeline.train_watermark(config, texture_images(6, seed=1))
    watermarknet.save_model(model, out_dir / WMF_NAME)

    images, labels = identity_images(3, 4, size=16, seed=2)
    embedder_config = bioeval.EmbedderTrainConfig(embed_dim=4, epochs=2, batch_size=4, base_channels=4, seed=2)
    embedder, _ = bioeval.train_embedder(images, labels, embedder_config)
    bioeval.save_embedder(embedder, out_dir / EMB_NAME)


def test_training_rebuilds_the_golden_files(tmp_path):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True, timeout=300)
    for name in (WMF_NAME, EMB_NAME):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_load_then_save_reproduces_the_golden_files(tmp_path):
    from facemark import bioeval, watermarknet

    model = watermarknet.load_model(DATA / WMF_NAME)
    assert all(stats.populated for stats in model.params.stats.values())
    watermarknet.save_model(model, tmp_path / WMF_NAME)
    embedder = bioeval.load_embedder(DATA / EMB_NAME)
    assert all(stats.populated for stats in embedder.params.stats.values())
    bioeval.save_embedder(embedder, tmp_path / EMB_NAME)
    for name in (WMF_NAME, EMB_NAME):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


if __name__ == "__main__":
    write_golden_files(sys.argv[1])
