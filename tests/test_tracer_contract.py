"""The benchmark's tracer patches facemark functions by name; every one it names must exist.

``perfbench/tracer.py`` replaces module attributes such as
``imageops.apply_transform``, ``imageops.save_ppm``/``load_ppm`` and
``bioeval.cosine_similarity`` while a benchmark runs. Deleting or renaming
one of them breaks the benchmark, so this test makes it break here first.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_tracer_installs_and_restores_every_wrapper(tracer):
    from facemark import imageops

    original = imageops.apply_transform
    with tracer.Tracer():
        installed = tracer.installed_wrappers()
        assert "facemark.imageops.apply_transform" in installed
        assert "facemark.imageops.load_ppm" in installed
        assert imageops.apply_transform is not original
    assert tracer.installed_wrappers() == []
    assert imageops.apply_transform is original


def test_pair_scores_spans_name_every_pairing_mode(tracer):
    # The tracer names each span after pair_scores' second positional argument.
    from _synth import identity_embeddings
    from facemark import bioeval, pipeline

    with tracer.Tracer() as trace:
        pipeline.run_verification(identity_embeddings(4, 3, seed=1), pipeline.VerifyOptions(far_targets=(0.1,)))
    names = {span[0] for span in trace.spans}
    assert {f"bioeval.pair_scores.{mode}" for mode in bioeval.PAIRING_MODES} <= names
