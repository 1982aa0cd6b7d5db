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
