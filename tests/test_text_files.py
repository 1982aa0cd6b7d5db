"""Plain-text files: the one line reader and writer in ``containers``, the
contract every text reader inherits from them, and the exact bytes of the
text writers that no golden file covers."""

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import pytest

from _synth import texture_images
from facemark import bioeval, cli, containers, imageops, msgcodec, pipeline

SRC = Path(__file__).resolve().parents[1] / "src" / "facemark"


def test_read_lines_numbers_and_strips_each_non_blank_line(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes(b"  one \n\n\t\ntwo\r\n\r\nthree\rfour")
    assert list(containers.read_lines(path)) == [(1, "one"), (4, "two"), (6, "three"), (7, "four")]


def test_read_lines_splits_at_no_other_line_boundary(tmp_path):
    path = tmp_path / "a.txt"
    path.write_bytes("a\vb\fc\x1cd\x1de\x1ef\x85g\u2028h\u2029i\n".encode("utf-8"))
    assert list(containers.read_lines(path)) == [(1, "a\vb\fc\x1cd\x1de\x1ef\x85g\u2028h\u2029i")]


def test_read_lines_of_an_empty_file_is_empty(tmp_path):
    (tmp_path / "empty.txt").write_bytes(b"")
    assert list(containers.read_lines(tmp_path / "empty.txt")) == []


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_read_lines_names_the_line_of_an_undecodable_byte(tmp_path, newline):
    path = tmp_path / "a.txt"
    path.write_bytes(newline.join([b"ok", b"", b"caf\xc3\xa9", b"x\xffy", b"z"]))
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: 'utf-8' codec can't decode byte 0xff")):
        list(containers.read_lines(path))


def test_write_lines_ends_every_line_with_a_newline(tmp_path):
    path = tmp_path / "out.txt"
    containers.write_lines(path, ["a,b", "", "café"])
    assert path.read_bytes() == "a,b\n\ncafé\n".encode("utf-8")
    containers.write_lines(path, iter([]))
    assert path.read_bytes() == b""


# ---------------------------------------------------------------------------
# the reader contract, over the four text readers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reader:
    """A text reader, a valid file for it, and what it reads from that file."""

    read: Callable[[Path], Any]
    lines: list
    expected: Any


def _manifest(path):
    manifest = pipeline.load_manifest(path)
    return manifest.source_tag, manifest.entries


def _embeddings(path):
    return [(e.identity, e.source, e.vector.tolist()) for e in bioeval.load_embeddings(path)]


READERS = {
    "config": Reader(pipeline.read_config, ["# run", "steps = 1", "batch_size=2"], {"steps": "1", "batch_size": "2"}),
    "manifest": Reader(_manifest, ["# source_tag: watermarked", "a.ppm,id0", "sub/b.ppm,id1"],
                       ("watermarked", [("a.ppm", "id0"), ("sub/b.ppm", "id1")])),
    "embeddings": Reader(_embeddings, ["a,original,1 2.5", "b,watermarked,-3 0.25"],
                         [("a", "original", [1.0, 2.5]), ("b", "watermarked", [-3.0, 0.25])]),
    "signature": Reader(lambda path: msgcodec.load_signature(path).tolist(), ["2 3", "010", "111"],
                        [[0, 1, 0], [1, 1, 1]]),
}


@pytest.fixture
def text_dir(tmp_path):
    """A directory holding the images that the manifest reader's file lists."""
    (tmp_path / "sub").mkdir()
    for rel in ("a.ppm", "sub/b.ppm"):
        (tmp_path / rel).write_bytes(b"P6 1 1 255 xyz")
    return tmp_path


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_every_line_ending_reads_the_same(text_dir, name, newline):
    reader = READERS[name]
    path = text_dir / "file.txt"
    path.write_bytes((newline.join(reader.lines) + newline).encode("ascii"))
    assert reader.read(path) == reader.expected


@pytest.mark.parametrize("name", READERS)
def test_an_undecodable_byte_names_its_file_and_line(text_dir, name):
    lines = [line.encode("ascii") for line in READERS[name].lines]
    lines[1] += b"\xff"
    path = text_dir / "file.txt"
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ValueError) as info:
        READERS[name].read(path)
    assert str(info.value).startswith(f"{path}:2: ")
    assert "can't decode byte 0xff" in str(info.value)


# A form feed joins each file's last two lines into one; a reader that split at
# it would read the valid file instead. A string is the error the reader raises.
FORM_FEED_OUTCOMES = {
    "config": {"steps": "1\fbatch_size=2"},
    "manifest": ("watermarked", [("a.ppm", "id0\fsub/b.ppm,id1")]),
    "embeddings": ":1: expected 'identity,source,values'",
    "signature": "expected 2 bitmap rows, found 1",
}


@pytest.mark.parametrize("name", READERS)
def test_a_form_feed_does_not_split_a_line(text_dir, name):
    reader, outcome = READERS[name], FORM_FEED_OUTCOMES[name]
    *head, first, second = reader.lines
    path = text_dir / "file.txt"
    path.write_text("\n".join([*head, f"{first}\f{second}"]) + "\n", encoding="ascii")
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=re.escape(outcome)):
            reader.read(path)
    else:
        assert reader.read(path) == outcome


@pytest.mark.parametrize(
    "record, message",
    [
        ("b,original,1 x", "could not convert string to float: 'x'"),
        ("b,original,1 nan", "embedding vector contains NaN or Inf"),
        ("b,original,inf 1", "embedding vector contains NaN or Inf"),
        (",original,1 2", "embedding is missing its identity label"),
    ],
    ids=["bad-float", "nan", "inf", "empty-identity"],
)
def test_load_embeddings_names_the_line_of_a_bad_record(tmp_path, record, message):
    path = tmp_path / "emb.txt"
    path.write_text(f"a,original,1 2\n\n{record}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:3: {message}')}$"):
        bioeval.load_embeddings(path)


@pytest.mark.parametrize(
    "text, message",
    [("\n \n", "no embedding records found"), ("a,original,1 2\nb,original,1 2 3\n", "inconsistent embedding dimensions [2, 3]")],
    ids=["no-records", "two-dimensions"],
)
def test_load_embeddings_names_the_path_of_a_bad_set(tmp_path, text, message):
    path = tmp_path / "emb.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        bioeval.load_embeddings(path)


def test_save_embeddings_rejects_a_comma_in_an_identity(tmp_path):
    embeddings = [bioeval.Embedding(np.array([1.0, 2.0]), "smith,j", "original")]
    with pytest.raises(ValueError, match=re.escape("identity/source must not contain commas: 'smith,j'/'original'")):
        bioeval.save_embeddings(embeddings, tmp_path / "emb.txt")
    assert not (tmp_path / "emb.txt").exists()


# ---------------------------------------------------------------------------
# writer bytes, fixed inputs against text written by the original writers
# ---------------------------------------------------------------------------

def test_history_csv_bytes(tmp_path):
    history = [
        {"step": 1, "recon_loss": 0.1, "decode_loss": 2 / 3, "bit_acc": 0.5, "psnr": 31.25},
        {"step": 2, "recon_loss": 1e-05, "decode_loss": 0.6931471805599453, "bit_acc": 0.875, "psnr": float("inf")},
    ]
    pipeline.write_history(history, tmp_path / "history.csv")
    assert (tmp_path / "history.csv").read_bytes() == (
        b"step,recon_loss,decode_loss,bit_acc,psnr\n1,0.1,0.6666666666666666,0.5,31.25\n2,1e-05,0.6931471805599453,0.875,inf\n"
    )


def test_train_embedder_history_csv_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(bioeval, "train_embedder", lambda images, identities, config: (None, [2.5, 1 / 3, 1e-07]))
    monkeypatch.setattr(bioeval, "save_embedder", lambda model, path: None)
    imageops.save_ppm(texture_images(1, 16, seed=1)[0], tmp_path / "img0.ppm")
    (tmp_path / "manifest.csv").write_text("img0.ppm,a\n", encoding="utf-8")
    (tmp_path / "run.cfg").write_text("epochs=3\n", encoding="utf-8")
    argv = ["train-embedder", "--config", tmp_path / "run.cfg", "--history", tmp_path / "loss.csv",
            tmp_path / "manifest.csv", tmp_path / "out.emb"]
    assert cli.cli_dispatch([str(arg) for arg in argv]) == 0
    assert (tmp_path / "loss.csv").read_bytes() == b"epoch,loss\n1,2.5\n2,0.3333333333333333\n3,1e-07\n"


def test_sweep_csv_bytes(tmp_path):
    cells = [
        pipeline.SweepCell("crop", 1.0, 1.0, 0.0, 4),
        pipeline.SweepCell("crop", 0.75, 0.9375, 1 / 16, 4),
        pipeline.SweepCell("jpeg", 90, 0.8125, 0.125, 4),
        pipeline.SweepCell("resize", 0.5, float("nan"), float("nan"), 0, "too small"),
    ]
    pipeline.write_sweep_csv(cells, tmp_path / "sweep.csv")
    assert (tmp_path / "sweep.csv").read_bytes() == (
        b"kind,factor,mean_bit_acc,std,n\ncrop,1.0,1.0,0.0,4\ncrop,0.75,0.9375,0.0625,4\njpeg,90,0.8125,0.125,4\n"
        b"resize,0.5,nan,nan,0\n"
    )


def test_manifest_bytes(tmp_path):
    manifest = pipeline.DatasetManifest(entries=[("img0.ppm", "alice"), ("sub/img1.ppm", "bob")], root=tmp_path,
                                        source_tag="watermarked")
    pipeline.save_manifest(manifest, tmp_path / "manifest.csv")
    assert (tmp_path / "manifest.csv").read_bytes() == b"# source_tag: watermarked\nimg0.ppm,alice\nsub/img1.ppm,bob\n"


def test_embeddings_bytes(tmp_path):
    embeddings = [bioeval.Embedding(np.array([0.1, -2.5, 1 / 3]), "alice", "original"),
                  bioeval.Embedding(np.array([1e-08, 3.0, -0.0]), "bob", "watermarked")]
    bioeval.save_embeddings(embeddings, tmp_path / "emb.txt")
    assert (tmp_path / "emb.txt").read_bytes() == (
        b"alice,original,0.100000001 -2.5 0.333333343\nbob,watermarked,9.99999994e-09 3 -0\n"
    )


# ---------------------------------------------------------------------------
# tooling guard: text files are opened in one place
# ---------------------------------------------------------------------------

def _opens_text(call):
    """Whether a call is ``read_text``, ``write_text``, or an ``open`` whose mode is not a literal binary mode."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_text", "write_text"):
        return True
    if name != "open":
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    position = 1 if isinstance(func, ast.Name) else 0  # open(path, mode) or path.open(mode)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value)


def test_only_write_lines_opens_a_text_file():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _opens_text(node):
                owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                sites.append((path.name, owners[-1] if owners else "<module>"))
    assert sites == [("containers.py", "write_lines")]
