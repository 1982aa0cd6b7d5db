"""Strict reading of the tensor container and of the WMF1/EMB1 model files built on it."""

import json
import re
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synth import model_tensors
from facemark import bioeval as be
from facemark import cli
from facemark import watermarknet as wm
from facemark.containers import read_container, write_container

MAGIC = b"TST1"


def container_bytes(header, payload=b"", magic=MAGIC):
    raw = json.dumps(header).encode("utf-8")
    return magic + struct.pack("<I", len(raw)) + raw + payload


GOOD_HEADER = {"config": {}, "step": 0, "tensors": [["w", [2]]]}
GOOD_PAYLOAD = np.array([1.0, 2.0], dtype="<f4").tobytes()

DATA = Path(__file__).resolve().parent / "data"
GOLDEN_MODEL = (DATA / "golden_model.wmf").read_bytes()
GOLDEN_EMBEDDER = (DATA / "golden_embedder.emb").read_bytes()


def golden_with_first_weight(golden, value):
    """A golden model file under MAGIC with its first float32 payload value replaced."""
    start = 8 + struct.unpack("<I", golden[4:8])[0]
    return MAGIC + golden[4:start] + np.array([value], dtype="<f4").tobytes() + golden[start + 4 :]


class TestReadContainer:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.bin"
        write_container(path, MAGIC, {"k": 1}, 7, [("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(1))])
        config, step, tensors = read_container(path, MAGIC)
        assert config == {"k": 1} and step == 7 and list(tensors) == ["w", "b"]
        np.testing.assert_array_equal(tensors["w"], np.arange(6.0).reshape(2, 3))

    @pytest.mark.parametrize(
        "data, match",
        [
            (b"XXXX" + container_bytes(GOOD_HEADER, GOOD_PAYLOAD)[4:], "bad magic"),
            (MAGIC + b"\x01\x00", "truncated before header length"),
            (MAGIC + struct.pack("<I", 100) + b'{"config"', "truncated header"),
            (MAGIC + struct.pack("<I", 5) + b"{nope", "malformed header"),
            (container_bytes({"config": {}, "tensors": []}), "header missing field 'step'"),
            (container_bytes(GOOD_HEADER, GOOD_PAYLOAD[:6]), "truncated payload in tensor 'w'"),
            (container_bytes(GOOD_HEADER, GOOD_PAYLOAD + b"\x00"), "1 trailing bytes"),
            (container_bytes([GOOD_HEADER]), "header is not a JSON object"),
            (container_bytes({**GOOD_HEADER, "config": [1]}, GOOD_PAYLOAD), "field 'config' is not a JSON object"),
            (container_bytes({**GOOD_HEADER, "step": "3"}, GOOD_PAYLOAD), "field 'step' is not an integer"),
            (container_bytes({**GOOD_HEADER, "step": 1e400}, GOOD_PAYLOAD), "field 'step' is not an integer"),
            (container_bytes({**GOOD_HEADER, "tensors": 5}), "field 'tensors' is not a list"),
            (container_bytes({**GOOD_HEADER, "tensors": [["w"]]}), "manifest entry ['w'] is not [name, [dims]]"),
            (container_bytes({**GOOD_HEADER, "tensors": [[5, [2]]]}), "manifest entry [5, [2]] is not"),
            (container_bytes({**GOOD_HEADER, "tensors": [["w", "ab"]]}), "tensor 'w' has bad dims 'ab'"),
            (container_bytes({**GOOD_HEADER, "tensors": [["w", [2.5]]]}), "tensor 'w' has bad dims [2.5]"),
            (container_bytes({**GOOD_HEADER, "tensors": [["w", [[2]]]]}), "tensor 'w' has bad dims [[2]]"),
            (container_bytes({**GOOD_HEADER, "tensors": [["w", [-1, -2]]]}, GOOD_PAYLOAD), "tensor 'w' has bad dims"),
            (container_bytes({**GOOD_HEADER, "tensors": [["w", [True, 2]]]}, GOOD_PAYLOAD), "tensor 'w' has bad dims"),
            (container_bytes({**GOOD_HEADER, "tensors": [["w", [2**40, 2**40]]]}), "truncated payload in tensor 'w'"),
            (
                container_bytes({**GOOD_HEADER, "tensors": [["w", [2]], ["w", [2]]]}, GOOD_PAYLOAD * 2),
                "tensor 'w' is listed twice",
            ),
            (MAGIC + struct.pack("<I", 20000) + b"[" * 10000 + b"]" * 10000, "malformed header"),
            (golden_with_first_weight(GOLDEN_MODEL, np.nan), "tensor 'enc.block0.conv.weight' holds NaN or Inf"),
            (golden_with_first_weight(GOLDEN_MODEL, np.inf), "tensor 'enc.block0.conv.weight' holds NaN or Inf"),
            (golden_with_first_weight(GOLDEN_EMBEDDER, np.nan), "tensor 'emb.block0.conv.weight' holds NaN or Inf"),
            (golden_with_first_weight(GOLDEN_EMBEDDER, -np.inf), "tensor 'emb.block0.conv.weight' holds NaN or Inf"),
        ],
        ids=[
            "magic", "length", "header", "json", "field", "payload", "trailing",
            "header-list", "config-list", "step-str", "step-inf", "tensors-int", "entry-short", "entry-name",
            "dims-str", "dims-float", "dims-nested", "dims-negative", "dims-bool", "dims-huge", "duplicate",
            "deep-json", "wmf1-nan", "wmf1-inf", "emb1-nan", "emb1-inf",
        ],
    )
    def test_corrupt_file_rejected(self, tmp_path, data, match):
        path = tmp_path / "c.bin"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(match)):
            read_container(path, MAGIC)


GOLDEN_HEADER_END = 8 + struct.unpack("<I", GOLDEN_MODEL[4:8])[0]
# just past each digit of the header: where ".5" or "e1" turns a dim into a float
GOLDEN_DIGIT_ENDS = [i + 1 for i in range(8, GOLDEN_HEADER_END) if GOLDEN_MODEL[i : i + 1].isdigit()]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
manifest_entries = st.one_of(
    st.tuples(st.sampled_from(["w", "b"]), st.lists(st.integers(-3, 2**40), max_size=3)).map(list),
    json_values,
)
# headers with any subset of the three fields, or any JSON value at all
headers = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "config": json_values,
            "step": json_values,
            "tensors": st.one_of(st.lists(manifest_entries, max_size=4), json_values),
        },
    ),
    json_values,
)


def reads_or_raises_value_error(path, data, magic):
    path.write_bytes(data)
    try:
        read_container(path, magic)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "c.bin"


class TestReadContainerFuzz:
    """Whatever the bytes, ``read_container`` returns or raises ValueError."""

    # A flipped payload byte can spell a signalling NaN, whose float64 cast warns.
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(
        edit=st.sampled_from(["truncate", "flip", "insert"]),
        # half the edits land in the 8-byte prefix or the JSON header
        pos=st.one_of(st.integers(0, GOLDEN_HEADER_END), st.integers(0, len(GOLDEN_MODEL))),
        mask=st.integers(1, 255),
        inserted=st.binary(min_size=1, max_size=8),
    )
    def test_edited_golden_model(self, fuzz_path, edit, pos, mask, inserted):
        data = bytearray(GOLDEN_MODEL)
        if edit == "truncate":
            del data[pos:]
        elif edit == "flip" and pos < len(data):
            data[pos] ^= mask
        else:
            data[pos:pos] = inserted
        reads_or_raises_value_error(fuzz_path, bytes(data), wm.MODEL_MAGIC)

    @settings(max_examples=200, deadline=None)
    @given(
        pos=st.one_of(st.sampled_from(GOLDEN_DIGIT_ENDS), st.integers(8, GOLDEN_HEADER_END)),
        token=st.sampled_from([b".5", b"e1", b"-", b"[", b"]", b'"', b",", b"null"]),
    )
    def test_token_inserted_into_golden_header(self, fuzz_path, pos, token):
        # with the length prefix following the header, the JSON can stay valid
        data = bytearray(GOLDEN_MODEL)
        data[pos:pos] = token
        data[4:8] = struct.pack("<I", GOLDEN_HEADER_END - 8 + len(token))
        reads_or_raises_value_error(fuzz_path, bytes(data), wm.MODEL_MAGIC)

    @settings(max_examples=400, deadline=None)
    @given(header=headers, payload=st.binary(max_size=48))
    def test_random_manifest(self, fuzz_path, header, payload):
        reads_or_raises_value_error(fuzz_path, container_bytes(header, payload), MAGIC)


# ---------------------------------------------------------------------------
# WMF1 and EMB1 state dicts
# ---------------------------------------------------------------------------

def wmf_parts():
    model = wm.build_model(wm.WatermarkConfig(message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=2), 1)
    return asdict(model.config), model_tensors(model)


def emb_parts():
    cfg = be.EmbedderConfig(embed_dim=4, num_classes=2, base_channels=3, image_size=8, class_labels=("a", "b"))
    return asdict(cfg), model_tensors(be._build_embedder(cfg, seed=1))


@dataclass(frozen=True)
class Format:
    magic: bytes
    load: Callable
    parts: Callable  # () -> (config dict, [(name, array)]) of a fresh model with every slot's statistics
    tensor: str  # a parameter name
    slot: str  # a batchnorm slot
    unknown_slot: str
    out_of_range: tuple  # (config key, a JSON integer its config class rejects)
    command: Callable  # (model path, scratch dir) -> a CLI argv that loads the model before any other file


    def write(self, path, edit_tensors=lambda t: t, edit_config=lambda c: c):
        config, tensors = self.parts()
        write_container(path, self.magic, edit_config(config), 3, edit_tensors(tensors))


FORMATS = {
    "wmf1": Format(
        wm.MODEL_MAGIC, wm.load_model, wmf_parts,
        "dec.block1.conv.bias", "dec.bits.bn", "dec.block9.bn", ("message_length", 0),
        lambda path, d: ["extract", "--model", str(path), str(d / "in.ppm")],
    ),
    "emb1": Format(
        be.EMBEDDER_MAGIC, be.load_embedder, emb_parts,
        "emb.block1.conv.bias", "emb.block1.bn", "emb.block9.bn", ("embed_dim", 0),
        lambda path, d: ["verify", "--embedder", str(path), str(d / "manifest.txt"), str(d / "out.txt")],
    ),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request):
    return FORMATS[request.param]


# Each format with a parameter's name, under the format's own id, then with a running mean's name.
MISSING_CASES = [pytest.param(f, f.tensor, id=k) for k, f in sorted(FORMATS.items())] + [
    pytest.param(f, f"{f.slot}.running_mean", id=f"{k}-running_mean") for k, f in sorted(FORMATS.items())
]


class TestLoadState:
    def test_statistics_land_in_their_slot(self, tmp_path, fmt):
        fmt.write(tmp_path / "m")
        model = fmt.load(tmp_path / "m")
        written = dict(fmt.parts()[1])
        for slot, running in model.params.stats.items():
            np.testing.assert_array_equal(running.mean, written[f"{slot}.running_mean"])
            np.testing.assert_array_equal(running.var, written[f"{slot}.running_var"])
        assert model.step == 3

    @pytest.mark.parametrize("fmt, name", MISSING_CASES)
    def test_missing_tensor(self, tmp_path, fmt, name):
        fmt.write(tmp_path / "m", lambda t: [(n, v) for n, v in t if n != name])
        with pytest.raises(ValueError, match=re.escape(f"missing tensor {name!r}")):
            fmt.load(tmp_path / "m")

    def test_wrong_shape(self, tmp_path, fmt):
        fmt.write(tmp_path / "m", lambda t: [(n, np.zeros(7) if n == fmt.tensor else v) for n, v in t])
        with pytest.raises(ValueError, match=re.escape(f"tensor {fmt.tensor!r} has shape (7,)")):
            fmt.load(tmp_path / "m")

    # A misshapen running mean is reported by name, whether its variance is misshapen too or not.
    @pytest.mark.parametrize("pair", [True, False], ids=["pair", "lone"])
    def test_wrong_statistics_shape(self, tmp_path, fmt, pair):
        misshapen = {f"{fmt.slot}.running_mean"} | ({f"{fmt.slot}.running_var"} if pair else set())
        fmt.write(tmp_path / "m", lambda t: [(n, np.zeros(11) if n in misshapen else v) for n, v in t])
        with pytest.raises(ValueError, match=re.escape(f"tensor '{fmt.slot}.running_mean' has shape (11,)")):
            fmt.load(tmp_path / "m")

    def test_unexpected_tensor(self, tmp_path, fmt):
        extra = fmt.tensor.replace("conv.bias", "conv.scale")
        fmt.write(tmp_path / "m", lambda t: t + [(extra, np.zeros(3))])
        with pytest.raises(ValueError, match=re.escape(f"unexpected tensor {extra!r}")):
            fmt.load(tmp_path / "m")

    def test_unknown_slot(self, tmp_path, fmt):
        name = f"{fmt.unknown_slot}.running_mean"
        fmt.write(tmp_path / "m", lambda t: t + [(name, np.zeros(3)), (f"{fmt.unknown_slot}.running_var", np.ones(3))])
        with pytest.raises(ValueError, match=re.escape(f"unexpected tensor {name!r}")):
            fmt.load(tmp_path / "m")

    def test_unknown_config_key(self, tmp_path, fmt):
        fmt.write(tmp_path / "m", edit_config=lambda c: {**c, "bogus_key": 1})
        with pytest.raises(ValueError, match=r"bad config block: .*'bogus_key'"):
            fmt.load(tmp_path / "m")

    @pytest.mark.parametrize("value", [4.0, True, "4", None], ids=["float", "bool", "str", "null"])
    def test_int_config_field_must_be_a_json_integer(self, tmp_path, fmt, value):
        fmt.write(tmp_path / "m", edit_config=lambda c: {**c, "base_channels": value})
        with pytest.raises(ValueError, match=r"bad config block: .*'base_channels'"):
            fmt.load(tmp_path / "m")

    def test_out_of_range_config_value(self, tmp_path, fmt, capsys):
        key, value = fmt.out_of_range
        fmt.write(tmp_path / "m", edit_config=lambda c: {**c, key: value})
        with pytest.raises(ValueError, match=f"bad config block: {key} must"):
            fmt.load(tmp_path / "m")
        assert cli.cli_dispatch(fmt.command(tmp_path / "m", tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"bad config block: {key} must" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_weight(self, tmp_path, fmt, value):
        fmt.write(tmp_path / "m", lambda t: [(n, np.full(v.shape, value) if n == fmt.tensor else v) for n, v in t])
        with pytest.raises(ValueError, match=re.escape(f"tensor {fmt.tensor!r} holds NaN or Inf")):
            fmt.load(tmp_path / "m")


def test_model_file_without_statistics_exits_2(tmp_path, capsys, fmt):
    path = tmp_path / "m"
    fmt.write(path, lambda t: [(n, v) for n, v in t if ".running_" not in n])
    first = next(n for n, _ in fmt.parts()[1] if n.endswith(".running_mean"))
    assert cli.cli_dispatch(fmt.command(path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"{path}: missing tensor {first!r}" in err
    assert "Traceback" not in err


def test_untrained_model_is_not_saved(tmp_path):
    path = tmp_path / "untrained.wmf"
    with pytest.raises(ValueError, match=re.escape("batchnorm slot 'enc.block0.bn' has no running statistics")):
        wm.save_model(wm.build_model(wm.WatermarkConfig(message_length=4, base_channels=3)), path)
    assert not path.exists()


def test_cli_extract_with_corrupt_model_exits_2(tmp_path, capsys):
    path = tmp_path / "corrupt.wmf"
    FORMATS["wmf1"].write(path, lambda t: t[1:])
    assert cli.cli_dispatch(["extract", "--model", str(path), str(tmp_path / "in.ppm")]) == 2
    err = capsys.readouterr().err
    assert "missing tensor 'enc.block0.conv.weight'" in err
    assert "Traceback" not in err


def test_cli_extract_with_float_config_field_exits_2(tmp_path, capsys):
    path = tmp_path / "float.wmf"
    FORMATS["wmf1"].write(path, edit_config=lambda c: {**c, "base_channels": 3.0})
    assert cli.cli_dispatch(["extract", "--model", str(path), str(tmp_path / "in.ppm")]) == 2
    err = capsys.readouterr().err
    assert "bad config block" in err and "'base_channels'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "tensors, match",
    [
        (5, "header field 'tensors' is not a list"),
        ([["w", "ab"]], "tensor 'w' has bad dims 'ab'"),
        ([["w", [2]], ["w", [2]]], "tensor 'w' is listed twice"),
    ],
    ids=["tensors-int", "dims-str", "duplicate"],
)
def test_cli_extract_with_malformed_manifest_exits_2(tmp_path, capsys, tensors, match):
    path = tmp_path / "malformed.wmf"
    path.write_bytes(container_bytes({**GOOD_HEADER, "tensors": tensors}, GOOD_PAYLOAD * 2, wm.MODEL_MAGIC))
    assert cli.cli_dispatch(["extract", "--model", str(path), str(tmp_path / "in.ppm")]) == 2
    err = capsys.readouterr().err
    assert match in err
    assert "Traceback" not in err
