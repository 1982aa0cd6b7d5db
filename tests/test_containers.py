"""Strict reading of the tensor container and of the WMF1/EMB1 model files built on it."""

import json
import re
import struct
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
import pytest

from facemark import bioeval as be
from facemark import cli
from facemark import watermarknet as wm
from facemark.containers import read_container, write_container

MAGIC = b"TST1"


def container_bytes(header, payload=b""):
    raw = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<I", len(raw)) + raw + payload


GOOD_HEADER = {"config": {}, "step": 0, "tensors": [["w", [2]]]}
GOOD_PAYLOAD = np.array([1.0, 2.0], dtype="<f4").tobytes()


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
        ],
        ids=["magic", "length", "header", "json", "field", "payload", "trailing"],
    )
    def test_corrupt_file_rejected(self, tmp_path, data, match):
        path = tmp_path / "c.bin"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(match)):
            read_container(path, MAGIC)


# ---------------------------------------------------------------------------
# WMF1 and EMB1 state dicts
# ---------------------------------------------------------------------------

def wmf_parts():
    model = wm.build_model(wm.WatermarkConfig(message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=2), 1)
    params = [*model.encoder.items(), *model.decoder.items()]
    return asdict(model.config), [(name, node.value) for name, node in params]


def emb_parts():
    cfg = be.EmbedderConfig(embed_dim=4, num_classes=2, base_channels=3, image_size=8)
    model = be._build_embedder(cfg, ["a", "b"], seed=1)
    return {**asdict(cfg), "class_labels": ["a", "b"]}, [(name, node.value) for name, node in model.params.items()]


@dataclass(frozen=True)
class Format:
    magic: bytes
    load: Callable
    parts: Callable  # () -> (config dict, [(name, array)]) of a fresh model
    stats_of: Callable  # model -> {slot: RunningStats}
    tensor: str  # a parameter name
    slot: str  # a batchnorm slot
    unknown_slot: str

    def write(self, path, edit_tensors=lambda t: t, edit_config=lambda c: c):
        config, tensors = self.parts()
        write_container(path, self.magic, edit_config(config), 3, edit_tensors(tensors))

    def channels(self):
        return dict(self.parts()[1])[f"{self.slot}.gamma"].shape


FORMATS = {
    "wmf1": Format(
        wm.MODEL_MAGIC, wm.load_model, wmf_parts,
        lambda m: dict(zip(m.encoder.bn_slots() + m.decoder.bn_slots(), m.enc_stats + m.dec_stats)),
        "dec.block1.conv.bias", "dec.bits.bn", "dec.block9.bn",
    ),
    "emb1": Format(
        be.EMBEDDER_MAGIC, be.load_embedder, emb_parts,
        lambda m: dict(zip(m.params.bn_slots(), m.stats)),
        "emb.block1.conv.bias", "emb.block1.bn", "emb.block9.bn",
    ),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request):
    return FORMATS[request.param]


class TestLoadState:
    def test_statistics_land_in_their_slot(self, tmp_path, fmt):
        shape = fmt.channels()
        stats = [(f"{fmt.slot}.running_mean", np.full(shape, 0.5)), (f"{fmt.slot}.running_var", np.full(shape, 2.0))]
        fmt.write(tmp_path / "m", lambda t: t + stats)
        model = fmt.load(tmp_path / "m")
        loaded = fmt.stats_of(model)
        assert [slot for slot, running in loaded.items() if running.populated] == [fmt.slot]
        np.testing.assert_array_equal(loaded[fmt.slot].mean, np.full(shape, 0.5))
        np.testing.assert_array_equal(loaded[fmt.slot].var, np.full(shape, 2.0))
        assert model.step == 3

    def test_missing_tensor(self, tmp_path, fmt):
        fmt.write(tmp_path / "m", lambda t: [(n, v) for n, v in t if n != fmt.tensor])
        with pytest.raises(ValueError, match=re.escape(f"missing tensor {fmt.tensor!r}")):
            fmt.load(tmp_path / "m")

    def test_wrong_shape(self, tmp_path, fmt):
        fmt.write(tmp_path / "m", lambda t: [(n, np.zeros(7) if n == fmt.tensor else v) for n, v in t])
        with pytest.raises(ValueError, match=re.escape(f"tensor {fmt.tensor!r} has shape (7,)")):
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

    def test_incomplete_pair(self, tmp_path, fmt):
        fmt.write(tmp_path / "m", lambda t: t + [(f"{fmt.slot}.running_var", np.ones(fmt.channels()))])
        with pytest.raises(ValueError, match=re.escape(f"running statistics for {fmt.slot!r} are incomplete")):
            fmt.load(tmp_path / "m")

    @pytest.mark.parametrize("pair", [True, False], ids=["pair", "lone"])
    def test_wrong_statistics_shape(self, tmp_path, fmt, pair):
        stats = [(f"{fmt.slot}.running_mean", np.zeros(11))]
        if pair:
            stats.append((f"{fmt.slot}.running_var", np.ones(fmt.channels())))
        fmt.write(tmp_path / "m", lambda t: t + stats)
        with pytest.raises(ValueError, match=re.escape(f"running statistics for {fmt.slot!r} have wrong shape")):
            fmt.load(tmp_path / "m")

    def test_unknown_config_key(self, tmp_path, fmt):
        fmt.write(tmp_path / "m", edit_config=lambda c: {**c, "bogus_key": 1})
        with pytest.raises(ValueError, match=r"bad config block: .*'bogus_key'"):
            fmt.load(tmp_path / "m")


def test_cli_extract_with_corrupt_model_exits_2(tmp_path, capsys):
    path = tmp_path / "corrupt.wmf"
    FORMATS["wmf1"].write(path, lambda t: t[1:])
    assert cli.cli_dispatch(["extract", "--model", str(path), str(tmp_path / "in.ppm")]) == 2
    err = capsys.readouterr().err
    assert "missing tensor 'enc.block0.conv.weight'" in err
    assert "Traceback" not in err
