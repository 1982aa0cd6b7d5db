"""Message representation, signatures, bit decisions, accuracy scoring."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facemark import msgcodec as mc


class TestRandomMessage:
    def test_independent_messages_agree_at_chance(self):
        pairs = np.random.default_rng(0).integers(0, 2, size=(10_000, 2, 48), dtype=np.uint8)
        rng_acc = [mc.bit_accuracy(a, b) for a, b in pairs]
        assert abs(np.mean(rng_acc) - 0.5) <= 0.02


class TestBitmapConversion:
    def test_row_major_order(self):
        bitmap = np.array([[1, 0], [0, 1]])
        np.testing.assert_array_equal(mc.bitmap_to_message(bitmap), [1, 0, 0, 1])

    def test_all_zero(self):
        np.testing.assert_array_equal(mc.bitmap_to_message(np.zeros((3, 4), dtype=int)), np.zeros(12))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            bitmap = rng.integers(0, 2, size=(h, w))
            back = mc.bitmap_to_message(bitmap).reshape(h, w)
            np.testing.assert_array_equal(back, bitmap)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            mc.bitmap_to_message(np.array([[0, 2]]))


class TestDefaultSignature:
    def test_file_round_trip(self, tmp_path):
        bitmap = np.random.default_rng(3).integers(0, 2, size=(8, 6), dtype=np.uint8)
        path = tmp_path / "sig.txt"
        path.write_text("8 6\n" + "".join("".join(map(str, row)) + "\n" for row in bitmap), encoding="ascii")
        np.testing.assert_array_equal(mc.load_signature(path), bitmap)

    def test_cli_embed_signature_writes_the_flattened_message(self, tmp_path):
        from _synth import texture_images
        from facemark import cli, imageops

        model = str(Path(__file__).parent / "data" / "golden_model.wmf")  # 8-bit messages
        image = tmp_path / "in.ppm"
        imageops.save_ppm(texture_images(1, seed=4)[0], image)
        (tmp_path / "sig.txt").write_text("2 4\n0110\n1101\n", encoding="ascii")
        runs = {"signature": ["--signature", str(tmp_path / "sig.txt")], "message": ["--message", "01101101"]}
        for name, flags in runs.items():
            assert cli.cli_dispatch(["embed", "--model", model, *flags, str(image), str(tmp_path / f"{name}.ppm")]) == 0
        assert (tmp_path / "signature.ppm").read_bytes() == (tmp_path / "message.ppm").read_bytes()

    def test_malformed_signature_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n010\n01\n")
        with pytest.raises(ValueError, match="row"):
            mc.load_signature(path)

    @pytest.mark.parametrize("head", ["0 4", "-1 4", "4 0", "2 -3", "2 x", "2", "2 3 4"])
    def test_header_below_one_or_malformed_is_named(self, tmp_path, head):
        path = tmp_path / "bad.txt"
        path.write_text(f"{head}\n0101\n", encoding="ascii")
        with pytest.raises(ValueError, match=re.escape(f"first line must be 'H W' with H, W >= 1, got {head!r}")):
            mc.load_signature(path)


@pytest.fixture(scope="module")
def signature_path(tmp_path_factory):
    return tmp_path_factory.mktemp("signatures") / "sig.txt"


signature_lines = st.one_of(
    st.tuples(st.sampled_from(["0", "1", "2", "3", "-1", "+2", "02", "x", ""]), st.sampled_from([" ", "\t", "  "]),
              st.sampled_from(["0", "1", "2", "4", "-1", "1.5", ""])).map("".join),
    st.text(alphabet="01 \tx", max_size=6),
    st.text(max_size=6),
)


class TestLoadSignatureFuzz:
    """Whatever the text, ``load_signature`` returns an H x W bitmap of 0/1 with H, W >= 1, or raises a ValueError
    that names the file."""

    @settings(max_examples=400, deadline=None)
    @given(lines=st.lists(signature_lines, max_size=5), tail=st.binary(max_size=3))
    def test_reads_or_raises(self, signature_path, lines, tail):
        signature_path.write_bytes("\n".join(lines).encode("utf-8", "surrogatepass") + tail)
        try:
            bitmap = mc.load_signature(signature_path)
        except ValueError as exc:
            assert str(exc).startswith(f"{signature_path}:")
            return
        assert bitmap.ndim == 2 and bitmap.dtype == np.uint8 and min(bitmap.shape) >= 1
        assert set(np.unique(bitmap)) <= {0, 1}
        head = signature_path.read_text(encoding="ascii").split()[:2]
        assert bitmap.shape == (int(head[0]), int(head[1]))


class TestLogitsToMessage:
    def test_sign_rule(self):
        np.testing.assert_array_equal(mc.logits_to_message([2.3, -0.5, 0.1]), [1, 0, 1])

    def test_zero_maps_to_zero(self):
        np.testing.assert_array_equal(mc.logits_to_message([0.0, 0.0]), [0, 0])

    def test_large_values(self):
        np.testing.assert_array_equal(mc.logits_to_message([1000.0, -1000.0]), [1, 0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            mc.logits_to_message([0.0, float("nan")])

    def test_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            logits = rng.standard_normal(16)
            for factor in (0.001, 3.0, 1e6):
                np.testing.assert_array_equal(
                    mc.logits_to_message(logits), mc.logits_to_message(logits * factor)
                )


class TestBitAccuracy:
    def test_identical(self):
        m = np.random.default_rng(3).integers(0, 2, 32, dtype=np.uint8)
        assert mc.bit_accuracy(m, m) == 1.0

    def test_three_quarters(self):
        assert mc.bit_accuracy([0, 1, 0, 1], [0, 1, 1, 1]) == 0.75

    def test_complement_is_zero(self):
        m = np.random.default_rng(4).integers(0, 2, 32, dtype=np.uint8)
        assert mc.bit_accuracy(m, 1 - m) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="lengths"):
            mc.bit_accuracy([0, 1], [0, 1, 1])

    def test_complement_sum_is_exactly_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.integers(0, 2, 24)
            m_hat = rng.integers(0, 2, 24)
            assert mc.bit_accuracy(m, m_hat) + mc.bit_accuracy(m, 1 - m_hat) == 1.0


class TestBitStrings:
    def test_parse_and_format(self):
        msg = mc.parse_bits("0110")
        np.testing.assert_array_equal(msg, [0, 1, 1, 0])
        assert mc.format_bits(msg) == "0110"

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            mc.parse_bits("01x0")
        with pytest.raises(ValueError):
            mc.parse_bits("")
