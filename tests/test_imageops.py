"""PPM I/O, attack transforms, the JPEG quantization round trip, PSNR, and the
image rule at every entry point that takes images."""

import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facemark import bioeval, pipeline
from facemark import imageops as iops
from facemark import tensorgrad as tg
from facemark import watermarknet as wm
from _synth import sum_all, texture_images


def transform(img, kind, factor, seed=0):
    return iops.apply_transform(img, iops.Transform(kind, factor, seed))


def crop(img, ratio, seed):
    return transform(img, "crop", ratio, seed)


class TestPpmIO:
    def test_round_trip_within_quantization(self, tmp_path):
        img = texture_images(1, 16, seed=3)[0]
        path = tmp_path / "t.ppm"
        iops.save_ppm(img, path)
        back = iops.load_ppm(path)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 1.0 / 255.0

    def test_black_round_trips_exactly(self, tmp_path):
        img = np.zeros((3, 5, 7))
        path = tmp_path / "black.ppm"
        iops.save_ppm(img, path)
        np.testing.assert_array_equal(iops.load_ppm(path), img)

    def test_p5_rejected_by_ppm_loader(self, tmp_path):
        path = tmp_path / "gray.pgm"
        iops.save_pgm(np.full((1, 4, 4), 0.5), path)
        with pytest.raises(ValueError, match="P6"):
            iops.load_ppm(path)
        assert iops.load_pgm(path).shape == (1, 4, 4)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        data = b"P6\n4 4\n255\n" + b"\x00" * 10
        path.write_bytes(data)
        with pytest.raises(ValueError, match="byte"):
            iops.load_ppm(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n4 x\n255\n")
        with pytest.raises(ValueError, match="header"):
            iops.load_ppm(path)

    def test_comments_in_header(self, tmp_path):
        payload = bytes(range(12))
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 2\n255\n" + payload)
        img = iops.load_ppm(path)
        assert img.shape == (3, 2, 2)

    def test_ties_round_up(self, tmp_path):
        # 127.5/255 must become 128, not banker's 127
        img = np.full((3, 1, 1), 127.5 / 255.0)
        path = tmp_path / "tie.ppm"
        iops.save_ppm(img, path)
        assert path.read_bytes()[-3:] == bytes([128, 128, 128])

    @pytest.mark.parametrize("channels, magic", [(3, b"P6"), (1, b"P5")])
    def test_image_pair_picks_format_by_channels(self, tmp_path, channels, magic):
        img = texture_images(1, 8, seed=4, channels=channels)[0]
        path = tmp_path / "img"
        iops.save_image(img, path)
        assert path.read_bytes()[:2] == magic
        back = iops.load_image(path, channels)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= 1.0 / 255.0
        with pytest.raises(ValueError, match=(b"P6" if channels == 1 else b"P5").decode()):
            iops.load_image(path, 4 - channels)


@pytest.fixture(scope="module")
def pnm_files(tmp_path_factory):
    """A saved 3-channel P6 and 1-channel P5 file: {channels: (reader, bytes)}, plus a path for edited copies."""
    root = tmp_path_factory.mktemp("pnm")
    files = {}
    for channels, save, load in ((3, iops.save_ppm, iops.load_ppm), (1, iops.save_pgm, iops.load_pgm)):
        path = root / f"saved{channels}"
        save(texture_images(1, 6, seed=24, channels=channels)[0], path)
        files[channels] = (load, path.read_bytes())
    return root / "edited", files


# Header-shaped insertions: separators, comments, digits, signs and junk.
PNM_TOKENS = [b" ", b"\n", b"\t", b"#", b"# c\n", b"0", b"7", b"99999999", b"-", b"+", b".", b"P6", b"P5", b"x"]


class TestPnmReaderFuzz:
    """Whatever the edit, a PNM reader returns a C x H x W image in [0, 1] or raises ValueError."""

    @settings(max_examples=400, deadline=None)
    @given(
        channels=st.sampled_from([3, 1]),
        edit=st.sampled_from(["truncate", "flip", "insert"]),
        # half the edits land in the 11-byte header
        pos=st.one_of(st.integers(0, 12), st.integers(0, 120)),
        mask=st.integers(1, 255),
        inserted=st.one_of(st.sampled_from(PNM_TOKENS), st.binary(min_size=1, max_size=4)),
    )
    def test_edited_file(self, pnm_files, channels, edit, pos, mask, inserted):
        path, files = pnm_files
        load, saved = files[channels]
        data = bytearray(saved)
        pos = min(pos, len(data))
        if edit == "truncate":
            del data[pos:]
        elif edit == "flip" and pos < len(data):
            data[pos] ^= mask
        else:
            data[pos:pos] = inserted
        path.write_bytes(bytes(data))
        try:
            img = load(path)
        except ValueError:
            return
        assert img.ndim == 3 and img.shape[0] == channels and min(img.shape) >= 1
        assert img.min() >= 0.0 and img.max() <= 1.0


class TestCrop:
    def test_ratio_one_is_identity(self):
        img = texture_images(1, 12, seed=4)[0]
        np.testing.assert_array_equal(crop(img, 1.0, seed=5), img)

    def test_output_size_floors(self):
        img = np.zeros((3, 112, 112))
        out = crop(img, 0.8, seed=0)
        assert out.shape == (3, 89, 89)

    def test_same_seed_same_offset(self):
        img = texture_images(1, 20, seed=6)[0]
        np.testing.assert_array_equal(crop(img, 0.5, seed=9), crop(img, 0.5, seed=9))

    def test_offsets_cover_more_than_half(self):
        img = texture_images(1, 16, seed=7)[0]
        # ratio 0.5 on 16x16 -> 8x8 output, 9x9 = 81 valid offsets
        seen = set()
        for seed in range(1000):
            out = crop(img, 0.5, seed=seed)
            # recover offset by matching the top-left pixel row/col
            for top in range(9):
                for left in range(9):
                    if np.array_equal(out, img[:, top : top + 8, left : left + 8]):
                        seen.add((top, left))
                        break
                else:
                    continue
                break
        assert len(seen) > 0.5 * 81

    def test_too_small_output_rejected(self):
        with pytest.raises(ValueError):
            crop(np.zeros((3, 4, 4)), 0.1, seed=0)


class TestResize:
    def test_ratio_one_is_identity(self):
        img = texture_images(1, 10, seed=8)[0]
        np.testing.assert_array_equal(transform(img, "resize", 1.0), img)

    def test_constant_image_stays_constant(self):
        img = np.full((3, 12, 12), 0.42)
        out = transform(img, "resize", 0.6)
        np.testing.assert_allclose(out, 0.42, atol=1e-12)

    def test_checkerboard_to_single_pixel(self):
        img = np.array([[0.0, 1.0], [1.0, 0.0]])[None]
        out = transform(img, "resize", 0.5)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(0.5, abs=1e-12)


class TestPhotometric:
    def test_brightness_examples(self):
        img = np.full((3, 2, 2), 0.2)
        np.testing.assert_array_equal(transform(img, "brightness", 1.0), img)
        np.testing.assert_allclose(transform(img, "brightness", 3.0), 0.6, atol=1e-15)
        np.testing.assert_array_equal(transform(np.full((3, 2, 2), 0.5), "brightness", 3.0), np.ones((3, 2, 2)))

    def test_contrast_examples(self):
        img = texture_images(1, 8, seed=9)[0]
        np.testing.assert_array_equal(transform(img, "contrast", 1.0), img)
        constant = np.full((3, 4, 4), 0.3)
        np.testing.assert_allclose(transform(constant, "contrast", 2.5), constant, atol=1e-12)

    def test_contrast_formula(self):
        # gray image with known luma mean 0.5, one probe pixel at 0.6
        img = np.full((3, 4, 4), 0.5)
        img[:, 0, 0] = 0.6
        mu = float(np.einsum("chw,c->", img, iops.LUMA_WEIGHTS) / 16)
        out = transform(img, "contrast", 2.0)
        expected = np.clip(mu + 2.0 * (0.6 - mu), 0.0, 1.0)
        assert out[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_contrast_preserves_luma_mean_without_clamping(self):
        rng = np.random.default_rng(10)
        img = rng.uniform(0.35, 0.65, size=(3, 16, 16))
        out = transform(img, "contrast", 1.4)
        mu_in = float(np.einsum("chw,c->", img, iops.LUMA_WEIGHTS) / 256)
        mu_out = float(np.einsum("chw,c->", out, iops.LUMA_WEIGHTS) / 256)
        assert abs(mu_in - mu_out) < 1e-9


class TestJpeg:
    def test_mid_gray_exact_at_every_quality(self):
        img = np.full((3, 16, 16), 128.0 / 255.0)
        for quality in (1, 10, 35, 50, 75, 90, 100):
            out = iops.jpeg_roundtrip(img, quality)
            np.testing.assert_array_equal(out, img)

    def test_quality_50_tables_are_the_base_tables(self):
        luma, chroma = iops.quant_tables(50)
        np.testing.assert_array_equal(luma, iops._JPEG_LUMA_Q)
        np.testing.assert_array_equal(chroma, iops._JPEG_CHROMA_Q)

    def test_table_scaling_rule(self):
        # scale = 5000/q below 50, 200-2q at or above; entries clamp to [1,255]
        luma10, _ = iops.quant_tables(10)
        expected = np.clip(np.floor((iops._JPEG_LUMA_Q * 500.0 + 50.0) / 100.0), 1, 255)
        np.testing.assert_array_equal(luma10, expected)
        luma100, chroma100 = iops.quant_tables(100)
        np.testing.assert_array_equal(luma100, np.ones((8, 8)))
        np.testing.assert_array_equal(chroma100, np.ones((8, 8)))

    def test_dct_orthonormality(self):
        rng = np.random.default_rng(11)
        blocks = rng.standard_normal((4, 8, 8))
        back = iops.idct2_blocks(iops.dct2_blocks(blocks))
        assert np.max(np.abs(back - blocks)) < 1e-9

    def test_quality_100_high_fidelity(self):
        img = texture_images(1, 32, seed=12)[0]
        out = iops.jpeg_roundtrip(img, 100)
        assert iops.psnr(img, out) >= 40.0

    def test_mse_non_increasing_with_quality(self):
        img = texture_images(1, 32, seed=13)[0]
        mses = []
        for q in (75, 80, 85, 90, 95, 100):
            out = iops.jpeg_roundtrip(img, q)
            mses.append(float(np.mean((out - img) ** 2)))
        for worse, better in zip(mses, mses[1:]):
            assert better <= worse + 1e-6

    def test_matches_reference_codec_quality(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        img = texture_images(1, 32, seed=14)[0]
        raw = np.floor(img * 255.0 + 0.5).astype(np.uint8).transpose(1, 2, 0)
        buf = io.BytesIO()
        PIL.fromarray(raw).save(buf, format="JPEG", quality=100, subsampling=0)
        buf.seek(0)
        ref = np.asarray(PIL.open(buf), dtype=np.float64).transpose(2, 0, 1) / 255.0
        # both the reference codec and ours stay above 40 dB at quality 100
        assert iops.psnr(img, ref) >= 40.0
        assert iops.psnr(img, iops.jpeg_roundtrip(img, 100)) >= 40.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            iops.jpeg_roundtrip(np.full((3, 16, 16), 0.5), 0)
        with pytest.raises(ValueError):
            iops.jpeg_roundtrip(np.full((3, 16, 16), 0.5), 101)
        with pytest.raises(ValueError):
            iops.jpeg_roundtrip(np.full((3, 4, 4), 0.5), 90)

    def test_grayscale_path(self):
        img = texture_images(1, 16, seed=15, channels=1)[0]
        out = iops.jpeg_roundtrip(img, 85)
        assert out.shape == img.shape
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_non_multiple_of_eight_sizes(self):
        img = texture_images(1, 20, seed=16)[0][:, :19, :13]
        out = iops.jpeg_roundtrip(np.ascontiguousarray(img), 80)
        assert out.shape == img.shape


class TestApplyTransform:
    def test_crop_dispatch_size(self):
        img = np.zeros((3, 40, 40))
        out = iops.apply_transform(img, iops.Transform("crop", 0.95, seed=1))
        assert out.shape == (3, 38, 38)

    def test_jpeg_quality_gate(self):
        iops.Transform("jpeg", 75)
        with pytest.raises(ValueError):
            iops.Transform("jpeg", 0)
        with pytest.raises(ValueError):
            iops.Transform("jpeg", 90.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            iops.Transform("rotate", 0.5)

    def test_identity_factors_for_all_kinds(self):
        img = texture_images(1, 10, seed=18)[0]
        for kind in ("crop", "resize", "brightness", "contrast"):
            out = iops.apply_transform(img, iops.Transform(kind, 1.0, seed=3))
            np.testing.assert_array_equal(out, img)

    def test_outputs_stay_in_range(self):
        img = texture_images(1, 16, seed=19)[0]
        transforms = [
            iops.Transform("crop", 0.75, seed=4),
            iops.Transform("resize", 0.75),
            iops.Transform("brightness", 3.5),
            iops.Transform("contrast", 3.5),
            iops.Transform("jpeg", 75),
        ]
        for t in transforms:
            out = iops.apply_transform(img, t)
            assert np.all(np.isfinite(out))
            assert out.min() >= 0.0 and out.max() <= 1.0


# One factor per kind that changes the image.
KIND_FACTORS = [("crop", 0.7), ("resize", 0.7), ("brightness", 1.8), ("contrast", 2.2), ("jpeg", 80)]


class TestTransformBatch:
    """The one dispatcher: sweeps reach it through ``apply_transform``, training directly."""

    @pytest.mark.parametrize("channels", [3, 1])
    @pytest.mark.parametrize("kind, factor", KIND_FACTORS, ids=[k for k, _ in KIND_FACTORS])
    def test_batch_matches_apply_transform_image_by_image(self, kind, factor, channels):
        images = texture_images(3, 20, seed=21, channels=channels)
        out = iops.transform_batch(tg.leaf(images), kind, factor, np.random.default_rng(7))
        # one crop offset serves the batch; seed 7 gives each lone image the same one
        for i, img in enumerate(images):
            np.testing.assert_array_equal(out.value[i], transform(img, kind, factor, seed=7))

    @pytest.mark.parametrize("kind", ["crop", "resize", "contrast"])
    def test_factor_one_returns_the_input_node(self, kind):
        x = tg.leaf(texture_images(3, 12, seed=22))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert iops.transform_batch(x, kind, 1.0, rng) is x
        assert rng.bit_generator.state == state  # an identity crop draws no offsets

    def test_brightness_one_keeps_every_pixel(self):
        x = tg.leaf(texture_images(3, 12, seed=22))
        np.testing.assert_array_equal(iops.transform_batch(x, "brightness", 1.0, None).value, x.value)

    def test_crop_draws_top_then_left(self):
        x = tg.leaf(texture_images(2, 16, seed=23))
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        out = iops.transform_batch(x, "crop", 0.5, rng)
        top, left = int(twin.integers(0, 9)), int(twin.integers(0, 9))
        np.testing.assert_array_equal(out.value, x.value[:, :, top : top + 8, left : left + 8])
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("kind, factor", KIND_FACTORS, ids=[k for k, _ in KIND_FACTORS])
    def test_gradient_reaches_the_input(self, kind, factor):
        x = tg.parameter(texture_images(2, 16, seed=25))
        tg.backward(sum_all(iops.transform_batch(x, kind, factor, np.random.default_rng(1))))
        assert x.grad.shape == x.value.shape and np.any(x.grad != 0.0)
        if kind == "jpeg":  # straight-through: the gradient passes unchanged
            np.testing.assert_array_equal(x.grad, np.ones_like(x.value))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="rotate"):
            iops.transform_batch(tg.leaf(np.zeros((1, 3, 8, 8))), "rotate", 1.0, None)

    def test_ratio_collapsing_below_one_pixel(self):
        with pytest.raises(ValueError, match="below one pixel"):
            iops.transform_batch(tg.leaf(np.zeros((2, 3, 8, 8))), "resize", 0.1, None)


class TestPsnr:
    def test_equal_images_infinite(self):
        img = texture_images(1, 8, seed=20)[0]
        assert iops.psnr(img, img.copy()) == float("inf")

    def test_uniform_difference(self):
        a = np.zeros((3, 4, 4))
        b = np.full((3, 4, 4), 0.1)
        assert iops.psnr(a, b) == pytest.approx(20.0, abs=1e-9)

    def test_black_vs_white(self):
        assert iops.psnr(np.zeros((3, 2, 2)), np.ones((3, 2, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            iops.psnr(np.zeros((3, 2, 2)), np.zeros((3, 2, 3)))


# ---------------------------------------------------------------------------
# the image rule, at every entry point that takes images
# ---------------------------------------------------------------------------

DATA = Path(__file__).resolve().parent / "data"
MESSAGE = [0, 1, 1, 0, 0, 1, 1, 0]  # the golden model carries 8 bits
STACK = texture_images(4, 16, seed=26)
LABELS = ["a", "a", "b", "b"]  # a set train_embedder accepts
TINY_TRAIN = pipeline.TrainConfig(
    steps=1, batch_size=2, image_size=16, message_length=8, base_channels=3, encoder_blocks=1, decoder_blocks=1,
)


@pytest.fixture(scope="module")
def models():
    return wm.load_model(DATA / "golden_model.wmf"), bioeval.load_embedder(DATA / "golden_embedder.emb")


def _with_pixel(images, value):
    bad = images.copy()
    bad[(0,) * bad.ndim] = value
    return bad


# Each entry point, called with (the golden watermark model and embedder, the images).
STACK_ENTRY_POINTS = {
    "train_watermark": lambda m, x: pipeline.train_watermark(TINY_TRAIN, x),
    "run_sweep": lambda m, x: pipeline.run_sweep(m[0], x, MESSAGE),
    "train_embedder": lambda m, x: bioeval.train_embedder(x, LABELS),
    "embed_images": lambda m, x: bioeval.embed_images(m[1], x, LABELS),
}
IMAGE_ENTRY_POINTS = {
    "encode": lambda m, x: wm.encode(m[0], x, MESSAGE),
    "decode_logits": lambda m, x: wm.decode_logits(m[0], x),
    "extract": lambda m, x: wm.extract(m[0], x),
    "apply_transform": lambda m, x: iops.apply_transform(x, iops.Transform("crop", 0.9)),
}
STACK_CASES = {
    "nan": (_with_pixel(STACK, math.nan), "image contains NaN or Inf"),
    "above-one": (_with_pixel(STACK, 1.5), "image pixels must lie in [0, 1]"),
    "below-zero": (_with_pixel(STACK, -0.1), "image pixels must lie in [0, 1]"),
    "two-channels": (STACK[:, :2], "image must be CxHxW with C in {1,3}, got shape (2, 16, 16)"),
    "wrong-ndim": (STACK[0], "images must be a non-empty (M,C,H,W) stack, got shape (3, 16, 16)"),
    "empty": (STACK[:0], "images must be a non-empty (M,C,H,W) stack, got shape (0, 3, 16, 16)"),
}
IMAGE_CASES = {
    "nan": (_with_pixel(STACK[0], math.nan), "image contains NaN or Inf"),
    "above-one": (_with_pixel(STACK[0], 1.5), "image pixels must lie in [0, 1]"),
    "below-zero": (_with_pixel(STACK[0], -0.1), "image pixels must lie in [0, 1]"),
    "two-channels": (STACK[0, :2], "image must be CxHxW with C in {1,3}, got shape (2, 16, 16)"),
    "wrong-ndim": (STACK, "image must be CxHxW with C in {1,3}, got shape (4, 3, 16, 16)"),
}


class TestImageRule:
    """``require_images`` is the one check of an image's shape, channels, finiteness and range."""

    @pytest.mark.parametrize("case", list(STACK_CASES))
    @pytest.mark.parametrize("entry", list(STACK_ENTRY_POINTS))
    def test_a_stack_entry_point_raises_the_rule_message(self, models, entry, case):
        images, message = STACK_CASES[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            STACK_ENTRY_POINTS[entry](models, images)

    @pytest.mark.parametrize("case", list(IMAGE_CASES))
    @pytest.mark.parametrize("entry", list(IMAGE_ENTRY_POINTS))
    def test_an_image_entry_point_raises_the_rule_message(self, models, entry, case):
        image, message = IMAGE_CASES[case]
        with pytest.raises(ValueError, match=re.escape(message)):
            IMAGE_ENTRY_POINTS[entry](models, image)

    def test_a_float64_stack_is_returned_without_a_copy(self):
        assert iops.require_images(STACK) is STACK
        np.testing.assert_array_equal(iops.require_image(STACK[0]), STACK[0])

    def test_min_side_applies_to_both_sides(self):
        with pytest.raises(ValueError, match=re.escape("image 16x7 is smaller than 8 pixels per side")):
            iops.require_images(STACK[:, :, :, :7], min_side=8)
