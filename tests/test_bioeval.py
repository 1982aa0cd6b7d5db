"""Verification scoring, operating points, statistics and the EMB1 reader."""

import re
from dataclasses import asdict

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from facemark import bioeval as be
from facemark import cli
from facemark.containers import write_container

SCORE_TOL = 1e-15  # pair_scores' documented bound against cosine_similarity


# ---------------------------------------------------------------------------
# oracles: the per-pair reference implementations
# ---------------------------------------------------------------------------

def oracle_pair_scores(embeddings, pairing, pairs_per_id=0, seed=0, max_imposter=1_000_000):
    """Per-pair pair_scores: Python pair lists scored one cosine_similarity at a time."""
    probe_src, _, ref_src = pairing.partition("-")
    symmetric = probe_src == ref_src
    rng = np.random.default_rng(seed)

    by_identity = {}
    for emb in embeddings:
        by_identity.setdefault(emb.identity, {}).setdefault(emb.source, []).append(emb)

    genuine = []
    skipped = 0
    usable = []
    for identity in sorted(by_identity):
        groups = by_identity[identity]
        probes = groups.get(probe_src, [])
        refs = groups.get(ref_src, [])
        if symmetric:
            pool = probes
            pairs = [(pool[i], pool[j]) for i in range(len(pool)) for j in range(i + 1, len(pool))]
        else:
            pairs = [(probes[i], refs[j]) for i in range(len(probes)) for j in range(len(refs)) if i != j]
        if not pairs:
            skipped += 1
            continue
        usable.append(identity)
        if pairs_per_id and len(pairs) > pairs_per_id:
            idx = rng.choice(len(pairs), size=pairs_per_id, replace=False)
            pairs = [pairs[int(i)] for i in idx]
        genuine.extend(be.cosine_similarity(p, r) for p, r in pairs)

    if not usable:
        raise ValueError(f"no identity has enough images for pairing mode {pairing!r}")
    identities = sorted(by_identity)
    if len(identities) < 2:
        raise ValueError("imposter pairs require at least 2 identities")

    probe_list = [(e, identity) for identity in identities for e in by_identity[identity].get(probe_src, [])]
    ref_list = [(e, identity) for identity in identities for e in by_identity[identity].get(ref_src, [])]
    cross = []
    if symmetric:
        for i in range(len(probe_list)):
            for j in range(i + 1, len(probe_list)):
                if probe_list[i][1] != probe_list[j][1]:
                    cross.append((probe_list[i][0], probe_list[j][0]))
    else:
        for pe, pid in probe_list:
            for re_, rid in ref_list:
                if pid != rid:
                    cross.append((pe, re_))
    if len(cross) > max_imposter:
        idx = rng.choice(len(cross), size=max_imposter, replace=False)
        cross = [cross[int(i)] for i in idx]
    imposter = [be.cosine_similarity(p, r) for p, r in cross]
    return be.ScoreSet(np.array(genuine), np.array(imposter), pairing, skipped)


def loop_eer(scores):
    """EER with the threshold walk written as a Python loop."""
    gen = np.asarray(scores.genuine, dtype=np.float64)
    imp = np.asarray(scores.imposter, dtype=np.float64)
    thresholds = np.unique(np.concatenate([gen, imp]))
    far = np.append(1.0 - np.array([np.count_nonzero(imp < t) for t in thresholds]) / imp.size, 0.0)
    frr = np.append(np.array([np.count_nonzero(gen < t) for t in thresholds]) / gen.size, 1.0)
    diff = far - frr
    for k in range(diff.size):
        if diff[k] == 0.0:
            return float((far[k] + frr[k]) / 2.0)
        if diff[k] < 0.0:
            if k == 0:
                break
            t = diff[k - 1] / (diff[k - 1] - diff[k])
            far_x = far[k - 1] + (far[k] - far[k - 1]) * t
            frr_x = frr[k - 1] + (frr[k] - frr[k - 1]) * t
            return float((far_x + frr_x) / 2.0)
    k = int(np.argmin(np.abs(diff)))
    return float((far[k] + frr[k]) / 2.0)


def brute_tar_at_far(gen, imp, far):
    """Scan every distinct imposter score as a threshold, loosest first."""
    for tau in sorted(set(imp)):
        achieved = sum(s >= tau for s in imp) / len(imp)
        if achieved <= far:
            return sum(s >= tau for s in gen) / len(gen), tau, achieved
    return 0.0, float("inf"), 0.0


# ---------------------------------------------------------------------------
# pair_scores against the oracle
# ---------------------------------------------------------------------------

def make_embeddings(layout, dim=6, seed=0):
    """``layout`` maps identity -> {source: image count}; every vector is distinct."""
    rng = np.random.default_rng(seed)
    out = []
    for identity, groups in layout.items():
        for source, count in groups.items():
            out += [be.Embedding(rng.standard_normal(dim), identity, source) for _ in range(count)]
    rng.shuffle(out)  # input order must not matter beyond the per-group order
    return out


BOTH = {"original": 4, "watermarked": 4}
LAYOUTS = {
    "balanced": {f"id{k}": dict(BOTH) for k in range(5)},
    "single_image": {"id0": dict(BOTH), "id1": {"original": 1, "watermarked": 1}, "id2": dict(BOTH)},
    "missing_source": {"id0": dict(BOTH), "id1": {"original": 3}, "id2": {"watermarked": 3}, "id3": dict(BOTH)},
    "unequal_groups": {"id0": {"original": 2, "watermarked": 5}, "id1": {"original": 6, "watermarked": 3},
                       "id2": {"original": 4, "watermarked": 4}},
    "extra_source": {"id0": {**BOTH, "augmented": 3}, "id1": {**BOTH, "augmented": 2}, "id2": dict(BOTH)},
}


def assert_matches_oracle(embeddings, pairing, **kwargs):
    want = oracle_pair_scores(embeddings, pairing, **kwargs)
    got = be.pair_scores(embeddings, pairing, **kwargs)
    assert got.pairing == pairing
    assert got.skipped_identities == want.skipped_identities
    assert got.genuine.shape == want.genuine.shape
    assert got.imposter.shape == want.imposter.shape
    np.testing.assert_allclose(got.genuine, want.genuine, rtol=0, atol=SCORE_TOL)
    np.testing.assert_allclose(got.imposter, want.imposter, rtol=0, atol=SCORE_TOL)
    return got


class TestPairScores:
    @pytest.mark.parametrize("pairing", be.PAIRING_MODES)
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_matches_oracle(self, layout, pairing):
        assert_matches_oracle(make_embeddings(LAYOUTS[layout]), pairing)

    @pytest.mark.parametrize("pairing, count", zip(be.PAIRING_MODES, (7, 9, 9)))
    def test_pairs_per_id_cap(self, pairing, count):
        got = assert_matches_oracle(make_embeddings(LAYOUTS["unequal_groups"]), pairing, pairs_per_id=3, seed=7)
        assert got.genuine.size == count

    @pytest.mark.parametrize("pairing", be.PAIRING_MODES)
    def test_imposter_cap_below_count(self, pairing):
        got = assert_matches_oracle(make_embeddings(LAYOUTS["balanced"]), pairing, max_imposter=37, seed=3)
        assert got.imposter.size == 37

    @pytest.mark.parametrize("pairing", be.PAIRING_MODES)
    def test_both_caps_share_one_stream(self, pairing):
        assert_matches_oracle(make_embeddings(LAYOUTS["single_image"]), pairing, pairs_per_id=2, max_imposter=20, seed=5)

    def test_counts(self):
        embs = make_embeddings(LAYOUTS["balanced"])
        sym = be.pair_scores(embs, "original-original")
        asym = be.pair_scores(embs, "watermarked-original")
        assert (sym.genuine.size, sym.imposter.size) == (5 * 6, 20 * 19 // 2 - 5 * 6)
        assert (asym.genuine.size, asym.imposter.size) == (5 * 12, 20 * 20 - 5 * 16)

    def test_single_image_identity_skipped(self):
        embs = make_embeddings(LAYOUTS["single_image"])
        for pairing in be.PAIRING_MODES:
            assert be.pair_scores(embs, pairing).skipped_identities == 1

    def test_missing_source_skipped_in_asymmetric_mode(self):
        embs = make_embeddings(LAYOUTS["missing_source"])
        assert be.pair_scores(embs, "watermarked-original").skipped_identities == 2
        assert be.pair_scores(embs, "original-original").skipped_identities == 1

    def test_extra_source_ignored(self):
        embs = make_embeddings(LAYOUTS["extra_source"])
        # A vector under another tag that would break scoring: zero norm.
        embs.append(be.Embedding(np.zeros(6), "id0", "augmented"))
        plain = [e for e in embs if e.source != "augmented"]
        for pairing in be.PAIRING_MODES:
            a, b = be.pair_scores(embs, pairing), be.pair_scores(plain, pairing)
            np.testing.assert_array_equal(a.genuine, b.genuine)
            np.testing.assert_array_equal(a.imposter, b.imposter)

    @pytest.mark.parametrize("pairing", be.PAIRING_MODES)
    @pytest.mark.parametrize("identity", ["id0", "id1"])
    def test_zero_norm_in_scored_pair_raises(self, pairing, identity):
        embs = make_embeddings(LAYOUTS["balanced"])
        source = pairing.partition("-")[0]
        embs.append(be.Embedding(np.zeros(6), identity, source))
        with pytest.raises(ValueError, match="zero-norm"):
            oracle_pair_scores(embs, pairing)
        with pytest.raises(ValueError, match="zero-norm"):
            be.pair_scores(embs, pairing)

    def test_dimension_mismatch_raises(self):
        embs = make_embeddings(LAYOUTS["balanced"])
        embs.append(be.Embedding(np.ones(5), "id0", "original"))
        with pytest.raises(ValueError, match="embedding dimensions differ"):
            be.pair_scores(embs, "original-original")

    def test_needs_usable_identity_and_two_identities(self):
        with pytest.raises(ValueError, match="no identity has enough images"):
            be.pair_scores(make_embeddings({"a": {"original": 1}, "b": {"original": 1}}), "original-original")
        with pytest.raises(ValueError, match="at least 2 identities"):
            be.pair_scores(make_embeddings({"a": {"original": 3}}), "original-original")
        with pytest.raises(ValueError, match="unknown pairing mode"):
            be.pair_scores(make_embeddings(LAYOUTS["balanced"]), "original-marked")


# ---------------------------------------------------------------------------
# operating points
# ---------------------------------------------------------------------------

def quantised(rng, size, levels):
    return rng.integers(0, levels, size=size) / levels


class TestTarAtFar:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_scan(self, seed):
        rng = np.random.default_rng(seed)
        gen = quantised(rng, rng.integers(1, 30), 6)
        imp = quantised(rng, rng.integers(20, 60), 6)
        for far in (0.05, 0.1, 0.25, 0.5, 1.0):
            got = be.tar_at_far(be.ScoreSet(gen, imp, "original-original"), far)
            assert got == brute_tar_at_far(list(gen), list(imp), far)

    def test_massive_ties_give_sentinel(self):
        scores = be.ScoreSet(np.array([0.9, 0.4]), np.full(100, 0.5), "original-original")
        assert be.tar_at_far(scores, 0.01) == (0.0, float("inf"), 0.0)

    def test_inclusive_threshold(self):
        scores = be.ScoreSet(np.array([0.8, 0.7, 0.2]), np.array([0.1, 0.2, 0.3, 0.7]), "original-original")
        assert be.tar_at_far(scores, 0.25) == (2 / 3, 0.7, 0.25)

    def test_unresolvable_far_raises(self):
        scores = be.ScoreSet(np.array([0.8]), np.arange(50) / 50, "original-original")
        with pytest.raises(ValueError, match="unresolvable"):
            be.tar_at_far(scores, 0.01)


class TestEer:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_scan(self, seed):
        rng = np.random.default_rng(seed)
        scores = be.ScoreSet(quantised(rng, rng.integers(1, 25), 5), quantised(rng, rng.integers(1, 25), 5), "m")
        assert be.eer(scores) == loop_eer(scores)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=30),
        st.lists(st.integers(-4, 4), min_size=1, max_size=30),
    )
    def test_equals_threshold_loop(self, gen, imp):
        scores = be.ScoreSet(np.array(gen) / 4.0, np.array(imp) / 4.0, "m")
        assert be.eer(scores) == loop_eer(scores)

    def test_separated_sets(self):
        assert be.eer(be.ScoreSet(np.array([0.9, 0.8]), np.array([0.1, 0.2]), "m")) == 0.0

    def test_identical_sets(self):
        assert be.eer(be.ScoreSet(np.full(4, 0.5), np.full(4, 0.5), "m")) == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            be.eer(be.ScoreSet(np.array([]), np.array([0.1]), "m"))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

class TestWelch:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.6, rng.uniform(0.01, 0.2), size=rng.integers(2, 400))
        b = rng.normal(0.6 + rng.uniform(-0.05, 0.05), rng.uniform(0.01, 0.2), size=rng.integers(2, 400))
        t, df, p = be.welch_t_test(a, b)
        ref = scipy.stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(ref.statistic, rel=1e-10)
        assert df == pytest.approx(ref.df, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, rel=1e-10)

    def test_rejects_degenerate_samples(self):
        with pytest.raises(ValueError):
            be.welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            be.welch_t_test([1.0, 1.0], [2.0, 2.0])


class TestIncompleteBeta:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 150.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 40.0])
    def test_matches_scipy(self, a, b):
        for x in (1e-6, 0.01, 0.2, 0.5, 0.77, 0.99, 1 - 1e-6):
            assert be.regularized_incomplete_beta(a, b, x) == pytest.approx(scipy.special.betainc(a, b, x), rel=1e-10)

    def test_endpoints(self):
        assert be.regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert be.regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


# ---------------------------------------------------------------------------
# run_verification and the verify command
# ---------------------------------------------------------------------------

def thin_embeddings():
    """Two usable identities plus one with a single original and a single watermarked image."""
    return make_embeddings({"a": dict(BOTH), "b": dict(BOTH), "c": {"original": 1, "watermarked": 1}})


class TestVerification:
    def test_reports_carry_skipped_identities(self):
        from facemark import pipeline

        options = pipeline.VerifyOptions(far_targets=(0.1, 0.2))
        reports = pipeline.run_verification(thin_embeddings(), options)
        assert len(reports) == 6
        assert all(r.skipped_identities == 1 for r in reports)

    def test_cli_reports_skips_on_stderr_only(self, tmp_path, capsys):
        path = tmp_path / "emb.txt"
        be.save_embeddings(thin_embeddings(), path)
        out = tmp_path / "reports.txt"
        assert cli.cli_dispatch(["verify", "--embeddings", str(path), str(out)]) == 0
        err = capsys.readouterr().err
        for mode in be.PAIRING_MODES:
            assert f"pairing {mode}: skipped 1 identities" in err
        assert "skipped" not in out.read_text()


# ---------------------------------------------------------------------------
# EMB1 reader
# ---------------------------------------------------------------------------

def write_embedder_with(path, extra):
    cfg = be.EmbedderConfig(embed_dim=4, num_classes=2, base_channels=3, image_size=8)
    model = be._build_embedder(cfg, ["a", "b"], seed=1)
    config = {**asdict(cfg), "class_labels": ["a", "b"]}
    tensors = [(name, node.value) for name, node in model.params.items()] + extra
    write_container(path, be.EMBEDDER_MAGIC, config, 0, tensors)


class TestLoadEmbedder:
    def test_statistics_land_in_their_block(self, tmp_path):
        path = tmp_path / "m.emb"
        write_embedder_with(path, [("emb.block1.bn.running_mean", np.full(3, 0.25)),
                                   ("emb.block1.bn.running_var", np.full(3, 2.0))])
        model = be.load_embedder(path)
        np.testing.assert_array_equal(model.stats[1].mean, np.full(3, 0.25))
        np.testing.assert_array_equal(model.stats[1].var, np.full(3, 2.0))
        assert model.stats[0].mean is None and model.stats[2].mean is None

    @pytest.mark.parametrize("name", ["emb.block9.bn.running_mean", "emb.block-1.bn.running_mean",
                                      "emb.block01.bn.running_var", "emb.block0.bn.running_std"])
    def test_unknown_statistics_name_rejected(self, tmp_path, name):
        path = tmp_path / "m.emb"
        write_embedder_with(path, [(name, np.zeros(3))])
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            be.load_embedder(path)

    def test_cli_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "m.emb"
        write_embedder_with(path, [("emb.block9.bn.running_mean", np.zeros(3))])
        argv = ["verify", "--embedder", str(path), str(tmp_path / "manifest.txt"), str(tmp_path / "out.txt")]
        assert cli.cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "emb.block9.bn.running_mean" in err
        assert "Traceback" not in err
