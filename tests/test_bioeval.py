"""Verification scoring, operating points, statistics and the EMB1 reader."""

import math
import re
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from _synth import identity_embeddings, model_tensors
from facemark import bioeval as be
from facemark import cli, pipeline
from facemark import tensorgrad as tg
from facemark.containers import write_container

DATA = Path(__file__).parent / "data"

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
    candidates = len(cross)
    if candidates > max_imposter:
        idx = rng.choice(candidates, size=max_imposter, replace=False)
        cross = [cross[int(i)] for i in idx]
    imposter = [be.cosine_similarity(p, r) for p, r in cross]
    return be.ScoreSet(np.array(genuine), np.array(imposter), pairing, skipped, candidates)


def _gram_scorer(probes, refs):
    """Cosine scores for index pairs into ``probes`` x ``refs`` from one Gram matrix."""
    shapes = sorted({e.vector.shape for e in probes} | {e.vector.shape for e in refs})
    if len(shapes) > 1:
        raise ValueError(f"embedding dimensions differ: {' vs '.join(map(str, shapes))}")
    p = np.array([e.vector for e in probes], dtype=np.float64)
    r = p if refs is probes else np.array([e.vector for e in refs], dtype=np.float64)
    gram = p @ r.T
    p_norm = np.sqrt(np.einsum("ij,ij->i", p, p))
    r_norm = p_norm if r is p else np.sqrt(np.einsum("ij,ij->i", r, r))
    p_zero, r_zero = p_norm == 0.0, r_norm == 0.0

    def score(a, b):
        if p_zero[a].any() or r_zero[b].any():
            raise ValueError("cosine similarity is undefined for a zero-norm vector")
        return np.clip(gram[a, b] / (p_norm[a] * r_norm[b]), -1.0, 1.0)

    return score


def index_pair_scores(embeddings, pairing, pairs_per_id=0, seed=0, max_imposter=1_000_000):
    """pair_scores as it was before the pair masks: per-identity index arrays."""
    probe_src, ref_src = be._mode_sources(pairing)
    symmetric = probe_src == ref_src
    rng = np.random.default_rng(seed)

    by_identity: dict[str, dict[str, list[be.Embedding]]] = {}
    for emb in embeddings:
        by_identity.setdefault(emb.identity, {}).setdefault(emb.source, []).append(emb)
    identities = sorted(by_identity)
    probes, p_off = be._pool(by_identity, identities, probe_src)
    refs, r_off = (probes, p_off) if symmetric else be._pool(by_identity, identities, ref_src)

    gen_a, gen_b = [], []
    skipped = 0
    for k in range(len(identities)):
        n_p, n_r = p_off[k + 1] - p_off[k], r_off[k + 1] - r_off[k]
        if symmetric:
            i, j = np.triu_indices(n_p, 1)
        else:
            i, j = np.nonzero(~np.eye(n_p, n_r, dtype=bool))
        if i.size == 0:
            skipped += 1
            continue
        if pairs_per_id and i.size > pairs_per_id:
            idx = rng.choice(i.size, size=pairs_per_id, replace=False)
            i, j = i[idx], j[idx]
        gen_a.append(p_off[k] + i)
        gen_b.append(r_off[k] + j)

    if not gen_a:
        raise ValueError(f"no identity has enough images for pairing mode {pairing!r}")
    score = _gram_scorer(probes, refs)
    genuine = score(np.concatenate(gen_a), np.concatenate(gen_b))
    if len(identities) < 2:
        raise ValueError("imposter pairs require at least 2 identities")

    p_id = np.repeat(np.arange(len(identities)), np.diff(p_off))
    if symmetric:
        a, b = np.triu_indices(len(probes), 1)
        cross = p_id[a] != p_id[b]
        a, b = a[cross], b[cross]
    else:
        r_id = np.repeat(np.arange(len(identities)), np.diff(r_off))
        a, b = np.nonzero(p_id[:, None] != r_id[None, :])
    candidates = a.size
    if candidates > max_imposter:
        idx = rng.choice(candidates, size=max_imposter, replace=False)
        a, b = a[idx], b[idx]
    imposter = score(a, b)

    return be.ScoreSet(genuine=genuine, imposter=imposter, pairing=pairing, skipped_identities=skipped,
                       imposter_candidates=candidates)


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


def oracle_tar_at_far(scores, far):
    """tar_at_far as it was before the sorted score sets: re-sorts per call."""
    if not (0.0 < far <= 1.0):
        raise ValueError(f"far must lie in (0, 1], got {far}")
    imp = np.sort(np.asarray(scores.imposter, dtype=np.float64))
    gen = np.asarray(scores.genuine, dtype=np.float64)
    n_imp = imp.size
    n_gen = gen.size
    if n_gen == 0 or n_imp == 0:
        raise ValueError("tar_at_far requires non-empty genuine and imposter sets")
    if n_imp < 1.0 / far:
        raise ValueError(
            f"FAR target {far} is unresolvable with {n_imp} imposter scores; "
            f"need at least {math.ceil(1.0 / far)}"
        )
    candidates, first_idx = np.unique(imp, return_index=True)
    fars = (n_imp - first_idx) / n_imp  # fraction of imposters >= candidate
    ok = np.nonzero(fars <= far)[0]
    if ok.size == 0:
        return 0.0, float("inf"), 0.0
    k = ok[0]
    tau = float(candidates[k])
    achieved = float(fars[k])
    tar = float(np.count_nonzero(gen >= tau) / n_gen)
    return tar, tau, achieved


def oracle_eer(scores):
    """eer as it was before the sorted score sets: scans the union of thresholds."""
    gen = np.asarray(scores.genuine, dtype=np.float64)
    imp = np.asarray(scores.imposter, dtype=np.float64)
    if gen.size == 0 or imp.size == 0:
        raise ValueError("eer requires non-empty genuine and imposter sets")
    thresholds = np.unique(np.concatenate([gen, imp]))
    imp_sorted = np.sort(imp)
    gen_sorted = np.sort(gen)
    far = 1.0 - np.searchsorted(imp_sorted, thresholds, side="left") / imp.size
    frr = np.searchsorted(gen_sorted, thresholds, side="left") / gen.size
    # Append the point past the largest score so a sign change always exists.
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    diff = far - frr
    # The first threshold where FAR no longer exceeds FRR: a tie there is
    # the EER; otherwise the curves crossed since the previous threshold.
    # diff[0] is 1 (every imposter >= the smallest score, no genuine below
    # it) and the appended point is -1, so 0 < k < len(diff).
    k = int(np.flatnonzero(diff <= 0.0)[0])
    if diff[k] == 0.0:
        return float((far[k] + frr[k]) / 2.0)
    t = diff[k - 1] / (diff[k - 1] - diff[k])
    far_x = far[k - 1] + (far[k] - far[k - 1]) * t
    frr_x = frr[k - 1] + (frr[k] - frr[k - 1]) * t
    return float((far_x + frr_x) / 2.0)


def outcome(fn, *args):
    """A metric's result, or its ValueError message, for exact comparison."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


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
    assert got.imposter_candidates == want.imposter_candidates
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


def pair_outcome(fn, embeddings, pairing, **kwargs):
    """pair_scores' result as exact bytes and counts, or its ValueError message."""
    try:
        got = fn(embeddings, pairing, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return (got.genuine.dtype, got.genuine.tobytes(), got.imposter.dtype, got.imposter.tobytes(),
            got.skipped_identities, got.imposter_candidates)


CAPS = {"none": {}, "pairs_per_id": {"pairs_per_id": 3}, "max_imposter": {"max_imposter": 37},
        "both": {"pairs_per_id": 3, "max_imposter": 37}}


class TestPairScoresBitIdentical:
    """The pair masks pick the index arrays' pairs, in their order, with the same bits."""

    @pytest.mark.parametrize("cap", sorted(CAPS))
    @pytest.mark.parametrize("pairing", be.PAIRING_MODES)
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_layouts(self, layout, pairing, cap):
        embeddings = make_embeddings(LAYOUTS[layout])
        kwargs = {**CAPS[cap], "seed": 9}
        assert pair_outcome(be.pair_scores, embeddings, pairing, **kwargs) == \
            pair_outcome(index_pair_scores, embeddings, pairing, **kwargs)

    @pytest.mark.parametrize("pairs_per_id", [0, 4])
    @pytest.mark.parametrize("pairing", be.PAIRING_MODES)
    def test_benchmark_shape(self, pairing, pairs_per_id):
        embeddings = identity_embeddings(100, 5)
        kwargs = {"pairs_per_id": pairs_per_id, "max_imposter": 200_000, "seed": 3}
        got = pair_outcome(be.pair_scores, embeddings, pairing, **kwargs)
        assert got == pair_outcome(index_pair_scores, embeddings, pairing, **kwargs)
        assert got[-1] == (247_500 if pairing == "watermarked-original" else 123_750)

    @pytest.mark.parametrize("pairing", be.PAIRING_MODES)
    def test_errors(self, pairing):
        probe_src, _, ref_src = pairing.partition("-")
        zero = make_embeddings(LAYOUTS["balanced"]) + [be.Embedding(np.zeros(6), "id2", ref_src)]
        narrow = make_embeddings(LAYOUTS["balanced"]) + [be.Embedding(np.ones(5), "id1", probe_src)]
        for embeddings in (zero, narrow, make_embeddings({"a": {"original": 3, "watermarked": 3}}),
                           make_embeddings({"a": {"original": 1, "watermarked": 1}, "b": {"original": 1}})):
            want = pair_outcome(index_pair_scores, embeddings, pairing)
            assert isinstance(want, str)
            assert pair_outcome(be.pair_scores, embeddings, pairing) == want


@st.composite
def pairing_cases(draw):
    """Small identity layouts, maybe with an extra source tag and a zero-norm vector, plus caps and seed."""
    sources = ["original", "watermarked"] + (["augmented"] if draw(st.booleans()) else [])
    layout = {f"id{k}": {source: draw(st.integers(0, 4)) for source in sources}
              for k in range(draw(st.integers(1, 6)))}
    embeddings = make_embeddings(layout, seed=draw(st.integers(0, 1000)))
    if draw(st.booleans()):
        zero = be.Embedding(np.zeros(6), draw(st.sampled_from(sorted(layout))), draw(st.sampled_from(sources)))
        embeddings.insert(draw(st.integers(0, len(embeddings))), zero)
    kwargs = {"pairs_per_id": draw(st.integers(0, 8)), "max_imposter": draw(st.integers(1, 80)),
              "seed": draw(st.integers(0, 2**16))}
    return embeddings, draw(st.sampled_from(be.PAIRING_MODES)), kwargs


class TestPairScoresFuzz:
    @settings(max_examples=400, deadline=None)
    @given(pairing_cases())
    def test_matches_oracle(self, case):
        embeddings, pairing, kwargs = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                want = oracle_pair_scores(embeddings, pairing, **kwargs)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    be.pair_scores(embeddings, pairing, **kwargs)
                assert str(raised.value) == str(exc)
                return
            got = assert_matches_oracle(embeddings, pairing, **kwargs)
        assert got.imposter.size == min(want.imposter_candidates, kwargs["max_imposter"])


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


class TestSortedScoreSet:
    def test_each_side_sorted_once_and_pair_order_kept(self):
        gen, imp = np.array([0.5, 0.1, 0.3]), np.array([0.2, -0.4, 0.9, 0.0])
        scores = be.ScoreSet(gen, imp, "m")
        np.testing.assert_array_equal(scores.genuine_sorted, np.sort(gen))
        np.testing.assert_array_equal(scores.imposter_sorted, np.sort(imp))
        assert scores.genuine is gen and scores.imposter is imp
        assert scores.genuine_sorted.dtype == scores.imposter_sorted.dtype == np.float64
        with pytest.raises(AttributeError):
            scores.imposter = np.zeros(4)

    def test_imposter_candidates_default_to_the_scored_count(self):
        assert be.ScoreSet(np.ones(2), np.zeros(7), "m").imposter_candidates == 7
        assert be.ScoreSet(np.ones(2), np.zeros(7), "m", 0, 40).imposter_candidates == 40

    @pytest.mark.parametrize("pairing", be.PAIRING_MODES)
    def test_pair_scores_counts_candidates_before_subsampling(self, pairing):
        embs = make_embeddings(LAYOUTS["balanced"])
        full = be.pair_scores(embs, pairing)
        capped = be.pair_scores(embs, pairing, max_imposter=37, seed=3)
        assert full.imposter_candidates == full.imposter.size
        assert capped.imposter_candidates == full.imposter.size
        assert capped.imposter.size == 37


FARS = (1.0, 0.5, 0.25, 0.1, 0.05, 0.01)


class TestMetricsMatchOracles:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.integers(-6, 6), min_size=1, max_size=40),
        st.lists(st.integers(-6, 6), min_size=1, max_size=120),
        st.integers(1, 6),
        st.data(),
    )
    def test_equal_on_tie_heavy_scores(self, gen, imp, levels, data):
        scores = be.ScoreSet(np.array(gen) / levels, np.array(imp) / levels, "m")
        assert be.eer(scores) == oracle_eer(scores)
        k = data.draw(st.integers(1, len(imp)))
        for far in FARS + (k / len(imp), data.draw(st.floats(1e-3, 1.0))):
            assert outcome(be.tar_at_far, scores, far) == outcome(oracle_tar_at_far, scores, far)

    @pytest.mark.parametrize("seed", range(20))
    def test_equal_on_continuous_scores(self, seed):
        rng = np.random.default_rng(seed)
        gen = rng.normal(0.5, 0.2, rng.integers(1, 300))
        imp = rng.normal(0.0, 0.2, rng.integers(100, 3000))
        scores = be.ScoreSet(gen, imp, "m")
        assert be.eer(scores) == oracle_eer(scores)
        for far in FARS + (1 / imp.size, 7 / imp.size):
            assert outcome(be.tar_at_far, scores, far) == outcome(oracle_tar_at_far, scores, far)

    def assert_equal(self, gen, imp, fars=FARS):
        scores = be.ScoreSet(np.asarray(gen, dtype=np.float64), np.asarray(imp, dtype=np.float64), "m")
        assert be.eer(scores) == oracle_eer(scores)
        for far in fars:
            assert outcome(be.tar_at_far, scores, far) == outcome(oracle_tar_at_far, scores, far)
        return scores

    def test_far_target_exactly_k_over_n(self):
        imp = np.arange(40) / 40
        scores = self.assert_equal([0.3, 0.6, 0.9], imp, fars=[k / 40 for k in range(1, 41)])
        assert be.tar_at_far(scores, 4 / 40) == (1 / 3, 36 / 40, 4 / 40)

    def test_far_target_exactly_k_over_n_inside_a_tie(self):
        # Sorted index 36 is the third of four 0.875s: move on to 0.95.
        imp = np.concatenate([np.arange(34) / 40, np.full(4, 0.875), [0.95, 0.975]])
        scores = self.assert_equal([0.9, 0.96, 0.99], imp, fars=[k / 40 for k in range(1, 41)])
        assert be.tar_at_far(scores, 4 / 40) == (2 / 3, 0.95, 2 / 40)

    def test_all_equal_imposters_give_the_sentinel(self):
        scores = self.assert_equal([0.2, 0.5, 0.7], np.full(50, 0.5), fars=(0.02, 0.5, 0.99, 1.0))
        assert be.tar_at_far(scores, 0.5) == (0.0, float("inf"), 0.0)
        assert be.tar_at_far(scores, 1.0) == (2 / 3, 0.5, 1.0)

    def test_single_genuine(self):
        for g in (-1.0, 0.0, 0.33, 0.5, 2.0):
            self.assert_equal([g], np.linspace(-0.5, 0.5, 101))

    def test_genuines_wholly_above_the_imposters(self):
        scores = self.assert_equal([0.8, 0.9, 0.95], np.linspace(-0.5, 0.5, 100))
        assert be.eer(scores) == 0.0

    def test_genuines_wholly_below_the_imposters(self):
        scores = self.assert_equal([-0.9, -0.8], np.linspace(-0.5, 0.5, 100))
        assert be.eer(scores) == oracle_eer(scores) > 0.5

    @pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
    def test_ties_straddling_the_crossing(self, shift):
        # Genuines and imposters share a block of tied scores around the crossing.
        tied = np.full(6, 0.5)
        gen = np.concatenate([tied, 0.5 + np.arange(1, 7 + shift) / 20])
        imp = np.concatenate([tied, 0.5 - np.arange(1, 7 - shift) / 20])
        self.assert_equal(gen, imp)

    def test_errors_keep_their_messages(self):
        scores = be.ScoreSet(np.array([0.8]), np.arange(50) / 50, "m")
        for far in (0.0, -0.1, 1.5, float("nan"), 0.01):
            assert outcome(be.tar_at_far, scores, far) == outcome(oracle_tar_at_far, scores, far)
        empty = be.ScoreSet(np.array([]), np.array([0.1]), "m")
        assert outcome(be.eer, empty) == outcome(oracle_eer, empty)
        assert outcome(be.tar_at_far, empty, 1.0) == outcome(oracle_tar_at_far, empty, 1.0)


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

    def test_welch_reference_is_the_original_original_mode(self):
        embeddings = identity_embeddings(8, 4, dim=8, seed=5)
        options = pipeline.VerifyOptions(far_targets=(0.1,))
        reference = be.pair_scores(embeddings, "original-original", pairs_per_id=options.pairs_per_id,
                                   seed=options.seed, max_imposter=options.max_imposter)
        for report in pipeline.run_verification(embeddings, options):
            scores = be.pair_scores(embeddings, report.pairing, pairs_per_id=options.pairs_per_id,
                                    seed=options.seed, max_imposter=options.max_imposter)
            assert (report.t_stat, report.t_df, report.t_p) == be.welch_t_test(reference.genuine, scores.genuine)
        without = pipeline.VerifyOptions(far_targets=(0.1,), modes=("watermarked-original",))
        (report,) = pipeline.run_verification(embeddings, without)
        assert (report.t_stat, report.t_df, report.t_p) == (None, None, None)

    def test_reports_equal_an_oracle_run(self, monkeypatch):
        # 100 identities x 5 images x 2 sources; the cap subsamples every mode.
        embeddings = identity_embeddings(100, 5, dim=16, seed=2)
        options = pipeline.VerifyOptions(far_targets=(1e-4, 1e-3, 0.01, 0.2), max_imposter=100_000, seed=4)
        reports = pipeline.run_verification(embeddings, options)
        monkeypatch.setattr(be, "eer", oracle_eer)
        monkeypatch.setattr(be, "tar_at_far", oracle_tar_at_far)
        want = pipeline.run_verification(embeddings, options)
        assert [asdict(r) for r in reports] == [asdict(r) for r in want]
        candidates = {"original-original": 123_750, "watermarked-original": 247_500,
                      "watermarked-watermarked": 123_750}
        for r in reports:
            assert r.error is None and r.imposter_count == 100_000
            assert r.imposter_candidates == candidates[r.pairing]

    def test_cli_reports_subsampling_on_stderr_only(self, tmp_path, capsys):
        path = tmp_path / "emb.txt"
        be.save_embeddings(identity_embeddings(6, 3, seed=1), path)
        config = tmp_path / "verify.cfg"
        config.write_text("far_targets = 0.1\nmax_imposter = 100\n")
        out = tmp_path / "reports.txt"
        assert cli.cli_dispatch(["verify", "--config", str(config), "--embeddings", str(path), str(out)]) == 0
        err = capsys.readouterr().err
        # 18 images per source: 153 - 6 * 3 = 135 unordered and 18 * 18 - 6 * 9 = 270 ordered imposter pairs.
        assert "pairing original-original: scored 100 of 135 imposter pairs (max_imposter=100)" in err
        assert "pairing watermarked-original: scored 100 of 270 imposter pairs (max_imposter=100)" in err
        assert "pairing watermarked-watermarked: scored 100 of 135 imposter pairs (max_imposter=100)" in err
        assert "candidates" not in out.read_text()

    def test_cli_silent_when_nothing_is_subsampled(self, tmp_path, capsys):
        path = tmp_path / "emb.txt"
        be.save_embeddings(identity_embeddings(6, 3, seed=1), path)
        assert cli.cli_dispatch(["verify", "--embeddings", str(path), str(tmp_path / "out.txt")]) == 0
        assert "imposter pairs" not in capsys.readouterr().err

    def test_undefined_welch_test_is_an_error_record(self):
        # Only "a" has two images, so the symmetric modes hold one genuine score each.
        embeddings = make_embeddings({"a": dict.fromkeys(BOTH, 2), "b": dict.fromkeys(BOTH, 1),
                                      "c": dict.fromkeys(BOTH, 1)})
        reports = pipeline.run_verification(embeddings, pipeline.VerifyOptions(far_targets=(0.5, 0.01)))
        welch = "welch_t_test requires at least 2 values per sample"
        imposters = {"original-original": 5, "watermarked-original": 10, "watermarked-watermarked": 5}
        assert [(r.pairing, r.far_target) for r in reports] == [(m, f) for m in be.PAIRING_MODES for f in (0.5, 0.01)]
        for r in reports:
            assert (r.t_stat, r.t_df, r.t_p) == (None, None, None)
            assert r.eer_value is not None and r.imposter_count == imposters[r.pairing]
            if r.far_target == 0.5:
                assert r.error == welch and r.tar is not None
            else:
                assert r.error == (f"{welch}; FAR target 0.01 is unresolvable with {imposters[r.pairing]} "
                                   "imposter scores; need at least 100")
                assert r.tar is None

    def test_zero_variance_welch_test_is_an_error_record(self):
        # Axis vectors: every genuine score is exactly 1 and every imposter score exactly 0.
        embeddings = [be.Embedding(np.eye(4)[k], identity, source)
                      for k, identity in enumerate("ab") for source in BOTH for _ in range(2)]
        for r in pipeline.run_verification(embeddings, pipeline.VerifyOptions(far_targets=(0.5,))):
            assert r.error == "welch_t_test: both samples have zero variance"
            assert (r.t_stat, r.t_df, r.t_p) == (None, None, None)
            assert (r.tar, r.tau, r.eer_value) == (0.0, float("inf"), 0.0)  # all imposters tie at 0

    def test_cli_writes_reports_when_the_welch_test_is_undefined(self, tmp_path, capsys):
        path = tmp_path / "emb.txt"
        be.save_embeddings(make_embeddings({"a": dict.fromkeys(BOTH, 2), "b": dict.fromkeys(BOTH, 1),
                                            "c": dict.fromkeys(BOTH, 1)}), path)
        config = tmp_path / "verify.cfg"
        config.write_text("far_targets = 0.5\n")
        out = tmp_path / "reports.txt"
        assert cli.cli_dispatch(["verify", "--config", str(config), "--embeddings", str(path), str(out)]) == 0
        err = capsys.readouterr().err
        for mode in be.PAIRING_MODES:
            assert f"report ({mode}, far=0.5) incomplete: welch_t_test requires at least 2 values per sample" in err
        text = out.read_text()
        assert text.count("error: welch_t_test requires at least 2 values per sample\n") == 3
        assert "t_stat" not in text and text.count("tar: ") == 3

    def test_golden_report(self, tmp_path):
        embeddings = DATA / "verify_golden_embeddings.txt"
        regenerated = tmp_path / "embeddings.txt"
        be.save_embeddings(identity_embeddings(12, 4, dim=8, seed=11), regenerated)
        assert regenerated.read_bytes() == embeddings.read_bytes()
        out = tmp_path / "report.txt"
        argv = ["verify", "--config", str(DATA / "verify_golden.cfg"), "--embeddings", str(embeddings), str(out)]
        assert cli.cli_dispatch(argv) == 0
        assert out.read_bytes() == (DATA / "verify_golden_report.txt").read_bytes()

    @pytest.mark.parametrize("caps", [{}, {"pairs_per_id": 3, "max_imposter": 200}])
    def test_reports_follow_mode_order_with_welch_against_original_original(self, caps):
        embeddings = identity_embeddings(8, 4, dim=8, seed=5)
        modes = ("watermarked-watermarked", "original-original", "watermarked-original")
        options = pipeline.VerifyOptions(far_targets=(0.1, 1e-3), modes=modes, seed=6, **caps)
        sets = {mode: be.pair_scores(embeddings, mode, pairs_per_id=options.pairs_per_id, seed=options.seed,
                                     max_imposter=options.max_imposter) for mode in modes}
        want = []
        for scores in sets.values():
            t_stat, t_df, t_p = be.welch_t_test(sets["original-original"].genuine, scores.genuine)
            for far in options.far_targets:
                report = be.VerificationReport(
                    pairing=scores.pairing, far_target=far, eer_value=be.eer(scores),
                    genuine_mean=float(scores.genuine.mean()), genuine_std=float(scores.genuine.std(ddof=1)),
                    genuine_count=scores.genuine.size, imposter_mean=float(scores.imposter.mean()),
                    imposter_std=float(scores.imposter.std(ddof=1)), imposter_count=scores.imposter.size,
                    t_stat=t_stat, t_df=t_df, t_p=t_p, skipped_identities=scores.skipped_identities,
                    imposter_candidates=scores.imposter_candidates)
                try:
                    report.tar, report.tau, report.achieved_far = be.tar_at_far(scores, far)
                except ValueError as exc:
                    report.error = str(exc)
                want.append(asdict(report))
        got = [asdict(r) for r in pipeline.run_verification(embeddings, options)]
        assert got == want
        assert [r["error"] is None for r in got] == [True, False] * 3  # 1e-3 needs 1000 imposters

    def test_one_call_peaks_under_10_mib_at_the_benchmark_shape(self):
        # Only one mode's score set may be alive at a time: all three at once peak at 12.8 MiB.
        embeddings = identity_embeddings(100, 5, dim=32, seed=0)
        options = pipeline.VerifyOptions(far_targets=(1e-2, 1e-3), max_imposter=200_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pipeline.run_verification(embeddings, options)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 2**20

    def test_a_mode_without_embeddings_of_its_source_fails_before_scoring(self, monkeypatch):
        embeddings = [e for e in identity_embeddings(4, 3, seed=1) if e.source == "original"]
        monkeypatch.setattr(be, "pair_scores", None)  # any scoring call would raise TypeError
        with pytest.raises(ValueError, match="^pairing mode 'watermarked-original' needs 'watermarked' embeddings"):
            pipeline.run_verification(embeddings)


class TestVerifyOptions:
    @pytest.mark.parametrize("kwargs, key", [
        ({"max_imposter": 0}, "max_imposter"),
        ({"max_imposter": -5}, "max_imposter"),
        ({"pairs_per_id": -1}, "pairs_per_id"),
        ({"far_targets": ()}, "far_targets"),
        ({"far_targets": (0.01, 1.5)}, "far_targets"),
        ({"far_targets": (0.0,)}, "far_targets"),
        ({"far_targets": (float("nan"),)}, "far_targets"),
        ({"modes": ()}, "modes"),
        ({"modes": ("original-original", "original-marked")}, "modes"),
    ])
    def test_rejected_in_code(self, kwargs, key):
        with pytest.raises(ValueError, match=f"^verify config: {key} "):
            pipeline.VerifyOptions(**kwargs)

    def test_edges_accepted(self):
        pipeline.VerifyOptions(far_targets=(1.0, 1e-9), modes=("watermarked-original",), pairs_per_id=0, max_imposter=1)

    @pytest.mark.parametrize("line, key", [
        ("max_imposter = 0", "max_imposter"),
        ("pairs_per_id = -1", "pairs_per_id"),
        ("far_targets = 1.5", "far_targets"),
        ("far_targets = 0.01,nan", "far_targets"),
        ("far_targets = ,", "far_targets"),
        ("modes = ,", "modes"),
        ("modes = original-marked", "modes"),
    ])
    def test_cli_exits_1_before_scoring(self, tmp_path, capsys, line, key):
        path = tmp_path / "emb.txt"
        be.save_embeddings(thin_embeddings(), path)
        config = tmp_path / "verify.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "reports.txt"
        assert cli.cli_dispatch(["verify", "--config", str(config), "--embeddings", str(path), str(out)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: verify config: {key} " in err
        assert "Traceback" not in err
        assert not out.exists()


# ---------------------------------------------------------------------------
# EMB1 reader
# ---------------------------------------------------------------------------

def write_embedder_with(path, extra, edit_config=lambda c: c):
    cfg = be.EmbedderConfig(embed_dim=4, num_classes=2, base_channels=3, image_size=8, class_labels=("a", "b"))
    tensors = model_tensors(be._build_embedder(cfg, seed=1)) + extra
    write_container(path, be.EMBEDDER_MAGIC, edit_config(asdict(cfg)), 0, tensors)


def without_class_labels(config):
    return {k: v for k, v in config.items() if k != "class_labels"}


BAD_CLASS_LABELS = {
    "int": lambda c: {**c, "class_labels": 5},
    "null": lambda c: {**c, "class_labels": None},
    "string": lambda c: {**c, "class_labels": "ab"},
    "ints": lambda c: {**c, "class_labels": [1, 2]},
    "too-few": lambda c: {**c, "class_labels": ["a"]},
    "too-many": lambda c: {**c, "class_labels": ["a", "b", "c"]},
    "repeated": lambda c: {**c, "class_labels": ["a", "a"]},
    "empty": lambda c: {**c, "class_labels": ["a", ""]},
    "nested": lambda c: {**c, "class_labels": [["a"], ["b"]]},
    "missing": without_class_labels,
}


class TestLoadEmbedder:
    @pytest.mark.parametrize("name", ["emb.block9.bn.running_mean", "emb.block-1.bn.running_mean",
                                      "emb.block01.bn.running_var", "emb.block0.bn.running_std"])
    def test_unknown_statistics_name_rejected(self, tmp_path, name):
        path = tmp_path / "m.emb"
        write_embedder_with(path, [(name, np.zeros(3))])
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            be.load_embedder(path)

    @pytest.mark.parametrize("edit", BAD_CLASS_LABELS.values(), ids=BAD_CLASS_LABELS.keys())
    def test_bad_class_labels_rejected(self, tmp_path, edit):
        path = tmp_path / "m.emb"
        write_embedder_with(path, [], edit)
        with pytest.raises(ValueError, match="bad config block: class_labels must be 2 distinct non-empty strings"):
            be.load_embedder(path)

    def test_class_labels_kept_in_order(self, tmp_path):
        path = tmp_path / "m.emb"
        write_embedder_with(path, [], lambda c: {**c, "class_labels": ["z", "a"]})
        assert be.load_embedder(path).config.class_labels == ("z", "a")

    def test_cli_bad_class_labels_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "m.emb"
        write_embedder_with(path, [], BAD_CLASS_LABELS["int"])
        argv = ["verify", "--embedder", str(path), str(tmp_path / "manifest.txt"), str(tmp_path / "out.txt")]
        assert cli.cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "bad config block: class_labels" in err
        assert "Traceback" not in err

    def test_cli_exits_2_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "m.emb"
        write_embedder_with(path, [("emb.block9.bn.running_mean", np.zeros(3))])
        argv = ["verify", "--embedder", str(path), str(tmp_path / "manifest.txt"), str(tmp_path / "out.txt")]
        assert cli.cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "emb.block9.bn.running_mean" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# embed_images
# ---------------------------------------------------------------------------

def stats_snapshot(model):
    return {slot: (r.mean.copy(), r.var.copy()) for slot, r in model.params.stats.items()}


def assert_stats_unchanged(model, before):
    for slot, (mean, var) in before.items():
        running = model.params.stats[slot]
        np.testing.assert_array_equal(running.mean, mean)
        np.testing.assert_array_equal(running.var, var)


class TestEmbedImages:
    def images(self, count=5, size=16, seed=6):
        rng = np.random.default_rng(seed)
        return rng.random((count, 3, size, size)), [f"id{i % 2}" for i in range(count)]

    def test_populated_embedder_runs_in_infer_mode(self):
        model = be.load_embedder(DATA / "golden_embedder.emb")
        images, labels = self.images()
        assert all(r.populated for r in model.params.stats.values())
        before = stats_snapshot(model)
        embeddings = be.embed_images(model, images, labels, source="watermarked")
        features, _ = be.forward_embedder(model, images, "infer")
        expected = features.value.astype(np.float32)
        for emb, row, label in zip(embeddings, expected, labels):
            assert emb.vector.dtype == np.float32
            np.testing.assert_array_equal(emb.vector, row)
            assert (emb.identity, emb.source) == (label, "watermarked")
        assert_stats_unchanged(model, before)

    def test_empty_identity_label_rejected(self):
        images, labels = self.images(count=4)[0], ["a", "a", "", ""]
        with pytest.raises(ValueError, match="every image needs a non-empty identity label"):
            be.embed_images(be.load_embedder(DATA / "golden_embedder.emb"), images, labels)
        with pytest.raises(ValueError, match="every image needs a non-empty identity label"):
            be.train_embedder(images, labels)  # its class labels would not load back

    def test_other_sizes_are_resized_first(self):
        model = be.load_embedder(DATA / "golden_embedder.emb")
        images, labels = self.images(size=24)
        resized = be.embed_images(model, images, labels)
        direct = be.embed_images(model, tg.resize_bilinear(tg.leaf(images), 16, 16).value, labels)
        for a, b in zip(resized, direct):
            np.testing.assert_array_equal(a.vector, b.vector)
