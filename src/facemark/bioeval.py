"""Embedding-based verification: scoring, operating points, statistics.

Embeddings carry an identity label and a source tag (``original`` or
``watermarked``); genuine/imposter score sets are built per pairing mode
(probe source - reference source). Operating points follow the inclusive
match rule: probe matches reference iff similarity >= threshold.

Vectors are held at 32-bit precision, which is what the text embedding file
format (9 significant digits) round-trips exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from . import containers, imageops
from . import tensorgrad as tg

__all__ = [
    "Embedding",
    "ScoreSet",
    "EmbeddingGroups",
    "VerificationReport",
    "EmbedderConfig",
    "EmbedderTrainConfig",
    "PAIRING_MODES",
    "cosine_similarity",
    "pair_scores",
    "tar_at_far",
    "eer",
    "welch_t_test",
    "regularized_incomplete_beta",
    "train_embedder",
    "forward_embedder",
    "embed_images",
    "save_embeddings",
    "load_embeddings",
    "save_embedder",
    "load_embedder",
    "EMBEDDER_MAGIC",
]

PAIRING_MODES = ("original-original", "watermarked-original", "watermarked-watermarked")

EMBEDDER_MAGIC = b"EMB1"


@dataclass
class Embedding:
    """One feature vector with its identity label and source tag."""

    vector: np.ndarray
    identity: str
    source: str = "original"

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float32)
        if self.vector.ndim != 1:
            raise ValueError(f"embedding vector must be 1-D, got shape {self.vector.shape}")
        if not np.isfinite(self.vector).all():
            raise ValueError("embedding vector contains NaN or Inf")
        if not self.identity:
            raise ValueError("embedding is missing its identity label")


@dataclass(frozen=True)
class ScoreSet:
    """Genuine and imposter similarity scores for one pairing mode.

    ``genuine`` and ``imposter`` keep pair order (means, standard deviations
    and Welch's test sum them in that order). Each side is also sorted once,
    as float64, into ``genuine_sorted`` and ``imposter_sorted`` when the set
    is built; :func:`eer` and :func:`tar_at_far` read only those. The set is
    frozen so that the sorted copies cannot fall out of step with the
    scores.

    ``imposter_candidates`` is the imposter pair count before subsampling;
    it equals ``imposter.size`` when nothing was dropped.
    """

    genuine: np.ndarray
    imposter: np.ndarray
    pairing: str
    skipped_identities: int = 0
    imposter_candidates: int | None = None
    genuine_sorted: np.ndarray = field(init=False, repr=False, compare=False)
    imposter_sorted: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        imposter_sorted = np.sort(np.asarray(self.imposter, dtype=np.float64))
        object.__setattr__(self, "genuine_sorted", np.sort(np.asarray(self.genuine, dtype=np.float64)))
        object.__setattr__(self, "imposter_sorted", imposter_sorted)
        if self.imposter_candidates is None:
            object.__setattr__(self, "imposter_candidates", imposter_sorted.size)


@dataclass
class VerificationReport:
    """One operating point plus distribution statistics for a pairing mode.

    ``skipped_identities`` counts the identities the mode had no genuine
    pair for and ``imposter_candidates`` the imposter pairs before
    subsampling; both are reported on stderr, not written to the report
    file.
    """

    pairing: str
    far_target: float
    tau: float | None = None
    achieved_far: float | None = None
    tar: float | None = None
    eer_value: float | None = None
    genuine_mean: float | None = None
    genuine_std: float | None = None
    genuine_count: int = 0
    imposter_mean: float | None = None
    imposter_std: float | None = None
    imposter_count: int = 0
    t_stat: float | None = None
    t_df: float | None = None
    t_p: float | None = None
    error: str | None = None
    skipped_identities: int = 0
    imposter_candidates: int = 0


def cosine_similarity(a, b):
    """dot(a, b) / (|a| |b|), clamped to [-1, 1] against rounding."""
    va = np.asarray(a.vector if isinstance(a, Embedding) else a, dtype=np.float64)
    vb = np.asarray(b.vector if isinstance(b, Embedding) else b, dtype=np.float64)
    if va.shape != vb.shape:
        raise ValueError(f"embedding dimensions differ: {va.shape} vs {vb.shape}")
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine similarity is undefined for a zero-norm vector")
    return float(np.clip(va @ vb / (na * nb), -1.0, 1.0))


def _mode_sources(pairing):
    if pairing not in PAIRING_MODES:
        raise ValueError(f"unknown pairing mode {pairing!r}; expected one of {PAIRING_MODES}")
    probe, _, ref = pairing.partition("-")
    return probe, ref


def _pool(by_identity, identities, source):
    """Embeddings of ``source`` identity by identity, with per-identity offsets."""
    pool, offsets = [], [0]
    for identity in identities:
        pool.extend(by_identity[identity].get(source, []))
        offsets.append(len(pool))
    return pool, offsets


class EmbeddingGroups:
    """Embeddings grouped once by identity and source, for scoring several pairing modes.

    The set has one embedding dimension, checked here. Each source's row
    cache (:meth:`rows`) and each symmetric layout's genuine and imposter
    cells are built on first use and kept, so the modes of one
    verification run share them.
    """

    def __init__(self, embeddings):
        by_identity: dict[str, dict[str, list[Embedding]]] = {}
        shapes = set()
        for emb in embeddings:
            by_identity.setdefault(emb.identity, {}).setdefault(emb.source, []).append(emb)
            shapes.add(emb.vector.shape)
        if len(shapes) > 1:
            raise ValueError(f"embedding dimensions differ: {' vs '.join(map(str, sorted(shapes)))}")
        self._by_identity = by_identity
        self.identities = sorted(by_identity)
        self._dim = shapes.pop()[0] if shapes else 0
        self._sources = {source for groups in by_identity.values() for source in groups}
        self._rows = {}
        self._symmetric_cells = {}

    def missing_source(self, pairing):
        """The first of ``pairing``'s probe and reference sources that has no embeddings, or None."""
        return next((source for source in _mode_sources(pairing) if source not in self._sources), None)

    def rows(self, source):
        """``source``'s float64 (n, d) matrix, identity by identity, with its row norms and identity offsets."""
        if source not in self._rows:
            pool, offsets = _pool(self._by_identity, self.identities, source)
            matrix = np.array([e.vector for e in pool], dtype=np.float64).reshape(len(pool), self._dim)
            self._rows[source] = matrix, np.sqrt(np.einsum("ij,ij->i", matrix, matrix)), np.asarray(offsets)
        return self._rows[source]

    def cells(self, probe_src, ref_src):
        """Per-identity genuine pair counts and the flat genuine and imposter cells of the probe x reference matrix.

        Rows and columns run identity by identity. Symmetric layouts keep
        the upper triangle and are cached by their per-identity counts; the
        asymmetric layout is built for its one mode and not kept.
        """
        p_off = self.rows(probe_src)[2]
        if probe_src == ref_src:
            key = p_off.tobytes()
            if key not in self._symmetric_cells:
                self._symmetric_cells[key] = _layout_cells(p_off, p_off, symmetric=True)
            return self._symmetric_cells[key]
        return _layout_cells(p_off, self.rows(ref_src)[2], symmetric=False)


def _layout_cells(p_off, r_off, symmetric):
    n_p, n_r = np.diff(p_off), np.diff(r_off)
    p_id = np.repeat(np.arange(n_p.size), n_p)
    r_id = np.repeat(np.arange(n_r.size), n_r)
    same = np.equal.outer(p_id, r_id)
    if symmetric:
        per_identity = n_p * (n_p - 1) // 2
        upper = np.less.outer(np.arange(p_id.size), np.arange(r_id.size))
        genuine_cells, imposter_cells = same & upper, ~same & upper
    else:
        per_identity = n_p * n_r - np.minimum(n_p, n_r)
        p_local = np.arange(p_id.size) - np.repeat(p_off[:-1], n_p)
        r_local = np.arange(r_id.size) - np.repeat(r_off[:-1], n_r)
        genuine_cells, imposter_cells = same & np.not_equal.outer(p_local, r_local), ~same
    return per_identity, np.flatnonzero(genuine_cells), np.flatnonzero(imposter_cells)


def _cosines(p, p_norm, r, r_norm):
    """``p @ r.T`` divided by the norm products and clipped to [-1, 1], in place, as one flat array.

    The division runs over blocks of rows, so the norm products never take
    a second matrix of that size. Cells of a zero-norm vector come out inf
    or nan, silently; they are never scored.
    """
    # p @ p.T and p @ copy(p).T round differently; a symmetric mode passes r = p itself.
    cosine = p @ r.T
    rows = max(1, 8192 // r_norm.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, cosine.shape[0], rows):
            block = cosine[start:start + rows]
            np.divide(block, np.multiply.outer(p_norm[start:start + rows], r_norm), out=block)
        np.clip(cosine, -1.0, 1.0, out=cosine)
    return cosine.ravel()


def pair_scores(embeddings, pairing, pairs_per_id=0, seed=0, max_imposter=1_000_000):
    """Build genuine and imposter cosine scores for one pairing mode.

    ``embeddings`` is a list of :class:`Embedding` or an
    :class:`EmbeddingGroups` built from one; a list is grouped here, so
    scoring several modes of one set from one grouping gives the same
    result as scoring each from the list. Grouping fails a set of more than
    one embedding dimension, even in a source the mode does not score. Both
    preconditions, an identity with a genuine pair and an imposter pair,
    name the mode when they fail.

    Genuine pairs are within-identity probe-reference pairs over distinct
    underlying images; underlying images are matched positionally within
    each (identity, source) group, so mirrored original/watermarked sets
    pair correctly. Symmetric modes use unordered pairs; the asymmetric
    watermarked-original mode uses ordered (probe, reference) pairs. Pairs
    are the cells of boolean masks over the probe x reference matrix, whose
    rows and columns run identity by identity, taken in row-major order.

    ``pairs_per_id`` > 0 caps genuine pairs per identity (seeded choice);
    imposter pairs above ``max_imposter`` are uniformly subsampled, and the
    count before subsampling is kept as ``imposter_candidates``.

    Each score is ``gram[a, b] / (|p_a| |r_b|)``, clipped to [-1, 1], from
    one float64 Gram matrix, so it lies within 1e-15 of
    :func:`cosine_similarity` on the same pair (the dot products sum in a
    different order). The mode holds one such matrix, divided and clipped
    in place, and both sides are gathered from it. A zero-norm vector
    raises only in a scored pair; every pair is checked, and the imposters
    subsampled, before the matrix is built.
    """
    probe_src, ref_src = _mode_sources(pairing)
    groups = embeddings if isinstance(embeddings, EmbeddingGroups) else EmbeddingGroups(embeddings)
    rng = np.random.default_rng(seed)

    per_identity, gen, imp = groups.cells(probe_src, ref_src)
    skipped = int(np.count_nonzero(per_identity == 0))
    if skipped == len(groups.identities):
        raise ValueError(f"no identity has enough images for pairing mode {pairing!r}")
    if pairs_per_id:
        blocks = np.split(gen, np.cumsum(per_identity)[:-1])
        gen = np.concatenate([b[rng.choice(b.size, size=pairs_per_id, replace=False)] if b.size > pairs_per_id
                              else b for b in blocks])

    p, p_norm, _ = groups.rows(probe_src)
    r, r_norm, _ = groups.rows(ref_src)
    p_zero, r_zero = p_norm == 0.0, r_norm == 0.0

    def check_norms(cells):
        if p_zero.any() or r_zero.any():
            a, b = np.divmod(cells, r.shape[0])
            if p_zero[a].any() or r_zero[b].any():
                raise ValueError("cosine similarity is undefined for a zero-norm vector")

    check_norms(gen)
    candidates = imp.size
    if not candidates:
        raise ValueError(f"no imposter pair for pairing mode {pairing!r}")
    if candidates > max_imposter:
        imp = imp[rng.choice(candidates, size=max_imposter, replace=False)]
    check_norms(imp)

    cosine = _cosines(p, p_norm, r, r_norm)
    genuine, imposter = cosine[gen], cosine[imp]
    del cosine  # freed before ScoreSet sorts its copies
    return ScoreSet(genuine=genuine, imposter=imposter, pairing=pairing, skipped_identities=skipped,
                    imposter_candidates=candidates)


def tar_at_far(scores, far):
    """TAR at the loosest threshold whose false accept rate is <= ``far``.

    Candidate thresholds are the distinct imposter scores; the smallest
    candidate with FAR(tau) <= far wins and the achieved FAR is reported.
    When no candidate qualifies (massive ties), tau is the +inf sentinel
    with TAR 0. Raises when the imposter sample cannot resolve ``far``.

    Works on the score set's sorted sides: the first qualifying sorted
    index is bisected, moved to the next first occurrence of a distinct
    score, and the genuines at or above tau are counted by one search.
    """
    if not (0.0 < far <= 1.0):
        raise ValueError(f"far must lie in (0, 1], got {far}")
    imp, gen = scores.imposter_sorted, scores.genuine_sorted
    n_imp = imp.size
    n_gen = gen.size
    if n_gen == 0 or n_imp == 0:
        raise ValueError("tar_at_far requires non-empty genuine and imposter sets")
    if n_imp < 1.0 / far:
        raise ValueError(
            f"FAR target {far} is unresolvable with {n_imp} imposter scores; "
            f"need at least {math.ceil(1.0 / far)}"
        )
    # FAR at sorted index i is the fraction of imposters >= imp[i] when i
    # is the first occurrence of its score; it falls as i rises.
    i = bisect_left(range(n_imp), True, key=lambda j: (n_imp - j) / n_imp <= far)
    if 0 < i < n_imp and imp[i] == imp[i - 1]:
        i = int(np.searchsorted(imp, imp[i], side="right"))
    if i == n_imp:
        return 0.0, float("inf"), 0.0
    tau = float(imp[i])
    achieved = (n_imp - i) / n_imp
    tar = (n_gen - int(np.searchsorted(gen, tau, side="left"))) / n_gen
    return tar, tau, achieved


def eer(scores):
    """Equal error rate under the inclusive match rule.

    Thresholds sweep the union of observed scores; FAR(t) is the fraction
    of imposters >= t and FRR(t) the fraction of genuines < t. The rate at
    the |FAR - FRR| minimum is returned, linearly interpolating between
    adjacent thresholds when the curves cross between samples.

    FAR(t) - FRR(t) never rises with t, so the first threshold where it is
    <= 0 is found by bisecting each sorted side of the score set; the
    union of thresholds is never built.
    """
    gen, imp = scores.genuine_sorted, scores.imposter_sorted
    if gen.size == 0 or imp.size == 0:
        raise ValueError("eer requires non-empty genuine and imposter sets")

    def rates(t):
        far = 1.0 - int(np.searchsorted(imp, t, side="left")) / imp.size
        frr = int(np.searchsorted(gen, t, side="left")) / gen.size
        return far, frr

    def crossed(t):
        far, frr = rates(t)
        return far - frr <= 0.0

    def first_crossed(side):
        j = bisect_left(side, True, key=crossed)
        return side[j] if j < side.size else math.inf

    def last_below(side, t):
        j = int(np.searchsorted(side, t, side="left"))
        return side[j - 1] if j else -math.inf

    # The first threshold where FAR no longer exceeds FRR: a tie there is
    # the EER; otherwise the curves crossed since the previous threshold.
    # Past the largest score FAR is 0 and FRR 1, so a crossing always
    # exists; at the smallest score FAR is 1 and FRR 0, so a previous
    # threshold always exists.
    t_k = min(first_crossed(gen), first_crossed(imp))
    far_k, frr_k = rates(t_k) if t_k < math.inf else (0.0, 1.0)
    diff_k = far_k - frr_k
    if diff_k == 0.0:
        return (far_k + frr_k) / 2.0
    far_p, frr_p = rates(max(last_below(gen, t_k), last_below(imp, t_k)))
    diff_p = far_p - frr_p
    t = diff_p / (diff_p - diff_k)
    far_x = far_p + (far_k - far_p) * t
    frr_x = frr_p + (frr_k - frr_p) * t
    return (far_x + frr_x) / 2.0


# ---------------------------------------------------------------------------
# Welch's t-test
# ---------------------------------------------------------------------------

_BETACF_MAX_ITER = 500
_BETACF_EPS = 1e-14
_BETACF_FPMIN = 1e-300


def _off_zero(v):
    return _BETACF_FPMIN if abs(v) < _BETACF_FPMIN else v


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (modified Lentz), one even and one odd half-step per term."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)), -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 / _off_zero(1.0 + aa * d)
            c = _off_zero(1.0 + aa / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) by continued fractions, accurate to ~1e-12 relative."""
    if a <= 0 or b <= 0:
        raise ValueError(f"incomplete beta requires a, b > 0, got a={a}, b={b}")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def welch_t_test(a, b):
    """Welch's unequal-variance t statistic, Welch-Satterthwaite df, 2-sided p.

    The test treats ``a`` and ``b`` as independent samples. Two pairing modes'
    genuine scores are not: the modes share identities and images, so a
    p-value comparing them overstates the uncertainty of the watermark's effect.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.size < 2 or xb.size < 2:
        raise ValueError("welch_t_test requires at least 2 values per sample")
    na, nb = xa.size, xb.size
    va = float(xa.var(ddof=1))
    vb = float(xb.var(ddof=1))
    se2 = va / na + vb / nb
    if se2 == 0.0:
        raise ValueError("welch_t_test: both samples have zero variance")
    t = float((xa.mean() - xb.mean()) / math.sqrt(se2))
    df = se2 * se2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return t, float(df), 1.0 if t == 0.0 else regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


# ---------------------------------------------------------------------------
# toy embedder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbedderConfig:
    """Architecture of the small softmax-trained classifier, and the identity label of each class."""

    embed_dim: int
    num_classes: int
    base_channels: int = 16
    image_channels: int = 3
    image_size: int = 32
    class_labels: tuple[str, ...] | None = None  # required: num_classes distinct non-empty strings

    def __post_init__(self):
        containers.require_at_least(self, embed_dim=1, num_classes=2, base_channels=1, image_size=8)
        if self.image_channels not in (1, 3):
            raise ValueError(f"image_channels must be 1 or 3, got {self.image_channels}")
        labels = self.class_labels
        if not (isinstance(labels, (list, tuple)) and all(isinstance(v, str) and v for v in labels)
                and len(set(labels)) == len(labels) == self.num_classes):
            raise ValueError(f"class_labels must be {self.num_classes} distinct non-empty strings")
        object.__setattr__(self, "class_labels", tuple(labels))


@dataclass(frozen=True)
class EmbedderTrainConfig:
    """Optimization knobs for :func:`train_embedder`."""

    embed_dim: int = 32
    epochs: int = 20
    lr: float = 1e-3
    batch_size: int = 16
    base_channels: int = 16
    seed: int = 0

    def __post_init__(self):
        # batch_size >= 2: train_embedder skips one-sample batches, as batch statistics need two.
        containers.require_at_least(self, embed_dim=1, base_channels=1, epochs=1, batch_size=2)
        if not (0.0 < self.lr < math.inf):
            raise ValueError(f"lr must lie in (0, inf), got {self.lr}")


_EMBEDDER_BLOCKS = 3


def _embedder_layout(cfg):
    return tg.conv_bn_stack_layout("emb", _EMBEDDER_BLOCKS, cfg.image_channels, cfg.base_channels) + [
        ("emb.fc_embed.weight", (cfg.embed_dim, cfg.base_channels)),
        ("emb.fc_embed.bias", (cfg.embed_dim,)),
        ("emb.fc_class.weight", (cfg.num_classes, cfg.embed_dim)),
        ("emb.fc_class.bias", (cfg.num_classes,)),
    ]


def _build_embedder(cfg, seed=None):
    """He-initialized from ``seed``; with no seed every parameter is zero."""
    rng = None if seed is None else np.random.default_rng(seed)
    return containers.Model(cfg, tg.init_params(_embedder_layout(cfg), rng))


def forward_embedder(model, images, mode="infer"):
    """(N,C,H,W) batch -> (features (N,d) node, class logits (N,K) node)."""
    cfg = model.config
    x = images if isinstance(images, tg.Node) else tg.leaf(np.asarray(images, dtype=np.float64))
    if x.value.shape[1] != cfg.image_channels:
        raise ValueError(f"embedder expects {cfg.image_channels}-channel images, got {x.value.shape[1]}")
    pooled = tg.global_avg_pool(model.params.stack(x, "emb", _EMBEDDER_BLOCKS, mode))
    features = tg.affine(pooled, model.params["emb.fc_embed.weight"], model.params["emb.fc_embed.bias"])
    logits = tg.affine(features, model.params["emb.fc_class.weight"], model.params["emb.fc_class.bias"])
    return features, logits


def _train_batch(model, config, images, labels):
    """One forward/backward/Adam step on one batch; returns its loss."""
    _, logits = forward_embedder(model, images, mode="train")
    loss = tg.softmax_cross_entropy(logits, labels)
    tg.backward(loss)
    tg.adam_step(model.params, lr=config.lr)
    model.step += 1
    return float(loss.value)


def _labelled_images(images, identities):
    """``images`` checked by :func:`imageops.require_images`, and one non-empty string label per image."""
    data = imageops.require_images(images)
    labels = [str(v) for v in identities]
    if len(labels) != data.shape[0]:
        raise ValueError(f"{data.shape[0]} images but {len(labels)} identity labels")
    if not all(labels):
        raise ValueError("every image needs a non-empty identity label")  # the EMB1 reader requires one
    return data, labels


def train_embedder(images, identities, config=EmbedderTrainConfig()):
    """Train the small conv classifier with softmax cross-entropy.

    ``images`` pass :func:`imageops.require_images`; ``identities`` are their
    labels. The returned model embeds through the penultimate affine layer.
    Also returns the per-epoch mean training loss history. Each batch runs in
    :func:`_train_batch`, so at most one batch's graph is alive at a time.
    """
    data, labels = _labelled_images(images, identities)
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError(f"training requires at least 2 identities, got {len(classes)}")
    counts = {c: labels.count(c) for c in classes}
    thin = [c for c, n in counts.items() if n < 2]
    if thin:
        raise ValueError(f"every identity needs >= 2 images; too few for: {', '.join(thin)}")

    index = {c: k for k, c in enumerate(classes)}
    y = np.array([index[v] for v in labels], dtype=np.int64)
    cfg = EmbedderConfig(embed_dim=config.embed_dim, num_classes=len(classes), base_channels=config.base_channels,
                         image_channels=data.shape[1], image_size=data.shape[2], class_labels=tuple(classes))
    model = _build_embedder(cfg, seed=config.seed)
    rng = np.random.default_rng(config.seed)
    m = data.shape[0]
    history = []
    for _ in range(config.epochs):
        order = rng.permutation(m)
        losses = []
        for start in range(0, m, config.batch_size):
            idx = order[start : start + config.batch_size]
            if idx.size < 2:
                continue  # batch statistics need more than one sample
            losses.append(_train_batch(model, config, data[idx], y[idx]))
        history.append(float(np.mean(losses)))
    return model, history


def embed_images(model, images, identities, source="original"):
    """Embeddings for a batch of images, tagging identity and source.

    Images pass :func:`imageops.require_images`, and are bilinearly resized
    first if not of the embedder's input size. The batch runs in ``infer``
    mode, on the model's running statistics.
    """
    data, labels = _labelled_images(images, identities)
    size = model.config.image_size
    if data.shape[2] != size or data.shape[3] != size:
        data = tg.resize_bilinear(tg.leaf(data), size, size).value
    features, _ = forward_embedder(model, data, mode="infer")
    vectors = features.value.astype(np.float32)
    return [Embedding(vector=vectors[i], identity=labels[i], source=source) for i in range(len(labels))]


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_embeddings(embeddings, path):
    """One record per line: ``identity,source,v1 v2 ... vd`` (9 significant digits)."""
    for emb in embeddings:
        if "," in emb.identity or "," in emb.source:
            raise ValueError(f"identity/source must not contain commas: {emb.identity!r}/{emb.source!r}")
    records = (f"{e.identity},{e.source}," + " ".join(f"{float(v):.9g}" for v in e.vector) for e in embeddings)
    containers.write_lines(path, records)


def load_embeddings(path):
    """Inverse of :func:`save_embeddings`."""
    out = []
    for ln, line in containers.read_lines(path):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{ln}: expected 'identity,source,values', got {line!r}")
        identity, source, values = parts
        try:
            out.append(Embedding(np.array([float(v) for v in values.split()], dtype=np.float32), identity, source))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc
    if not out:
        raise ValueError(f"{path}: no embedding records found")
    dims = {e.vector.shape[0] for e in out}
    if len(dims) != 1:
        raise ValueError(f"{path}: inconsistent embedding dimensions {sorted(dims)}")
    return out


def save_embedder(model, path):
    """Persist the embedder in the EMB1 container."""
    containers.save_model(path, EMBEDDER_MAGIC, model)


def load_embedder(path):
    """Inverse of :func:`save_embedder`."""
    return containers.load_model(path, EMBEDDER_MAGIC, EmbedderConfig, _build_embedder)
