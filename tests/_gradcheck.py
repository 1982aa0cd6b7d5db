"""Gradient checking for the tensorgrad tests: central finite differences
against ``tg.backward``, and an unfused ReLU, the reference that
``tg.conv_bn_relu`` must match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from facemark import tensorgrad as tg


def relu(x):
    """Elementwise max(0, x) as a graph node; subgradient at 0 is 0."""
    x = x if isinstance(x, tg.Node) else tg.leaf(x)
    out = np.maximum(x.value, 0.0)
    # out > 0 exactly where x > 0 (NaN included), so no mask is kept.
    return tg.Node(out, op="relu", parents=(x,), requires_grad=x.requires_grad,
                   vjp=(lambda g: (g * (out > 0.0),)) if x.requires_grad else None)


@dataclass
class FiniteDiffReport:
    """Max relative gradient error per parameter tensor."""

    tolerance: float
    max_rel_error: dict[str, float] = field(default_factory=dict)

    @property
    def failures(self):
        return sorted(n for n, e in self.max_rel_error.items() if not e <= self.tolerance)

    @property
    def passed(self):
        return not self.failures

    def __str__(self):
        lines = [
            f"{name}: max_rel_err={err:.3e} {'ok' if err <= self.tolerance else 'FAIL'}"
            for name, err in sorted(self.max_rel_error.items())
        ]
        return "\n".join(lines)


def finite_diff_check(
    params: Mapping[str, tg.Node],
    build_loss: Callable[[], tg.Node],
    tolerance=1e-4,
    step=1e-5,
    max_entries=64,
    seed=0,
):
    """Compare analytic gradients against central finite differences.

    ``build_loss`` must rebuild the scalar loss graph from the *same* leaf
    nodes in ``params`` deterministically; entries of large tensors are
    subsampled (seeded) down to ``max_entries``. Relative error uses
    max(|analytic|, |numeric|, 1e-4) in the denominator so that near-zero
    gradients are judged on an absolute scale.
    """
    loss = build_loss()
    if loss.value.size != 1 or not np.all(np.isfinite(loss.value)):
        raise ValueError("finite_diff_check: builder must produce a finite scalar loss")
    for node in params.values():
        node.grad = None
    tg.backward(loss)
    analytic = {
        name: (node.grad.copy() if node.grad is not None else np.zeros_like(node.value))
        for name, node in params.items()
    }
    for node in params.values():
        node.grad = None

    rng = np.random.default_rng(seed)
    report = FiniteDiffReport(tolerance=tolerance)
    for name, node in params.items():
        flat = node.value.reshape(-1)
        size = flat.size
        if size <= max_entries:
            idx = np.arange(size)
        else:
            idx = rng.choice(size, size=max_entries, replace=False)
        worst = 0.0
        for i in idx:
            orig = flat[i]
            flat[i] = orig + step
            lp = float(build_loss().value)
            flat[i] = orig - step
            lm = float(build_loss().value)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise ValueError(f"finite_diff_check: non-finite loss while perturbing {name!r}")
            numeric = (lp - lm) / (2.0 * step)
            a = analytic[name].reshape(-1)[i]
            denom = max(abs(a), abs(numeric), 1e-4)
            worst = max(worst, abs(a - numeric) / denom)
        report.max_rel_error[name] = worst
    return report
