"""Seeded synthetic ground-truth / prediction generators for property tests
and protocol demonstrations.

All randomness flows through Philox counter-based generators keyed by
(seed, purpose tag), so outputs are reproducible across platforms and
independent of call order between purposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import _MAX_COORD, LabeledPoint

_PURPOSE_TAGS = {
    "ground_truth": 0x67726F75,
    "perturb": 0x70657274,
}


# largest density, spurious rate (expected points per image) and class count
# accepted: an image of 10^6 points takes ~30 s and ~0.5 GB to write, while
# far larger values exhaust memory or draw spurious points for hours
SIZE_LIMIT = 10**6


def _rng(seed: int, purpose: str) -> np.random.Generator:
    # an explicit uint64 key: from a tuple, numpy would take a seed of 2**63
    # or more through float64 and round it
    key = np.array([seed, _PURPOSE_TAGS[purpose]], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PerturbationModel:
    """Noise model turning a ground-truth point set into plausible
    predictions: positional jitter, drops, class confusion and spurious
    detections. ``confusion=None`` keeps every class, as the identity
    matrix would, without building it."""

    seed: int = 0
    jitter_sigma: float = 0.0
    drop_rate: float = 0.0
    spurious_rate: float = 0.0
    confusion: tuple[tuple[float, ...], ...] | None = None
    extent: tuple[float, float] = (224.0, 224.0)
    density: float = 30.0
    class_ids: tuple[int, ...] = (1,)

    def __post_init__(self):
        # the seed is one 64-bit word of the Philox key
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be in [0, 2**64) (--seed)")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if not all(0 <= x < math.inf for x in (self.spurious_rate, self.density,
                                                 self.jitter_sigma)):
            raise ValueError("rates and sigma must be non-negative and finite")
        if not all(0 < x <= _MAX_COORD for x in self.extent):
            raise ValueError(f"extent must be positive, finite and at most {_MAX_COORD:g}")
        # numpy's standard normal draws stay below 14 in magnitude, so a
        # jittered point lies within 40 sigma of the extent
        if max(self.extent) + 40 * self.jitter_sigma > _MAX_COORD:
            raise ValueError(
                f"extent + 40 * jitter sigma must be at most {_MAX_COORD:g} (--extent, --jitter)"
            )
        if max(self.density, self.spurious_rate) > SIZE_LIMIT:
            raise ValueError(
                f"density and spurious rate must be at most {SIZE_LIMIT:g} (--density, --spurious)"
            )
        if not self.class_ids:
            raise ValueError("at least one class id required")
        confusion = self.confusion
        if confusion is None:  # the identity
            return
        t = len(self.class_ids)
        if len(confusion) != t or any(len(row) != t for row in confusion):
            raise ValueError("confusion matrix must be TxT over class_ids")
        for row in confusion:
            if abs(sum(row) - 1.0) > 1e-9 or any(v < 0 for v in row):
                raise ValueError("confusion rows must be non-negative and sum to 1")


def gen_ground_truth(model: PerturbationModel) -> list[LabeledPoint]:
    """Poisson-count, uniformly placed points with uniform class labels."""
    rng = _rng(model.seed, "ground_truth")
    n = int(rng.poisson(model.density))
    if n == 0:
        return []
    xs = rng.uniform(0.0, model.extent[0], size=n)
    ys = rng.uniform(0.0, model.extent[1], size=n)
    labels = rng.integers(0, len(model.class_ids), size=n)
    return [
        LabeledPoint(x=float(x), y=float(y), class_id=model.class_ids[int(k)])
        for x, y, k in zip(xs, ys, labels)
    ]


def perturb(gts: list[LabeledPoint], model: PerturbationModel) -> list[LabeledPoint]:
    """Jitter positions, drop points, relabel via the confusion matrix and
    append spurious detections. The identity model is the identity map."""
    rng = _rng(model.seed, "perturb")
    # each class's cumulative relabelling probabilities; none for the identity
    if model.confusion is not None:
        cumulative = dict(zip(model.class_ids, np.cumsum(model.confusion, axis=1)))

    out = []
    for point in gts:
        jx, jy = rng.normal(0.0, 1.0, size=2) * model.jitter_sigma
        dropped = rng.uniform() < model.drop_rate
        # drawn under every model, so the identity keeps the draws in step
        u = rng.uniform()
        if dropped:
            continue
        new_cls = point.class_id
        if model.confusion is not None:
            row = cumulative[point.class_id]
            new_cls = model.class_ids[int(np.searchsorted(row, u, side="right"))]
        out.append(LabeledPoint(x=float(point.x + jx), y=float(point.y + jy), class_id=new_cls))

    n_spurious = int(rng.poisson(model.spurious_rate))
    for _ in range(n_spurious):
        x = rng.uniform(0.0, model.extent[0])
        y = rng.uniform(0.0, model.extent[1])
        cls = model.class_ids[int(rng.integers(0, len(model.class_ids)))]
        out.append(LabeledPoint(x=float(x), y=float(y), class_id=cls))
    return out


def figure3_fixture() -> tuple[list[LabeledPoint], list[LabeledPoint]]:
    """Adversarial two-cell geometry where the raw-distance Hungarian
    prefers the crossed assignment (8 + 27 < 3 + 38), so radius filtering
    at r=6 discards both pairs, while threshold-then-match keeps the one
    genuinely correct detection."""
    gts = [
        LabeledPoint(x=0.0, y=0.0, class_id=1),
        LabeledPoint(x=30.0, y=0.0, class_id=1),
    ]
    preds = [
        LabeledPoint(x=3.0, y=0.0, class_id=1),
        LabeledPoint(x=-8.0, y=0.0, class_id=1),
    ]
    return gts, preds
