"""Synthetic interaction datasets with planted, learnable trend structure.

Sales for a (community, attribute, month) triple are Poisson draws around a
rate built from four factors: a latent community-attribute affinity
(attributes come in clusters so communities buy coherent groups), a
per-attribute seasonal cycle, an optional lognormal jitter, and scheduled
surges.  A surge multiplies the rate by a fixed factor at its onset month,
with a two-month precursor ramp before and a decaying month after, so
next-month entries into the top sales list are predictable from history
rather than pure noise.

Scheduled onsets target attributes whose baseline sits just below the
community's median, which makes them absent from the year-back top list
but near-certain members at the onset month.  The generator records every
scheduled onset so tests can measure how many planted trends the labeling
rule recovers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .snapshots import Catalogs, MonthlySales, write_interactions

ANNOTATION_HEADER = ["month", "community", "attribute"]

RAMP_EXPONENTS = (0.4, 0.6)    # multiplier exponents two months and one month before onset
DECAY_EXPONENT = 0.5           # multiplier exponent the month after onset
LATENT_DIM = 8                 # width of the community and attribute affinity vectors
SEASON_PERIOD = 12             # months per seasonal cycle
BASE_SCALE = 300.0             # baseline rate = BASE_SCALE * softplus(affinity)
AFFINITY_SPREAD = 2.2          # spread of the affinity logits
SEASON_AMPLITUDE = 0.3         # relative swing of the seasonal cycle


@dataclass
class GeneratorConfig:
    """Knobs for one synthetic dataset; everything derives from the seed."""

    communities: int = 7
    attributes: int = 300
    months: int = 25
    onset_rate: float = 0.02
    noise: float = 0.03
    seed: int = 7
    surge_factor: float = 5.0
    cluster_size: int = 10
    eligible_band: tuple[float, float] = (0.15, 0.45)

    def validate(self) -> None:
        if self.months < 13:
            raise ValueError(f"months must be >= 13, got {self.months}")
        if not (0.0 <= self.onset_rate <= 1.0):
            raise ValueError(f"onset_rate must be in [0, 1], got {self.onset_rate}")
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError(f"noise must be in [0, 1], got {self.noise}")
        for name in ("communities", "attributes", "cluster_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.surge_factor) and self.surge_factor >= 1.0):
            raise ValueError(f"surge_factor must be finite and >= 1, got {self.surge_factor}")
        if len(self.eligible_band) != 2:
            raise ValueError(f"eligible_band must be two values lo,hi, got {self.eligible_band}")
        lo, hi = self.eligible_band
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"eligible_band must satisfy 0 <= lo < hi <= 1, got {self.eligible_band}")


@dataclass
class SyntheticDataset:
    """The drawn sales tensor of months 1..``months`` with its catalogs, plus
    the planted-onset annotations as (month, community id, attribute id)."""

    catalogs: Catalogs
    monthly: MonthlySales
    annotations: list[tuple[int, str, str]]

    def annotations_csv(self) -> str:
        lines = [",".join(ANNOTATION_HEADER)]
        lines.extend(f"{m},{c},{a}" for m, c, a in self.annotations)
        return "\n".join(lines) + "\n"


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _community_names(n: int) -> list[str]:
    width = len(str(n))
    return [f"c{k + 1:0{width}d}" for k in range(n)]


def _attribute_names(n: int) -> list[str]:
    width = len(str(n))
    return [f"a{j + 1:0{width}d}" for j in range(n)]


def generate(config: GeneratorConfig) -> SyntheticDataset:
    """Draw one dataset; identical configs give identical tensors, so
    ``write_dataset`` writes byte-identical files."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    n_c, n_a, n_m = config.communities, config.attributes, config.months

    # latent affinities; attribute vectors cluster around shared centers
    sigma = (AFFINITY_SPREAD ** 2 / LATENT_DIM) ** 0.25
    u = rng.normal(0.0, sigma, size=(n_c, LATENT_DIM))
    n_clusters = max(1, math.ceil(n_a / config.cluster_size))
    centers = rng.normal(0.0, sigma, size=(n_clusters, LATENT_DIM))
    cluster_of = np.repeat(np.arange(n_clusters), config.cluster_size)[:n_a]
    v = centers[cluster_of] + rng.normal(0.0, 0.35 * sigma, size=(n_a, LATENT_DIM))
    base = BASE_SCALE * _softplus(u @ v.T)          # communities x attributes

    # per-attribute seasonal phase, shared within a cluster plus jitter
    phase = (rng.uniform(0.0, SEASON_PERIOD, size=n_clusters)[cluster_of]
             + rng.uniform(0.0, 2.0, size=n_a))

    # schedule surges: each month a few attributes start trending across most
    # communities at once (market-wide onsets).  Candidates sit in a mid-tier
    # percentile band of the baseline, so they are absent from year-back top
    # lists but near-certain entrants once multiplied.  An attribute rests for
    # 13 months after an onset so no surge residue lands at its own year-back
    # reference month.
    lo, hi = config.eligible_band
    ranks = base.argsort(axis=1).argsort(axis=1) / max(1, n_a - 1)
    in_band = (ranks >= lo) & (ranks <= hi)
    candidate = (ranks.mean(axis=0) >= lo) & (ranks.mean(axis=0) <= hi)
    per_month = int(round(config.onset_rate * n_a))
    last_onset = np.full(n_a, -10_000)
    multiplier = np.ones((n_m + 2, n_c, n_a))
    annotations: list[tuple[int, int, int]] = []
    f = config.surge_factor
    ramp_two, ramp_one = f ** RAMP_EXPONENTS[0], f ** RAMP_EXPONENTS[1]
    decay = f ** DECAY_EXPONENT
    for month in range(3, n_m + 1):
        eligible = np.flatnonzero(candidate & (month - last_onset > 13))
        if per_month == 0 or eligible.size == 0:
            continue
        chosen = rng.choice(eligible, size=min(per_month, eligible.size), replace=False)
        for j in chosen:
            last_onset[j] = month
            # a community joins only when the attribute sits below its median
            # there as well, so the year-back absence holds per pair
            members = np.flatnonzero(in_band[:, j])
            rng.random(n_c)  # unused draw, kept so that every seed still yields the same dataset
            for k in members:
                annotations.append((month, int(k), int(j)))
                if month - 2 >= 1:
                    multiplier[month - 2, k, j] *= ramp_two
                if month - 1 >= 1:
                    multiplier[month - 1, k, j] *= ramp_one
                multiplier[month, k, j] *= f
                if month + 1 <= n_m:
                    multiplier[month + 1, k, j] *= decay

    sales = np.zeros((n_m, n_c, n_a))
    for month in range(1, n_m + 1):
        season = 1.0 + SEASON_AMPLITUDE * np.sin(
            2.0 * math.pi * (month + phase) / SEASON_PERIOD)
        rate = base * season[None, :] * multiplier[month]
        if config.noise > 0.0:
            jitter = rng.normal(0.0, 1.0, size=rate.shape)
            rate = rate * np.exp(config.noise * jitter - 0.5 * config.noise ** 2)
        try:
            sales[month - 1] = rng.poisson(rate)
        except ValueError:
            raise ValueError(f"surge_factor={f} drives a rate to {rate.max():.3g}, "
                             "too large for the Poisson draw") from None
    catalogs = Catalogs(tuple(_community_names(n_c)), tuple(_attribute_names(n_a)))
    named_annotations = sorted((m, catalogs.communities[k], catalogs.attributes[j])
                               for m, k, j in annotations)
    return SyntheticDataset(catalogs=catalogs, monthly=MonthlySales(1, sales),
                            annotations=named_annotations)


def write_dataset(dataset: SyntheticDataset, out_dir) -> tuple[str, str]:
    """Write interactions.csv and annotations.csv under ``out_dir``."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    interactions = out / "interactions.csv"
    annotations = out / "annotations.csv"
    write_interactions(interactions, dataset.catalogs, dataset.monthly)
    annotations.write_text(dataset.annotations_csv(), encoding="utf-8", newline="\n")
    return str(interactions), str(annotations)
