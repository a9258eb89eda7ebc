"""Synthetic typed-graph generator for tests and benchmarks.

Emits the text graph format. Entity texts draw words from a fixed-size
vocabulary with Zipf-ish weights (probability proportional to 1/rank), so a
few words are common and most are rare, roughly like real entity names.
Out-degrees are Poisson with the configured mean; a fraction of edges point at
quoted literals instead of entities. Everything is driven by one seed and is
reproducible byte for byte.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class GenConfig:
    entities: int = 100
    types: int = 8
    attr_types: int = 10
    avg_out_degree: float = 2.0
    vocab: int = 50
    words_per_text: int = 3
    literal_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        for name in ("entities", "types", "attr_types", "vocab", "words_per_text"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be positive")
        # _poisson compares a product of uniforms with exp(-mean), which is no
        # normal float past a mean of about 708 (and 0 past 745); nan fails too.
        if not 0.0 < self.avg_out_degree <= 700.0:
            raise ParameterError(f"avg_out_degree must be in (0, 700], got {self.avg_out_degree}")
        if not 0.0 <= self.literal_fraction <= 1.0:
            raise ParameterError("literal_fraction must be in [0, 1]")


def _poisson(rng: random.Random, mean: float) -> int:
    # Knuth's method; GenConfig bounds the mean to where it is exact.
    limit = math.exp(-mean)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def generate_graph(cfg: GenConfig) -> str:
    """Graph file text for the configuration (deterministic per seed)."""
    rng = random.Random(cfg.seed)
    words = [f"w{i}" for i in range(cfg.vocab)]
    weights = [1.0 / (i + 1) for i in range(cfg.vocab)]
    type_names = [f"kind{i}" for i in range(cfg.types)]
    attr_names = [f"rel{i}" for i in range(cfg.attr_types)]

    def sample_text(n_words: int) -> str:
        return " ".join(rng.choices(words, weights=weights, k=n_words))

    lines = [f"# synthetic graph: {cfg.entities} entities, seed {cfg.seed}"]
    for i in range(cfg.entities):
        type_name = type_names[rng.randrange(cfg.types)]
        lines.append(f"E e{i} {type_name} {sample_text(cfg.words_per_text)}")
    for i in range(cfg.entities):
        for _ in range(_poisson(rng, cfg.avg_out_degree)):
            attr = attr_names[rng.randrange(cfg.attr_types)]
            if rng.random() < cfg.literal_fraction:
                lines.append(f'A e{i} {attr} "{sample_text(cfg.words_per_text)}"')
            else:
                lines.append(f"A e{i} {attr} @e{rng.randrange(cfg.entities)}")
    return "\n".join(lines) + "\n"
