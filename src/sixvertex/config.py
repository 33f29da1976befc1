"""Runtime configuration: resource caps, reporting precision, suite seed.

Resolution order: built-in defaults, then the JSON file named by
HOLANT6V_CONFIG, then explicit CLI flags.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from .contract import DEFAULT_RANK_CAP

__all__ = ["Config", "load_config", "ENV_VAR"]

ENV_VAR = "HOLANT6V_CONFIG"


@dataclass(frozen=True)
class Config:
    brute_force_edge_cap: int = 24
    contraction_rank_cap: int = DEFAULT_RANK_CAP
    precision_bits: int = 64
    deterministic_seed: int = 0

    def validate(self):
        if self.brute_force_edge_cap <= 0 or self.contraction_rank_cap <= 0:
            raise ValueError("caps must be positive")
        if self.precision_bits < 24:
            raise ValueError("precision_bits must be >= 24")
        return self


def load_config(overrides: dict | None = None) -> Config:
    cfg = Config()
    path = os.environ.get(ENV_VAR)
    if path:
        with open(path) as fh:
            data = json.load(fh)
        cfg = replace(cfg, **{k: v for k, v in data.items() if hasattr(cfg, k)})
    if overrides:
        cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    return cfg.validate()
