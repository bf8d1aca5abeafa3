"""The benchmark's workloads: config mappings generated from the workload seed.

Each workload fixes a problem shape and a round count ``T``; the seed argument
only chooses the episode seeds (see ``episode_seed``).  Thresholds and final
bounds are fixed per workload and never derived from a run.  README.md gives
the reasons for each shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    T: int                  # rounds per run (per sweep member for sweeps)
    smoke_T: int            # rounds in smoke mode
    setup_reps: int         # set-up repetitions before each episode; median is setup_s
    target: str             # series whose threshold crossing is time_to_target_s
    threshold: float        # crossed in the second half of a run at the full T
    final_bound: float      # correctness gate on the target series' last value
    build: object           # (seed, T) -> config mapping, or sweep mapping
    sweep_jobs: int = 0     # > 0: run through ``fedmoo sweep --jobs``

    @property
    def is_sweep(self) -> bool:
        return self.sweep_jobs > 0


def episode_seed(seed: int, index: int) -> int:
    """The 32-bit seed of episode ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _toy_stoch(seed, T):
    # The tanh landscape is one fixed instance; the episode seed drives the
    # minibatch streams.  Landscapes reach a given stationarity level at very
    # different rounds, and some (seed 100 of acceptance criterion 08) fall
    # into one of two basins depending on the streams.  Instance 106 crosses
    # the threshold near round 636 of 1000 on every stream seed tried.
    return {
        "name": "toy-stoch", "M": 3, "S": 2, "d": 5, "indicator": "all_ones",
        "K": 3, "T": T, "eta_global": 0.06, "eta_local": 0.05,
        "mode": "stochastic", "batch_size": 4, "sample_sharing": "per_client",
        "seed": seed,
        "problem": {"kind": "nonconvex", "n_terms": 6, "heterogeneity": 0.3,
                    "amp_noise": 0.5, "n_per_client": 64, "seed": 106},
    }


def _quad_wide(seed, T):
    return {
        "name": "quad-wide", "M": 32, "S": 8, "d": 200, "indicator": "all_ones",
        "K": 5, "T": T, "eta_global": 0.08, "eta_local": 0.001,
        "mode": "full_gradient", "seed": seed,
        "problem": {"kind": "quadratic", "centers": "auto", "curvature": 1.0,
                    "heterogeneity": 0.3, "curvature_spread": 0.2},
    }


def _cls_sweep(seed, T):
    return {
        "base": {
            "name": "cls-sweep", "M": 10, "S": 2, "d": 24, "indicator": "all_ones",
            "K": 1, "T": T, "eta_global": 0.5, "eta_local": 0.05,
            "mode": "stochastic", "batch_size": 16, "sample_sharing": "per_objective",
            "normalize_delta_by_K": False, "seed": seed,
            "problem": {"kind": "classification", "n_per_client": 200,
                        "partition": "label_skew", "labels_per_client": 2,
                        "n_components": 10, "ridge": 0.05},
        },
        "axis": "K",
        "values": [1, 5, 10],
    }


WORKLOADS = {
    wl.name: wl for wl in (
        Workload("toy-stoch", T=1000, smoke_T=20, setup_reps=3,
                 target="running_min_dbar", threshold=1e-2, final_bound=6e-3,
                 build=_toy_stoch),
        Workload("quad-wide", T=100, smoke_T=4, setup_reps=1,
                 target="delta_Q", threshold=1e-6, final_bound=1e-7,
                 build=_quad_wide),
        Workload("cls-sweep", T=40, smoke_T=4, setup_reps=1,
                 target="loss_gap_max", threshold=1e-2, final_bound=2e-2,
                 build=_cls_sweep, sweep_jobs=2),
    )
}
