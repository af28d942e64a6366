"""Support-level outcomes of the Figure 2 study on the overcomplete DFT.

The fig2-sweep benchmark's geometry (d = 256, 4x DFT, k = 8, the five
fig_variants, m in {96, 160}, 7 trials of both support modes) under one fixed
base seed. Each curve's success counts are pinned to recorded values: a change
to the greedy pursuits that re-decides a pick on the DFT beyond rounding shows
here as a moved count, which the sweep CSV digests only show at full size.

The desk grid's smallest m, 64, is pinned too. There the eps variants' merged
supports (up to 72 atoms) have more columns than M D_T has rows, so their
least-squares fits take the underdetermined branch of ls_synthesize.
"""

import pytest

from sigspace import TrialConfig, fig_variants, run_trial

GEOMETRY = {"d": 256, "redundancy": 4, "k": 8, "noise_level": 0.0, "success_tol": 0.01}
M_GRID = (96, 160)
TRIALS = 7
BASE_SEED = 7

# (mode, variant label) -> successes at each m of M_GRID, out of TRIALS
SUCCESSES = {
    ("clustered", "sscosamp-threshold"): (7, 7),
    ("clustered", "sscosamp-eps-threshold"): (7, 7),
    ("clustered", "sscosamp-omp"): (1, 1),
    ("clustered", "sscosamp-eps-omp"): (7, 7),
    ("clustered", "eps-omp-direct"): (7, 7),
    ("separated", "sscosamp-threshold"): (0, 0),
    ("separated", "sscosamp-eps-threshold"): (0, 0),
    ("separated", "sscosamp-omp"): (7, 7),
    ("separated", "sscosamp-eps-omp"): (7, 7),
    ("separated", "eps-omp-direct"): (3, 6),
}


# (mode, variant label) -> successes at m = 64, out of TRIALS
SUCCESSES_M64 = {
    ("clustered", "sscosamp-threshold"): 7,
    ("clustered", "sscosamp-eps-threshold"): 7,
    ("clustered", "sscosamp-omp"): 0,
    ("clustered", "sscosamp-eps-omp"): 7,
    ("clustered", "eps-omp-direct"): 7,
    ("separated", "sscosamp-threshold"): 0,
    ("separated", "sscosamp-eps-threshold"): 0,
    ("separated", "sscosamp-omp"): 7,
    ("separated", "sscosamp-eps-omp"): 4,
    ("separated", "eps-omp-direct"): 6,
}


@pytest.mark.parametrize("mode", ("clustered", "separated"))
def test_fig2_successes_are_pinned(mode):
    got = {}
    for variant in fig_variants():
        got[(mode, variant.label)] = tuple(
            sum(
                run_trial(
                    TrialConfig(m=m, variant=variant, mode=mode, base_seed=BASE_SEED,
                                trial_index=t, max_iters=50, **GEOMETRY)
                ).success
                for t in range(TRIALS)
            )
            for m in M_GRID
        )
    assert got == {key: value for key, value in SUCCESSES.items() if key[0] == mode}


@pytest.mark.parametrize("mode", ("clustered", "separated"))
def test_fig2_successes_at_the_smallest_desk_m_are_pinned(mode):
    got = {
        (mode, variant.label): sum(
            run_trial(
                TrialConfig(m=64, variant=variant, mode=mode, base_seed=BASE_SEED,
                            trial_index=t, max_iters=50, **GEOMETRY)
            ).success
            for t in range(TRIALS)
        )
        for variant in fig_variants()
    }
    assert got == {key: value for key, value in SUCCESSES_M64.items() if key[0] == mode}
