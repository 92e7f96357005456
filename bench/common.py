"""Pieces shared by the benchmark's processes."""

from __future__ import annotations

import numpy as np

WORKLOADS = ("mesh-ensemble", "poisson-ensemble", "analysis", "cli-roundtrip")

# Per-layer metrics of a traced run, each a total over the timed phase divided
# by the number of rounds (cli.startup_ms: mean over CLI processes).
PER_LAYER = (
    ("levy_core.sample_realization.self_ms", "ms"),
    ("levy_core.cells_sampled", "count"),
    ("levy_core.points.self_ms", "ms"),
    ("levy_core.points_placed", "count"),
    ("growth.simulate.self_ms", "ms"),
    ("growth.simulate.calls", "count"),
    ("growth.simulate_replicates.self_ms", "ms"),
    ("growth.profile_values", "count"),
    ("ambit.induced_weight.self_ms", "ms"),
    ("ambit.induced_weight.calls", "count"),
    ("ambit.window_length_in_union.self_ms", "ms"),
    ("ambit.self_intersection_measure.self_ms", "ms"),
    ("ambit.self_intersection_measure.calls", "count"),
    ("quadrature.adaptive_simpson.self_ms", "ms"),
    ("quadrature.integrand_evals", "count"),
    ("moments.linear.self_ms", "ms"),
    ("moments.exponential.self_ms", "ms"),
    ("moments.mc_verify.self_ms", "ms"),
    ("moments.mc_replicates", "count"),
    ("circle_cov.harmonic_cov.self_ms", "ms"),
    ("circle_cov.harmonic_cov.calls", "count"),
    ("circle_cov.table.self_ms", "ms"),
    ("circle_cov.boundary_overlap_oracle.self_ms", "ms"),
    ("fourier_radial.radial_fourier.self_ms", "ms"),
    ("fourier_radial.gaussian_loglik.self_ms", "ms"),
    ("inference.empirical_moments.self_ms", "ms"),
    ("inference.fit.self_ms", "ms"),
    ("inference.fit_nfev", "count"),
    ("inference.ingest_profiles.self_ms", "ms"),
    ("inference.rows_read", "count"),
    ("inference.to_csv.self_ms", "ms"),
    ("growth.to_csv.self_ms", "ms"),
    ("inference.csv_bytes_written", "count"),
    ("cli.startup_ms", "ms"),
    ("cli.simulate.ms", "ms"),
    ("cli.fit.ms", "ms"),
    ("cli.moments.ms", "ms"),
    ("cli.cov.ms", "ms"),
    ("cli.mc_verify.ms", "ms"),
    ("config.parse_config.self_ms", "ms"),
    ("proc.cpu_s", "s"),
)


def round_seed(seed, round_index, stream=0):
    """Seed for one stream of one round, derived from the run's --seed."""
    state = np.random.SeedSequence([int(seed), int(round_index) + 1, int(stream)])
    return int(state.generate_state(1, dtype=np.uint64)[0] >> 1)


def round_rng(seed, round_index, stream=0):
    return np.random.default_rng(round_seed(seed, round_index, stream))
