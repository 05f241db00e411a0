"""Agent-level reference draw of the corruption model, kept for the tests.

``econrank.abm.simulate_country`` draws only the mismatch stream; this module
draws the whole workforce from the same seed, with the job requirements on
child 0 and the mismatches on child 1 of ``SeedSequence(seed)``, so its
discrepancies are the terms of the E that ``simulate_country`` sums.
"""

import numpy as np

from econrank import AbmParams


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (jobs, mismatch) generators derived from one seed."""
    jobs_ss, skill_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(jobs_ss), np.random.default_rng(skill_ss)


def draw_workforce(params: AbmParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Agent-level draw: job requirements, worker skills, and discrepancies.

    Returns (jobs, skills, discrepancies) where jobs ~ Poisson(mu),
    skills = jobs + Gaussian(0, sigma) mismatch (real-valued, unclamped),
    and each discrepancy is exp(-|skill - job|) in (0, 1].
    """
    jobs_rng, skill_rng = _streams(params.seed)
    jobs = jobs_rng.poisson(params.mu, params.n_jobs)
    mismatch = skill_rng.normal(0.0, params.sigma, params.n_jobs)
    skills = jobs + mismatch
    return jobs, skills, np.exp(-np.abs(mismatch))
