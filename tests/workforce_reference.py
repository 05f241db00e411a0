"""Agent-level reference draw of the corruption model, kept for the tests.

``econrank.abm.simulate_country`` draws only the mismatch stream; this module
draws the whole workforce from the same seed, with the job requirements on
child 0 and the mismatches on child 1 of ``SeedSequence(seed)``, so its
discrepancies are the terms of the E that ``simulate_country`` sums.
"""

import numpy as np


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """Independent (jobs, mismatch) generators derived from one seed."""
    jobs_ss, skill_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(jobs_ss), np.random.default_rng(skill_ss)


def draw_workforce(*, mu: float, sigma: float, n_jobs: int, gamma: float,
                   seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Agent-level draw: job requirements, worker skills, and discrepancies.

    Takes ``simulate_country``'s keywords; gamma, the proxy's exponent, plays no
    part in the workforce. Returns (jobs, skills, discrepancies) where
    jobs ~ Poisson(mu), skills = jobs + Gaussian(0, sigma) mismatch
    (real-valued, unclamped), and each discrepancy is exp(-|skill - job|) in (0, 1].
    """
    jobs_rng, skill_rng = _streams(seed)
    jobs = jobs_rng.poisson(mu, n_jobs)
    mismatch = skill_rng.normal(0.0, sigma, n_jobs)
    skills = jobs + mismatch
    return jobs, skills, np.exp(-np.abs(mismatch))
