"""The four sampling estimators, each resolved by name in one place.

`ESTIMATORS` maps kernel, kernel-paired, permutation and permutation-paired
to an estimator object with five parts: its estimate, the same estimate
for a stack of seeds at once, its exact covariance, its plug-in covariance
and the value-function evaluations one draw costs.
The key order is part of the experiment seeding: replicate substreams are
keyed by a method's position in it.

Entries call `kernel`, `permutation` and `asymptotics` through their module
attributes at call time, so a wrapper installed on one of those functions
sees every call made through the table.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import asymptotics, kernel, permutation


@dataclass(frozen=True)
class KernelEstimator:
    """Least-squares fit on n kernel draws, each paired with its complement or not."""

    paired: bool

    def estimate(self, ev, n: int, seed):
        """(ShapleyVector, KernelSampleBatch) from n draws, n pairs if paired."""
        return kernel.estimate_kernel(ev, n, paired=self.paired, seed=seed)

    def estimate_stack(self, ev, n: int, seeds) -> list:
        """What `estimate` returns for each seed, fitted as one stack."""
        return kernel.estimate_kernel_stack(ev, n, seeds, paired=self.paired)

    def exact_covariance(self, ev) -> asymptotics.CovarianceReport:
        return asymptotics.kernel_matrices_exact(ev, paired=self.paired)[2]

    def plugin_covariance(self, ev, n: int, seed, drawn=None) -> asymptotics.CovarianceReport:
        """Sandwich covariance of the batch `estimate` draws for these arguments.

        `drawn`, what `estimate` already returned for the same arguments, is
        reused instead of drawing and evaluating the batch again.
        """
        vector, batch = drawn or self.estimate(ev, n, seed)
        return asymptotics.kernel_matrices_plugin(batch, vector)[2]

    def cost(self, q: int) -> int:
        return 2 if self.paired else 1


@dataclass(frozen=True)
class PermutationEstimator:
    """Mean marginal contribution over n sampled orders, each paired with its reverse or not.

    A paired draw is one walk that looks up the order's prefixes and the
    reverse order's, read off as their complements: 2q evaluations.
    """

    paired: bool

    def estimate(self, ev, n: int, seed):
        """(ShapleyVector, `exact.WalkMoments` of the drawn orders' marginal vectors) from n orders, n pairs if paired."""
        return permutation.estimate_permutation(ev, n, paired=self.paired, seed=seed)

    def estimate_stack(self, ev, n: int, seeds) -> list:
        """What `estimate` returns for each seed, walked as one stack."""
        return permutation.estimate_permutation_stack(ev, n, seeds, paired=self.paired)

    def exact_covariance(self, ev) -> asymptotics.CovarianceReport:
        return asymptotics.permutation_covariance_exact(ev, paired=self.paired)

    def plugin_covariance(self, ev, n: int, seed, drawn=None) -> asymptotics.CovarianceReport:
        """Sample covariance of the marginal vectors of the orders `estimate` draws.

        `drawn`, what `estimate` already returned for the same arguments,
        gives the fold of its walk instead of walking the orders again.
        """
        return asymptotics.permutation_covariance_plugin(ev, n, seed=seed, paired=self.paired, drawn=drawn)

    def cost(self, q: int) -> int:
        return 2 * q if self.paired else q


ESTIMATORS = {
    "kernel": KernelEstimator(paired=False),
    "kernel-paired": KernelEstimator(paired=True),
    "permutation": PermutationEstimator(paired=False),
    "permutation-paired": PermutationEstimator(paired=True),
}
