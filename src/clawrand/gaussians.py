"""Truncated discrete Gaussians over Z_q and Z_q^m.

The width-B distribution on Z_q puts weight exp(-pi*|x|^2/B^2) on every
residue whose centered representative has absolute value at most B, and
zero elsewhere; |.| is the centered absolute value.  The m-dimensional
variant is the i.i.d. product, so its support is the box of residue
vectors with every coordinate in the width-B band.

Densities and distances are computed by exact summation; there is no tail
approximation anywhere, and a distance between products is taken
coordinate by coordinate wherever the sum factorises.  Sampling is exact
inverse-CDF over the enumerated support, which has at most q + 1 entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .modq import ModRing


@dataclass(frozen=True)
class TruncGaussian:
    """Width-B truncated discrete Gaussian on Z_q."""

    ring: ModRing
    B: float
    _table: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.B <= 0:
            raise ValueError("width parameter must be positive")
        q = self.ring.q
        L = min(int(math.floor(self.B)), q // 2)
        support_c = np.arange(-L, L + 1, dtype=np.int64)
        if q % 2 == 0 and self.B >= q // 2:
            # (-q/2, q/2] keeps +q/2 but not -q/2
            support_c = support_c[support_c != -(q // 2)]
        weights = np.exp(-math.pi * support_c.astype(float) ** 2 / self.B**2)
        tau = float(weights.sum())
        # the support's residues, in the order of the cdf's entries
        support = np.mod(support_c, q)
        dens = np.zeros(q)
        dens[support] = weights / tau
        self._table["support_residues"] = support
        self._table["density"] = dens
        cdf = np.cumsum(weights / tau)
        # the float sum can end just below 1, under the largest draw of
        # rng.random(), 1 - 2^-53; pinned, every draw in [0, 1) has an entry
        cdf[-1] = 1.0
        self._table["cdf"] = cdf

    # -- densities -------------------------------------------------------

    def density(self, x) -> float:
        """Probability of residue x."""
        x = int(np.mod(x, self.ring.q))
        return float(self._table["density"][x])

    def density_table(self) -> np.ndarray:
        """Length-q array of probabilities indexed by residue."""
        return self._table["density"].copy()

    def density_vec(self, v) -> float:
        """Product density of a residue vector."""
        v = np.mod(np.asarray(v, dtype=np.int64), self.ring.q)
        return float(np.prod(self._table["density"][v]))

    def entropy_bits(self) -> float:
        p = self._table["density"]
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    # -- sampling --------------------------------------------------------

    def sample_vec(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m i.i.d. coordinates, as residues in [0, q), by inverse-CDF
        sampling: each of the draws rng.random(m) picks the support entry
        whose cdf interval holds it.  The support is kept as residues, so
        a call is a draw, a search and a gather."""
        t = self._table
        return t["support_residues"][t["cdf"].searchsorted(rng.random(m))]


# -- distances -----------------------------------------------------------


def hellinger_sq(dist: TruncGaussian, e) -> float:
    """Squared Hellinger distance between the m-fold product and its shift
    by the residue vector e.

    The Bhattacharyya coefficient of a product is the product of the
    per-coordinate ones, so 1 - H^2 = prod_i (1 - h_i) with h_i the squared
    Hellinger distance between D and D + e_i on Z_q: O(q*m) work, and
    exactly 0 when e = 0."""
    e = np.atleast_1d(np.asarray(e, dtype=np.int64))
    d = np.sqrt(dist.density_table())
    q = d.size
    h = 0.5 * ((d - d[np.mod(np.arange(q) - e[:, None], q)]) ** 2).sum(axis=1)
    return float(1.0 - np.prod(1.0 - h))


def shifted_hellinger_bound(m: int, e_norm: float, B: float) -> float:
    """1 - exp(-2*pi*sqrt(m)*||e||/B): upper bound on H^2(D, D+e) valid in
    the small-shift regime (every coordinate shift within the width)."""
    return 1.0 - math.exp(-2.0 * math.pi * math.sqrt(m) * e_norm / B)


def shifted_tv_bound(m: int, e_norm: float, B: float) -> float:
    """sqrt(2*(1 - exp(-2*pi*sqrt(m)*||e||/B))): the matching TV bound."""
    return math.sqrt(2.0 * shifted_hellinger_bound(m, e_norm, B))
