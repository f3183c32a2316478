import math

import numpy as np
import pytest
import scipy.stats

from clawrand.gaussians import (
    TruncGaussian,
    hellinger_sq,
    shifted_hellinger_bound,
    shifted_tv_bound,
)
from clawrand.modq import ModRing


def dist(q, B):
    return TruncGaussian(ModRing(q), B)


def enumerate_product_density(d, m):
    """Reference: the product density over all of Z_q^m as a flat array,
    mixed-radix with the first coordinate most significant."""
    out = np.array([1.0])
    for _ in range(m):
        out = np.multiply.outer(out, d.density_table()).reshape(-1)
    return out


def test_density_normalizer_example():
    d = dist(7, 2.0)
    tau = 1 + 2 * math.exp(-math.pi / 4) + 2 * math.exp(-math.pi)
    assert d.density(0) == pytest.approx(1 / tau, abs=1e-14)
    assert d.density(3) == 0.0  # centered |3| = 3 > B


@pytest.mark.parametrize("q", [5, 7, 13, 61])
@pytest.mark.parametrize("B", [1.0, 2.0, None, "third"])
def test_normalization(q, B):
    if B is None:
        B = math.sqrt(q)
    elif B == "third":
        B = q / 3
    d = dist(q, B)
    assert abs(d.density_table().sum() - 1.0) < 1e-12


def test_symmetry_and_monotonicity():
    d = dist(13, 3.5)
    table = d.density_table()
    ring = ModRing(13)
    for x in range(13):
        assert table[x] == pytest.approx(table[(-x) % 13], abs=1e-15)
    mags = sorted({int(a) for a in ring.abs(np.arange(13)) if a <= 3})
    vals = [d.density(m) for m in mags]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_density_vec_is_product():
    d = dist(7, 2.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.integers(0, 7, size=3)
        assert d.density_vec(v) == pytest.approx(
            np.prod([d.density(x) for x in v]), abs=1e-15
        )
    assert d.density_vec([0, 0]) == pytest.approx(d.density(0) ** 2)
    assert d.density_vec([3, 0]) == 0.0


def test_sampler_degenerate_width():
    d = dist(11, 0.5)
    rng = np.random.default_rng(1)
    assert np.all(d.sample_vec(rng, 100) == 0)


class _TopDrawRng:
    """Every draw is the largest rng.random() can return, 1 - 2^-53."""

    def random(self, m):
        return np.full(m, np.nextafter(1.0, 0.0))


def test_sampler_maps_the_largest_draw_to_the_last_support_entry():
    # the float cdf of this width sums to 1 - 2^-52, below the largest draw
    d = TruncGaussian(ModRing(3), 1.1)
    assert d._table["cdf"][-1] == 1.0
    assert np.array_equal(d.sample_vec(_TopDrawRng(), 4), [1, 1, 1, 1])


def _reference_sample(d, rng, m):
    """Inverse-CDF sampling written out: the centered support entry of each
    uniform draw, reduced mod q.  The support is -L..L with L = floor(B),
    for a width below q/2."""
    L = math.floor(d.B)
    support_centered = np.arange(-L, L + 1, dtype=np.int64)
    return np.mod(support_centered[np.searchsorted(d._table["cdf"], rng.random(m))], d.ring.q)


@pytest.mark.parametrize("q,B,entries", [(13, 0.5, 1), (13, 1.5, 3), (61, 2.5, 5)])
def test_sampler_matches_the_inverse_cdf_reference(q, B, entries):
    # the same values from the same draws, and the stream left where the
    # reference leaves it, so no caller's later draws move
    d = dist(q, B)
    assert d._table["cdf"].size == entries
    for seed in range(3):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for m in (0, 1, 7, 160):
            got, want = d.sample_vec(rng, m), _reference_sample(d, ref, m)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert rng.bit_generator.state == ref.bit_generator.state
    got, want = d.sample_vec(_TopDrawRng(), 5), _reference_sample(d, _TopDrawRng(), 5)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_sampler_deterministic_and_symmetric():
    d = dist(7, 2.0)
    a = d.sample_vec(np.random.default_rng(42), 50)
    b = d.sample_vec(np.random.default_rng(42), 50)
    assert np.array_equal(a, b)
    ring = ModRing(7)
    draws = d.sample_vec(np.random.default_rng(7), 200_000)
    c = ring.centered(draws).astype(float)
    sigma = c.std() / math.sqrt(c.size)
    assert abs(c.mean()) < 3 * sigma + 1e-9


def test_sampler_matches_density_chisquare():
    d = dist(7, 2.0)
    draws = d.sample_vec(np.random.default_rng(3), 1_000_000)
    counts = np.bincount(draws, minlength=7)
    expected = d.density_table() * draws.size
    keep = expected > 0
    stat = scipy.stats.chisquare(counts[keep], expected[keep])
    assert stat.pvalue > 0.001


def test_hellinger_zero_shift():
    assert hellinger_sq(dist(7, 2.0), [0]) == pytest.approx(0.0, abs=1e-12)


def test_hellinger_example_against_bound():
    h2 = hellinger_sq(dist(7, 2.0), [1])
    assert 0.0 < h2 < 1.0
    assert h2 <= shifted_hellinger_bound(1, 1.0, 2.0)


def brute_hellinger(q, B, e):
    # independent oracle: coordinate factorization of the Bhattacharyya sum
    d = TruncGaussian(ModRing(q), B).density_table()
    bc = 1.0
    for ei in np.atleast_1d(e):
        xs = np.arange(q)
        bc *= np.sum(np.sqrt(d[xs] * d[np.mod(xs - ei, q)]))
    return 1.0 - bc


def test_hellinger_matches_factorized_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        q = int(rng.choice([5, 7, 11, 13]))
        m = int(rng.integers(1, 4))
        B = float(rng.uniform(1.0, (q - 1) / 2))
        e = rng.integers(0, q, size=m)
        assert hellinger_sq(dist(q, B), e) == pytest.approx(
            brute_hellinger(q, B, e), abs=1e-12
        )


def test_hellinger_matches_enumerated_sum():
    # the sum over all of Z_q^m that the closed form factorises
    rng = np.random.default_rng(12)
    for _ in range(30):
        q = int(rng.choice([5, 7, 11, 13]))
        m = int(rng.integers(1, 4))
        B = float(rng.uniform(1.0, (q - 1) / 2))
        e = rng.integers(0, q, size=m)
        d = dist(q, B)
        f = enumerate_product_density(d, m)
        shifted = np.roll(f.reshape((q,) * m), tuple(e), axis=tuple(range(m))).reshape(-1)
        assert hellinger_sq(d, e) == pytest.approx(1.0 - np.sqrt(f * shifted).sum(), abs=1e-12)


def test_hellinger_has_no_domain_guard():
    # 61^5 ~ 8.4e8 points: a domain too large to enumerate
    assert hellinger_sq(dist(61, 2.0), [1] * 5) == pytest.approx(
        brute_hellinger(61, 2.0, [1] * 5), abs=1e-12
    )


def test_shifted_pair_tv_bound():
    # TV^2 <= 2 * (1 - exp(...)) on the same shifted pairs
    rng = np.random.default_rng(13)
    for _ in range(30):
        q = int(rng.choice([5, 7, 11, 13]))
        m = int(rng.integers(1, 3))
        B = float(rng.uniform(1.0, (q - 1) / 2))
        e = np.mod(rng.integers(-int(B), int(B) + 1, size=m), q)
        ring = ModRing(q)
        norm = ring.norm(e)
        d = dist(q, B)
        f = enumerate_product_density(d, m)
        shifted = np.array(
            [d.density_vec(np.mod(_unrank(i, q, m) - ring.centered(e), q)) for i in range(q**m)]
        )
        tv = 0.5 * np.abs(f - shifted).sum()
        assert tv <= shifted_tv_bound(m, norm, B) + 1e-12
        h2 = hellinger_sq(d, e)
        assert tv <= math.sqrt(max(0.0, 2 * h2)) + 1e-12


def _unrank(i, q, m):
    return np.array([(i // q ** (m - 1 - j)) % q for j in range(m)])


def test_entropy_bits():
    d = dist(11, 0.5)
    assert d.entropy_bits() == pytest.approx(0.0)
    assert dist(7, 2.0).entropy_bits() > 0.5
