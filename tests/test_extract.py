import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawrand.extract import (
    ToeplitzSeed,
    bits_to_hex,
    empirical_min_entropy,
    extract,
    extraction_length,
    hex_to_bits,
    monobit_p,
    runs_p,
)


def test_seed_validation():
    ToeplitzSeed(np.ones(11, dtype=np.int64), 8, 4)
    with pytest.raises(ValueError):
        ToeplitzSeed(np.ones(10, dtype=np.int64), 8, 4)
    with pytest.raises(ValueError):
        ToeplitzSeed(np.ones(11, dtype=np.int64), 4, 8)
    with pytest.raises(ValueError):
        ToeplitzSeed(np.full(11, 2), 8, 4)
    for n_out in (0, -1):
        with pytest.raises(ValueError, match="output length must be at least 1"):
            ToeplitzSeed.random(np.random.default_rng(0), 5, n_out)


def test_zero_input_and_identity():
    rng = np.random.default_rng(0)
    seed = ToeplitzSeed.random(rng, 8, 4)
    assert not extract(seed, np.zeros(8, dtype=np.int64)).any()
    ident = np.zeros(2 * 6 - 1, dtype=np.int64)
    ident[6 - 1] = 1
    seed_i = ToeplitzSeed(ident, 6, 6)
    x = rng.integers(0, 2, size=6)
    assert np.array_equal(extract(seed_i, x), x)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n_in=st.integers(2, 24))
def test_linearity(data, n_in):
    n_out = data.draw(st.integers(1, n_in))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    seed = ToeplitzSeed.random(rng, n_in, n_out)
    x = rng.integers(0, 2, size=n_in)
    y = rng.integers(0, 2, size=n_in)
    assert np.array_equal(extract(seed, x ^ y), extract(seed, x) ^ extract(seed, y))


def test_two_universality_exhaustive_small():
    # all seeds, all nonzero differences at n_in=6, n_out=3
    n_in, n_out = 6, 3
    seeds = np.array(
        [[(s >> i) & 1 for i in range(n_in + n_out - 1)] for s in range(2 ** (n_in + n_out - 1))]
    )
    idx = np.arange(n_out)[:, None] - np.arange(n_in)[None, :] + n_in - 1
    mats = seeds[:, idx]  # (n_seeds, n_out, n_in)
    for diff_int in range(1, 2**n_in):
        diff = np.array([(diff_int >> i) & 1 for i in range(n_in)])
        collisions = int((((mats @ diff) & 1).sum(axis=1) == 0).sum())
        assert collisions <= seeds.shape[0] // 2**n_out


def test_extract_matches_matrix_reference():
    # every input length up to 64, the honest-desk session shape, and a
    # large one
    rng = np.random.default_rng(1)
    shapes = [(n, m) for n in range(1, 65) for m in sorted({1, max(1, n // 2), n})]
    for n_in, n_out in shapes + [(949, 474), (3000, 1500)]:
        seed = ToeplitzSeed.random(rng, n_in, n_out)
        x = rng.integers(0, 2, size=n_in)
        assert np.array_equal(extract(seed, x), (seed.matrix() @ x) & 1), (n_in, n_out)


def test_extraction_length_rule():
    assert extraction_length(0.5, 10_000) == 5000 - 80
    assert extraction_length(0.01, 100) == 0


def test_empirical_min_entropy():
    assert empirical_min_entropy(np.zeros(1000, dtype=int)) == 0.0
    rng = np.random.default_rng(2)
    coin = rng.integers(0, 2, size=100_000)
    assert empirical_min_entropy(coin) >= 0.97
    with pytest.raises(ValueError):
        empirical_min_entropy(np.array([]))


def test_stream_health_tests():
    rng = np.random.default_rng(3)
    good = rng.integers(0, 2, size=100_000)
    assert monobit_p(good) > 0.001
    assert runs_p(good) > 0.001
    assert monobit_p(np.ones(1000, dtype=int)) < 1e-6
    assert runs_p(np.ones(1000, dtype=int)) == 0.0
    alternating = np.arange(10_000) % 2
    assert runs_p(alternating) < 1e-6


def test_hex_roundtrip():
    rng = np.random.default_rng(4)
    bits = rng.integers(0, 2, size=1021)  # not a nibble multiple
    text = bits_to_hex(bits)
    assert all(len(line) <= 64 for line in text.splitlines())
    back = hex_to_bits(text)
    assert back.size == 1024
    assert np.array_equal(back[:1021], bits)
    assert not back[1021:].any()
    assert hex_to_bits("").size == 0
