import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clawrand.modq import (
    MAX_GRID,
    MAX_Q,
    ModRing,
    SizeGuardError,
    bit_encode,
    canonical_json,
    exact_matmul,
    float_operand,
    gadget_matrix,
    mat_from_json,
    mat_to_json,
    residue_grid,
    vec_from_json,
    vec_to_json,
)


def test_centered_examples():
    assert ModRing(7).centered(5) == -2
    assert ModRing(7).centered(0) == 0
    assert ModRing(13).centered(7) == -6


def test_centered_range_and_congruence():
    for q in (2, 3, 4, 5, 13, 61):
        ring = ModRing(q)
        xs = np.arange(q)
        c = ring.centered(xs)
        assert np.all(c > -q / 2)
        assert np.all(c <= q / 2)
        assert np.all(np.mod(c, q) == xs)


def test_norm_examples():
    assert ModRing(7).norm([0, 0]) == 0
    assert ModRing(7).norm([5, 1]) == pytest.approx(np.sqrt(5))
    assert ModRing(13).norm([7, 7, 7]) == pytest.approx(np.sqrt(108))


def test_norm_is_sum_of_centered_abs_squares():
    # exactly math.sqrt of the integer sum of squares: the support checks
    # compare it with their bounds, so no rounding may move a verdict
    rng = np.random.default_rng(0)
    for q in (3, 13, 61, 4096):
        ring = ModRing(q)
        assert ring.norm([]) == 0.0
        for m in (1, 2, 20, 56, 160):
            for _ in range(20):
                v = ring.uniform(rng, m)
                exact = math.sqrt(sum(int(a) ** 2 for a in ring.centered(v)))
                assert ring.norm(v) == exact
        # unreduced integers up to the largest the verifier passes: chk's
        # residual at n = 32 and a fallback pair's residual
        big = max(32 * (q - 1) ** 2 + 2 * q, 2 * q * q + q)
        v = rng.integers(-big, big + 1, size=(4, 5, 56))
        v[0, 0, :4] = (big, -big, big - 1, 1 - big)
        _assert_norms_exact(ring, v)
    # exact half-multiples q/2 + k*q, with k up to where |x| nears 2^51;
    # 1/q is inexact at q = 10 and 4094
    for q in (4, 10, 16, 4094, 4096):
        top = ((1 << 51) - q) // q
        k = np.concatenate([np.arange(-40, 40), rng.integers(-top, top, 78), [top - 1, -top]])
        _assert_norms_exact(ModRing(q), (q // 2 + k * q).reshape(4, 5, 8))


def _centered_sq_sum(q, row):
    # the integer reference, in Python ints
    return sum(min(x % q, q - x % q) ** 2 for x in map(int, row))


def _assert_norms_exact(ring, v):
    # norm2 and norm on 1-D inputs, row-wise on 2-D stacks and on the 3-D
    # array itself, with int64 and float64 inputs, against the reference
    want = np.array([[_centered_sq_sum(ring.q, row) for row in plane] for plane in v])
    for x in (v, v.astype(np.float64)):
        assert np.array_equal(ring.norm2(x), want)
        assert np.array_equal(ring.norm(x), np.sqrt(want.astype(float)))
        for plane, w in zip(x, want):
            assert np.array_equal(ring.norm2(plane), w)
            assert np.array_equal(ring.norm(plane), np.sqrt(w.astype(float)))
            assert ring.norm2(plane[0]) == w[0] and ring.norm(plane[0]) == math.sqrt(w[0])


def test_bit_encode_examples():
    assert list(bit_encode(ModRing(5), [3])) == [1, 1, 0]
    assert list(bit_encode(ModRing(5), [3, 1])) == [1, 1, 0, 1, 0, 0]
    assert list(bit_encode(ModRing(13), [9])) == [1, 0, 0, 1]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 17])
@pytest.mark.parametrize("n", [1, 2])
def test_bit_encode_injective_and_invertible(q, n):
    ring = ModRing(q)
    grid = np.indices((q,) * n).reshape(n, -1).T
    seen = set()
    for x in grid:
        bits = bit_encode(ring, x)
        key = tuple(bits)
        assert key not in seen
        seen.add(key)
        assert np.array_equal(bits.reshape(n, -1) @ (1 << np.arange(ring.coord_bits)), x)


def test_gadget_matrix_examples():
    ring = ModRing(13)
    G = gadget_matrix(ring, 1)
    assert np.array_equal(ring.matmul(G, [5]), [5, 10, 7, 1])
    assert np.array_equal(ring.matmul(G, [0]), [0, 0, 0, 0])
    assert gadget_matrix(ModRing(5), 2).shape == (6, 2)
    # built once and shared by every caller, so no caller may write to it
    assert gadget_matrix(ring, 1) is G
    with pytest.raises(ValueError):
        G[0, 0] = 2


@settings(max_examples=50, deadline=None)
@given(
    q=st.integers(2, MAX_Q),
    seed=st.integers(0, 2**32 - 1),
    # sizes on both sides of the switch to floor division
    size=st.sampled_from([0, 1, 7, 2047, 2048, 4096]),
)
def test_reduce_equals_np_mod_at_every_size(q, seed, size):
    rng = np.random.default_rng(seed)
    a = rng.integers(-(1 << 40), 1 << 40, size)
    a[::5] = rng.integers(-3, 4, a[::5].size) * q  # multiples of q, zero among them
    ring = ModRing(q)
    assert np.array_equal(ring.reduce(a), np.mod(a, q))
    assert np.array_equal(ring.reduce(a.reshape(-1, 1)), np.mod(a, q).reshape(-1, 1))


def test_reduce_keeps_scalars_scalar():
    assert ModRing(13).reduce(-1) == 12 and np.ndim(ModRing(13).reduce(-1)) == 0
    assert ModRing(13).reduce(np.int64(27)) == 1


@settings(max_examples=60, deadline=None)
@given(
    # 4093 is the largest prime under the cap, 4096 the cap itself
    q=st.sampled_from([3, 5, 13, 61, 4093, MAX_Q]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matmul_matches_bigint_oracle(q, seed):
    ring = ModRing(q)
    rng = np.random.default_rng(seed)
    a = ring.uniform(rng, (3, 4))
    # b canonical, and b signed and small (|b| < q), as matmul's contract allows
    for b in (ring.uniform(rng, (4, 2)), rng.integers(-1, 2, size=(4, 2), dtype=np.int64)):
        got = ring.matmul(a, b)
        want = np.array(
            [
                [sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % q for j in range(2)]
                for i in range(3)
            ]
        )
        assert np.array_equal(got, want)


def _object_product(a, b) -> np.ndarray:
    # the product in Python ints, which never round or wrap
    return np.asarray(a).astype(object) @ np.asarray(b).astype(object)


def _assert_exact(a, b):
    want = _object_product(a, b)
    # b as int64, and in both forms of a key's float64 copies: contiguous
    # (A^T) and the transpose of a contiguous copy (R^T)
    for rhs in (b, float_operand(b), float_operand(b.T).T):
        got = exact_matmul(a, rhs)
        assert got.dtype == np.int64 and np.array_equal(got.astype(object), want)


def test_exact_matmul_at_max_q_with_every_entry_q_minus_1():
    # each entry of the product is inner * (q - 1)^2, and with signs mixed
    # the partial sums swing both ways
    top = MAX_Q - 1
    for inner in (1, 32, 4096):
        a = np.full((3, inner), top, dtype=np.int64)
        assert np.array_equal(exact_matmul(a, a.T), np.full((3, 3), inner * top * top))
        signs = np.where(np.arange(inner) % 3 == 0, -1, 1)
        _assert_exact(a * signs, np.full((inner, 2), top, dtype=np.int64))


@pytest.mark.parametrize("name", ["desk-small", "desk-medium", "desk-protocol"])
def test_exact_matmul_at_each_gadget_profiles_shapes(name):
    # the verifier's per-round products at their real shapes, for stacks up
    # to two batches: Y[:, :mbar] R^T with R all -1 or all +1, and S A^T
    # (X A^T, A x), with every residue q - 1
    from clawrand.profiles import get_profile
    from clawrand.protocol import _BATCH

    prof = get_profile(name)
    assert prof.runnable and prof.uses_gadget
    top = prof.q - 1
    mbar = prof.m - prof.w
    for k in range(1, 2 * _BATCH + 1):
        for sign in (-1, 1):
            _assert_exact(np.full((k, mbar), top), np.full((mbar, prof.w), sign))
        _assert_exact(np.full((k, prof.n), top), np.full((prof.n, prof.m), top))


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(2, MAX_Q),
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 40), st.integers(0, 300), st.integers(1, 40)),
)
def test_exact_matmul_equals_the_integer_product(q, seed, shape):
    rng = np.random.default_rng(seed)
    k, inner, cols = shape
    # entries of magnitude at most q - 1, half of them pinned to +-(q - 1)
    a = rng.integers(-(q - 1), q, size=(k, inner))
    b = rng.integers(-(q - 1), q, size=(inner, cols))
    a[:, ::2] = (q - 1) * rng.choice([-1, 1], size=a[:, ::2].shape)
    b[::2] = (q - 1) * rng.choice([-1, 1], size=b[::2].shape)
    _assert_exact(a, b)
    assert np.array_equal(ModRing(q).matmul(a, b), np.mod(exact_matmul(a, b), q))


def test_matrix_json_roundtrip():
    ring = ModRing(13)
    rng = np.random.default_rng(1)
    m = ring.uniform(rng, (3, 5))
    obj = mat_to_json(ring, m)
    assert set(obj) == {"q", "rows", "cols", "data"}
    ring2, m2 = mat_from_json(json.loads(canonical_json(obj)))
    assert ring2.q == 13 and np.array_equal(m, m2)

    v = ring.uniform(rng, 4)
    _, v2 = vec_from_json(vec_to_json(ring, v))
    assert np.array_equal(v, v2)


def test_matrix_json_rejects_bad_entries():
    with pytest.raises(ValueError):
        mat_from_json({"q": 5, "rows": 1, "cols": 2, "data": [1, 7]})
    with pytest.raises(ValueError):
        mat_from_json({"q": 5, "rows": 2, "cols": 2, "data": [1, 2, 3]})
    with pytest.raises(ValueError):
        mat_from_json({"q": MAX_Q + 1, "rows": 1, "cols": 2, "data": [1, 2]})


def test_ring_validates_modulus():
    assert ModRing(MAX_Q).q == 4096
    with pytest.raises(ValueError):
        ModRing(1)
    with pytest.raises(ValueError):
        ModRing(MAX_Q + 1)


def test_residue_grid_guards_before_enumerating():
    assert MAX_GRID == 1000**2
    assert residue_grid(1000, 2).shape == (10**6, 2)
    with pytest.raises(SizeGuardError):
        residue_grid(1001, 2)
    # far past the limit the guard refuses at once, allocating nothing
    with pytest.raises(SizeGuardError):
        residue_grid(13, 30)
