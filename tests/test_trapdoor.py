import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy.stats

from clawrand.gaussians import TruncGaussian
from clawrand.modq import ModRing, SizeGuardError, gadget_matrix, residue_grid
from clawrand.trapdoor import (
    _FALLBACK_PREFIX,
    _block_decode_primary,
    _block_rows,
    _decode_data,
    OVER_BOUND,
    PAIR,
    PATHS,
    PRIMARY,
    SINGLE,
    TIED,
    DecodeFailure,
    ImageTable,
    TrapdoorKey,
    exhaustive_invert,
    gen_trap,
    invert,
    measure_decode_radius,
    trapdoor_from_json,
    trapdoor_to_json,
)


def _one(decode, key, y, max_norm):
    """decode's row for the image y alone, decoded as a one-row stack:
    (s, e, path)."""
    S, E, path = decode(key, np.asarray(y)[None], max_norm)
    return S[0], E[0], int(path[0])


def test_gen_trap_shapes_and_identity():
    ring = ModRing(13)
    rng = np.random.default_rng(0)
    key = gen_trap(ring, 2, 12, rng)
    assert key.A.shape == (12, 2)
    assert key.w == 8 and key.mbar == 4


def test_gen_trap_rejects_small_m():
    with pytest.raises(ValueError):
        gen_trap(ModRing(13), 2, 9, np.random.default_rng(0))


@pytest.mark.parametrize("n,m", [(2, 8), (4, 20)])
def test_gen_trap_q2_zero_noise_round_trip(n, m):
    # at q = 2 the gadget basis is [[2]], so a key exists and decodes
    ring = ModRing(2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        key = gen_trap(ring, n, m, rng)
        s = ring.uniform(rng, n)
        s_out, e_out, path = _one(invert, key, ring.matmul(key.A, s), 0.0)
        assert np.array_equal(s_out, s) and not e_out.any() and path == PRIMARY


def test_gen_trap_entry_uniformity():
    # necessary condition only, and shape matters: an all-zero row of the
    # ternary R exposes a raw gadget row, so closeness to uniform needs
    # 3^-mbar to be small.  At mbar = 8 the leak is ~1e-4 per row and a
    # 1e5-sample chi-square no longer sees it.
    ring = ModRing(61)
    rng = np.random.default_rng(1)
    entries = []
    while sum(e.size for e in entries) < 100_000:
        entries.append(gen_trap(ring, 8, 56, rng).A.reshape(-1))
    counts = np.bincount(np.concatenate(entries)[:100_000], minlength=61)
    assert scipy.stats.chisquare(counts).pvalue > 0.001


def test_gen_trap_toy_shape_deviates_detectably():
    # the flip side: at mbar = 4 the same test has the power to reject,
    # because 3^-4 of the rows are structurally gadget rows (mostly zero)
    ring = ModRing(13)
    rng = np.random.default_rng(1)
    entries = []
    for _ in range(1250):
        entries.append(gen_trap(ring, 4, 20, rng).A.reshape(-1))
    counts = np.bincount(np.concatenate(entries), minlength=13)
    assert counts.sum() == 100_000
    assert scipy.stats.chisquare(counts).pvalue < 0.001
    assert counts[0] == counts.max()  # the excess is zeros from exposed gadget rows


def test_invert_zero_noise_exhaustive():
    ring = ModRing(13)
    rng = np.random.default_rng(2)
    key = gen_trap(ring, 1, 5, rng)
    s = np.arange(13)[:, None]
    S, E, path = invert(key, ring.matmul(s, key.A.T), max_norm=0.5)
    assert np.array_equal(S, s) and not E.any() and not path.any()


def test_invert_exhaustive_small_noise():
    ring = ModRing(13)
    rng = np.random.default_rng(3)
    key = gen_trap(ring, 1, 5, rng)
    # every s with every ternary noise, as one stack
    s = np.repeat(np.arange(13), 3**5)[:, None]
    e = np.tile(list(itertools.product([-1, 0, 1], repeat=5)), (13, 1))
    S, E, path = invert(key, ring.reduce(ring.matmul(s, key.A.T) + e), max_norm=math.sqrt(5.0))
    assert np.array_equal(S, s) and np.array_equal(E, e)
    assert (path < OVER_BOUND).all()


def _noisy_samples(ring, noise, rng, count, n, m):
    # count secrets and centered noise vectors, drawn secret then noise
    draws = [(ring.uniform(rng, n), ring.centered(noise.sample_vec(rng, m))) for _ in range(count)]
    return np.array([s for s, _ in draws]), np.array([e for _, e in draws])


def test_invert_roundtrip_with_sampled_noise():
    ring = ModRing(13)
    rng = np.random.default_rng(4)
    key = gen_trap(ring, 4, 20, rng)
    noise = TruncGaussian(ring, 1.0)
    s, e = _noisy_samples(ring, noise, rng, 2000, 4, 20)
    Y = ring.reduce(ring.matmul(s, key.A.T) + e)
    S, E, path = invert(key, Y, max_norm=1.0 * math.sqrt(20))
    assert (path < OVER_BOUND).all()
    assert np.array_equal(S, s)
    assert np.array_equal(E, e)
    assert np.array_equal(ring.reduce(ring.matmul(S, key.A.T) + E), Y)


@pytest.mark.parametrize("q, n, m", [(16, 2, 12), (4096, 2, 30)])
def test_invert_roundtrip_at_power_of_two_modulus(q, n, m):
    # q = 2^k sets none of the k low bits the gadget decode's basis is
    # built from; 4096 is MAX_Q and too large for the block table
    ring = ModRing(q)
    rng = np.random.default_rng(4)
    key = gen_trap(ring, n, m, rng)
    s, e = _noisy_samples(ring, TruncGaussian(ring, 1.0), rng, 200, n, m)
    S, E, path = invert(key, ring.reduce(ring.matmul(s, key.A.T) + e), max_norm=math.sqrt(m))
    assert (path < OVER_BOUND).all()
    assert np.array_equal(S, s)
    assert np.array_equal(E, e)


def test_invert_flags_uniform_garbage():
    ring = ModRing(13)
    rng = np.random.default_rng(5)
    key = gen_trap(ring, 4, 20, rng)
    Y = np.array([ring.uniform(rng, 20) for _ in range(200)])
    # nothing uniform lands inside the branch support
    assert (invert(key, Y, max_norm=math.sqrt(20))[2] == OVER_BOUND).all()
    S, E, path = invert(key, Y, max_norm=2.0 * math.sqrt(20))
    ok = path < OVER_BOUND
    # an accepted answer must still reproduce y exactly and meet the bound
    assert np.array_equal(ring.reduce(ring.matmul(S[ok], key.A.T) + E[ok]), Y[ok])
    assert (ring.norm(E[ok]) <= 2.0 * math.sqrt(20)).all()
    assert (~ok).sum() >= 150  # rarely, garbage sits near the lattice; flagged otherwise


def test_exhaustive_invert_micro():
    ring = ModRing(5)
    A = np.array([[1], [2]], dtype=np.int64)
    table = ImageTable(ring, A)
    s = np.arange(5)[:, None]
    S, E, path = exhaustive_invert(table, ring.matmul(s, A.T), max_norm=1.3)
    assert np.array_equal(S, s) and not E.any() and not path.any()
    assert _one(exhaustive_invert, table, [2, 0], 0.5)[2] == OVER_BOUND


def test_exhaustive_invert_returns_the_nearest_s_not_a_unique_one():
    # s = 1 leaves residual 0 and s = 0 leaves (1, 2), of norm sqrt(5):
    # both are within the bound, and the nearest is returned
    ring = ModRing(13)
    A = np.array([[1], [2]], dtype=np.int64)
    s, e, path = _one(exhaustive_invert, ImageTable(ring, A), [1, 2], 3.0)
    assert s.tolist() == [1] and e.tolist() == [0, 0] and path == PRIMARY


@pytest.mark.parametrize(
    "y", [[[1, 2, 3]], [[1]], [[[1, 2]]], [1, 2]], ids=["long", "short", "nested", "one-image"]
)
def test_exhaustive_invert_refuses_a_sample_of_the_wrong_shape(y):
    ring = ModRing(13)
    table = ImageTable(ring, np.array([[1], [2]], dtype=np.int64))
    with pytest.raises(ValueError, match=r"shape \(k, 2\)"):
        exhaustive_invert(table, y, max_norm=3.0)


@pytest.mark.parametrize(
    "y",
    [[14, 15], [1, 13], [-1, 2], [-(1 << 63), 2], [1, (1 << 63) - 1]],
    ids=["both-high", "q", "negative", "int64-min", "int64-max"],
)
def test_exhaustive_invert_refuses_entries_outside_the_residues(y):
    # (14, 15) would decode as (1, 2) mod 13
    ring = ModRing(13)
    table = ImageTable(ring, np.array([[1], [2]], dtype=np.int64))
    with pytest.raises(ValueError, match=r"\[0, 13\)"):
        exhaustive_invert(table, [y], max_norm=3.0)


def _exhaustive_reference(ring, A, y, max_norm):
    # the full search over s in Z_q^n that exhaustive_invert ran on every
    # decode before keys carried an image table
    grid = residue_grid(ring.q, A.shape[1])
    resid = ring.centered(np.asarray(y)[None, :] - grid @ A.T)
    norms2 = (resid.astype(float) ** 2).sum(axis=1)
    i = int(np.argmin(norms2))
    if math.sqrt(norms2[i]) > max_norm:
        raise DecodeFailure("no candidate within the noise bound")
    if int((norms2 == norms2[i]).sum()) > 1:
        raise DecodeFailure("ambiguous decode: tied minimal residuals")
    return grid[i], resid[i]


@pytest.mark.parametrize(
    "name, overrides", [("micro", {}), ("micro-noisy", {}), ("micro", {"n": 2, "m": 4})],
    ids=["micro", "micro-noisy", "micro-n2"],
)
def test_image_table_matches_the_full_search(name, overrides):
    # every image of 5 keys, at bounds below, at and above the profile's
    from clawrand.clawfree import _sample_noise_bound, gen
    from clawrand.profiles import get_profile
    from clawrand.rngstream import substream

    prof = get_profile(name, **overrides)
    ring = prof.ring()
    rng = substream(23, "image-table", name, prof.n)
    bounds = (0.5, 1.3, _sample_noise_bound(prof), 10.0)
    ys = residue_grid(prof.q, prof.m)
    kinds = set()
    for _ in range(5):
        key = gen(prof, rng)
        for bound in bounds:
            S, E, path = exhaustive_invert(key.table, ys, bound)
            kinds.update(path.tolist())
            for y, s, e, code in zip(ys, S, E, path):
                try:
                    want = _exhaustive_reference(ring, key.public.A, y, bound)
                except DecodeFailure as exc:
                    # the code names the reference's failure kind
                    assert PATHS[code] == str(exc)
                    continue
                assert code == PRIMARY
                for a, b in zip((s, e), want):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
    assert {PRIMARY, OVER_BOUND} <= kinds, kinds
    # the micro keys here leave no image with a tied minimum; the others do
    assert (TIED in kinds) == (prof != get_profile("micro"))


def test_measured_radius_covers_profile_noise():
    ring = ModRing(61)
    rng = np.random.default_rng(6)
    key = gen_trap(ring, 8, 56, rng)
    radius = measure_decode_radius(key, rng, trials=100)
    # typical width-2 noise has norm ~6; the usable radius should clear it
    assert radius >= 10.0


def test_serialization_roundtrip():
    ring = ModRing(13)
    key = gen_trap(ring, 2, 12, np.random.default_rng(7))
    key2 = trapdoor_from_json(trapdoor_to_json(key))
    assert np.array_equal(key.A, key2.A)
    assert np.array_equal(key.R, key2.R)
    assert key.mbar == key2.mbar


def test_gadget_block_combination_cancels():
    # [R | I] A = G exactly: the decode input is G s + [R | I] e
    ring = ModRing(13)
    key = gen_trap(ring, 3, 16, np.random.default_rng(11))
    RI = np.hstack([key.R, np.eye(key.w, dtype=np.int64)])
    assert np.array_equal(ring.matmul(RI, key.A), gadget_matrix(ring, 3))


# SHA-256 over every outcome of the decode-outcome sweep below, taken
# before the fallback search was vectorised.
_OUTCOMES_SHA256 = "bd1339b98959deb350c9a654d0d61fee69a7b06bef5c92216fc47fb864cef656"


def test_invert_outcomes_pinned():
    # 5 keys per desk profile, noise at five widths, bound as the verifier
    # sets it (widened to the sample's own norm): the sweep reaches the
    # primary decode, single- and pair-block repairs and fallback failures.
    # A change to how the fallback searches must not change any outcome.
    from clawrand.clawfree import _sample_noise_bound
    from clawrand.profiles import get_profile
    from clawrand.rngstream import substream

    h = hashlib.sha256()
    paths = {"primary": 0, "single": 0, "pair": 0, "failure": 0}
    for name in ("desk-small", "desk-medium", "desk-protocol"):
        prof = get_profile(name)
        ring = prof.ring()
        rng = substream(0, "decode-outcomes", name)
        bound = _sample_noise_bound(prof)
        for _ in range(5):
            key = gen_trap(ring, prof.n, prof.m, rng)
            for width in (prof.B_P, 1.0, 1.5, 2.0, 3.0):
                noise = TruncGaussian(ring, width)
                for _ in range(40):
                    x = ring.uniform(rng, prof.n)
                    e = ring.centered(noise.sample_vec(rng, prof.m))
                    y = ring.reduce(ring.matmul(key.A, x) + e)
                    max_norm = max(bound, math.sqrt(float((e * e).sum())) + 1e-9)
                    s, e2, path = _one(invert, key, y, max_norm)
                    if path >= OVER_BOUND:
                        paths["failure"] += 1
                        h.update(PATHS[path].encode("utf-8"))
                        continue
                    # a decoded row's code is the number of blocks it moved
                    assert path == int((s != _one(invert, key, y, math.inf)[0]).sum())
                    paths[("primary", "single", "pair")[path]] += 1
                    h.update(np.asarray(s, dtype="<i8").tobytes())
                    h.update(np.asarray(e2, dtype="<i8").tobytes())
    assert min(paths.values()) > 0, paths
    assert h.hexdigest() == _OUTCOMES_SHA256


def _fallback_reference(key, y, max_norm):
    """The fallback search as per-block loops: the reference the batched
    search in invert must match outcome for outcome.  It gives s and its
    path: PRIMARY, SINGLE, PAIR, or (None, OVER_BOUND)."""
    ring, n, k = key.ring, key.n, key.ring.coord_bits
    g = ring.reduce(1 << np.arange(k, dtype=np.int64))
    tbl = ring.reduce(np.outer(np.arange(ring.q, dtype=np.int64), g))
    c = ring.reduce(key.R @ y[: key.mbar] + y[key.mbar :])
    s_primary, e0, _ = _one(invert, key, y, math.inf)

    def fits(e):
        e = ring.centered(e).astype(float)
        return math.sqrt(float((e * e).sum())) <= max_norm

    if fits(e0):
        return s_primary, PRIMARY
    owners, values, rows = [], [], []
    per_block = [[] for _ in range(n)]
    blocks = ring.centered(c).reshape(n, k)
    for j in range(n):
        d = ring.centered(blocks[j][None, :] - tbl)
        for t in np.argsort((d * d).sum(axis=1), kind="stable")[:6]:
            if t != s_primary[j]:
                per_block[j].append(len(owners))
                owners.append(j)
                values.append(int(t))
                rows.append((s_primary[j] - t) * key.A[:, j])
    for i, row in enumerate(rows):
        if fits(e0 + row):
            s = s_primary.copy()
            s[owners[i]] = values[i]
            return s, SINGLE
    if n > 8:
        return None, OVER_BOUND
    for i in range(n):
        for j in range(i + 1, n):
            for ci in per_block[i]:
                for cj in per_block[j]:
                    if fits(e0 + rows[ci] + rows[cj]):
                        s = s_primary.copy()
                        s[i], s[j] = values[ci], values[cj]
                        return s, PAIR
    return None, OVER_BOUND


@pytest.mark.parametrize("name,widths", [
    ("desk-small", (1.0, 1.5, 2.0)),
    ("desk-medium", (5.0, 6.0, 8.0)),
    ("desk-protocol", (1.0, 1.5)),
])
def test_fallback_matches_loop_reference(name, widths):
    # noise wide enough that the nearest-plane answer often misses, under
    # bounds with and without slack, so repairs are found at every depth
    # of the candidate order
    from clawrand.clawfree import _sample_noise_bound
    from clawrand.profiles import get_profile

    prof = get_profile(name)
    ring = prof.ring()
    rng = np.random.default_rng(13)
    bound = _sample_noise_bound(prof)
    paths = {"single": 0, "pair": 0, "failure": 0}
    for _ in range(2):
        key = gen_trap(ring, prof.n, prof.m, rng)
        for width in widths:
            noise = TruncGaussian(ring, width)
            for slack in (1.0, 1.3):
                for _ in range(40):
                    x = ring.uniform(rng, prof.n)
                    e = ring.centered(noise.sample_vec(rng, prof.m))
                    y = ring.reduce(ring.matmul(key.A, x) + e)
                    max_norm = slack * max(bound, math.sqrt(float((e * e).sum()))) + 1e-9
                    want, stage = _fallback_reference(key, y, max_norm)
                    s, _, path = _one(invert, key, y, max_norm)
                    assert path == stage
                    if want is None:
                        paths["failure"] += 1
                        continue
                    assert np.array_equal(s, want)
                    if stage:
                        paths[("single", "pair")[stage - 1]] += 1
    assert paths["single"] and paths["failure"], paths
    assert bool(paths["pair"]) == (prof.n <= 8), paths


def test_fallback_accepts_prefix_residual_at_the_bound():
    # a secret-0 sample whose noise lies in block 0's gadget rows, inside
    # the fallback's prefix: the nearest-plane answer misses, and the
    # repair's residual, zero beyond the prefix, has norm exactly the bound
    ring = ModRing(13)
    key = gen_trap(ring, 4, 36, np.random.default_rng(1))
    assert key.mbar + 4 <= _FALLBACK_PREFIX < key.m
    e = np.zeros(key.m, dtype=np.int64)
    e[key.mbar : key.mbar + 4] = (-2, 2, 2, -2)
    y = ring.reduce(e)
    assert _one(invert, key, y, math.inf)[0].any()
    s, e2, path = _one(invert, key, y, 4.0)
    assert not s.any() and path == SINGLE
    assert np.array_equal(e2, e)


def test_fallback_checks_full_norm_of_prefix_survivors():
    # A is zero on the prefix rows, so every candidate passes the prefix;
    # the primary decode misses block 1 only, so block 0's candidates come
    # first and must fail on the full residual before block 1's repair wins
    ring = ModRing(13)
    n, m, w = 4, 48, 16
    mbar = m - w
    rng = np.random.default_rng(2)
    Abar = ring.uniform(rng, (mbar, n))
    Abar[:_FALLBACK_PREFIX] = 0
    key = TrapdoorKey(ring, Abar, rng.integers(-1, 2, size=(w, mbar)))
    assert not key.A[:_FALLBACK_PREFIX].any()
    e = np.zeros(m, dtype=np.int64)
    e[mbar + 4 : mbar + 8] = (3, 3, 3, -3)
    y = ring.reduce(e)
    assert np.flatnonzero(_one(invert, key, y, math.inf)[0]).tolist() == [1]
    s, e2, path = _one(invert, key, y, 6.0)
    assert not s.any() and path == SINGLE
    assert np.array_equal(e2, e)


def _ranked_reference(ring, c):
    """Each centered block's codewords sorted by syndrome distance, ties in
    codeword order, top min(6, q)."""
    q, k = ring.q, ring.coord_bits
    codebook = ring.reduce(np.outer(np.arange(q), ring.reduce(1 << np.arange(k))))
    d = ring.centered(c[:, None, :] - codebook[None])
    dist = (d * d).sum(axis=2)
    codeword = np.broadcast_to(np.arange(q), dist.shape)
    return np.lexsort((codeword, dist), axis=1)[:, : min(6, q)]


@pytest.mark.parametrize("q", [13, 3])
def test_block_table_matches_direct_decode(q):
    # every block of residues, in residue_grid order: the table row at a
    # block's index holds its nearest-plane value and its ranked codewords
    ring = ModRing(q)
    k = ring.coord_bits
    _decode_data.cache_clear()
    data = _decode_data(ring)
    grid = residue_grid(q, k)
    rows = _block_rows(ring, data, grid.reshape(-1))
    table = data["table"]
    assert table.shape == (q**k, 1 + min(6, q))
    c = ring.centered(grid)
    assert np.array_equal(table[:, 0], _block_decode_primary(ring, data, c))
    assert np.array_equal(table[:, 1:], _ranked_reference(ring, c))
    assert np.array_equal(rows, table)


def test_decode_outcomes_do_not_depend_on_table_fill_order():
    # the table is filled as blocks are met: a cold cache decoding one set
    # of honest and garbage images forwards and backwards gives the same
    # outcome for each image
    from clawrand.clawfree import _sample_noise_bound
    from clawrand.profiles import get_profile

    prof = get_profile("desk-protocol")
    ring = prof.ring()
    rng = np.random.default_rng(14)
    key = gen_trap(ring, prof.n, prof.m, rng)
    noise = TruncGaussian(ring, 1.0)
    ys = [ring.uniform(rng, prof.m) for _ in range(20)]
    for _ in range(40):
        e = ring.centered(noise.sample_vec(rng, prof.m))
        ys.append(ring.reduce(ring.matmul(key.A, ring.uniform(rng, prof.n)) + e))
    bound = max(_sample_noise_bound(prof), math.sqrt(prof.m))

    def outcomes(order):
        _decode_data.cache_clear()
        out = {}
        for i in order:
            s, e, path = _one(invert, key, ys[i], bound)
            out[i] = (s.tolist(), e.tolist()) if path < OVER_BOUND else PATHS[path]
        return out

    forward = outcomes(range(len(ys)))
    assert forward == outcomes(reversed(range(len(ys))))
    kinds = {isinstance(v, str) for v in forward.values()}
    assert kinds == {True, False}


@pytest.mark.parametrize("name,width", [("desk-small", 2.0), ("desk-medium", 6.0), ("desk-protocol", 1.0)])
def test_invert_rows_match_one_image_decodes(name, width):
    # a stack of honest, wide-noise and uniform images decodes row by row
    # to what invert gives each image alone, path code included (a failed
    # row's S and E are its primary decode's); desk-medium has no block table
    from clawrand.clawfree import _sample_noise_bound
    from clawrand.profiles import get_profile

    prof = get_profile(name)
    ring = prof.ring()
    rng = np.random.default_rng(15)
    key = gen_trap(ring, prof.n, prof.m, rng)
    bound = _sample_noise_bound(prof)
    ys = [ring.uniform(rng, prof.m) for _ in range(4)]
    for w in (prof.B_P, width):
        noise = TruncGaussian(ring, w)
        ys += [ring.reduce(ring.matmul(key.A, ring.uniform(rng, prof.n)) + noise.sample_vec(rng, prof.m))
               for _ in range(20)]
    S, E, path = invert(key, np.stack(ys), max_norm=bound)
    for y, s, e, code in zip(ys, S, E, path):
        want = _one(invert, key, y, bound)
        assert np.array_equal(s, want[0]) and np.array_equal(e, want[1]) and code == want[2]
    assert {PRIMARY, SINGLE, OVER_BOUND} <= set(path.tolist())
    with pytest.raises(ValueError, match=r"shape \(k, "):
        invert(key, ys[0], max_norm=bound)


def test_exhaustive_invert_rows_match_one_image_lookups():
    # every image of a micro-noisy key in one stack, at its bound: decoded
    # rows, refusals over the bound and tied minima alike, each row and its
    # code as the image's lookup alone gives them, and a failed row's code
    # as the full search's failure kind
    from clawrand.clawfree import _sample_noise_bound, gen
    from clawrand.profiles import get_profile
    from clawrand.rngstream import substream

    prof = get_profile("micro-noisy")
    key = gen(prof, substream(24, "exhaustive-rows"))
    ys = residue_grid(prof.q, prof.m)
    codes = set()
    for bound in (1.3, _sample_noise_bound(prof)):
        S, E, path = exhaustive_invert(key.table, ys, bound)
        for y, s, e, code in zip(ys, S, E, path):
            want = _one(exhaustive_invert, key.table, y, bound)
            assert np.array_equal(s, want[0]) and np.array_equal(e, want[1]) and code == want[2]
            if code >= OVER_BOUND:
                with pytest.raises(DecodeFailure, match=PATHS[code]):
                    _exhaustive_reference(prof.ring(), key.public.A, y, bound)
            codes.add(int(code))
    assert codes == {PRIMARY, OVER_BOUND, TIED}
    with pytest.raises(ValueError, match=r"\[0, 13\)"):
        exhaustive_invert(key.table, np.vstack([ys[:2], [[0, 13]]]), 1.3)


def _micro_keypair(A):
    # a key without a gadget, as gen makes at micro shapes: building it
    # builds its image grid and image table from A
    from clawrand.clawfree import KeyPair, PublicKey
    from clawrand.profiles import get_profile

    m, n = A.shape
    return KeyPair(
        PublicKey(get_profile("micro"), A, np.zeros(m, dtype=np.int64)),
        None, np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64),
    )


def test_micro_key_refuses_an_exhaustive_search_past_the_grid_limit():
    # 5^9 ~ 1.95e6 candidates s exceed MAX_GRID
    A = ModRing(5).uniform(np.random.default_rng(0), (2, 9))
    with pytest.raises(SizeGuardError, match=r"enumeration of Z_q\^n"):
        _micro_keypair(A)


def test_image_table_refuses_a_shape_past_the_state_guard():
    # the image grid has 5 rows, but the table's search covers
    # 5^(1+9) ~ 9.8e6 pairs (s, y), past MAX_GRID / 2
    ring = ModRing(5)
    A = ring.uniform(np.random.default_rng(0), (9, 1))
    with pytest.raises(SizeGuardError, match="image table"):
        ImageTable(ring, A)
    with pytest.raises(SizeGuardError, match="image table"):
        _micro_keypair(A)
