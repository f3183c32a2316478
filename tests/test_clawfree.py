import itertools
import math

import numpy as np
import pytest

from clawrand import clawfree
from clawrand.clawfree import (
    KeyGenFailure,
    KeyPair,
    PublicKey,
    chk,
    claw_equation_bit,
    claw_from_image,
    claw_partner,
    classify_hardcore,
    density_public,
    density_secret,
    gen,
    hardcore_game,
    in_claw_good_set,
    in_good_set,
    inv,
    invert_sample,
    is_moderate_vector,
    keypair_from_json,
    keypair_to_json,
    moderate_check,
    moderate_fraction_bound,
    parity_joint_counts,
    parity_tv,
    parity_tv_bound,
    public_key_from_json,
    public_key_to_json,
    secret_mask,
)
from clawrand.gaussians import TruncGaussian, shifted_hellinger_bound
from clawrand.modq import MAX_Q, ModRing, SizeGuardError, exact_matmul, float_operand, vec_to_json
from clawrand.profiles import PROFILES, get_profile
from clawrand.rngstream import substream
from clawrand.trapdoor import (
    OVER_BOUND,
    PRIMARY,
    DecodeFailure,
    ImageTable,
    TrapdoorKey,
    gen_trap,
    trapdoor_to_json,
)


@pytest.fixture(scope="module")
def micro_key():
    return gen(get_profile("micro"), substream(100, "micro-key"))


@pytest.fixture(scope="module")
def desk_key():
    return gen(get_profile("desk-small"), substream(100, "desk-key"))


def all_points(q, n):
    return np.indices((q,) * n).reshape(n, -1).T


def test_gen_self_consistency(desk_key):
    key = desk_key
    ring = key.ring
    assert set(np.unique(key.s_bits)).issubset({0, 1})
    assert np.array_equal(
        key.public.u, ring.reduce(ring.matmul(key.public.A, key.s_bits) + key.e)
    )
    assert ring.norm(key.e) <= key.profile.B_V * math.sqrt(key.profile.m)
    s0, _ = claw_from_image(key, key.public.u)
    assert np.array_equal(s0, ring.reduce(key.s_bits))



def test_gen_at_power_of_two_modulus():
    key = gen(get_profile("desk-small", q=16), substream(100, "desk-key"))
    s0, _ = claw_from_image(key, key.public.u)
    assert np.array_equal(s0, key.s_bits)


def _full_decode_gen(profile, rng):
    """gen's loop with the full decode (invert_sample) checking every draw:
    the key it returns, and each draw's outcome, "primary" where the decode
    took the primary path to s, "repaired" where it reached s otherwise, or
    "refused"."""
    ring = profile.ring()
    noise = profile.noise_dist(profile.B_V)
    drawn = []
    for _ in range(clawfree._KEYGEN_RETRIES):
        if profile.uses_gadget:
            gadget = gen_trap(ring, profile.n, profile.m, rng)
            A, AT = gadget.A, gadget.AT
        else:
            gadget = None
            A = ring.uniform(rng, (profile.m, profile.n))
            if clawfree._min_claw_distance(ring, A) <= 2 * profile.B_P * math.sqrt(profile.m):
                continue
            AT = float_operand(A.T)
        s_bits = rng.integers(0, 2, size=profile.n, dtype=np.int64)
        e = ring.centered(noise.sample_vec(rng, profile.m))
        u = ring.reduce(exact_matmul(s_bits, AT) + e)
        key = KeyPair(PublicKey(profile, A, u, AT), gadget, s_bits, e)
        S0, E0, path = invert_sample(key, u[None])
        if path[0] < OVER_BOUND and np.array_equal(S0[0], s_bits) and np.array_equal(E0[0], e):
            drawn.append("primary" if path[0] == PRIMARY else "repaired")
            return key, drawn
        drawn.append("refused")
    raise KeyGenFailure(profile.name)


# every runnable profile, and desk-small with key noise twice its branch
# noise, where about a third of draws miss the nearest-plane answer
_GEN_PROFILES = [p for p in PROFILES.values() if p.runnable] + [get_profile("desk-small", B_V=2.0)]


@pytest.mark.parametrize("profile", _GEN_PROFILES, ids=lambda p: f"{p.name}-B_V{p.B_V}")
def test_gen_matches_the_full_decode_reference(profile):
    # gen accepts a gadget key from its nearest-plane answer alone: the same
    # keys, drawn from the same stream, as a full decode of every draw
    drawn = []
    for seed in range(40):
        ref_rng, rng = substream(seed, "gen-ref"), substream(seed, "gen-ref")
        ref, ref_drawn = _full_decode_gen(profile, ref_rng)
        key = gen(profile, rng)
        drawn += ref_drawn
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for got, want in [(key.public.A, ref.public.A), (key.public.u, ref.public.u),
                          (key.s_bits, ref.s_bits), (key.e, ref.e)]:
            assert np.array_equal(got, want)
        if profile.uses_gadget:
            assert np.array_equal(key.gadget.R, ref.gadget.R)
    if profile.B_V == 2.0:
        # the seeds reach every outcome of a draw
        assert {"primary", "repaired", "refused"} <= set(drawn)


@pytest.mark.parametrize("profile", [get_profile("desk-protocol"), get_profile("desk-small", B_V=2.0)],
                         ids=["desk-protocol", "desk-small-B_V2.0"])
def test_gen_decodes_only_a_primary_miss_in_full(monkeypatch, profile):
    # a count of trapdoor.invert calls, no timing: one for each draw whose
    # nearest-plane answer is not s, none at desk-protocol
    misses = sum(
        outcome != "primary"
        for seed in range(40)
        for outcome in _full_decode_gen(profile, substream(seed, "gen-count"))[1]
    )
    calls = []
    invert = clawfree.invert
    monkeypatch.setattr(clawfree, "invert", lambda *args, **kwargs: calls.append(1) or invert(*args, **kwargs))
    for seed in range(40):
        gen(profile, substream(seed, "gen-count"))
    assert len(calls) == misses
    assert (misses == 0) == (profile.name == "desk-protocol")


def test_micro_supports_disjoint_and_matching(micro_key):
    key = micro_key
    prof = key.profile
    ring = key.ring
    xs = all_points(prof.q, prof.n)
    ys = all_points(prof.q, prof.m)
    for b in (0, 1):
        supports = []
        for x in xs:
            supp = frozenset(
                tuple(y) for y in ys if density_secret(key, b, x, y) > 0
            )
            assert supp, "every point must have nonempty image support"
            supports.append(supp)
        for s1, s2 in itertools.combinations(supports, 2):
            assert not (s1 & s2)
    # exact claw matching: branch densities agree precisely on partners
    for x0 in xs:
        x1 = claw_partner(key, 0, x0)
        for y in ys:
            assert density_secret(key, 0, x0, y) == pytest.approx(
                density_secret(key, 1, x1, y), abs=1e-15
            )
        for xx in xs:
            if not np.array_equal(xx, x1):
                same = all(
                    density_secret(key, 0, x0, y)
                    == pytest.approx(density_secret(key, 1, xx, y), abs=1e-15)
                    for y in ys
                )
                assert not same


def test_micro_chk_equals_support(micro_key):
    key = micro_key
    prof = key.profile
    xs = all_points(prof.q, prof.n)
    ys = all_points(prof.q, prof.m)
    for b in (0, 1):
        for x in xs:
            for y in ys:
                assert chk(key.public, b, x, y) == int(density_public(key.public, b, x, y) > 0)


def test_chk_over_rows_matches_each_row(micro_key):
    # every (b, x, y) of the micro key in one row-wise check
    key = micro_key
    prof = key.profile
    rows = [(b, x, y) for b in (0, 1) for x in all_points(prof.q, prof.n) for y in all_points(prof.q, prof.m)]
    b, x, y = (np.array([r[i] for r in rows]) for i in range(3))
    got = chk(key.public, b, x, y)
    assert got.tolist() == [chk(key.public, *r) for r in rows]
    assert set(got.tolist()) == {0, 1}
    with pytest.raises(ValueError, match="branch bit"):
        chk(key.public, np.array([0, 2]), x[:2], y[:2])


def test_micro_inv_correct_on_support(micro_key):
    key = micro_key
    prof = key.profile
    xs = all_points(prof.q, prof.n)
    ys = all_points(prof.q, prof.m)
    for b in (0, 1):
        for x in xs:
            for y in ys:
                if density_public(key.public, b, x, y) > 0:
                    assert np.array_equal(inv(key, b, y), x)
                    partner = inv(key, b ^ 1, y)
                    assert np.array_equal(partner, claw_partner(key, b, x))


def test_density_public_branch0_equals_secret(desk_key):
    key = desk_key
    rng = substream(3, "d")
    ring = key.ring
    for _ in range(25):
        x = ring.uniform(rng, key.profile.n)
        y = ring.uniform(rng, key.profile.m)
        assert density_public(key.public, 0, x, y) == density_secret(key, 0, x, y)


def test_density_shift_hellinger_bound():
    # nonzero key noise: the two branch-1 densities differ by at most the
    # shifted-Gaussian bound; exhaustive at q=5, m=2 with a forced shift
    prof = get_profile("micro").__class__(
        name="tiny-noisy", lam=1, ell=1, n=1, m=2, q=5,
        B_L=0.5, B_V=1.0, B_P=2.0,
        N=16, p_test=0.5, gamma=0.5, kappa=0.5, eta=0.1,
    )
    rng = substream(17, "noisy")
    ring = ModRing(5)
    # build the key directly: A uniform, nonzero e
    from clawrand.clawfree import PublicKey

    A = ring.uniform(rng, (2, 1))
    s = np.array([1], dtype=np.int64)
    e = np.array([1, 0], dtype=np.int64)
    u = ring.reduce(ring.matmul(A, s) + e)
    key = KeyPair(PublicKey(prof, A, u), None, s, e)
    ys = all_points(5, 2)
    for x in all_points(5, 1):
        bc = sum(
            math.sqrt(density_secret(key, 1, x, y) * density_public(key.public, 1, x, y))
            for y in ys
        )
        h2 = 1 - bc
        assert h2 <= shifted_hellinger_bound(2, ring.norm(e), prof.B_P) + 1e-12
        assert h2 <= 1 - math.exp(-2 * math.pi * 2 * prof.B_V / prof.B_P) + 1e-12


def test_inv_failure_on_garbage(desk_key):
    rng = substream(5, "fuzz")
    ring = desk_key.ring
    failures = 0
    for _ in range(50):
        y = ring.uniform(rng, desk_key.profile.m)
        try:
            inv(desk_key, 0, y)
        except DecodeFailure:
            failures += 1
    assert failures >= 40


def test_inv_roundtrip_desk(desk_key):
    key = desk_key
    prof = key.profile
    ring = key.ring
    rng = substream(6, "roundtrip")
    noise = key.public.noise_dist()
    for _ in range(400):
        b = int(rng.integers(0, 2))
        x = ring.uniform(rng, prof.n)
        e0 = noise.sample_vec(rng, prof.m)
        y = ring.reduce(ring.matmul(key.public.A, x) + b * key.public.u + e0)
        assert np.array_equal(inv(key, b, y), x)
        assert chk(key.public, b, x, y) == 1


def test_secret_mask_example():
    # q=5, J(3)=(1,1,0), J(2)=(0,1,0): xor = (1,0,0); d=(1,0,1) -> mask 1
    ring = ModRing(5)
    mask = secret_mask(ring, 0, [3], [1, 0, 1])
    assert list(mask) == [1]
    assert list(secret_mask(ring, 0, [3], [0, 0, 0])) == [0]


@pytest.mark.parametrize("q", [5, 13])
def test_secret_mask_identity_exhaustive_n1(q):
    ring = ModRing(q)
    k = ring.coord_bits
    for b in (0, 1):
        for x in range(q):
            for d_int in range(2**k):
                d = [(d_int >> i) & 1 for i in range(k)]
                mask = secret_mask(ring, b, [x], d)
                for s in (0, 1):
                    xs = np.array([x])
                    partner = ring.reduce(xs - (-1) ** b * s)
                    lhs = claw_equation_bit(ring, xs, partner, d)
                    assert lhs == (int(mask[0]) * s) % 2


def test_secret_mask_identity_sampled_n3_q13():
    # full s-space, sampled (b, x, d) at the larger shape
    ring = ModRing(13)
    n, k = 3, 4
    rng = substream(21, "mask3")
    for _ in range(300):
        b = int(rng.integers(0, 2))
        x = ring.uniform(rng, n)
        d = rng.integers(0, 2, size=n * k, dtype=np.int64)
        mask = secret_mask(ring, b, x, d)
        for s_int in range(8):
            s = np.array([(s_int >> i) & 1 for i in range(n)], dtype=np.int64)
            partner = ring.reduce(x - (-1) ** b * s)
            assert claw_equation_bit(ring, x, partner, d) == int(mask @ s) % 2


def test_density_peak_at_zero_shift(desk_key):
    key = desk_key
    ring = key.ring
    rng = substream(22, "peak")
    x = ring.uniform(rng, key.profile.n)
    y_peak = ring.matmul(key.public.A, x)
    peak = density_secret(key, 0, x, y_peak)
    assert peak == pytest.approx(key.public.noise_dist().density(0) ** key.profile.m, rel=1e-12)
    for _ in range(20):
        y = ring.uniform(rng, key.profile.m)
        assert density_secret(key, 0, x, y) <= peak + 1e-15


def test_secret_mask_identity_exhaustive_n2_q5():
    ring = ModRing(5)
    n, k = 2, 3
    xs = all_points(5, 2)
    for b in (0, 1):
        for x in xs:
            for d_int in range(2 ** (n * k)):
                d = np.array([(d_int >> i) & 1 for i in range(n * k)])
                mask = secret_mask(ring, b, x, d)
                for s_int in range(4):
                    s = np.array([(s_int >> i) & 1 for i in range(n)])
                    partner = ring.reduce(x - (-1) ** b * s)
                    lhs = claw_equation_bit(ring, x, partner, d)
                    assert lhs == int(mask @ s) % 2


def test_good_set_basics(desk_key):
    key = desk_key
    ring = key.ring
    prof = key.profile
    x = ring.uniform(substream(7, "x"), prof.n)
    assert not in_good_set(ring, 0, x, np.zeros(prof.w, dtype=np.int64))
    assert not in_good_set(ring, 1, x, np.zeros(prof.w, dtype=np.int64))


def test_good_set_rate(desk_key):
    key = desk_key
    ring = key.ring
    prof = key.profile
    rng = substream(8, "goodrate")
    n_draws = 100_000
    for b in (0, 1):
        x = ring.uniform(rng, prof.n)
        diff = bit_diff_blocks(ring, b, x)
        draws = rng.integers(0, 2, size=(n_draws, prof.w), dtype=np.int64)
        k = ring.coord_bits
        masks = (draws.reshape(n_draws, prof.n, k) * diff[None, :, :]).sum(axis=2) & 1
        half = slice(0, (prof.n + 1) // 2) if b == 0 else slice((prof.n + 1) // 2, prof.n)
        misses = int((~masks[:, half].any(axis=1)).sum())
        rate = misses / n_draws
        width = (prof.n + 1) // 2 if b == 0 else prof.n // 2
        assert rate <= 2.0**-width + 0.005
        # spot-check the vectorization against the scalar implementation
        for i in range(50):
            assert in_good_set(ring, b, x, draws[i]) == bool(masks[i, half].any())


def bit_diff_blocks(ring, b, x):
    from clawrand.modq import bit_encode

    x = ring.reduce(np.atleast_1d(x))
    step = ring.reduce(x - (-1) ** b)
    return (bit_encode(ring, x) ^ bit_encode(ring, step)).reshape(x.size, -1)


def test_claw_good_set_symmetric_micro(micro_key):
    key = micro_key
    prof = key.profile
    for x0 in all_points(prof.q, prof.n):
        x1 = claw_partner(key, 0, x0)
        for d_int in range(2**prof.w):
            d = np.array([(d_int >> i) & 1 for i in range(prof.w)])
            assert in_claw_good_set(key, 0, x0, d) == in_claw_good_set(key, 1, x1, d)


def test_classify_hardcore(desk_key):
    key = desk_key
    ring = key.ring
    prof = key.profile
    rng = substream(9, "hc")
    x = ring.uniform(rng, prof.n)
    b = 1
    x0 = claw_partner(key, 1, x)
    x1 = x
    d = rng.integers(0, 2, size=prof.w, dtype=np.int64)
    while not in_claw_good_set(key, b, x, d):
        d = rng.integers(0, 2, size=prof.w, dtype=np.int64)
    c = claw_equation_bit(ring, x0, x1, d)
    assert classify_hardcore(key, b, x, d, c) == "correct"
    assert classify_hardcore(key, b, x, d, c ^ 1) == "flipped"
    assert classify_hardcore(key, b, x, np.zeros(prof.w, dtype=np.int64), 0) == "excluded"


def test_hardcore_game_adversaries():
    prof = get_profile("desk-small")
    rng = substream(10, "game")

    def guesser(A, u, rr):
        ring = ModRing(prof.q)
        return (
            int(rr.integers(0, 2)),
            ring.uniform(rr, prof.n),
            rr.integers(0, 2, size=prof.w, dtype=np.int64),
            int(rr.integers(0, 2)),
        )

    res = hardcore_game(prof, guesser, trials=600, rng=rng)
    assert res.advantage <= res.ci_high + 0.08

    def zero_d(A, u, rr):
        return (0, np.zeros(prof.n, dtype=np.int64), np.zeros(prof.w, dtype=np.int64), 0)

    res0 = hardcore_game(prof, zero_d, trials=50, rng=rng)
    assert res0.advantage == 0.0 and res0.p_excluded == 1.0


def test_hardcore_game_cheater_with_trapdoor():
    # sanity upper end: an oracle holding the trapdoor wins outright
    prof = get_profile("desk-small")
    rng = substream(11, "cheat")
    keys = {}

    orig_gen = gen

    def keygen_capture(profile, rr):
        key = orig_gen(profile, rr)
        keys["latest"] = key
        return key

    def cheater(A, u, rr):
        key = keys["latest"]
        ring = key.ring
        x = ring.uniform(rr, prof.n)
        d = rr.integers(0, 2, size=prof.w, dtype=np.int64)
        while not in_claw_good_set(key, 0, x, d):
            d = rr.integers(0, 2, size=prof.w, dtype=np.int64)
        c = claw_equation_bit(ring, x, claw_partner(key, 0, x), d)
        return (0, x, d, c)

    import clawrand.clawfree as cf

    original = cf.gen
    cf.gen = keygen_capture
    try:
        res = hardcore_game(prof, cheater, trials=200, rng=rng)
    finally:
        cf.gen = original
    assert res.advantage == pytest.approx(1.0)


def test_moderate_examples():
    ring = ModRing(17)
    assert is_moderate_vector(ring, [3, 3, 4, 5, 0, 1, 8, 6])
    # exactly five qualifying entries out of eight, and 5 >= 8/4
    assert not is_moderate_vector(ring, [0, 0, 0, 0, 1, 1, 8, 8])
    assert not moderate_check(ring, np.zeros((1, 8), dtype=np.int64))


def test_moderate_check_enumerates_span():
    ring = ModRing(5)
    rng = substream(12, "mod")
    C = ring.uniform(rng, (1, 16))
    want = all(
        is_moderate_vector(ring, ring.reduce(t * C[0])) for t in range(1, 5)
    )
    assert moderate_check(ring, C) == want


def test_moderate_check_refuses_a_span_past_the_grid_limit():
    # 5^9 ~ 1.95e6 combinations of 9 rows exceed MAX_GRID
    ring = ModRing(5)
    with pytest.raises(SizeGuardError):
        moderate_check(ring, ring.uniform(np.random.default_rng(0), (9, 16)))


@pytest.mark.parametrize("n", [9, 12, 30])
def test_gen_refuses_a_micro_shape_too_large_to_enumerate(n):
    # a micro key is checked by full search over Z_q^n, so q^n past
    # MAX_GRID is refused before any of it is enumerated
    with pytest.raises(SizeGuardError):
        gen(get_profile("micro", n=n), substream(3, "guard", n))


def test_moderate_fraction_empirical():
    ring = ModRing(5)
    rng = substream(13, "modfrac")
    n = 16
    hits = sum(moderate_check(ring, ring.uniform(rng, (1, n))) for _ in range(2000))
    assert hits / 2000 >= moderate_fraction_bound(5, 1, n)  # bound is vacuous here
    assert hits / 2000 > 0.8  # and the true fraction is actually high


def brute_parity_counts(ring, C, dhat):
    ell, n = C.shape
    counts = np.zeros((ring.q,) * ell + (2,), dtype=np.int64)
    for bits in itertools.product((0, 1), repeat=n):
        s = np.array(bits)
        v = tuple(ring.reduce(C @ s))
        counts[v + (int(dhat @ s) % 2,)] += 1
    return counts


def test_parity_tv_many_matches_scalar():
    from clawrand.clawfree import parity_tv_many

    ring = ModRing(5)
    rng = substream(23, "batch")
    C = ring.uniform(rng, (1, 14))
    dhats = rng.integers(0, 2, size=(20, 14), dtype=np.int64)
    batch = parity_tv_many(ring, C, dhats)
    for i in range(20):
        assert batch[i] == pytest.approx(parity_tv(ring, C, dhats[i]), abs=1e-12)


@pytest.mark.parametrize("ell", [1, 2])
def test_parity_counts_match_bruteforce(ell):
    ring = ModRing(5)
    rng = substream(14, "parity")
    for _ in range(10):
        n = int(rng.integers(2, 11))
        C = ring.uniform(rng, (ell, n))
        dhat = rng.integers(0, 2, size=n, dtype=np.int64)
        got = parity_joint_counts(ring, C, dhat)
        want = brute_parity_counts(ring, C, dhat)
        assert np.array_equal(got, want)


def test_parity_tv_moderate_bound_nonvacuous():
    # at n = 120 the balance bound is informative and still holds
    ring = ModRing(5)
    rng = substream(15, "parity-big")
    n = 120
    bound = parity_tv_bound(5, 1, n)
    assert bound < 0.3
    for _ in range(10):
        C = ring.uniform(rng, (1, n))
        if not moderate_check(ring, C):
            continue
        dhat = rng.integers(0, 2, size=n, dtype=np.int64)
        if not dhat.any():
            dhat[0] = 1
        assert parity_tv(ring, C, dhat) <= bound


def test_parity_tv_conditional():
    ring = ModRing(5)
    rng = substream(16, "parity-cond")
    C = ring.uniform(rng, (1, 12))
    dhat = rng.integers(0, 2, size=12, dtype=np.int64)
    dhat[0] = 1
    counts = parity_joint_counts(ring, C, dhat)
    for v in range(5):
        if counts[v].sum() > 0:
            pair = counts[v].astype(float)
            want = 0.5 * np.abs(pair / pair.sum() - 0.5).sum()
            assert parity_tv(ring, C, dhat, v=[v]) == pytest.approx(want)


def test_serialization_roundtrip(desk_key):
    prof = desk_key.profile
    pub2 = public_key_from_json(public_key_to_json(desk_key.public), prof)
    assert np.array_equal(pub2.A, desk_key.public.A)
    assert np.array_equal(pub2.u, desk_key.public.u)
    key2 = keypair_from_json(keypair_to_json(desk_key), prof)
    assert np.array_equal(key2.s_bits, desk_key.s_bits)
    assert np.array_equal(key2.e, desk_key.e)
    # the restored trapdoor still inverts
    assert np.array_equal(inv(key2, 0, desk_key.public.u), key2.ring.reduce(key2.s_bits))


def _tamper_s(obj, key):
    # a non-binary secret with u made consistent, so only the binary check fails
    s = key.s_bits.copy()
    s[0] = 2
    obj["s"] = [int(v) for v in s]
    obj["public"]["u"] = vec_to_json(key.ring, key.ring.reduce(key.ring.matmul(key.public.A, s) + key.e))


def _tamper_e(obj, key):
    e = key.e.copy()
    e[0] = int(key.profile.B_V) + 1
    obj["e"] = [int(v) for v in e]
    obj["public"]["u"] = vec_to_json(key.ring, key.ring.reduce(key.ring.matmul(key.public.A, key.s_bits) + e))


def _tamper_u(obj, key):
    obj["public"]["u"] = vec_to_json(key.ring, key.ring.reduce(key.public.u + 1))


def _tamper_trapdoor(obj, key):
    other = gen(key.profile, substream(101, "other-desk-key"))
    obj["trapdoor"] = keypair_to_json(other)["trapdoor"]


def _tamper_no_trapdoor(obj, key):
    # a gadget-shape key cannot fall back to the micro search
    obj["trapdoor"] = None


def _tamper_q(obj, key):
    # a modulus over the cap is refused before anything else is read
    for part in ("A", "u"):
        obj["public"][part]["q"] = MAX_Q + 1


def _tamper_s_fraction(obj, key):
    obj["s"] = [v + 0.25 for v in obj["s"]]


def _tamper_A_fraction(obj, key):
    obj["public"]["A"]["data"][0] = 0.5


def _tamper_q_fraction(obj, key):
    for part in ("A", "u"):
        obj["public"][part]["q"] = key.ring.q + 0.5


def _tamper_R_fraction(obj, key):
    data = obj["trapdoor"]["R"]["data"]
    data[data.index(0)] = 0.5


def _tamper_wide_int(obj, key):
    obj["e"][0] = 2**70


def _tamper_R_rows(obj, key):
    obj["trapdoor"]["R"]["rows"] = -1  # numpy would infer the dimension


def _tamper_R_cols(obj, key):
    obj["trapdoor"]["R"]["cols"] = -1


def _tamper_mbar(obj, key):
    # -w slices A into the same two blocks as the true mbar
    obj["trapdoor"]["layout"]["mbar"] = -obj["trapdoor"]["R"]["rows"]


def _tamper_last_rows(obj, key):
    # A and R each without their last row: R still has shape (m - mbar, mbar),
    # but m - mbar is one short of n*ceil(log2 q)
    for part in ("A", "R"):
        mat = obj["trapdoor"][part]
        mat["rows"] -= 1
        mat["data"] = mat["data"][: -mat["cols"]]


def _tamper_trapdoor_A(obj, key):
    # the last gadget row of the trapdoor's A, off the A its Abar and R make
    data = obj["trapdoor"]["A"]["data"]
    data[-1] = (data[-1] + 1) % key.ring.q


def _tamper_R_entry(obj, key):
    # R with an entry of 2, and A rebuilt from it, so only R's entries fail
    R = key.gadget.R.copy()
    R[0, 0] = 2
    obj["trapdoor"] = trapdoor_to_json(TrapdoorKey(key.ring, key.gadget.Abar, R))


@pytest.mark.parametrize(
    "tamper, exc, message",
    [
        (_tamper_s, ValueError, "binary"),
        (_tamper_e, ValueError, "B_V"),
        (_tamper_u, ValueError, "A\\*s \\+ e"),
        (_tamper_trapdoor, ValueError, "different A"),
        (_tamper_no_trapdoor, ValueError, "needs its trapdoor"),
        (_tamper_q, ValueError, "modulus must be in"),
        # a value that is not exactly an integer is refused, never truncated
        (_tamper_s_fraction, ValueError, "not integers"),
        (_tamper_A_fraction, ValueError, "not integers"),
        (_tamper_q_fraction, ValueError, "13.5 is not an integer"),
        (_tamper_R_fraction, ValueError, "not integers"),
        (_tamper_wide_int, OverflowError, "too large"),
        # the trapdoor's declared shape and layout are checked, not inferred
        (_tamper_R_rows, ValueError, "declared shape"),
        (_tamper_R_cols, ValueError, "declared shape"),
        (_tamper_mbar, ValueError, "1 <= mbar < m"),
        (_tamper_last_rows, ValueError, "m - mbar = n\\*ceil\\(log2 q\\)"),
        (_tamper_trapdoor_A, ValueError, "block identity"),
        (_tamper_R_entry, ValueError, "R entries"),
    ],
    ids=[
        "s", "e", "u", "trapdoor", "no-trapdoor", "q", "s-fraction", "A-fraction", "q-fraction", "R-fraction", "wide-int",
        "R-rows", "R-cols", "mbar", "last-rows", "trapdoor-A", "R-entry",
    ],
)
def test_keypair_from_json_rejects_tampered_field(desk_key, tamper, exc, message):
    obj = keypair_to_json(desk_key)
    tamper(obj, desk_key)
    with pytest.raises(exc, match=message):
        keypair_from_json(obj, desk_key.profile)


@pytest.mark.parametrize(
    "build",
    [
        lambda desk, micro: TrapdoorKey(desk.ring, desk.gadget.Abar, desk.gadget.R, A=desk.gadget.A),
        lambda desk, micro: ImageTable(micro.ring, micro.public.A, s=micro.table.s),
        lambda desk, micro: KeyPair(micro.public, None, micro.s_bits, micro.e, table=micro.table),
        lambda desk, micro: TruncGaussian(desk.ring, desk.profile.B_P, _table={}),
    ],
    ids=["TrapdoorKey-A", "ImageTable-s", "KeyPair-table", "TruncGaussian-table"],
)
def test_key_objects_refuse_a_derived_field(desk_key, micro_key, build):
    # each key object is built from its defining inputs, and derives the
    # rest itself: a derived value cannot be passed in, so none can disagree
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        build(desk_key, micro_key)
