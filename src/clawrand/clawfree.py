"""The lattice-based claw-free function family.

A key is (A, u = A*s + e) for a binary secret s and narrow noise e; the
two functions map a point x to the Gaussian density of width B_P centered
at A*x (branch 0) or A*x + A*s (branch 1).  Matched pairs are exactly
x1 = x0 - s, the verifier inverts images with the lattice trapdoor, and a
public check tests support membership from (A, u) alone.

The equation side: for a claw (x0, x1) and a bit vector d of length
w = n*ceil(log2 q), the parity d.(J(x0) xor J(x1)) equals dhat.s where
J is the per-coordinate bit encoding and dhat = secret_mask(b, x, d) is
computable from either endpoint alone.  The "good" sets are the d whose
mask is nonzero on the half of the secret opposite the revealed endpoint;
equation answers are only credited on good d.  The statistical side of
the hardcore-bit argument (moderate matrices, parity balance of C*s) is
implemented with exact counting so small instances can be checked against
brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gaussians import TruncGaussian
from .modq import (
    MAX_GRID,
    ModRing,
    SizeGuardError,
    bit_encode,
    exact_int64,
    exact_matmul,
    float_operand,
    mat_from_json,
    mat_json_text,
    mat_to_json,
    residue_grid,
    vec_from_json,
    vec_to_json,
)
from .profiles import ParameterProfile
from .trapdoor import (
    OVER_BOUND,
    PATHS,
    DecodeFailure,
    ImageTable,
    TrapdoorKey,
    exhaustive_invert,
    gen_trap,
    invert,
    trapdoor_from_json,
    trapdoor_to_json,
)


@dataclass(frozen=True)
class PublicKey:
    profile: ParameterProfile
    A: np.ndarray  # (m, n)
    u: np.ndarray  # (m,)
    # A^T as a float_operand copy for exact_matmul, made here unless given:
    # the one derived input a key object takes.  gen passes the trapdoor's
    # copy, as converting A again took a desk-protocol gen from 149 to 155 us
    AT: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.AT is None:
            object.__setattr__(self, "AT", float_operand(self.A.T))

    @cached_property
    def ring(self) -> ModRing:
        return ModRing(self.profile.q)

    def noise_dist(self) -> TruncGaussian:
        return self.profile.noise_dist()


@dataclass(frozen=True)
class KeyPair:
    """Public key plus the inversion trapdoor.

    The secret bits and the key noise are recovered at generation time and
    cached here: inversion of branch 1 needs s itself, not just the
    lattice trapdoor.  gadget is None for micro shapes (m < w + n); there
    table holds the exhaustive decode of every image, ImageTable(ring, A),
    made with the key and dropped with it.  A key of a gadget shape
    without its gadget would need a search past the grid guard, and
    raises SizeGuardError.
    """

    public: PublicKey
    gadget: TrapdoorKey | None
    s_bits: np.ndarray  # (n,) in {0,1}
    e: np.ndarray  # (m,) centered representatives
    table: ImageTable | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = None if self.gadget is not None else ImageTable(self.ring, self.public.A)
        object.__setattr__(self, "table", table)

    @property
    def profile(self) -> ParameterProfile:
        return self.public.profile

    @property
    def ring(self) -> ModRing:
        return self.public.ring


class KeyGenFailure(Exception):
    """Key generation exhausted its retry budget."""


# key draws gen makes before it gives up
_KEYGEN_RETRIES = 64


def _sample_noise_bound(profile: ParameterProfile) -> float:
    # covers the support of either branch density shifted by the key noise
    return (profile.B_P + profile.B_V) * math.sqrt(profile.m)


def invert_sample(key: KeyPair, Y):
    """Decode a stack of images y = A*s0 + e0, one a row, within the
    branch-support bound into row-wise (S0, E0, path), as trapdoor.invert
    or, at micro shapes, exhaustive_invert gives it."""
    bound = _sample_noise_bound(key.profile)
    if key.gadget is not None:
        return invert(key.gadget, Y, max_norm=bound)
    return exhaustive_invert(key.table, Y, max_norm=bound)


def _min_claw_distance(ring: ModRing, A: np.ndarray) -> float:
    # smallest image distance between distinct points, from the image grid
    # A*s for every s in Z_q^n in residue_grid order, only built for micro
    # shapes where q^n is tiny: row 0 is s = 0, so the other rows are the
    # images of all nonzero deltas
    img = ring.centered((residue_grid(ring.q, A.shape[1]) @ A.T)[1:]).astype(float)
    return float(np.sqrt((img * img).sum(axis=1)).min())


def gen(profile: ParameterProfile, rng: np.random.Generator) -> KeyPair:
    """Sample a key pair and verify the trapdoor inverts its own image."""
    ring = profile.ring()
    noise = profile.noise_dist(profile.B_V)
    for _ in range(_KEYGEN_RETRIES):
        if profile.uses_gadget:
            gadget = gen_trap(ring, profile.n, profile.m, rng)
            A, AT = gadget.A, gadget.AT
        else:
            gadget = None
            A = ring.uniform(rng, (profile.m, profile.n))
            # at micro scale a constant fraction of A are geometrically
            # degenerate (colliding branch supports); those draws are not
            # valid keys, so reject and redraw
            if _min_claw_distance(ring, A) <= 2 * profile.B_P * math.sqrt(profile.m):
                continue
            AT = float_operand(A.T)
        s_bits = rng.integers(0, 2, size=profile.n, dtype=np.int64)
        e = ring.centered(noise.sample_vec(rng, profile.m))
        # one reduction of the whole sum, as in sample_branch
        u = ring.reduce(exact_matmul(s_bits, AT) + e)
        key = KeyPair(PublicKey(profile, A, u, AT), gadget, s_bits, e)
        S0, E0, path = invert_sample(key, u[None])
        if path[0] < OVER_BOUND and np.array_equal(S0[0], s_bits) and np.array_equal(E0[0], e):
            return key
    raise KeyGenFailure(f"no invertible key in {_KEYGEN_RETRIES} draws for {profile.name}")


# -- densities and the public check ----------------------------------------


def density_secret(key: KeyPair, b: int, x, y) -> float:
    """Branch density with the exact secret shift b * A*s (verifier-side;
    exposed for oracles, never sent to provers)."""
    shift = key.ring.matmul(key.public.A, x) + b * key.ring.matmul(key.public.A, key.s_bits)
    return key.public.noise_dist().density_vec(np.asarray(y) - shift)


def density_public(pub: PublicKey, b: int, x, y) -> float:
    """Branch density with the public shift b * u; equals density_secret on
    branch 0 and is the density the sampling procedure actually prepares."""
    shift = pub.ring.matmul(pub.A, x) + b * np.asarray(pub.u)
    return pub.noise_dist().density_vec(np.asarray(y) - shift)


def sample_branch(pub: PublicKey, b: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """An honest branch-b image: uniform x, then y = A*x + b*u + e0 with B_P noise e0."""
    ring = pub.ring
    x = ring.uniform(rng, pub.profile.n)
    e0 = pub.noise_dist().sample_vec(rng, pub.profile.m)
    # one reduction of the whole sum, so the product is not reduced before
    return x, ring.reduce(exact_matmul(x, pub.AT) + b * pub.u + e0)


def chk(pub: PublicKey, b, x, y):
    """Public support check: 1 iff the centered norm of y - A*x - b*u is
    within B_P * sqrt(m).  Given a vector of bits b and stacks x and y,
    one a row, it checks every row at once and gives an int array.  The
    entries of x and y must lie in [0, q), as exact_matmul needs; the
    protocol checks every image and answer at intake."""
    b = np.asarray(b)
    if np.any((b != 0) & (b != 1)):
        raise ValueError("branch bit must be 0 or 1")
    # the norm reduces the residual, so the product is not reduced before
    resid = np.asarray(y) - exact_matmul(x, pub.AT) - b[..., None] * pub.u
    passed = pub.ring.norm(resid) <= pub.profile.B_P * math.sqrt(pub.profile.m)
    return passed.astype(int) if isinstance(passed, np.ndarray) else int(passed)


def inv(key: KeyPair, b: int, y) -> np.ndarray:
    """Invert branch b: decode y = A*s0 + e0 and return s0 - b*s."""
    if b not in (0, 1):
        raise ValueError("branch bit must be 0 or 1")
    return claw_from_image(key, y)[b]


def claw_partner(key: KeyPair, b: int, x) -> np.ndarray:
    """The other endpoint of the claw through (b, x): x -+ s."""
    sign = -1 if b == 0 else 1
    return key.ring.reduce(np.asarray(x) + sign * key.s_bits)


def claw_through(key: KeyPair, b: int, x) -> tuple[np.ndarray, np.ndarray]:
    """(x0, x1) for the claw with x as its branch-b endpoint."""
    x0 = np.asarray(x) if b == 0 else claw_partner(key, 1, x)
    return x0, claw_partner(key, 0, x0)


def claw_from_image(key: KeyPair, y, *, rows: bool = False):
    """(x0, x1) for an image y, via one trapdoor decode, or DecodeFailure
    with the path's name (trapdoor.PATHS).  With rows=True, a stack of
    images gives row-wise (X0, X1, path), as invert_sample's; a row is a
    claw where path < OVER_BOUND.  The one-image form is kept here alone,
    for callers that take one claw and may raise: the inv oracle, the
    demos and the benchmark's replay of failed rounds.

    X1 is reduced on every row, decoded or not, though no caller reads an
    undecoded row's.  One reduce of the whole stack is the cheapest form
    (in-process at desk-protocol): picking the decoded rows first cost
    12-18 us against 5-8 us on 16 honest rows, and 7-11 us against 2-4 us
    on one garbage row; skipping the reduce when no row decodes saves ~2 us
    a garbage trial but adds ~2 us to every honest stack."""
    if rows:
        s0, _, path = invert_sample(key, y)
        return s0, key.ring.reduce(s0 - key.s_bits), path
    s0, _, path = invert_sample(key, np.asarray(y)[None])
    if path[0] >= OVER_BOUND:
        raise DecodeFailure(PATHS[path[0]])
    return s0[0], key.ring.reduce(s0[0] - key.s_bits)


# -- the equation side -------------------------------------------------------


def claw_equation_bit(ring: ModRing, x0, x1, d) -> int:
    """d . (J(x0) xor J(x1)) mod 2."""
    diff = bit_encode(ring, x0) ^ bit_encode(ring, x1)
    return int(np.asarray(d, dtype=np.int64) @ diff) & 1


def secret_mask(ring: ModRing, b: int, x, d) -> np.ndarray:
    """Collapse an equation vector d onto the secret: the n-bit mask dhat
    with d . (J(x) xor J(x - (-1)^b * s)) = dhat . s for every binary s.

    Coordinate i is the parity of block i of d against block i of
    J(x) xor J(x - (-1)^b * 1).
    """
    x = np.atleast_1d(x)
    d = np.asarray(d, dtype=np.int64)
    k = ring.coord_bits
    if d.shape != (x.size * k,):
        raise ValueError(f"equation vector must have length {x.size * k}")
    step = ring.reduce(x - (-1) ** b)
    diff = (bit_encode(ring, x) ^ bit_encode(ring, step)).reshape(-1, k)
    return (diff * d.reshape(-1, k)).sum(axis=1) & 1


def half_range(n: int, b: int) -> slice:
    """Secret coordinates paired with branch b: the first ceil(n/2) for
    b = 0, the rest for b = 1 (odd n splits are a free choice)."""
    cut = (n + 1) // 2
    return slice(0, cut) if b == 0 else slice(cut, n)


def in_good_set(ring: ModRing, b: int, x, d) -> bool:
    """Whether d's secret mask has a nonzero coordinate in branch b's half.

    Checkable from (b, x) alone; a uniform d fails with probability about
    2^(-n/2)."""
    mask = secret_mask(ring, b, x, d)
    return bool(mask[half_range(mask.size, b)].any())


def in_claw_good_set(key: KeyPair, b: int, x, d) -> bool:
    """Membership in the intersection good set, computed from one claw
    endpoint and the secret; symmetric in the endpoint used."""
    return _claw_good(key.ring, *claw_through(key, b, x), d)


def _claw_good(ring: ModRing, x0, x1, d) -> bool:
    return in_good_set(ring, 0, x0, d) and in_good_set(ring, 1, x1, d)


def classify_hardcore(key: KeyPair, b: int, x, d, c: int) -> str:
    """Place a candidate tuple: 'correct' if c is the claw parity along a
    good d, 'flipped' if it is the complement, 'excluded' otherwise."""
    x0, x1 = claw_through(key, b, x)
    if not _claw_good(key.ring, x0, x1, d):
        return "excluded"
    truth = claw_equation_bit(key.ring, x0, x1, d)
    return "correct" if int(c) & 1 == truth else "flipped"


def wilson_interval(successes: float, trials: int) -> tuple[float, float]:
    """Wilson score interval at 99% confidence."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z = 2.5758  # two-sided 99% normal quantile
    z2 = z * z
    center = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / (1 + z2 / trials)
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class HardcoreGameResult:
    trials: int
    p_correct: float
    p_flipped: float
    p_excluded: float
    advantage: float
    ci_low: float
    ci_high: float


def hardcore_game(
    profile: ParameterProfile, adversary, trials: int, rng: np.random.Generator
) -> HardcoreGameResult:
    """Estimate |P[correct] - P[flipped]| for an adversary (A, u) -> (b, x, d, c).

    Each trial uses a fresh key.  The interval is a Wilson interval on the
    score (correct -> 1, flipped -> 0, excluded -> 1/2), a diagnostic proxy
    for the advantage rather than a simultaneous bound on both proportions.
    """
    counts = {"correct": 0, "flipped": 0, "excluded": 0}
    for i in range(trials):
        key = gen(profile, rng)
        b, x, d, c = adversary(key.public.A, key.public.u, rng)
        counts[classify_hardcore(key, b, x, d, c)] += 1
    p_c = counts["correct"] / trials
    p_f = counts["flipped"] / trials
    score = counts["correct"] + 0.5 * counts["excluded"]
    lo, hi = wilson_interval(score, trials)
    return HardcoreGameResult(
        trials=trials,
        p_correct=p_c,
        p_flipped=p_f,
        p_excluded=counts["excluded"] / trials,
        advantage=abs(p_c - p_f),
        ci_low=max(0.0, 2 * lo - 1, 1 - 2 * hi),
        ci_high=max(abs(2 * hi - 1), abs(2 * lo - 1)),
    )


# -- moderate matrices and parity balance -----------------------------------

def is_moderate_vector(ring: ModRing, v):
    """At least n/4 entries with centered magnitude in (q/8, 3q/8].  A 2-D
    array is tested row by row, giving one answer per row."""
    a = ring.abs(v)
    hits = ((8 * a > ring.q) & (8 * a <= 3 * ring.q)).sum(axis=-1)
    return 4 * hits >= a.shape[-1]


def moderate_check(ring: ModRing, C) -> bool:
    """Whether every nonzero vector in the row span of C is moderate.

    The zero matrix spans nothing nonzero and is reported not moderate.
    Enumeration is guarded at q^ell combinations by residue_grid."""
    C = np.atleast_2d(C)
    span = ring.reduce(residue_grid(ring.q, C.shape[0]) @ C)
    nonzero = span[np.any(span != 0, axis=1)]
    return nonzero.shape[0] > 0 and bool(is_moderate_vector(ring, nonzero).all())


def _parity_counts(ring: ModRing, C, dhats) -> np.ndarray:
    """Exact counts over s in {0,1}^n of (C*s mod q, dhat.s mod 2) for each
    mask of a batch; shape (count,) + (q,)*ell + (2,).

    The count is a coordinate recursion (each secret bit either contributes
    its column or not), which evaluates the same sum as enumerating all 2^n
    secrets.  The per-coordinate ring shift is shared by the batch, only
    the parity toggle differs per mask."""
    C = np.atleast_2d(C)
    dhats = np.asarray(dhats, dtype=np.int64)
    ell, n = C.shape
    if dhats.ndim != 2 or dhats.shape[1] != n:
        raise ValueError(f"each mask must be a vector of length {n}, the number of columns")
    if ring.q**ell * 2 > MAX_GRID:
        raise SizeGuardError("joint state space too large")
    batch = dhats.shape[0]
    dtype = np.int64 if n <= 62 else np.float64
    state = np.zeros((batch,) + (ring.q,) * ell + (2,), dtype=dtype)
    state[(slice(None),) + (0,) * ell + (0,)] = 1
    toggle = (dhats & 1).astype(bool).T  # (n, batch)
    for i in range(n):
        shifted = state
        for j in range(ell):
            shifted = np.roll(shifted, int(C[j, i]), axis=1 + j)
        flipped = np.roll(shifted, 1, axis=ell + 1)
        sel = toggle[i].reshape((batch,) + (1,) * (ell + 1))
        state = state + np.where(sel, flipped, shifted)
    return state


def parity_joint_counts(ring: ModRing, C, dhat) -> np.ndarray:
    """Exact counts over s in {0,1}^n of (C*s mod q, dhat.s mod 2), as an
    array of shape (q,)*ell + (2,)."""
    return _parity_counts(ring, C, [dhat])[0]


def parity_tv_many(ring: ModRing, C, dhats) -> np.ndarray:
    """parity_tv against uniform for a batch of masks over one matrix."""
    state = _parity_counts(ring, C, dhats)
    probs = state.reshape(state.shape[0], -1).astype(float)
    probs /= probs.sum(axis=1, keepdims=True)
    return 0.5 * np.abs(probs - 1.0 / probs.shape[1]).sum(axis=1)


def parity_tv(ring: ModRing, C, dhat, v=None) -> float:
    """TV distance of (C*s, dhat.s) from uniform over Z_q^ell x {0,1} for a
    uniform binary secret s; with v given, the distance of the conditional
    parity given C*s = v from a fair bit."""
    if v is None:
        return float(parity_tv_many(ring, C, [dhat])[0])
    counts = parity_joint_counts(ring, C, dhat).astype(float)
    v = tuple(int(t) % ring.q for t in np.atleast_1d(v))
    pair = counts[v]
    if pair.sum() == 0:
        raise ValueError(f"conditioning event C*s = {v} has probability zero")
    cond = pair / pair.sum()
    return float(0.5 * np.abs(cond - 0.5).sum())


def moderate_fraction_bound(q: int, ell: int, n: int) -> float:
    """1 - q^ell * 2^(-n/8), the guaranteed fraction of moderate matrices."""
    return 1.0 - q**ell * 2.0 ** (-n / 8.0)


def parity_tv_bound(q: int, ell: int, n: int) -> float:
    """q^(ell/2) * 2^(-n/40), the parity-balance bound for moderate C."""
    return q ** (ell / 2.0) * 2.0 ** (-n / 40.0)


# -- serialization -----------------------------------------------------------


def public_key_to_json(pub: PublicKey) -> dict:
    return {
        "A": mat_to_json(pub.ring, pub.A),
        "u": vec_to_json(pub.ring, pub.u),
        "profile": pub.profile.as_dict(),
    }


def public_key_json_text(pub: PublicKey) -> str:
    """canonical_json(public_key_to_json(pub)): the text keygen writes and
    the key digests hash, with A and u rendered by mat_json_text and the
    profile's text rendered once per profile (ParameterProfile.json_text)."""
    ring = pub.ring
    return (
        f'{{"A":{mat_json_text(ring, pub.A)},"profile":{pub.profile.json_text},'
        f'"u":{mat_json_text(ring, np.atleast_1d(pub.u)[:, None])}}}'
    )


def public_key_from_json(obj: dict, profile: ParameterProfile) -> PublicKey:
    ring, A = mat_from_json(obj["A"])
    ring_u, u = vec_from_json(obj["u"])
    if ring.q != profile.q or ring_u.q != profile.q:
        raise ValueError("key modulus does not match profile")
    if A.shape != (profile.m, profile.n) or u.shape != (profile.m,):
        raise ValueError("key shape does not match profile")
    return PublicKey(profile, A, u)


def keypair_to_json(key: KeyPair) -> dict:
    return {
        "public": public_key_to_json(key.public),
        "trapdoor": None if key.gadget is None else trapdoor_to_json(key.gadget),
        "s": key.s_bits.tolist(),
        "e": key.e.tolist(),
    }


def keypair_from_json(obj: dict, profile: ParameterProfile) -> KeyPair:
    """Load a key pair, raising ValueError unless s is binary, e is within
    the key-noise width B_V, u = A*s + e (mod q), a gadget shape carries
    its trapdoor and any trapdoor is for the public A.

    Only the tests call it.  It is kept as the one reader of what
    `keygen --secret-out` writes, so that secret key material read back is
    checked before it is trusted."""
    pub = public_key_from_json(obj["public"], profile)
    if obj["trapdoor"] is None and profile.uses_gadget:
        raise ValueError(f"a key of the gadget shape of {profile.name} needs its trapdoor")
    gadget = None if obj["trapdoor"] is None else trapdoor_from_json(obj["trapdoor"])
    s_bits, e = exact_int64(obj["s"]), exact_int64(obj["e"])
    if s_bits.shape != (profile.n,) or np.any((s_bits != 0) & (s_bits != 1)):
        raise ValueError("secret is not a binary vector of length n")
    if e.shape != (profile.m,) or np.any(np.abs(e) > profile.B_V):
        raise ValueError("key noise is not a length-m vector within B_V")
    ring = pub.ring
    if not np.array_equal(pub.u, ring.reduce(ring.matmul(pub.A, s_bits) + e)):
        raise ValueError("u is not A*s + e (mod q)")
    if gadget is not None and not np.array_equal(gadget.A, pub.A):
        raise ValueError("trapdoor is for a different A")
    return KeyPair(pub, gadget, s_bits, e)
