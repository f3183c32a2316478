"""Gadget-based trapdoors for noisy linear systems over Z_q.

A trapdoor key is a matrix A = [Abar; G - R*Abar] (rows stacked), with
Abar uniform, R ternary, and G the powers-of-two gadget.  Multiplying a
sample y = A*s + e on the left by [R | I] cancels Abar and leaves
G*s + [R | I]*e, which is decoded blockwise in the gadget lattice.

Blockwise decoding is Babai's nearest-plane against the scaled inverse
transpose of the bidiagonal basis (2 on the diagonal, -1 below, last
column the binary expansion of q) of the gadget's perp lattice.  A decode
is accepted only if the residual y - A*s has centered norm within the
caller's noise bound; if the nearest-plane answer fails that check,
nearby block codewords are tried before reporting failure.  Every block
ranks its codewords by syndrome distance in one batched sort, and the
repairs of one block, then (at small n) of two blocks are each checked as
one array, in a fixed order whose first hit wins.  A residual's squared
norm over its first rows is a sum of some of its non-negative terms,
hence a lower bound on the whole: every candidate is first built on a
fixed prefix of rows and only those within the bound there are built in
full, so refusing a garbage image costs a fraction of the residual rows.
Every norm the search and the ranking take is ModRing.norm2's.  A
returned answer always satisfies y = A*s + e exactly.

A block's nearest-plane value and ranked codewords depend only on its k
residues.  Where q^k <= 2^16 (q <= 16) they are kept in a per-modulus
block table, filled row by row the first time a block is met, so a
decode gathers its n rows in one lookup.  The table is a cache of that
computation, so every outcome is the one it gives.

A key is built from (Abar, R) alone and derives the rest once: A, the one
computation of the block identity, and its one piece of decode state, a
float64 copy of each matrix a decode multiplies by, A^T and R^T.  numpy
has no BLAS path for int64, so the decode's two products run in float64
through modq.exact_matmul, which is exact for residues; converting the
operands on every call would make a one-row decode slower than int64,
and one copy a key does not.  A fallback search builds every candidate
residual from that copy of A^T too.

Micro shapes (m < w + n) have no gadget and are inverted by a full search
over s in Z_q^n.  Its answer depends only on A and the image, so an
ImageTable, built from (ring, A), runs it once for all q^m images, in
integer arithmetic, and exhaustive_invert looks the image up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .gaussians import TruncGaussian
from .modq import (
    MAX_GRID,
    ModRing,
    SizeGuardError,
    exact_int,
    exact_matmul,
    float_operand,
    gadget_matrix,
    int_mat_from_json,
    mat_from_json,
    mat_to_json,
    residue_grid,
)

# A modulus with at most this many distinct blocks (q^k) keeps a table of
# block decodes, filled as blocks are met.
_TABLE_BLOCKS = 1 << 16
_FALLBACK_LIST = 6
_FALLBACK_PAIR_MAX_N = 8
# rows of a fallback candidate's residual built before the rest: a
# uniform image's candidates are all over the bound within 24 rows
_FALLBACK_PREFIX = 24


class DecodeFailure(Exception):
    """An image that did not invert, with its path's name as the message.
    Only clawfree.claw_from_image's one-image form raises it."""


# A decoded row's path, by its int8 code.  Codes below OVER_BOUND are the
# decoded rows, where a repair's code is the number of blocks it moved from
# the primary answer; TIED is an exhaustive decode's tied minimum.
PATHS = ("primary", "one-block repair", "pair repair", "no candidate within the noise bound",
         "ambiguous decode: tied minimal residuals")
PRIMARY, SINGLE, PAIR, OVER_BOUND, TIED = range(len(PATHS))


@dataclass(frozen=True)
class TrapdoorKey:
    """The trapdoor R of A = [Abar; G - R*Abar], built from (Abar, R): A is
    made with one float64 product through a contiguous copy of R, whose
    transpose is the decode's R^T."""

    ring: ModRing
    Abar: np.ndarray  # (mbar, n) residues
    R: np.ndarray  # (w, mbar) entries in {-1, 0, 1}
    A: np.ndarray = field(init=False, repr=False, compare=False)  # (m, n) residues
    AT: np.ndarray = field(init=False, repr=False, compare=False)
    RT: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ring, Rf = self.ring, float_operand(self.R)
        A = np.vstack([self.Abar, ring.reduce(gadget_matrix(ring, self.n) - exact_matmul(Rf, self.Abar))])
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "AT", float_operand(A.T))
        object.__setattr__(self, "RT", Rf.T)

    @property
    def mbar(self) -> int:
        return self.Abar.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.Abar.shape[1]

    @property
    def w(self) -> int:
        return self.n * self.ring.coord_bits


def gen_trap(ring: ModRing, n: int, m: int, rng: np.random.Generator) -> TrapdoorKey:
    """Sample (A, trapdoor) with A statistically close to uniform."""
    w = n * ring.coord_bits
    if m < w + n:
        raise ValueError(f"m = {m} too small: need m >= w + n = {w + n}")
    Abar = ring.uniform(rng, (m - w, n))
    R = rng.integers(-1, 2, size=(w, m - w), dtype=np.int64)
    return TrapdoorKey(ring, Abar, R)


# -- gadget-lattice decode structures, cached per modulus ------------------


def _perp_basis(q: int, k: int) -> np.ndarray:
    S = np.zeros((k, k), dtype=np.int64)
    for j in range(k - 1):
        S[j, j] = 2
        S[j + 1, j] = -1
    S[:, k - 1] = [(q >> i) & 1 for i in range(k)]
    # q = 2^k has no low bits set: its last basis vector is 2*e_k
    S[k - 1, k - 1] += 2 * (q >> k)
    return S


@functools.lru_cache(maxsize=16)
def _decode_data(ring: ModRing) -> dict:
    q = ring.q
    k = ring.coord_bits
    S = _perp_basis(q, k)
    # basis of the primal gadget lattice {t*g mod q} + q*Z^k, integral
    # entries kept as floats for the nearest-plane arithmetic
    D = np.rint(q * np.linalg.inv(S.T.astype(float)))
    # Gram-Schmidt for nearest-plane
    Q = np.zeros_like(D)
    for j in range(k):
        v = D[:, j].copy()
        for i in range(j):
            v -= (D[:, j] @ Q[:, i] / (Q[:, i] @ Q[:, i])) * Q[:, i]
        Q[:, j] = v
    data = {"k": k, "D": D, "Q": Q, "Qnorm2": (Q * Q).sum(axis=0)}
    # every codeword t*g mod q of a block, t in Z_q
    g = gadget_matrix(ring, 1)[:, 0]
    data["codebook"] = ring.reduce(np.outer(np.arange(q, dtype=np.int64), g))
    if q**k <= _TABLE_BLOCKS:
        # one row per block of residues, indexed in residue_grid order:
        # _block_rows' row for that block, or -1 until it is first met
        data["table"] = np.full((q**k, 1 + min(_FALLBACK_LIST, q)), -1, dtype=np.int8)
        data["place"] = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return data


def _block_decode_primary(ring: ModRing, data: dict, c: np.ndarray) -> np.ndarray:
    """Nearest-plane decode of every k-sized block of the centered c at
    once; the first coordinate of each recovered lattice point, mod q, is
    the block value."""
    k = data["k"]
    D, Q, n2 = data["D"], data["Q"], data["Qnorm2"]
    targets = c.reshape(-1, k).astype(float)
    t = targets.copy()
    for j in range(k - 1, -1, -1):
        coeff = np.rint(t @ Q[:, j] / n2[j])
        t -= coeff[:, None] * D[:, j][None, :]
    return np.rint(targets[:, 0] - t[:, 0]).astype(np.int64) % ring.q


def _rank_codewords(ring: ModRing, data: dict, c: np.ndarray) -> np.ndarray:
    """Every k-sized block of the centered c ranks all q codewords by
    syndrome distance (stable sort, so ties keep codeword order); the top
    min(_FALLBACK_LIST, q) of each block."""
    dist = ring.norm2(c.reshape(-1, 1, data["k"]) - data["codebook"])
    return np.argsort(dist, axis=1, kind="stable")[:, :_FALLBACK_LIST]


def _block_rows(ring: ModRing, data: dict, r: np.ndarray) -> np.ndarray:
    """One row per k-sized block of the residues r: the block's
    nearest-plane value, then, where the modulus has a table, its ranked
    codewords.  A row depends on the block's residues only, so it is
    looked up in the table, and computed and stored whole the first time
    its block is met.  Without a table only the value is computed."""
    table = data.get("table")
    if table is None:
        return _block_decode_primary(ring, data, ring.centered(r))[:, None]
    blocks = r.reshape(-1, data["k"])
    idx = blocks @ data["place"]
    rows = table[idx]
    new = rows[:, 0] < 0
    if new.any():
        c = ring.centered(blocks[new])
        rows[new, 0] = _block_decode_primary(ring, data, c)
        rows[new, 1:] = _rank_codewords(ring, data, c)
        table[idx[new]] = rows[new]
    return rows


def invert(key: TrapdoorKey, Y, max_norm: float):
    """Decode a stack of images, one a row, at once: (S, E, path), where
    row i has y = A*s + e exactly and the centered norm of e within
    max_norm when path[i] < OVER_BOUND (see PATHS).  One primary step,
    _nearest_plane, covers every block of every row (clawfree.gen checks a
    new key's own image with it alone); only the rows over the bound run
    the fallback search, whose hit names the row's path, or OVER_BOUND when
    none meets the bound.  One image is decoded as a one-row stack.

    Y's entries must lie in [0, q), as exact_matmul needs; the protocol
    checks every image at intake.
    """
    ring = key.ring
    Y = _stack(Y, key.m)
    data, r, blocks = _nearest_plane(key, Y)
    S = blocks[:, :, 0].astype(np.int64)
    # centered reduces the product, so it is not reduced before
    E = ring.centered(Y - exact_matmul(S, key.AT))
    ok = _within((E * E).sum(axis=1), max_norm)
    path = np.where(ok, PRIMARY, OVER_BOUND).astype(np.int8)
    for i in np.flatnonzero(~ok):
        ranked = blocks[i, :, 1:] if "table" in data else _rank_codewords(ring, data, ring.centered(r[i]))
        s, path[i] = _fallback_search(key, ranked, E[i], S[i], max_norm)
        if s is not None:
            S[i], E[i] = s, ring.centered(Y[i] - exact_matmul(s, key.AT))
    return S, E, path


def _nearest_plane(key: TrapdoorKey, Y: np.ndarray):
    """A decode's primary step over the int64 stack Y: (data, r, blocks),
    the modulus's _decode_data, r = [R | I]*Y mod q, and the _block_rows
    of r with shape (k, n, -1), whose first column is each row's
    nearest-plane answer."""
    ring = key.ring
    data = _decode_data(ring)
    r = ring.reduce(exact_matmul(Y[:, : key.mbar], key.RT) + Y[:, key.mbar :])
    return data, r, _block_rows(ring, data, r).reshape(len(Y), key.n, -1)


def _stack(Y, m: int) -> np.ndarray:
    """Y as an int64 stack of images of length m, one a row."""
    Y = np.asarray(Y, dtype=np.int64)
    if Y.ndim != 2 or Y.shape[1] != m:
        raise ValueError(f"images must have shape (k, {m})")
    return Y


def _fallback_search(key, ranked, e0, s_primary, max_norm):
    # The nearest-plane answer rarely misses by more than a block or two,
    # so repairs are searched in two batches.  Each block's ranked
    # codewords (from _block_rows) other than its primary value are its
    # candidates, listed block by block, rank by rank.  Single-block
    # repairs come first, then, at small n, repairs of two distinct blocks
    # in (block, block, candidate, candidate) order.  The first repair in
    # that order whose residual meets the bound wins; deeper misses are
    # reported as failures.  Residuals are e0 plus column deltas, never
    # full products, built unreduced in float64 from A^T: a pair's stays
    # below 2q^2 + q, in norm2's domain.  Returns the repaired s and the
    # stage that hit, SINGLE or PAIR, or (None, OVER_BOUND).
    ring = key.ring
    is_cand = ranked != s_primary[:, None]
    owner = np.nonzero(is_cand)[0]
    value = ranked[is_cand]
    # a candidate's column delta is step * A[:, j]: its prefix rows are
    # built for every candidate, the rest for prefix survivors only
    step = (s_primary[owner] - value).astype(float)[:, None]
    p = min(_FALLBACK_PREFIX, key.m)
    head = key.AT[owner, :p] * step
    single = head + e0[:p]

    def tail(cand):
        return key.AT[owner[cand], p:] * step[cand]

    s = s_primary.copy()
    i = _first_within(ring, single, lambda live: tail(live) + e0[p:], max_norm)
    if i is not None:
        s[owner[i]] = value[i]
        return s, SINGLE
    if key.n > _FALLBACK_PAIR_MAX_N:
        return None, OVER_BOUND
    # the pairs of candidates (j1, r1), (j2, r2) of blocks j1 < j2 are the
    # nonzeros of pairs, which C order lists in (block, block, candidate,
    # candidate) order; index numbers each candidate as owner lists it
    index = (np.cumsum(is_cand) - 1).reshape(is_cand.shape)
    j = np.arange(key.n)
    pairs = (j[:, None] < j)[:, :, None, None] & is_cand[:, None, :, None] & is_cand[None, :, None, :]
    j1, j2, r1, r2 = np.nonzero(pairs)
    a, b = index[j1, r1], index[j2, r2]

    def pair_tail(live):
        return tail(a[live]) + tail(b[live]) + e0[p:]

    i = _first_within(ring, head[a] + single[b], pair_tail, max_norm)
    if i is None:
        return None, OVER_BOUND
    s[owner[a[i]]], s[owner[b[i]]] = value[a[i]], value[b[i]]
    return s, PAIR


def _within(norms2, max_norm):
    return np.sqrt(norms2) <= max_norm


def _first_within(ring, prefix, tail, max_norm):
    """Index of the first candidate whose residual has centered norm within
    max_norm, or None.  prefix holds every candidate's residual on the
    leading rows; tail(live) builds the remaining rows for the candidates
    live only.  The prefix's squared norm is a sum of some of the full
    sum's non-negative terms and the test is monotone in it, so a
    candidate over the bound there fails the full test too and its tail
    is never built."""
    part = ring.norm2(prefix)
    live = np.flatnonzero(_within(part, max_norm))
    if not live.size:
        return None
    hits = np.flatnonzero(_within(part[live] + ring.norm2(tail(live)), max_norm))
    return int(live[hits[0]]) if hits.size else None


@dataclass(frozen=True)
class ImageTable:
    """Exhaustive decode of every image under one public A, for micro
    shapes without a gadget trapdoor (m < w + n), built from (ring, A).

    Row i is for the image y of index i in residue_grid(q, m) order, the
    first coordinate most significant: the s in Z_q^n, first in
    residue_grid order, whose residual y - A*s has the least centered
    norm, that residual, its squared norm, and whether another s attains
    the same norm.  The search covers q^(n+m) pairs (s, y): the image grid
    is bounded by residue_grid's guard on q^n, and past the state-space
    guard 2*q^(n+m) <= MAX_GRID that qsim also keeps, SizeGuardError is
    raised before the table's arrays are allocated."""

    ring: ModRing
    A: np.ndarray  # (m, n) residues
    s: np.ndarray = field(init=False, repr=False, compare=False)  # (q^m, n) residues
    e: np.ndarray = field(init=False, repr=False, compare=False)  # (q^m, m) centered
    norm2: np.ndarray = field(init=False, repr=False, compare=False)  # (q^m,) squared norm of e
    tied: np.ndarray = field(init=False, repr=False, compare=False)  # (q^m,) bool

    def __post_init__(self):
        ring, q = self.ring, self.ring.q
        m, n = self.A.shape
        grid = residue_grid(q, n)
        if 2 * q ** (n + m) > MAX_GRID:
            raise SizeGuardError(f"image table 2*q^(n+m) = {2 * q ** (n + m)} exceeds {MAX_GRID}")
        # c[t, s, j] is t - (A*s)_j centered, for every value t of a coordinate
        c = ring.centered(np.arange(q)[:, None, None] - (grid @ self.A.T)[None])
        sq = c * c
        # norm2[y, s] = |y - A*s|^2 with y in residue_grid order: an outer sum
        # of the coordinates' squared residues, first coordinate outermost
        norm2 = sq[:, :, 0]
        for j in range(1, m):
            norm2 = (norm2[:, None, :] + sq[None, :, :, j]).reshape(-1, q**n)
        best = norm2.argmin(axis=1)
        least = norm2[np.arange(q**m), best]
        object.__setattr__(self, "s", grid[best])
        object.__setattr__(self, "e", c[residue_grid(q, m), best[:, None], np.arange(m)])
        object.__setattr__(self, "norm2", least)
        object.__setattr__(self, "tied", (norm2 == least[:, None]).sum(axis=1) > 1)


def exhaustive_invert(table: ImageTable, Y, max_norm: float):
    """Trapdoor-free inversion at micro shapes: a stack of images, one a
    row, looked up at once in the key's ImageTable, with a row-wise result
    (S, E, path) as invert's.

    Row i holds the s whose residual e = y - A*s has the least centered
    norm, even where other s are also within max_norm.  Its path is
    OVER_BOUND if that least norm exceeds max_norm, TIED if another s
    attains it, else PRIMARY.  Y must have shape (k, m) and entries in
    [0, q), or ValueError is raised.
    """
    q = table.ring.q
    m = table.e.shape[1]
    Y = _stack(Y, m)
    # one unsigned compare: a negative int64 entry reads as 2^63 or more
    if (Y.view(np.uint64) >= q).any():
        raise ValueError(f"sample entries must lie in [0, {q})")
    i = Y @ q ** np.arange(m - 1, -1, -1)
    path = np.where(~_within(table.norm2[i], max_norm), OVER_BOUND, np.where(table.tied[i], TIED, PRIMARY))
    return table.s[i], table.e[i], path.astype(np.int8)


def measure_decode_radius(
    key: TrapdoorKey, rng: np.random.Generator, trials: int = 200
) -> float:
    """Largest probed noise norm below which every inversion succeeded.

    The theorem's constant is unspecified, so the usable radius is
    reported empirically: noise is drawn at a sweep of widths, each trial
    records (norm, success), and the report is the largest norm whose
    entire prefix succeeded."""
    ring = key.ring
    results = []
    widths = np.linspace(0.5, max(1.0, ring.q / 4), num=max(4, trials // 10))
    for width in widths:
        noise = TruncGaussian(ring, float(width))
        for _ in range(max(1, trials // len(widths))):
            e = noise.sample_vec(rng, key.m)
            nrm = ring.norm(e)
            s = ring.uniform(rng, key.n)
            y = ring.reduce(exact_matmul(s, key.AT) + e)
            S, _, path = invert(key, y[None], max_norm=nrm + 1e-9)
            results.append((nrm, path[0] < OVER_BOUND and np.array_equal(S[0], s)))
    results.sort()
    radius = 0.0
    for nrm, ok in results:
        if not ok:
            break
        radius = nrm
    return radius


# -- serialization ---------------------------------------------------------


def trapdoor_to_json(key: TrapdoorKey) -> dict:
    return {
        "A": mat_to_json(key.ring, key.A),
        "R": {"rows": key.R.shape[0], "cols": key.R.shape[1], "data": key.R.reshape(-1).tolist()},
        "layout": {"mbar": key.mbar},
    }


def trapdoor_from_json(obj: dict) -> TrapdoorKey:
    """Load a trapdoor, raising ValueError unless its layout holds, its A
    is the one Abar = A[:mbar] and R make, and R is ternary.  Only the
    tests call it, through clawfree.keypair_from_json, which is kept as
    the checked reader of what `keygen --secret-out` writes."""
    ring, A = mat_from_json(obj["A"])
    R = int_mat_from_json(obj["R"])
    mbar = exact_int(obj["layout"]["mbar"])
    m, n = A.shape
    if not 1 <= mbar < m or m - mbar != n * ring.coord_bits or R.shape != (m - mbar, mbar):
        raise ValueError(
            "trapdoor layout needs 1 <= mbar < m, m - mbar = n*ceil(log2 q) and R of shape (m - mbar, mbar)"
        )
    key = TrapdoorKey(ring, A[:mbar], R)
    if not np.array_equal(key.A, A):
        raise ValueError("trapdoor block identity A = [Abar; G - R*Abar] violated")
    if np.any(np.abs(R) > 1):
        raise ValueError("R entries must lie in {-1, 0, 1}")
    return key


__all__ = [
    "DecodeFailure",
    "PATHS", "PRIMARY", "SINGLE", "PAIR", "OVER_BOUND", "TIED",
    "TrapdoorKey",
    "gen_trap",
    "invert",
    "ImageTable",
    "exhaustive_invert",
    "measure_decode_radius",
    "trapdoor_to_json",
    "trapdoor_from_json",
]
