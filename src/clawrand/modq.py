"""Exact arithmetic over Z_q, 2 <= q <= MAX_Q = 4096: centered
representatives, norms, bit maps, and the powers-of-two gadget matrix.

Every residue array is int64 in [0, q).  It is reduced only where
arithmetic leaves that range (sums, products, ``centered``) and checked
where it enters from outside (``mat_from_json``, ``keypair_from_json``,
the protocol's sample and answer checks) after ``exact_int``/``exact_int64``,
the one integer rule for outside values; nothing re-reduces it.  The
centered representative of x, the unique integer in (-q/2, q/2]
congruent to x, is taken only at norm/decoding boundaries.  All
operations are pure; values are never mutated in place.

An integer array becomes a JSON value through ``.tolist()``, which
yields builtin ints, in the dict writers (``mat_to_json``, the key and
trapdoor writers, ``RoundRecord.as_dict`` and wire frames), and
``canonical_json`` encodes those dicts.  Two texts are instead rendered
from a per-modulus table of encoded residues (``residues_text``), since
formatting each residue through ``json`` is their largest cost: a public
key's text (``mat_json_text``), which ``keygen --public-out`` writes and
the key digests hash, and a protocol-1 record's line in a transcript.
Each is the exact string ``canonical_json`` gives for its dict, and
``tests/test_json_writers.py`` pins the two together.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

# The largest modulus ModRing accepts, and the one statement of which
# moduli run: the trapdoor decode enumerates all q codewords of a block,
# and every product of residue matrices is exact in float64 (exact_matmul).
# Profiles above it are print-only.
MAX_Q = 4096


def coord_bits(q: int) -> int:
    """Bits per coordinate in the binary encoding of Z_q: ceil(log2 q)."""
    return max(1, (q - 1).bit_length())


class SizeGuardError(Exception):
    """An enumeration or state-space guard was exceeded."""


@dataclass(frozen=True)
class ModRing:
    """The ring Z_q, 2 <= q <= MAX_Q; prime in all claw-free uses."""

    q: int

    def __post_init__(self):
        if not (2 <= self.q <= MAX_Q):
            raise ValueError(f"modulus must be in [2, {MAX_Q}], got {self.q}")

    @property
    def coord_bits(self) -> int:
        return coord_bits(self.q)

    def reduce(self, a) -> np.ndarray:
        return _mod(np.asarray(a, dtype=np.int64), self.q)

    def centered(self, a) -> np.ndarray:
        """Unique representative in (-q/2, q/2] of each entry."""
        r = self.reduce(a)
        return np.where(r > self.q // 2, r - self.q, r)

    def abs(self, a) -> np.ndarray:
        return np.abs(self.centered(a))

    def norm2(self, x) -> np.ndarray:
        """Squared Euclidean norm of the centered representatives along the
        last axis of x, as float64.  x holds integers, int64 or float64, of
        magnitude below 2^51, reduced or not: x - q*rint(x/q) is x's
        centered residue, or -q/2 for q/2, which squares alike.  x/q is
        taken as x * (1/q), whose rounding error stays inside the 1/(2q) by
        which x/q misses a half, and the sum of squares stays below 2^53,
        so the result is exact."""
        x = np.asarray(x, dtype=np.float64)
        c = x - self.q * np.rint(x * (1.0 / self.q))
        return np.einsum("...i,...i->...", c, c)

    def norm(self, v):
        """Euclidean norm of the centered representatives of a vector v, or
        an array of the norms of each row of a stack v: the square root of
        norm2, so of an exact integer."""
        norms = np.sqrt(self.norm2(v))
        return float(norms) if norms.ndim == 0 else norms

    def uniform(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.q, size=shape, dtype=np.int64)

    def matmul(self, a, b) -> np.ndarray:
        """a @ b mod q, through exact_matmul, whose bound on the entries of
        a and b holds here too."""
        return _mod(exact_matmul(a, b), self.q)


def exact_matmul(a, b) -> np.ndarray:
    """a @ b, unreduced, as int64, computed in float64 so that numpy hands
    it to BLAS (it has no BLAS path for int64).  a and b hold integers of
    magnitude at most q - 1 for a modulus q <= MAX_Q (residues, or R's
    ternary entries); either may be passed already as float64, as a key's
    copies are (float_operand), and is then used without a conversion.

    The result is exact: every partial sum of every dot product, in
    whatever order BLAS adds them, is an integer of magnitude at most
    inner * (q - 1)^2 < 2^29 * 2^24 = 2^53 for an inner size below 2^29,
    and float64 holds every such integer exactly."""
    return np.matmul(a, b, dtype=np.float64).astype(np.int64)


def float_operand(a) -> np.ndarray:
    """a as a C-contiguous float64 copy: the form in which a key keeps
    each matrix it multiplies by, for exact_matmul."""
    return np.ascontiguousarray(a, dtype=np.float64)


# numpy vectorises int64 floor division by a scalar but not int64 np.mod,
# so from about this many entries a - (a // q) * q is faster (half the time
# on gen_trap's 128x32 block); below it one np.mod call is cheaper than three
_FLOOR_DIV_MIN = 2048


def _mod(a: np.ndarray, q: int) -> np.ndarray:
    """a mod q in [0, q) for an int64 array a, out of place."""
    if a.size < _FLOOR_DIV_MIN:
        return np.mod(a, q)
    return a - (a // q) * q


# The one enumeration limit: the most rows residue_grid builds, and the most
# entries in a qsim state vector or a parity-count table.
MAX_GRID = 1_000_000


def residue_grid(q: int, n: int) -> np.ndarray:
    """(q^n, n) array of every vector in Z_q^n, first coordinate most
    significant in the row index.  Raises SizeGuardError past MAX_GRID rows."""
    if q**n > MAX_GRID:
        raise SizeGuardError(f"enumeration of Z_q^n infeasible: q^n = {q**n} exceeds {MAX_GRID}")
    return np.indices((q,) * n, dtype=np.int64).reshape(n, -1).T


def bit_encode(ring: ModRing, x) -> np.ndarray:
    """Per-coordinate little-endian bit expansion of residues in [0, q).

    Coordinate i of x occupies bits [i*k, (i+1)*k) of the output, with
    k = ceil(log2 q).  Injective on Z_q^n.
    """
    x = np.atleast_1d(x)
    k = ring.coord_bits
    shifts = np.arange(k, dtype=np.int64)
    return ((x[:, None] >> shifts) & 1).reshape(-1)


@functools.lru_cache(maxsize=16)
def gadget_matrix(ring: ModRing, n: int) -> np.ndarray:
    """Block-diagonal (n*k, n) matrix with per-coordinate columns (1,2,4,...).
    Built once per (ring, n), since every key of a profile takes it, and
    read-only, since every caller shares it."""
    k = ring.coord_bits
    g = 1 << np.arange(k, dtype=np.int64)  # 2^(k-1) < q
    G = np.zeros((n, k, n), dtype=np.int64)
    i = np.arange(n)
    G[i, :, i] = g
    G = G.reshape(n * k, n)
    G.flags.writeable = False
    return G


def exact_int(v) -> int:
    """int(v), refusing (ValueError) a v the conversion would change: a
    fraction, or a string.  int() itself refuses NaN and inf."""
    i = int(v)
    if i != v:
        raise ValueError(f"{v!r} is not an integer")
    return i


def exact_int64(v) -> np.ndarray:
    """v as an int64 array.  Integer and bool arrays convert as they
    are; any other array must convert unchanged, so a fraction, NaN, inf
    or a value outside int64 is refused (ValueError or OverflowError)."""
    arr = np.asarray(v)
    if arr.dtype.kind in "biu":
        return arr.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):  # NaN and inf are refused below
        out = arr.astype(np.int64)
    if not np.array_equal(out, arr):
        raise ValueError("entries are not integers")
    return out


def mat_to_json(ring: ModRing, m) -> dict:
    m = np.atleast_2d(m)
    rows, cols = m.shape
    return {"q": ring.q, "rows": rows, "cols": cols, "data": m.reshape(-1).tolist()}


@functools.lru_cache(maxsize=16)
def _residue_text(q: int) -> np.ndarray:
    # "r," in ASCII for every residue r, NUL-padded to 4 or 8 bytes and
    # viewed as one unsigned integer each, so a gather is a plain copy;
    # 4 bytes, enough for q <= 1000, halve the bytes gathered and stripped
    width = 4 if q <= 1000 else 8
    return np.array([f"{r},".encode() for r in range(q)], dtype=f"S{width}").view(f"u{width}")


def residues_text(ring: ModRing, v) -> str:
    """The comma-joined decimal texts of residues v, flattened in C order,
    each gathered from a per-modulus table: the inside of a JSON array of
    v's entries.  Refuses (ValueError) an entry outside [0, q) rather than
    letting a negative index wrap."""
    v = exact_int64(v).reshape(-1)
    # a negative entry would wrap, so it is refused here; one at or above q
    # fails the gather's own bounds check, which saves a second reduction
    if v.size and v.min() < 0:
        raise ValueError("entries outside [0, q)")
    try:
        texts = _residue_text(ring.q)[v]
    except IndexError:
        raise ValueError("entries outside [0, q)") from None
    return texts.tobytes().translate(None, b"\0")[:-1].decode()


def mat_json_text(ring: ModRing, m) -> str:
    """canonical_json(mat_to_json(ring, m)) for residues m, rendered by
    residues_text."""
    m = np.atleast_2d(m)
    rows, cols = m.shape
    return f'{{"cols":{cols},"data":[{residues_text(ring, m)}],"q":{ring.q},"rows":{rows}}}'


def vec_to_json(ring: ModRing, v) -> dict:
    return mat_to_json(ring, np.atleast_1d(v)[:, None])


def int_mat_from_json(obj: dict) -> np.ndarray:
    """obj's "data" as an int64 (rows, cols) array, its declared shape checked."""
    rows, cols = exact_int(obj["rows"]), exact_int(obj["cols"])
    data = exact_int64(obj["data"])
    if rows < 0 or cols < 0 or data.size != rows * cols:
        raise ValueError("matrix data length does not match declared shape")
    return data.reshape(rows, cols)


def mat_from_json(obj: dict) -> tuple[ModRing, np.ndarray]:
    ring = ModRing(exact_int(obj["q"]))
    m = int_mat_from_json(obj)
    if np.any((m < 0) | (m >= ring.q)):
        raise ValueError("matrix entries outside [0, q)")
    return ring, m


def vec_from_json(obj: dict) -> tuple[ModRing, np.ndarray]:
    ring, m = mat_from_json(obj)
    if m.shape[1] != 1:
        raise ValueError("vector serialization must have cols == 1")
    return ring, m[:, 0]


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj) -> str:
    """Stable single-line encoding used for transcripts and wire messages."""
    return _CANONICAL.encode(obj)
