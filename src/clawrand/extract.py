"""Post-processing: Toeplitz hashing over GF(2) and empirical entropy
diagnostics.

A Toeplitz matrix indexed by a random seed of n_in + n_out - 1 bits is a
two-universal hash family, so feeding it a string with enough min-entropy
leaves output close to uniform (leftover hashing; quantum-proof for
two-universal families).  The empirical estimator here is a per-symbol
diagnostic, not the conditional smooth min-entropy the security statement
is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ToeplitzSeed:
    bits: np.ndarray
    n_in: int
    n_out: int

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.int64)
        if self.n_out < 1:
            raise ValueError(f"output length must be at least 1, got {self.n_out}")
        if self.n_out > self.n_in:
            raise ValueError("output length cannot exceed input length")
        if bits.shape != (self.n_in + self.n_out - 1,):
            raise ValueError(
                f"seed needs {self.n_in + self.n_out - 1} bits, got {bits.shape}"
            )
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("seed must be binary")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def random(cls, rng: np.random.Generator, n_in: int, n_out: int) -> "ToeplitzSeed":
        return cls(rng.integers(0, 2, size=n_in + n_out - 1, dtype=np.int64), n_in, n_out)

    def matrix(self) -> np.ndarray:
        """The (n_out, n_in) matrix T with T[i, j] = seed[i - j + n_in - 1]."""
        idx = np.arange(self.n_out)[:, None] - np.arange(self.n_in)[None, :] + self.n_in - 1
        return self.bits[idx]


def extract(seed: ToeplitzSeed, bits_in) -> np.ndarray:
    """T @ x over GF(2).  T is Toeplitz, so the product is a convolution of
    the seed with x; it is computed by FFT at every size."""
    x = np.asarray(bits_in, dtype=np.int64)
    if x.shape != (seed.n_in,):
        raise ValueError(f"input must have {seed.n_in} bits, got {x.shape}")
    if np.any((x != 0) & (x != 1)):
        raise ValueError("input must be binary")
    # out[i] = sum_j seed[i - j + n_in - 1] x[j] = conv(seed, x)[i + n_in - 1];
    # FFT convolution is exact here: coefficients are bounded by n_in, far
    # below the 2^53 integer ceiling of binary64
    n = int(2 ** math.ceil(math.log2(seed.bits.size + x.size)))
    conv = np.fft.irfft(np.fft.rfft(seed.bits, n) * np.fft.rfft(x, n), n)
    counts = np.rint(conv[seed.n_in - 1 : seed.n_in - 1 + seed.n_out])
    if np.abs(conv[seed.n_in - 1 : seed.n_in - 1 + seed.n_out] - counts).max() > 1e-3:
        raise ArithmeticError("convolution failed to round to integers")
    return counts.astype(np.int64) & 1


def extraction_length(rate: float, n_gen: int) -> int:
    """Output-length convention: floor(rate * n_gen) - 2*log2(1/delta_ext),
    the leftover-hashing loss at delta_ext = 2^-40; clamped at zero."""
    return max(0, int(math.floor(rate * n_gen)) - 80)


def empirical_min_entropy(samples) -> float:
    """-log2 of the maximum empirical symbol frequency (bits per symbol)."""
    arr = np.asarray(samples)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    if arr.ndim == 1:
        _, counts = np.unique(arr, return_counts=True)
    else:
        _, counts = np.unique(arr, axis=0, return_counts=True)
    return float(np.log2(arr.shape[0] / counts.max()))


# -- bit-stream health tests ---------------------------------------------------


def monobit_p(bits) -> float:
    """Two-sided p-value for the ones/zeros balance."""
    bits = np.asarray(bits, dtype=np.int64)
    n = bits.size
    s = abs(int((2 * bits - 1).sum()))
    return math.erfc(s / math.sqrt(2.0 * n))


def runs_p(bits) -> float:
    """p-value for the number of runs, conditioned on the observed bias.

    Returns 0.0 when the bias precondition fails (monobit would already
    have flagged the stream)."""
    bits = np.asarray(bits, dtype=np.int64)
    n = bits.size
    pi = bits.mean()
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int((bits[1:] != bits[:-1]).sum())
    num = abs(v - 2.0 * n * pi * (1 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1 - pi)
    return math.erfc(num / den)


# -- hex-line bit files ---------------------------------------------------------

_LINE_BITS = 256


def bits_to_hex(bits) -> str:
    """Pack bits (zero-padded to a nibble) into newline-separated hex, 64
    hex digits per line."""
    bits = np.asarray(bits, dtype=np.int64)
    pad = (-bits.size) % 4
    padded = np.concatenate([bits, np.zeros(pad, dtype=np.int64)])
    nibbles = padded.reshape(-1, 4) @ np.array([8, 4, 2, 1])
    digits = "".join("0123456789abcdef"[int(v)] for v in nibbles)
    lines = [digits[i : i + _LINE_BITS // 4] for i in range(0, len(digits), _LINE_BITS // 4)]
    return "\n".join(lines)


def hex_to_bits(text: str) -> np.ndarray:
    digits = "".join(text.split())
    if digits == "":
        return np.zeros(0, dtype=np.int64)
    vals = np.array([int(c, 16) for c in digits], dtype=np.int64)
    return ((vals[:, None] >> np.array([3, 2, 1, 0])) & 1).reshape(-1)
