"""Exact state-vector simulation of the honest quantum prover at micro
scale, plus the trapdoor-backed classical stand-in that reproduces its
statistics at any scale.

The prover's state lives on (b, x, y) with amplitude
sqrt(density_public(b, x)(y) / (2 * q^n)); measuring y collapses onto the
preimage branches, after which either the preimage registers are read out
directly, or the bit encoding of (b, x) is sent through a (w+1)-fold
Hadamard and measured, yielding (u, d) with u = d.(J(x0) xor J(x1)) on
every outcome when the key noise is zero.

The image marginal and its cdf depend only on the key, so they are
computed once, when the state is prepared.  A draw searches a cdf as
Generator.choice does, with the same single rng.random() draw, so the
outcomes and the stream are choice's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clawfree import KeyPair, PublicKey, claw_equation_bit, claw_through, sample_branch
from .gaussians import hellinger_sq
from .modq import MAX_GRID, SizeGuardError, residue_grid


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The cdf that Generator.choice(probs.size, p=probs / probs.sum())
    searches."""
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """The index Generator.choice draws from cdf's distribution, with the
    same single rng.random() draw."""
    return int(cdf.searchsorted(rng.random(), side="right"))


@dataclass
class PreparedState:
    pub: PublicKey
    amps: np.ndarray  # (2, q^n, q^m) real amplitudes
    probs: np.ndarray  # (q^m,) image marginal
    image_cdf: np.ndarray  # (q^m,)

    def norm(self) -> float:
        return float(np.sqrt((self.amps**2).sum()))


@dataclass
class CollapsedState:
    pub: PublicKey
    y: np.ndarray  # (m,) residues
    amps: np.ndarray  # (2, q^n) real amplitudes over (b, x)


def prepare_sampling_state(pub: PublicKey) -> PreparedState:
    """Amplitudes sqrt(f(b,x)(y) / (2 q^n)) over both branches."""
    prof = pub.profile
    q, n, m = prof.q, prof.n, prof.m
    dim = 2 * q ** (n + m)
    if dim > MAX_GRID:
        raise SizeGuardError(f"state dimension {dim} exceeds {MAX_GRID}")
    dens = pub.noise_dist().density_table()  # per-coordinate, by residue
    shifts = pub.ring.reduce(residue_grid(q, n) @ pub.A.T + np.arange(2)[:, None, None] * pub.u)
    # cols[b, x, j] is coordinate j's density over y_j; the product density
    # over y is their outer product, taken coordinate by coordinate
    cols = dens[(np.arange(q) - shifts[..., None]) % q]  # (2, q^n, m, q)
    amps = cols[:, :, 0]
    for j in range(1, m):
        amps = (amps[..., :, None] * cols[:, :, j, None, :]).reshape(2, q**n, -1)
    amps = np.sqrt(amps / (2 * q**n))
    probs = (amps**2).sum(axis=(0, 1))
    return PreparedState(pub, amps, probs, _cdf(probs))


def measure_image(state: PreparedState, rng: np.random.Generator) -> CollapsedState:
    """Born-rule measurement of the image register."""
    prof = state.pub.profile
    yi = _draw(state.image_cdf, rng)
    collapsed = state.amps[:, :, yi] / math.sqrt(state.probs[yi])
    y = np.array(np.unravel_index(yi, (prof.q,) * prof.m), dtype=np.int64)
    return CollapsedState(state.pub, y, collapsed)


def measure_preimage(col: CollapsedState, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Read out (b, x) from a collapsed state."""
    prof = col.pub.profile
    i = _draw(_cdf((col.amps**2).reshape(-1)), rng)
    b, *x = np.unravel_index(i, (2,) + (prof.q,) * prof.n)
    return int(b), np.array(x, dtype=np.int64)


def _fwht(v: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform (unnormalized) of a copy of v."""
    h = 1
    v = v.copy()
    while h < v.size:
        v = v.reshape(-1, 2 * h)
        a = v[:, :h].copy()
        b = v[:, h:].copy()
        v[:, :h] = a + b
        v[:, h:] = a - b
        v = v.reshape(-1)
        h *= 2
    return v


def measure_equation(col: CollapsedState, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Encode (b, x) into bits, Hadamard all w+1 of them, measure (u, d)."""
    prof = col.pub.profile
    q, n, w = prof.q, prof.n, prof.w
    if 2 ** (w + 1) > MAX_GRID:
        raise SizeGuardError(f"bit register 2^{w + 1} exceeds {MAX_GRID}")
    # bit_encode puts coordinate i at bits [i*k, (i+1)*k), so the register
    # index of x is sum_i x_i * 2^(i*k)
    jint = residue_grid(q, n) @ (1 << (col.pub.ring.coord_bits * np.arange(n, dtype=np.int64)))
    psi = np.zeros(2 ** (w + 1))
    psi[(np.arange(2)[:, None] << w) | jint] = col.amps
    out = _fwht(psi) / math.sqrt(psi.size)
    t = _draw(_cdf(out**2), rng)
    u, dint = t >> w, t & ((1 << w) - 1)
    d = (dint >> np.arange(w, dtype=np.int64)) & 1
    return u, d.astype(np.int64)


def equation_violation_bound(key: KeyPair) -> float:
    """Trace-distance bound on the equation-test failure rate induced by
    preparing from the public shift u instead of the exact secret shift
    A*s.

    The two states agree on branch 0; on branch 1 every x shifts the
    density by A*x + u in one and A*x + A*s in the other, which differ by
    the key noise e, and the sum over y is translation invariant.  So the
    fidelity is 1 - H^2/2 with H^2 = H^2(D_{B_P}, D_{B_P} + e), and the
    bound sqrt(1 - fid^2) is sqrt(H^2 * (1 - H^2/4)).  Closed form, no
    state vector, valid at every profile."""
    h2 = hellinger_sq(key.public.noise_dist(), key.e)
    return math.sqrt(h2 * (1.0 - h2 / 4.0))


class SimulatedProver:
    """Protocol adapter driving the exact state-vector simulation.

    Uses only the public key; restricted to micro-scale profiles by the
    state-space guard."""

    wants_trapdoor = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._prepared: PreparedState | None = None
        self._collapsed: CollapsedState | None = None

    def new_key(self, pub: PublicKey):
        self._prepared = prepare_sampling_state(pub)

    def next_sample(self) -> np.ndarray:
        self._collapsed = measure_image(self._prepared, self.rng)
        return self._collapsed.y

    def answer(self, challenge: int, t=None):
        if challenge == 0:
            u, d = measure_equation(self._collapsed, self.rng)
            return ("eq", u, d)
        b, x = measure_preimage(self._collapsed, self.rng)
        return ("pre", b, x)


class IdealProver:
    """Classically samples the honest prover's exact output distribution,
    using the trapdoor secret as a stand-in for quantum power.

    Simulation privilege: receives the full key pair from the engine and
    must never be deployed as evidence of quantumness."""

    wants_trapdoor = True

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._key: KeyPair | None = None
        self._b = 0
        self._x = None

    def new_key(self, key: KeyPair):
        self._key = key

    def next_sample(self) -> np.ndarray:
        self._b = int(self.rng.integers(0, 2))
        self._x, y = sample_branch(self._key.public, self._b, self.rng)
        return y

    def answer(self, challenge: int, t=None):
        if challenge == 1:
            return ("pre", self._b, self._x)
        key = self._key
        w = key.profile.w
        d = self.rng.integers(0, 2, size=w, dtype=np.int64)
        u = claw_equation_bit(key.ring, *claw_through(key, self._b, self._x), d)
        return ("eq", u, d)
