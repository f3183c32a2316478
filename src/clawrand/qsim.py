"""Exact state-vector simulation of the honest quantum prover at micro
scale, plus the trapdoor-backed classical stand-in that reproduces its
statistics at any scale.

The prover's state lives on (b, x, y) with amplitude
sqrt(density_public(b, x)(y) / (2 * q^n)); measuring y collapses onto the
preimage branches, after which either the preimage registers are read out
directly, or the bit encoding of (b, x) is sent through a (w+1)-fold
Hadamard and measured, yielding (u, d) with u = d.(J(x0) xor J(x1)) on
every outcome when the key noise is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clawfree import KeyPair, PublicKey, claw_equation_bit, claw_partner
from .modq import ModRing, SizeGuardError, bit_encode

_STATE_GUARD = 1_000_000


def _index_grid(q: int, n: int) -> np.ndarray:
    """(q^n, n) array of all residue vectors, first coordinate most
    significant in the flat index."""
    return np.indices((q,) * n).reshape(n, -1).T.astype(np.int64)


@dataclass
class PreparedState:
    pub: PublicKey
    amps: np.ndarray  # (2, q^n, q^m) real amplitudes

    @property
    def ring(self) -> ModRing:
        return self.pub.ring

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
    if dim > _STATE_GUARD:
        raise SizeGuardError(f"state dimension {dim} exceeds {_STATE_GUARD}")
    ring = pub.ring
    dens = pub.noise_dist().density_table()  # per-coordinate, by residue
    xs = _index_grid(q, n)
    shifts = {b: ring.reduce(xs @ pub.A.T + b * pub.u[None, :]) for b in (0, 1)}
    ycoord = np.arange(q)
    amps = np.zeros((2, q**n, q**m))
    for b in (0, 1):
        for xi in range(q**n):
            # product density over y via outer products, coordinate by coordinate
            block = np.array([1.0])
            for j in range(m):
                col = dens[np.mod(ycoord - shifts[b][xi, j], q)]
                block = np.multiply.outer(block, col).reshape(-1)
            amps[b, xi] = block
    amps = np.sqrt(amps / (2 * q**n))
    return PreparedState(pub, amps)


def measure_image(state: PreparedState, rng: np.random.Generator) -> CollapsedState:
    """Born-rule measurement of the image register."""
    prof = state.pub.profile
    q, m = prof.q, prof.m
    probs = (state.amps**2).sum(axis=(0, 1))
    yi = int(rng.choice(probs.size, p=probs / probs.sum()))
    collapsed = state.amps[:, :, yi] / math.sqrt(probs[yi])
    digits = [(yi // q** (m - 1 - j)) % q for j in range(m)]
    return CollapsedState(state.pub, np.array(digits, dtype=np.int64), collapsed)


def measure_preimage(col: CollapsedState, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Read out (b, x) from a collapsed state."""
    prof = col.pub.profile
    probs = (col.amps**2).reshape(-1)
    i = int(rng.choice(probs.size, p=probs / probs.sum()))
    b, xi = divmod(i, prof.q**prof.n)
    x = _index_grid(prof.q, prof.n)[xi]
    return b, x


def _fwht(v: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform (unnormalized)."""
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
    ring = col.pub.ring
    q, n = prof.q, prof.n
    w = prof.w
    if 2 ** (w + 1) > _STATE_GUARD:
        raise SizeGuardError(f"bit register 2^{w + 1} exceeds {_STATE_GUARD}")
    xs = _index_grid(q, n)
    psi = np.zeros(2 ** (w + 1))
    pow2 = 1 << np.arange(w, dtype=np.int64)
    for b in (0, 1):
        for xi in range(q**n):
            a = col.amps[b, xi]
            if a == 0.0:
                continue
            jint = int(bit_encode(ring, xs[xi]) @ pow2)
            psi[(b << w) | jint] += a
    out = _fwht(psi) / math.sqrt(psi.size)
    probs = out**2
    t = int(rng.choice(probs.size, p=probs / probs.sum()))
    u, dint = t >> w, t & ((1 << w) - 1)
    d = (dint >> np.arange(w, dtype=np.int64)) & 1
    return u, d.astype(np.int64)


def equation_violation_bound(key: KeyPair) -> float:
    """Trace-distance bound on the equation-test failure rate induced by
    preparing from the public shift u instead of the exact secret shift
    A*s: computed exactly from the two state vectors at micro scale."""
    pub = key.public
    ring = pub.ring
    exact_shift = ring.reduce(ring.matmul(pub.A, key.s_bits))
    ideal = prepare_sampling_state(PublicKey(pub.profile, pub.A, exact_shift))
    actual = prepare_sampling_state(pub)
    fid = float((ideal.amps * actual.amps).sum())
    return math.sqrt(max(0.0, 1.0 - fid * fid))


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
        key = self._key
        prof = key.profile
        ring = key.ring
        self._b = int(self.rng.integers(0, 2))
        self._x = ring.uniform(self.rng, prof.n)
        e0 = key.public.noise_dist().sample_vec(self.rng, prof.m)
        return ring.reduce(ring.matmul(key.public.A, self._x) + self._b * key.public.u + e0)

    def answer(self, challenge: int, t=None):
        if challenge == 1:
            return ("pre", self._b, self._x)
        key = self._key
        w = key.profile.w
        d = self.rng.integers(0, 2, size=w, dtype=np.int64)
        x0 = self._x if self._b == 0 else claw_partner(key, 1, self._x)
        x1 = claw_partner(key, 0, x0)
        u = claw_equation_bit(key.ring, x0, x1, d)
        return ("eq", u, d)
