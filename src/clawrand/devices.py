"""Finite-dimensional device analysis: simplified devices, measurement
overlap, principal-angle (Jordan) decompositions of projector pairs, the
good/bad-subspace split, post-measurement states, the per-round
entropy-rate curve, and martingale tail bounds.

Everything here is dense linear algebra at dimension <= 64; analysis
scale, not cryptographic scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_DIM_GUARD = 64
_PROJ_TOL = 1e-9
LOG2_E = math.log2(math.e)


def _is_projector(P: np.ndarray, tol: float = _PROJ_TOL) -> bool:
    return (
        P.shape[0] == P.shape[1]
        and np.allclose(P, P.conj().T, atol=tol)
        and np.allclose(P @ P, P, atol=tol)
    )


def operator_norm(X: np.ndarray) -> float:
    return float(np.linalg.norm(X, ord=2))


@dataclass(frozen=True)
class SimplifiedDevice:
    """Per-image family of states and three projective measurements.

    For each image index y: a positive state phi_y (trace at most 1 in
    total), the preimage measurement (Pi0, Pi1, Pi2 = rest), the binary
    equation measurement (M1 = "claims valid", M0 = rest), and the
    good/bad-subspace measurement (K0 good, K1 bad), with K commuting with
    both Pi and M blockwise.
    """

    phi: np.ndarray  # (ny, d, d)
    Pi0: np.ndarray
    Pi1: np.ndarray
    M0: np.ndarray
    K0: np.ndarray

    @property
    def ny(self) -> int:
        return self.phi.shape[0]

    @property
    def dim(self) -> int:
        return self.phi.shape[1]

    def Pi2(self, y: int) -> np.ndarray:
        return np.eye(self.dim) - self.Pi0[y] - self.Pi1[y]

    def M1(self, y: int) -> np.ndarray:
        return np.eye(self.dim) - self.M0[y]

    def K1(self, y: int) -> np.ndarray:
        return np.eye(self.dim) - self.K0[y]

    def image_weights(self) -> np.ndarray:
        return np.real(np.trace(self.phi, axis1=1, axis2=2))

    def validate(self):
        if self.dim > _DIM_GUARD:
            raise ValueError(f"dimension {self.dim} exceeds guard {_DIM_GUARD}")
        for y in range(self.ny):
            for name, P in [
                ("Pi0", self.Pi0[y]),
                ("Pi1", self.Pi1[y]),
                ("Pi2", self.Pi2(y)),
                ("M0", self.M0[y]),
                ("K0", self.K0[y]),
            ]:
                if not _is_projector(P):
                    raise ValueError(f"{name}[{y}] is not a projector")
            eigs = np.linalg.eigvalsh(self.phi[y])
            if eigs.min() < -_PROJ_TOL:
                raise ValueError(f"phi[{y}] is not positive semidefinite")
            for name, P in [("M0", self.M0[y]), ("Pi0", self.Pi0[y]), ("Pi1", self.Pi1[y])]:
                if np.abs(self.K0[y] @ P - P @ self.K0[y]).max() > _PROJ_TOL:
                    raise ValueError(f"K does not commute with {name}[{y}]")
        if self.image_weights().sum() > 1 + 1e-6:
            raise ValueError("total state weight exceeds 1")


def overlap(dev: SimplifiedDevice) -> float:
    """max_y || K0 (Pi0 M1 Pi0 + Pi1 M1 Pi1) ||: alignment of the equation
    measurement with the preimage basis inside the good subspace."""
    best = 0.0
    for y in range(dev.ny):
        M1 = dev.M1(y)
        inner = dev.Pi0[y] @ M1 @ dev.Pi0[y] + dev.Pi1[y] @ M1 @ dev.Pi1[y]
        best = max(best, operator_norm(dev.K0[y] @ inner))
    return best


def honest_qubit_device() -> SimplifiedDevice:
    """The intended single-qubit device: |+> state, computational preimage
    basis, Hadamard-basis equation measurement, trivial good subspace."""
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    e0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    e1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    return SimplifiedDevice(
        phi=plus[None, :, :].copy(),
        Pi0=e0[None, :, :],
        Pi1=e1[None, :, :],
        M0=minus[None, :, :],  # M1 = |+><+| claims a valid equation
        K0=np.eye(2, dtype=complex)[None, :, :],
    )


# -- principal angles --------------------------------------------------------


@dataclass(frozen=True)
class JordanBlock:
    """One invariant block of a projector pair.

    cos2 is the squared cosine of the principal angle.  Two-dimensional
    blocks carry (v, w) with v in range(P), w in its complement; padded
    one-dimensional blocks carry a single vector and cos2 in {0, 1}, with
    p_rank recording whether the vector lies in range(P).
    """

    cos2: float
    vectors: np.ndarray  # (dim, 1) or (dim, 2)
    p_rank: int

    @property
    def theta(self) -> float:
        return math.acos(math.sqrt(min(1.0, max(0.0, self.cos2))))


@dataclass(frozen=True)
class JordanDecomposition:
    dim: int
    blocks: list[JordanBlock] = field(default_factory=list)

    def angles(self) -> np.ndarray:
        return np.array([blk.theta for blk in self.blocks])

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        P = np.zeros((self.dim, self.dim), dtype=complex)
        M = np.zeros((self.dim, self.dim), dtype=complex)
        for blk in self.blocks:
            V = blk.vectors
            if V.shape[1] == 2:
                v, w = V[:, :1], V[:, 1:]
                P += v @ v.conj().T
                c2 = blk.cos2
                cs = math.sqrt(max(0.0, c2 * (1 - c2)))
                M += c2 * (v @ v.conj().T) + cs * (v @ w.conj().T + w @ v.conj().T)
                M += (1 - c2) * (w @ w.conj().T)
            else:
                v = V
                if blk.p_rank:
                    P += v @ v.conj().T
                M += blk.cos2 * (v @ v.conj().T) if blk.p_rank else (
                    (1 - blk.cos2) * (v @ v.conj().T)
                )
        return P, M


def jordan_angles(P: np.ndarray, M: np.ndarray) -> JordanDecomposition:
    """Simultaneous 2x2 block decomposition of two orthogonal projectors.

    Eigenvectors of P M P inside range(P) with eigenvalue strictly between
    0 and 1 pair with their image under M to form rotation blocks; the
    remaining directions split into aligned or orthogonal one-dimensional
    blocks (padded, cos2 in {0,1})."""
    if not _is_projector(P, 1e-8) or not _is_projector(M, 1e-8):
        raise ValueError("inputs must be orthogonal projectors")
    d = P.shape[0]
    if d > _DIM_GUARD:
        raise ValueError(f"dimension {d} exceeds guard {_DIM_GUARD}")
    blocks: list[JordanBlock] = []
    evals, evecs = np.linalg.eigh(P)
    Qp = evecs[:, evals > 0.5]  # orthonormal basis of range(P)
    used = []
    if Qp.shape[1]:
        W = Qp.conj().T @ M @ Qp
        c2s, A = np.linalg.eigh(W)
        for j in range(A.shape[1]):
            c2 = float(min(1.0, max(0.0, c2s[j])))
            v = (Qp @ A[:, j : j + 1]).reshape(-1, 1)
            used.append(v)
            if c2 <= _PROJ_TOL:
                blocks.append(JordanBlock(0.0, v, 1))
            elif c2 >= 1 - _PROJ_TOL:
                blocks.append(JordanBlock(1.0, v, 1))
            else:
                w = (M @ v - c2 * v) / math.sqrt(c2 * (1 - c2))
                w /= np.linalg.norm(w)
                used.append(w)
                blocks.append(JordanBlock(c2, np.hstack([v, w]), 1))
    # leftover directions lie in ker(P) and are M-invariant up to _PROJ_TOL
    U = np.hstack(used) if used else np.zeros((d, 0), dtype=complex)
    comp = np.eye(d, dtype=complex) - U @ U.conj().T
    evals, evecs = np.linalg.eigh(comp)
    Qc = evecs[:, evals > 0.5]
    if Qc.shape[1]:
        mus, B = np.linalg.eigh(Qc.conj().T @ M @ Qc)
        for j in range(B.shape[1]):
            mu = float(min(1.0, max(0.0, mus[j])))
            v = (Qc @ B[:, j : j + 1]).reshape(-1, 1)
            # cos2 is the P-side weight: 1 - mu makes theta = 0 when M
            # vanishes here and pi/2 when M acts as identity
            blocks.append(JordanBlock(1.0 - mu, v, 0))
    return JordanDecomposition(d, blocks)


def bad_subspace(P: np.ndarray, M: np.ndarray, omega: float) -> np.ndarray:
    """Projector K onto the eigenspaces of P M P + (I-P) M (I-P) with
    eigenvalue in [1-omega, omega]: the blocks whose bases are at least
    (1-omega)-unbiased.  Requires 1/2 < omega <= 1."""
    if not 0.5 < omega <= 1.0:
        raise ValueError("omega must be in (1/2, 1]")
    d = P.shape[0]
    H = P @ M @ P + (np.eye(d) - P) @ M @ (np.eye(d) - P)
    evals, evecs = np.linalg.eigh(H)
    sel = (evals >= 1 - omega - 1e-12) & (evals <= omega + 1e-12)
    V = evecs[:, sel]
    return V @ V.conj().T


def unbiased_trace_bound(
    P: np.ndarray, M: np.ndarray, phi: np.ndarray, omega: float
) -> tuple[float, float]:
    """Both sides of the bad-subspace mass inequality: returns
    (Tr((I-K) phi), (2 mu + 10 sqrt(gamma)) / (1 - 4 omega (1-omega)))
    with gamma = 1 - Tr(M phi) and mu the deviation of the post-preimage
    equation-pass rate from 1/2."""
    d = P.shape[0]
    K = bad_subspace(P, M, omega)
    lhs = float(np.real(np.trace((np.eye(d) - K) @ phi)))
    gamma = 1.0 - float(np.real(np.trace(M @ phi)))
    gamma = max(0.0, gamma)
    Pc = np.eye(d) - P
    mu = abs(
        0.5
        - float(np.real(np.trace(M @ P @ phi @ P)))
        - float(np.real(np.trace(M @ Pc @ phi @ Pc)))
    )
    rhs = (2 * mu + 10 * math.sqrt(gamma)) / (1 - 4 * omega * (1 - omega))
    return lhs, rhs


# -- post-measurement states --------------------------------------------------


def post_measurement(dev: SimplifiedDevice, branch: tuple) -> np.ndarray:
    """Per-image post-measurement states, shape (ny, d, d).

    branch = (0, 0, e): equation round, no subspace report;
    branch = (0, 1, e, k): equation round with subspace report;
    branch = (1, v): preimage round with outcome v in {0, 1, 2}.
    """
    out = np.zeros_like(dev.phi)
    if branch[0] == 0 and branch[1] == 0:
        (_, _, e) = branch
        for y in range(dev.ny):
            Me = dev.M1(y) if e else dev.M0[y]
            out[y] = Me @ dev.phi[y] @ Me
    elif branch[0] == 0 and branch[1] == 1:
        (_, _, e, k) = branch
        for y in range(dev.ny):
            Me = dev.M1(y) if e else dev.M0[y]
            Kk = dev.K1(y) if k else dev.K0[y]
            out[y] = Kk @ Me @ dev.phi[y] @ Me @ Kk
    elif branch[0] == 1:
        (_, v) = branch
        for y in range(dev.ny):
            Pv = [dev.Pi0[y], dev.Pi1[y], dev.Pi2(y)][v]
            out[y] = Pv @ dev.phi[y] @ Pv
    else:
        raise ValueError(f"unknown branch {branch}")
    return out


def branch_weight(states: np.ndarray) -> float:
    return float(np.real(np.trace(states, axis1=1, axis2=2)).sum())


# -- entropy rate and tail bounds ---------------------------------------------


def lambda_curve(omega: float, t: float) -> float:
    """Per-round entropy rate as a function of the test score t:
    2 log2(e) (t - 1/2 - omega/2)^2 above the threshold (1+omega)/2, else 0."""
    if not 0.5 < omega <= 1.0:
        raise ValueError("omega must be in (1/2, 1]")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must be in [0, 1]")
    gap = t - 0.5 - omega / 2.0
    return 0.0 if gap <= 0 else 2.0 * LOG2_E * gap * gap


def rate_bound(
    omega: float,
    gamma: float,
    kappa: float,
    eta: float,
    p_test: float,
    eps: float,
    N: int | None = None,
    delta: float | None = None,
) -> float:
    """Accumulation rate lambda_omega(1 - gamma/kappa - eta) minus the
    correction p_test + eps/(kappa*p_test); the analysis does not pin down
    the constant in front of the correction, so it is taken as 1 (reports
    are up to that constant).  With delta and N given, the smoothing cost
    (1 + 2 log2(1/delta))/(eps N) is also subtracted."""
    rate = lambda_curve(omega, max(0.0, 1.0 - gamma / kappa - eta))
    corr = eps / (kappa * p_test) if eps > 0 else 0.0
    rate -= p_test + corr
    if delta is not None:
        if N is None or eps <= 0:
            raise ValueError("smoothing term needs N and eps > 0")
        rate -= (1 + 2 * math.log2(1 / delta)) / (eps * N)
    return rate


def azuma_bound(t: float, n: int) -> float:
    """2 exp(-t^2 n / 2): tail bound for bounded martingale differences."""
    return 2.0 * math.exp(-t * t * n / 2.0)


def fan_bound(t: float, v: float, n: int) -> float:
    """exp(-(t/2) asinh(t / (2 v^2)) n): Bennett-style supermartingale tail
    bound with conditional variance v^2 per step."""
    return math.exp(-(t / 2.0) * math.asinh(t / (2.0 * v * v)) * n)
