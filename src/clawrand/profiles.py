"""Parameter profiles.

A profile fixes the lattice dimensions (q, ell, n, m, w), the three noise
widths B_L < B_V < B_P, and the protocol knobs (N, p_test, gamma, kappa,
eta, omega).  Cryptographic validity requires five conditions (dimension
ratios, w = n*ceil(log2 q), the trapdoor bound on B_P, the width ordering,
and superpolynomial width ratios); desk-scale profiles violate several of
them on purpose and the flags record exactly which.  The two width-ratio
and dimension conditions are asymptotic, so the flags test concrete
proxies: n/2 >= ell*ceil(log2 q), m >= w + n, and width ratios at least
2^sqrt(lambda).

The modulus collides with the standard name for a test probability, so the
protocol's test rate is called p_test throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

from .gaussians import TruncGaussian
from .modq import MAX_Q, ModRing, canonical_json, coord_bits


@dataclass(frozen=True)
class ParameterProfile:
    name: str
    lam: int
    ell: int
    n: int
    m: int
    q: int
    B_L: float
    B_V: float
    B_P: float
    N: int
    p_test: float
    gamma: float
    kappa: float
    eta: float
    omega: float = 0.75

    @property
    def coord_bits(self) -> int:
        return coord_bits(self.q)

    @property
    def w(self) -> int:
        return self.n * self.coord_bits

    @property
    def uses_gadget(self) -> bool:
        """Whether the gadget trapdoor shape fits; micro shapes fall back
        to exhaustive inversion."""
        return self.m >= self.w + self.n

    @property
    def runnable(self) -> bool:
        return self.q <= MAX_Q

    def ring(self) -> ModRing:
        if not self.runnable:
            raise ValueError(f"profile {self.name!r} is print-only (q too large)")
        return ModRing(self.q)

    def noise_dist(self, B: float | None = None) -> TruncGaussian:
        return _dist(self.q, self.B_P if B is None else B)

    def conditions(self) -> dict[str, bool]:
        k = self.coord_bits
        ratio_floor = 2 ** math.sqrt(self.lam)
        return {
            "dimensions": self.n >= 2 * self.ell * k and self.m >= self.w + self.n,
            "bit_length": True,  # w = n*ceil(log2 q) holds by construction
            # the trapdoor bound's constant is unspecified and taken as 1
            "trapdoor_bound": self.B_P <= self.q / (2 * math.sqrt(self.m * self.n * max(k, 1))),
            "width_ordering": 2 * math.sqrt(self.n) <= self.B_L < self.B_V < self.B_P,
            "superpoly_ratios": (
                self.B_V / self.B_L >= ratio_floor and self.B_P / self.B_V >= ratio_floor
            ),
        }

    def violated(self) -> list[str]:
        return [name for name, ok in self.conditions().items() if not ok]

    def as_dict(self) -> dict:
        # every field, plus the two derived values the JSON form reports;
        # taken by field name, since vars() would also hold json_text
        values = {name: getattr(self, name) for name in _FIELD_NAMES}
        return {**values, "w": self.w, "violated_conditions": self.violated()}

    @functools.cached_property
    def json_text(self) -> str:
        """canonical_json(self.as_dict()), rendered once per profile."""
        return canonical_json(self.as_dict())


_FIELD_NAMES = tuple(f.name for f in fields(ParameterProfile))


@functools.cache
def _dist(q: int, B: float) -> TruncGaussian:
    return TruncGaussian(ModRing(q), float(B))


def _full_scale() -> ParameterProfile:
    # Sizes a faithful lambda=128 instantiation would need, with both
    # width ratios set to 2^40 and the trapdoor constant taken as 1.
    # The modulus is the largest 112-bit prime; this profile is for
    # printing only and cannot be run.
    lam = 128
    k = 112
    ell = lam
    n = 2 * ell * k
    w = n * k
    m = w + n
    B_L = 340.0
    return ParameterProfile(
        name="full-scale",
        lam=lam,
        ell=ell,
        n=n,
        m=m,
        q=5192296858534827628530496329220021,
        B_L=B_L,
        B_V=B_L * 2.0**40,
        B_P=B_L * 2.0**80,
        N=lam * lam,
        p_test=1.0 / lam,
        gamma=0.01,
        kappa=0.1,
        eta=0.05,
    )


PROFILES: dict[str, ParameterProfile] = {
    p.name: p
    for p in [
        # Exhaustively checkable shapes.  B_P and B_V below 1 make the
        # noise identically zero, which is what allows the claw structure
        # and the quantum simulation to be exact; the state-space guard
        # 2*q^(n+m) stays under a million.
        ParameterProfile(
            name="micro",
            lam=1, ell=1, n=1, m=2, q=5,
            B_L=0.3, B_V=0.4, B_P=0.5,
            N=256, p_test=0.1, gamma=0.45, kappa=0.5, eta=0.1,
        ),
        # B_P * sqrt(m) must stay below 1 so the norm-ball check recognizes
        # exactly the (singleton) supports
        ParameterProfile(
            name="micro3",
            lam=1, ell=1, n=1, m=3, q=3,
            B_L=0.3, B_V=0.4, B_P=0.45,
            N=256, p_test=0.1, gamma=0.45, kappa=0.5, eta=0.1,
        ),
        # Nonzero key noise at simulable scale: the shifted-density case
        # is exercised statistically here.
        ParameterProfile(
            name="micro-noisy",
            lam=1, ell=1, n=1, m=2, q=13,
            B_L=0.5, B_V=1.0, B_P=1.0,
            N=256, p_test=0.1, gamma=0.5, kappa=0.5, eta=0.1,
        ),
        ParameterProfile(
            name="desk-small",
            lam=8, ell=1, n=4, m=20, q=13,
            B_L=1.0, B_V=1.0, B_P=1.0,
            N=2000, p_test=0.05, gamma=0.25, kappa=0.5, eta=0.1,
        ),
        ParameterProfile(
            name="desk-medium",
            lam=16, ell=1, n=8, m=56, q=61,
            B_L=1.0, B_V=1.0, B_P=2.0,
            N=4000, p_test=0.05, gamma=0.15, kappa=0.5, eta=0.1,
        ),
        # Wide secret so that uniformly chosen equation vectors are almost
        # never excluded: honest provers then pass tests at rate ~1 and a
        # tight acceptance threshold is meaningful.  Noise-free widths keep
        # round handling exact and fast.
        ParameterProfile(
            name="desk-protocol",
            lam=16, ell=2, n=32, m=160, q=13,
            B_L=0.3, B_V=0.4, B_P=0.5,
            N=1000, p_test=0.05, gamma=0.05, kappa=0.5, eta=0.1,
        ),
        _full_scale(),
    ]
}


def get_profile(name: str, **overrides) -> ParameterProfile:
    try:
        prof = PROFILES[name]
    except KeyError:
        raise KeyError(f"unknown profile {name!r}; known: {sorted(PROFILES)}") from None
    return replace(prof, **overrides) if overrides else prof
