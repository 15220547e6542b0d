"""Chain configuration and the single-particle tridiagonal matrix.

A chain is a sender block of n_s sites, a uniform wire of n_w sites and a
receiver block of n_r = n_s sites, coupled in a line.  All hoppings equal J
except the two block-wire junctions, which carry J0.  The single-particle
Hamiltonian matrix carries J_i/2 on the off-diagonals and the on-site
energy h on the diagonal.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

WEAK_COUPLING_LIMIT = 0.1


def _size(name: str, value) -> int:
    """An integral size as an int; bools and fractional values are refused."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real(name: str, value) -> float:
    """A real number as a float; bools, strings and other non-numbers are refused."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class ChainSpec:
    """Full experiment configuration.

    n_s is both the sender-block size and the excitation count; n_r always
    equals n_s (unequal blocks give identically zero transfer and are not
    represented).
    """

    n_s: int
    n_w: int
    j0: float
    h: float = 0.0
    statistics: str = "fermion"
    j: ClassVar[float] = 1.0  # the bulk hopping, the unit of energy and time
    n_r: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n_s", _size("n_s", self.n_s))
        object.__setattr__(self, "n_w", _size("n_w", self.n_w))
        object.__setattr__(self, "j0", _real("j0", self.j0))
        object.__setattr__(self, "h", _real("h", self.h))
        if self.n_s < 1 or self.n_w < 1:
            raise ValueError(f"block/wire sizes must be positive, got n_s={self.n_s}, n_w={self.n_w}")
        if not (self.j0 > 0 and math.isfinite(self.j0)):
            raise ValueError(f"j0 must be positive and finite, got {self.j0}")
        if not math.isfinite(self.h):
            raise ValueError(f"h must be finite, got {self.h}")
        if self.statistics not in ("fermion", "boson"):
            raise ValueError(f"statistics must be 'fermion' or 'boson', got {self.statistics!r}")
        if self.j0 > WEAK_COUPLING_LIMIT * self.j:
            warnings.warn(
                f"j0={self.j0} is outside the weak-coupling regime (j0 <= {WEAK_COUPLING_LIMIT}*J)",
                stacklevel=2,
            )
        object.__setattr__(self, "n_r", self.n_s)

    @property
    def n_sites(self) -> int:
        return 2 * self.n_s + self.n_w

    def sender_sites(self) -> range:
        """1-based site indices of the sender block."""
        return range(1, self.n_s + 1)

    def receiver_sites(self) -> range:
        """1-based site indices of the receiver block."""
        n = self.n_sites
        return range(n - self.n_r + 1, n + 1)

    def to_json(self) -> str:
        return json.dumps(
            {"n_s": self.n_s, "n_w": self.n_w, "j0": self.j0, "h": self.h,
             "statistics": self.statistics},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ChainSpec":
        data = json.loads(text)
        known = {"n_s", "n_w", "j0", "h", "statistics"}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        missing = {"n_s", "n_w", "j0"} - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        return cls(
            n_s=data["n_s"],
            n_w=data["n_w"],
            j0=data["j0"],
            h=data.get("h", 0.0),
            statistics=str(data.get("statistics", "fermion")),
        )


@dataclass(frozen=True)
class CouplingProfile:
    """Physical couplings J_i (length N-1) and on-site energies (length N)."""

    hop: np.ndarray
    onsite: np.ndarray

    def __post_init__(self):
        hop = np.asarray(self.hop, dtype=float)
        onsite = np.asarray(self.onsite, dtype=float)
        if hop.ndim != 1 or onsite.ndim != 1 or len(onsite) != len(hop) + 1:
            raise ValueError("profile needs N-1 hoppings and N on-site energies")
        object.__setattr__(self, "hop", hop)
        object.__setattr__(self, "onsite", onsite)

    @property
    def n_sites(self) -> int:
        return len(self.onsite)

    def is_mirror_symmetric(self) -> bool:
        return bool(
            np.array_equal(self.hop, self.hop[::-1])
            and np.array_equal(self.onsite, self.onsite[::-1])
        )


def build_profile(spec: ChainSpec) -> CouplingProfile:
    """Uniform-J chain with J0 at the two block-wire junction bonds."""
    n = spec.n_sites
    hop = np.full(n - 1, spec.j)
    # junction bonds sit after the last sender site and after the last wire site
    hop[spec.n_s - 1] = spec.j0
    hop[spec.n_s + spec.n_w - 1] = spec.j0
    onsite = np.full(n, spec.h)
    return CouplingProfile(hop=hop, onsite=onsite)


def adjacency_matrix(profile: CouplingProfile) -> np.ndarray:
    """Symmetric tridiagonal matrix with J_i/2 off the diagonal."""
    n = profile.n_sites
    a = np.zeros((n, n))
    half = profile.hop / 2.0
    idx = np.arange(n - 1)
    a[idx, idx + 1] = half
    a[idx + 1, idx] = half
    a[np.diag_indices(n)] = profile.onsite
    return a
