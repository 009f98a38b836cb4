"""Gibbs-state families over a fixed observable set.

A family is rho_lam = exp(-sum_i lam_i A_i) / Z(lam) with
Z = tr exp(-sum_i lam_i A_i), so the expectation values obey
a_i = tr(A_i rho_lam) = -d ln Z / d lam_i and the equilibrium entropy is
S = ln Z + sum_i lam_i a_i.  The exponent is shifted by its maximum
eigenvalue before exponentiation, so only ln Z (never Z itself) is
formed; the guard |lam_i| <= 1e3 keeps the shifted exponent in range for
observables of moderate norm, and an exponent that overflows all the same
raises `ParameterRangeError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterRangeError, ValidationError
from .inputs import points, vector
from .linalg import DensityOperator, HermitianOperator, central_difference

__all__ = [
    "LAMBDA_GUARD",
    "ObservableSet",
    "GibbsPoint",
    "FamilyBatch",
    "gibbs_batch",
    "gibbs_point",
    "expectation_consistency",
    "injectivity_diagnostic",
]

LAMBDA_GUARD = 1e3
_INDEPENDENCE_RTOL = 1e-10


class ObservableSet:
    """A finite set {A_1..A_n} of same-dimension observables with labels.

    The `independent` flag records whether the traceless parts
    A_i - tr(A_i) / dim I have full numerical rank n (relative singular-value
    threshold 1e-10).  A multiple of the identity leaves rho unchanged, so a
    set that is redundant up to the identity makes the Gibbs map
    non-injective.
    """

    __slots__ = ("observables", "names", "dim", "n", "independent", "_stack")

    def __init__(
        self,
        observables: Sequence[HermitianOperator],
        names: Sequence[str] | None = None,
    ) -> None:
        if not isinstance(observables, (list, tuple)):
            raise ValidationError("observables must be a list of HermitianOperators")
        obs = tuple(observables)
        if len(obs) < 1:
            raise ValidationError("an observable set needs at least one element")
        for k, op in enumerate(obs):
            if not isinstance(op, HermitianOperator):
                raise ValidationError(f"observable {k} is not a HermitianOperator")
            if op.dim != obs[0].dim:
                raise ValidationError(
                    f"observable {k} has dim {op.dim}, expected {obs[0].dim}"
                )
        dim = obs[0].dim
        if names is None:
            names = tuple(f"A{i}" for i in range(1, len(obs) + 1))
        elif not isinstance(names, (list, tuple)):
            raise ValidationError("names must be a list of strings")
        else:
            names = tuple(str(s) for s in names)
            if len(names) != len(obs):
                raise ValidationError(
                    f"{len(names)} names for {len(obs)} observables"
                )
        stack = np.stack([op.matrix for op in obs])
        traceless = stack - np.trace(stack, axis1=1, axis2=2)[:, None, None] / dim * np.eye(dim)
        s = np.linalg.svd(traceless.reshape(len(obs), -1), compute_uv=False)
        independent = bool(
            s[0] > 0 and int(np.sum(s > _INDEPENDENCE_RTOL * s[0])) == len(obs)
        )
        stack = stack.copy()
        stack.flags.writeable = False
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n", len(obs))
        object.__setattr__(self, "independent", independent)
        object.__setattr__(self, "_stack", stack)

    def __setattr__(self, name, value):
        raise AttributeError("ObservableSet is immutable")

    def __repr__(self) -> str:
        return f"ObservableSet(dim={self.dim}, names={list(self.names)})"


@dataclass(frozen=True)
class GibbsPoint:
    """One evaluated family member: (lam, ln Z, rho, a, S).

    rho holds the batch's spectrum: its eigenvalues are the family's
    populations exp(x) / Z, exact to relative rounding, and its
    eigenvectors the batch's U.  rho is full rank in exact arithmetic for
    any finite lam, but a population below the smallest double reads 0.0.
    Z is derived from ln Z and may overflow to inf for extreme parameters
    while ln Z stays exact.
    """

    lam: np.ndarray
    log_Z: float
    rho: DensityOperator
    a: np.ndarray
    S: float

    @property
    def Z(self) -> float:
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_Z))


class FamilyBatch(NamedTuple):
    """Vectorized family evaluation at P parameter points."""

    lam: np.ndarray  # (P, n)
    log_Z: np.ndarray  # (P,)
    x: np.ndarray  # (P, m) eigenvalues of the exponent -sum_i lam_i A_i, ascending
    p: np.ndarray  # (P, m) populations exp(x) / Z, ascending
    U: np.ndarray  # (P, m, m) eigenvectors (columns) shared with the exponent
    rho: np.ndarray  # (P, m, m)
    a: np.ndarray  # (P, n)
    S: np.ndarray  # (P,)


def gibbs_batch(obs: ObservableSet, lams) -> FamilyBatch:
    """Evaluate the family at a (P, n) block of parameter points at once.

    One stacked eigendecomposition serves every point; this is the
    workhorse behind grids and paths, and its eigenpairs (x, U) are all
    the closed-form metric needs.
    """
    lams = points(lams, obs.n, "parameter block")
    worst = float(np.abs(lams).max(initial=0.0))
    if worst > LAMBDA_GUARD:
        raise ParameterRangeError(
            f"|lambda| = {worst:.4g} exceeds the overflow guard {LAMBDA_GUARD:g}"
        )
    exponent = -np.einsum("pk,kij->pij", lams, obs._stack)
    w, u = np.linalg.eigh(exponent)
    if not np.isfinite(w).all():
        # |lam| <= LAMBDA_GUARD does not bound lam * A: this exponent overflowed
        at = lams[int(np.argmin(np.isfinite(w).all(axis=1)))].tolist()
        raise ParameterRangeError(f"the exponent -sum_i lam_i A_i overflows at lambda = {at}")
    shift = w[:, -1:]
    e = np.exp(w - shift)
    z_tilde = e.sum(axis=1)
    p = e / z_tilde[:, None]
    log_z = shift[:, 0] + np.log(z_tilde)
    rho = np.einsum("pik,pk,pjk->pij", u, p, u.conj())
    rho = (rho + rho.conj().swapaxes(1, 2)) / 2
    a = np.einsum("kij,pji->pk", obs._stack, rho).real
    logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    s = -(p * logp).sum(axis=1)
    return FamilyBatch(lams, log_z, w, p, u, rho, a, s)


def gibbs_point(obs: ObservableSet, lam) -> GibbsPoint:
    """The Gibbs state, partition function, expectations and entropy at lam."""
    batch = gibbs_batch(obs, vector(lam, obs.n, "lam")[None])
    rho = DensityOperator._with_spectrum(batch.rho[0], batch.p[0, ::-1], batch.U[0, :, ::-1])
    lam_row = batch.lam[0].copy()
    lam_row.flags.writeable = False
    a = batch.a[0].copy()
    a.flags.writeable = False
    return GibbsPoint(
        lam=lam_row,
        log_Z=float(batch.log_Z[0]),
        rho=rho,
        a=a,
        S=float(batch.S[0]),
    )


def expectation_consistency(obs: ObservableSet, lam) -> float:
    """Max deviation of a_i from the central difference of -ln Z.

    Check of the equilibrium consistency condition a_i = -d ln Z / d lam_i
    through `linalg.central_difference` at order 2 with step 1e-4, whose
    taps go to one `gibbs_batch` call.
    """
    lam = vector(lam, obs.n, "lam")
    point = gibbs_point(obs, lam)

    def neg_log_z(taps: np.ndarray) -> np.ndarray:
        return -gibbs_batch(obs, taps.reshape(-1, obs.n)).log_Z.reshape(taps.shape[:-1])

    fd = central_difference(neg_log_z, lam, 1e-4, 2)
    return float(np.max(np.abs(point.a - fd)))


def injectivity_diagnostic(obs: ObservableSet, lam) -> tuple[np.ndarray, int]:
    """Symmetrized covariance C_ij = Re tr(rho Atil_i Atil_j) and its rank.

    Atil_i = A_i - a_i I.  Rank deficiency (rank < n, relative threshold
    1e-10) flags a locally non-injective Gibbs map, e.g. redundant
    observables, and with it a broken zeroth law.
    """
    point = gibbs_point(obs, lam)
    m = obs.dim
    centered = obs._stack - point.a[:, None, None] * np.eye(m)
    c = np.einsum("ij,ajk,bki->ab", point.rho.matrix, centered, centered).real
    c = (c + c.T) / 2
    w = np.abs(np.linalg.eigvalsh(c))
    top = float(w.max(initial=0.0))
    rank = 0 if top == 0.0 else int(np.sum(w > _INDEPENDENCE_RTOL * top))
    return c, rank
