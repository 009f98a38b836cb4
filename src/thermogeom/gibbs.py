"""Gibbs-state families over a fixed observable set.

A family is rho_lam = exp(-sum_i lam_i A_i) / Z(lam) with
Z = tr exp(-sum_i lam_i A_i), so the expectation values obey
a_i = tr(A_i rho_lam) = -d ln Z / d lam_i and the equilibrium entropy is
S = ln Z + sum_i lam_i a_i.  The exponent is shifted by its maximum
eigenvalue before exponentiation, so only ln Z (never Z itself) is
formed; the guard |lam_i| <= 1e3 keeps the shifted exponent in range for
observables of moderate norm.  A shifted exponent past the double range
gives a population of exactly 0, which is no failure.

A call checks its whole (P, n) parameter block first, then runs it in
blocks of points (`linalg._in_blocks`) whose rho stack stays within 256 KiB;
a point whose numbers are not all finite (an exponent that overflows all
the same) raises `ParameterRangeError` naming it.
In each block the exponents are one (P, n) @ (n, m^2) product and share one
stacked eigendecomposition.  That spectral core (lam, ln Z, the eigenvalues
x, the populations p and the eigenvectors U) is all the metric reads.
A set stores its observables as float64 when every imaginary part is exactly
0 (complex128 otherwise), and every kernel follows that dtype, so a real set
decomposes real exponents and its U is real; the public operators stay complex.
`gibbs_batch` adds the expectations a and the entropy S to make a
`FamilyBatch`; it forms rho = (U p) U^dagger only as the intermediate of a,
one (P, m^2) @ (m^2, n) product, and keeps no rho.  `gibbs_point` forms its
one Hermitian rho from the batch's (p, U).  `expectation_consistency`
checks a = -d ln Z / d lam against the central difference of ln Z, with
lam and its taps in one `gibbs_batch` call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParameterRangeError, ValidationError
from .inputs import points, vector
from .linalg import DensityOperator, HermitianOperator, _freeze, _in_blocks, hermitize

__all__ = [
    "LAMBDA_GUARD",
    "ObservableSet",
    "GibbsPoint",
    "FamilyBatch",
    "gibbs_batch",
    "gibbs_point",
    "expectation_consistency",
]

LAMBDA_GUARD = 1e3
_INDEPENDENCE_RTOL = 1e-10
# a traceless part within this many dim eps of zero is a multiple of the identity
_IDENTITY_ULPS = 16
# step of the central difference of -ln Z
_CONSISTENCY_STEP = 1e-4


class ObservableSet:
    """A finite set {A_1..A_n} of same-dimension observables with labels.

    The `independent` flag records whether the traceless parts
    A_i - tr(A_i) / dim I, each normalised on its own, have full numerical
    rank n (relative singular-value threshold 1e-10), so a change of units
    A_i -> s_i A_i leaves it as it is.  A multiple of the identity leaves
    rho unchanged, so a set that is redundant up to the identity makes the
    Gibbs map non-injective.  Which observables are such multiples is
    decided once, from the operators alone: `_live` is False where the
    traceless part of A_i, scaled to entries within 1, is within
    16 dim eps of zero, the rounding of its trace.  The stack the kernels
    read is float64 when no entry has a nonzero imaginary part, and
    complex128 otherwise.
    """

    __slots__ = ("observables", "names", "dim", "n", "independent", "_live", "_stack")

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
        # the rank rule has no units: each observable is scaled to parts within 1,
        # so no trace overflows, as reals (a complex division by a subnormal
        # largest part overflows), and each traceless part to unit norm; a part
        # that rounding alone can leave, a multiple of the identity, is zero
        parts = stack.view(float)
        top = np.abs(parts).max(axis=(1, 2), keepdims=True)
        scaled = (parts / np.where(top > 0.0, top, 1.0)).view(complex)
        traceless = scaled - np.trace(scaled, axis1=1, axis2=2)[:, None, None] / dim * np.eye(dim)
        traceless = traceless.reshape(len(obs), -1)
        norms = np.linalg.norm(traceless, axis=1)
        live = norms > _IDENTITY_ULPS * dim * np.finfo(float).eps
        if live.all():
            s = np.linalg.svd(traceless / norms[:, None], compute_uv=False)
            independent = bool(np.sum(s > _INDEPENDENCE_RTOL * s[0]) == len(obs))
        else:
            independent = False
        object.__setattr__(self, "observables", obs)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n", len(obs))
        object.__setattr__(self, "independent", independent)
        object.__setattr__(self, "_live", _freeze(live, bool))
        stack = stack if stack.imag.any() else stack.real
        object.__setattr__(self, "_stack", _freeze(stack, stack.dtype))

    def __setattr__(self, name, value):
        raise AttributeError("ObservableSet is immutable")

    def __repr__(self) -> str:
        return f"ObservableSet(dim={self.dim}, names={list(self.names)})"


def observables(obs: object) -> ObservableSet:
    """obs itself, checked to be an ObservableSet before a public call reads it."""
    if not isinstance(obs, ObservableSet):
        raise ValidationError(f"observables must be an ObservableSet, got {type(obs).__name__}")
    return obs


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


class _Spectra(NamedTuple):
    """The spectral core of a family evaluation at P parameter points."""

    lam: np.ndarray  # (P, n)
    log_Z: np.ndarray  # (P,)
    x: np.ndarray  # (P, m) eigenvalues of the exponent -sum_i lam_i A_i, ascending
    p: np.ndarray  # (P, m) populations exp(x) / Z, ascending
    U: np.ndarray  # (P, m, m) eigenvectors (columns) shared with the exponent


class FamilyBatch(NamedTuple):
    """Vectorized family evaluation at P parameter points."""

    lam: np.ndarray  # (P, n)
    log_Z: np.ndarray  # (P,)
    x: np.ndarray  # (P, m) eigenvalues of the exponent -sum_i lam_i A_i, ascending
    p: np.ndarray  # (P, m) populations exp(x) / Z, ascending
    U: np.ndarray  # (P, m, m) eigenvectors (columns) of the exponent, float64 for a real set
    a: np.ndarray  # (P, n)
    S: np.ndarray  # (P,)


def _guarded(obs: ObservableSet, lams) -> np.ndarray:
    """lams as a (P, n) float block of points, each |lam_i| within LAMBDA_GUARD.

    A batched call checks its whole block here before its first block of
    points runs, so a bad row anywhere raises before any work.
    """
    lams = points(lams, observables(obs).n, "parameter block")
    worst = float(np.abs(lams).max(initial=0.0))
    if worst > LAMBDA_GUARD:
        raise ParameterRangeError(
            f"|lambda| = {worst:.4g} exceeds the overflow guard {LAMBDA_GUARD:g}"
        )
    return lams


def _spectra(obs: ObservableSet, lams: np.ndarray) -> _Spectra:
    """The eigendecomposition of the exponent at a `_guarded` (P, n) block, with p and ln Z.

    The exponents are one (P, n) @ (n, m^2) product and share one stacked
    eigendecomposition; the metric reads nothing else.
    """
    m = obs.dim
    exponent = (-lams @ obs._stack.reshape(obs.n, m * m)).reshape(len(lams), m, m)
    w, u = np.linalg.eigh(exponent)
    shift = w[:, -1:]
    e = np.exp(w - shift)
    z_tilde = e.sum(axis=1)
    return _Spectra(lams, shift[:, 0] + np.log(z_tilde), w, e / z_tilde[:, None], u)


def gibbs_batch(obs: ObservableSet, lams) -> FamilyBatch:
    """Evaluate the family at a (P, n) block of parameter points at once.

    One stacked eigendecomposition serves every point of a block of points
    whose (m, m) rho stack stays within 256 KiB; this is the workhorse
    behind grids and paths.  The expectations come from rho = (U p) U^dagger,
    formed only for them: every a_k = tr(A_k rho) is one
    (P, m^2) @ (m^2, n) product.
    """
    lams = _guarded(obs, lams)
    family = functools.partial(_family_block, obs)
    return FamilyBatch(*_in_blocks(family, obs._stack.itemsize * obs.dim**2, lams))


def _family_block(obs: ObservableSet, lams: np.ndarray) -> FamilyBatch:
    """`gibbs_batch` on one block of `_guarded` points."""
    spectra = _spectra(obs, lams)
    p, u = spectra.p, spectra.U
    rho = (u * p[:, None, :]) @ u.conj().swapaxes(1, 2)
    # tr(A_k rho) = sum_ij conj(A_k)_ij rho_ij, whose real part is that of
    # the hermitised rho
    mm = obs.dim * obs.dim
    a = (rho.reshape(len(p), mm) @ obs._stack.conj().reshape(obs.n, mm).T).real
    return FamilyBatch(*spectra, a, _entropy(p))


def _entropy(p: np.ndarray) -> np.ndarray:
    """S = 0 - sum p ln p over the last axis of populations, 0 ln 0 = 0: a pure state reads +0.0."""
    return 0.0 - (p * np.log(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=-1)


def gibbs_point(obs: ObservableSet, lam) -> GibbsPoint:
    """The Gibbs state, partition function, expectations and entropy at lam."""
    batch = gibbs_batch(obs, vector(lam, observables(obs).n, "lam")[None])
    p, u = batch.p[0], batch.U[0]
    rho = DensityOperator._with_spectrum(hermitize((u * p) @ u.conj().T), p[::-1], u[:, ::-1])
    return GibbsPoint(
        lam=_freeze(batch.lam[0], float),
        log_Z=float(batch.log_Z[0]),
        rho=rho,
        a=_freeze(batch.a[0], float),
        S=float(batch.S[0]),
    )


def expectation_consistency(obs: ObservableSet, lam) -> float:
    """Max deviation of a_i from the central difference of -ln Z.

    Check of the equilibrium consistency condition a_i = -d ln Z / d lam_i
    at order 2 with step h = 1e-4: lam and its 2n taps lam -+ h e_i go to
    one `gibbs_batch` call, and a is read from its row 0.  A lam within h of
    LAMBDA_GUARD raises `ValidationError`, since its taps would cross the guard.
    """
    lam = vector(lam, observables(obs).n, "lam")
    h = _CONSISTENCY_STEP
    worst = float(np.abs(lam).max())
    if worst <= LAMBDA_GUARD < worst + h:
        raise ValidationError(
            f"|lambda| = {worst!r} is within the stencil reach {h:g} of the overflow "
            f"guard {LAMBDA_GUARD:g}, so the finite-difference taps would cross it"
        )
    n = obs.n
    batch = gibbs_batch(obs, lam + np.vstack((np.zeros(n), -h * np.eye(n), h * np.eye(n))))
    log_z = batch.log_Z[1:].reshape(2, n)
    return float(np.max(np.abs(batch.a[0] - (log_z[0] - log_z[1]) / (2 * h))))
