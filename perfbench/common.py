"""Shared pieces of the workloads: the op record, seeded streams, oracles.

Nothing here imports thermogeom; workloads receive the package and the
program objects built from it, so the benchmark's own code never wraps or
replaces anything in the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

SIZES = ((2, 1), (4, 3), (8, 8), (16, 4))

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_FAMILIES = {
    "zx": (SIGMA_Z, SIGMA_X),
    "zxy": (SIGMA_Z, SIGMA_X, SIGMA_Y),
}


def size_label(m: int, n: int) -> str:
    return f"m{m}n{n}"


@dataclass
class Op:
    """One timed unit of work: `call` runs the program, `check` judges it.

    `check` gets the call's return value and returns None when the output
    is correct, or a one-line reason when it is not.  `inputs` holds the
    generated values the call feeds the program (arrays, numbers, text).
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    inputs: tuple = ()


def stream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one (seed, rotation, slot, ...) address."""
    return np.random.default_rng([seed, *path])


def random_hermitian(rng: np.random.Generator, m: int) -> np.ndarray:
    """GUE-like matrix scaled so its spectral spread is O(1) at any m."""
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return (a + a.conj().T) / (2.0 * math.sqrt(2.0 * m))


def matrix_to_json(matrix: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(matrix)]


def reference_metric(stack: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Closed-form Gibbs BW metric (Daleckii-Krein), the oracle for metric_grid.

    In the eigenbasis of H = sum lam_i A_i with populations p ~ exp(-w):
    g_ij = sum_ab 2 (p_a + p_b) tanh^2(d/2) / d^2 Re(A~_i,ab A~_j,ba),
    d = w_a - w_b, with the limit 1/4 at d = 0.
    """
    h = np.einsum("k,kij->ij", lam, stack)
    w, u = np.linalg.eigh(h)
    p = np.exp(-(w - w[0]))
    p /= p.sum()
    at = np.einsum("ai,kab,bj->kij", u.conj(), stack, u)
    mean = np.einsum("kii,i->k", at, p).real
    at = at - mean[:, None, None] * np.eye(w.size)
    d = w[:, None] - w[None, :]
    small = np.abs(d) < 1e-9
    safe = np.where(small, 1.0, d)
    kernel = np.where(small, 0.25, np.tanh(safe / 2.0) ** 2 / safe**2)
    weight = 2.0 * (p[:, None] + p[None, :]) * kernel
    g = np.einsum("ab,iab,jba->ij", weight, at, at).real
    return (g + g.T) / 2.0


def qubit_metric(lam: np.ndarray) -> np.ndarray:
    """Analytic metric of the Pauli family over (sz, sx[, sy]) at lam.

    g = sech^2 r nn^T + tanh^2 r / r^2 (I - nn^T), r = |lam|: sech^2 along
    sz and tanh^2|lam| / |lam|^2 for a transverse perturbation.
    """
    lam = np.asarray(lam, dtype=float)
    r = float(np.linalg.norm(lam))
    eye = np.eye(lam.size)
    if r < 1e-12:
        return eye.copy()
    nn = np.outer(lam, lam) / r**2
    return nn / math.cosh(r) ** 2 + (math.tanh(r) / r) ** 2 * (eye - nn)


def qubit_bloch(lam: np.ndarray) -> np.ndarray:
    """Bloch vector (x, y, z) of rho_lam for the Pauli family over (sz, sx[, sy])."""
    lam = np.asarray(lam, dtype=float)
    r = float(np.linalg.norm(lam))
    if r == 0.0:
        return np.zeros(3)
    coords = np.zeros(3)
    coords[2] = lam[0]
    coords[0] = lam[1]
    if lam.size > 2:
        coords[1] = lam[2]
    return -math.tanh(r) * coords / r


def qubit_geodesic_length(a: np.ndarray, b: np.ndarray) -> float:
    """BW geodesic length 2 arccos(root fidelity) between two qubit Gibbs states."""
    u, v = qubit_bloch(a), qubit_bloch(b)
    det = math.sqrt(max(1.0 - u @ u, 0.0) * max(1.0 - v @ v, 0.0))
    root_fid = math.sqrt(max((1.0 + u @ v + det) / 2.0, 0.0))
    return 2.0 * math.acos(min(root_fid, 1.0))


def gd(x: float) -> float:
    """Gudermannian 2 atan(tanh(x/2)): qubit length along sz from 0 to x."""
    return 2.0 * math.atan(math.tanh(x / 2.0))


def close(value: float, expect: float, rtol: float, atol: float) -> bool:
    return math.isfinite(value) and abs(value - expect) <= atol + rtol * abs(expect)


def metric_mismatch(got: np.ndarray, expect: np.ndarray, rtol: float) -> str | None:
    """None if got matches expect within rtol of the largest entry, else a reason.

    The 1e-10 floor is the absolute error of the finite-difference stencils,
    which dominates where the metric itself is tiny (high |lambda|).
    """
    got = np.asarray(got, dtype=float)
    if got.shape != expect.shape:
        return f"metric shape {got.shape}, expected {expect.shape}"
    if not np.all(np.isfinite(got)):
        return "metric has non-finite entries"
    scale = max(float(np.max(np.abs(expect))), 1e-300)
    err = float(np.max(np.abs(got - expect)))
    if err > rtol * scale + 1e-10:
        return f"metric off by {err:.3e} (scale {scale:.3e}, rtol {rtol:g})"
    return None
