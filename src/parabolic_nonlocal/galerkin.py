"""Discrete Galerkin spaces, time-dependent forms, and spectral projections.

Coordinates are taken with respect to a fixed basis of the discrete space.
Two Gram matrices define the pivot norm (``gram_H``) and the energy norm
(``gram_V``); every operator norm below is weighted accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Matrix = np.ndarray
Vector = np.ndarray

SYM_TOL = 1e-12


def _check_spd(name: str, g: Matrix) -> None:
    scale = max(np.abs(g).max(), 1.0)
    if np.abs(g - g.T).max() > SYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric")
    if np.linalg.eigvalsh(g).min() <= 0.0:
        raise ValueError(f"{name} is not positive definite")


def _sym_sqrt(g: Matrix) -> tuple[Matrix, Matrix]:
    """Return (g^(1/2), g^(-1/2)) via symmetric eigendecomposition."""
    w, q = np.linalg.eigh(g)
    root = q @ np.diag(np.sqrt(w)) @ q.T
    inv_root = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
    return root, inv_root


@dataclass(frozen=True)
class GalerkinSpace:
    """An n-dimensional trial space with pivot and energy inner products.

    Parameters
    ----------
    n_modes : int
        Dimension of the space.
    domain_length : float
        Interval length of the underlying model domain.
    gram_H : ndarray
        Pivot-norm Gram matrix, ``gram_H[i, j] = <phi_j, phi_i>_H``.
    gram_V : ndarray
        Energy-norm Gram matrix, ``gram_V[i, j] = <phi_j, phi_i>_V``.
    embed_const : float
        Constant c with ``|v|_H <= c |v|_V`` for every v.
    """

    n_modes: int
    domain_length: float
    gram_H: Matrix
    gram_V: Matrix
    embed_const: float
    # derived factors, filled in __post_init__
    sqrt_H: Matrix = field(init=False, repr=False)
    inv_sqrt_H: Matrix = field(init=False, repr=False)
    inv_sqrt_V: Matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be at least 1")
        for name in ("domain_length", "embed_const"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        gh = np.asarray(self.gram_H, dtype=float)
        gv = np.asarray(self.gram_V, dtype=float)
        if gh.shape != (self.n_modes, self.n_modes) or gv.shape != gh.shape:
            raise ValueError("Gram matrices must be n_modes x n_modes")
        _check_spd("gram_H", gh)
        _check_spd("gram_V", gv)
        object.__setattr__(self, "gram_H", gh)
        object.__setattr__(self, "gram_V", gv)
        rh, irh = _sym_sqrt(gh)
        irv = _sym_sqrt(gv)[1]
        object.__setattr__(self, "sqrt_H", rh)
        object.__setattr__(self, "inv_sqrt_H", irh)
        object.__setattr__(self, "inv_sqrt_V", irv)
        # sharpest admissible constant: largest eigenvalue of (gram_H, gram_V)
        lam = np.linalg.eigvalsh(irv @ gh @ irv).max()
        if self.embed_const**2 < lam * (1.0 - 1e-10):
            raise ValueError("embed_const is below the sharp embedding constant")

    def h_norm(self, v: Vector) -> float | np.ndarray:
        """Pivot norm of every row of ``v``, for any leading shape."""
        return np.sqrt(np.maximum(np.vecdot(v @ self.gram_H, v), 0.0))

    def v_norm(self, v: Vector) -> float | np.ndarray:
        return np.sqrt(np.maximum(np.vecdot(v @ self.gram_V, v), 0.0))


def build_sine_space(n_modes: int, length: float) -> GalerkinSpace:
    """Dirichlet sine modes on (0, length), orthonormal in the pivot norm.

    Mode k is ``sqrt(2/length) * sin(k pi x / length)``; the energy norm is
    the L2 norm of the derivative, so the energy Gram is ``diag((k pi / L)^2)``.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if not (length > 0.0 and math.isfinite(length)):  # NaN fails too
        raise ValueError(f"length must be positive and finite, got {length!r}")
    k = np.arange(1, n_modes + 1)
    with np.errstate(over="ignore"):  # overflow is rejected below
        gram_v = np.diag((k * math.pi / length) ** 2)
    if not np.isfinite(gram_v).all():
        raise ValueError(f"length {length!r} is too small: the energy Gram overflows")
    return GalerkinSpace(
        n_modes=n_modes,
        domain_length=float(length),
        gram_H=np.eye(n_modes),
        gram_V=gram_v,
        embed_const=length / math.pi,
    )


@dataclass(frozen=True)
class TimeForm:
    """A time-dependent bilinear form given as a stiffness-matrix field.

    ``stiffness_at`` maps a 1-D array of k times to a new ``(k, n, n)``
    stack, with ``stiffness_at(times)[l, i, j]`` the form at ``times[l]``
    applied to (phi_j, phi_i); callers of :func:`stiffness_stack` overwrite
    the stack in place.  :func:`stiffness_stack` hands them a C-contiguous
    stack and copies one in another layout (a transposed or sliced view):
    they read one n x n matrix at a time, and with time as the fastest axis
    a matrix's neighbouring entries lie ``8 k`` bytes apart.  Wrap a
    function of one time in
    ``np.vectorize(fn, signature="()->(n,n)")``.  The declared constants
    are audited against sampled estimates rather than trusted: see
    :func:`estimate_bounds` and :func:`audit_dini`.

    ``shift_delta`` is the pivot-norm shift making the form coercive when it
    is only quasi-coercive; 0 means the form is coercive as given.
    """

    space: GalerkinSpace
    stiffness_at: Callable[[np.ndarray], np.ndarray]
    bound_M: float
    coercivity_alpha: float
    horizon: float
    shift_delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("horizon", "bound_M", "coercivity_alpha"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        delta = self.shift_delta
        if not (delta >= 0.0 and math.isfinite(delta)):
            raise ValueError(f"shift_delta must be nonnegative and finite, got {delta!r}")


def constant_form(space: GalerkinSpace, stiffness: Matrix, horizon: float,
                  bound_M: float | None = None,
                  coercivity_alpha: float | None = None) -> TimeForm:
    """Wrap a constant stiffness matrix as a TimeForm.

    Bounds default to the sampled sharp values.
    """
    s = np.asarray(stiffness, dtype=float)
    w = space.inv_sqrt_V @ s @ space.inv_sqrt_V
    m_sharp = float(np.linalg.norm(w, 2))
    a_sharp = float(np.linalg.eigvalsh(0.5 * (w + w.T)).min())
    if coercivity_alpha is None:
        if a_sharp <= 0.0:
            raise ValueError("stiffness is not coercive; build a TimeForm declaring its shift_delta")
        coercivity_alpha = a_sharp
    return TimeForm(
        space=space,
        stiffness_at=lambda t, _s=s: np.repeat(_s[None], len(t), axis=0),
        bound_M=bound_M if bound_M is not None else m_sharp,
        coercivity_alpha=coercivity_alpha,
        horizon=horizon,
    )


def _gauss_panels(a: float, b: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite ``order``-point Gauss-Legendre rule on
    ``panels`` equal panels of [a, b], panel by panel."""
    q_nodes, q_weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return (mid[:, None] + half[:, None] * q_nodes).ravel(), (half[:, None] * q_weights).ravel()


def default_audit_grid(horizon: float) -> np.ndarray:
    return np.linspace(0.0, horizon, 33)


def estimate_bounds(form: TimeForm, t_grid: np.ndarray) -> tuple[float, float]:
    """Sampled boundedness and coercivity constants of the form.

    Returns ``(M_hat, alpha_hat)``: the largest energy-weighted singular
    value and the smallest energy-weighted symmetric eigenvalue over the
    grid.  Both are sharp for the sampled times.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t_grid must be nonempty")
    irv = form.space.inv_sqrt_V
    w = irv @ stiffness_stack(form, None, t_grid) @ irv
    m_hat = float(np.linalg.norm(w, 2, axis=(1, 2)).max())
    alpha_hat = float(np.linalg.eigvalsh(0.5 * (w + w.transpose(0, 2, 1))).min())
    return m_hat, alpha_hat


@dataclass(frozen=True)
class FormAuditReport:
    """Result of the time-regularity audit of a form."""

    dini_exponent: float
    dini_pass: bool


def audit_dini(form: TimeForm, h_grid: np.ndarray) -> FormAuditReport:
    """Fit the power-law exponent of the form's modulus of continuity.

    For each gap h the sampled modulus is the worst energy-weighted operator
    norm of ``S(t+h) - S(t)`` over 17 equally spaced t.  The exponent is the
    least-squares slope of ``log w`` against ``log h`` over the smallest decade
    of gaps; an exponent above 1/2 certifies the singular-integral conditions
    for power moduli.  A constant-in-time form reports an infinite exponent.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size < 4:
        raise ValueError("need at least 4 gap samples for a reliable slope fit")
    if not (np.isfinite(h_grid).all() and (h_grid > 0.0).all() and (np.diff(h_grid) > 0.0).all()):
        raise ValueError("h_grid must be finite, strictly positive and increasing")
    if h_grid[0] > form.horizon / 100.0:
        raise ValueError("smallest gap must not exceed horizon/100")

    irv = form.space.inv_sqrt_V
    t_samples = np.linspace(0.0, form.horizon, 17)
    stack = stiffness_stack(form, None, t_samples)
    omegas = np.empty_like(h_grid)
    for i, h in enumerate(h_grid):
        fits = t_samples + h <= form.horizon
        ds = stiffness_stack(form, None, t_samples[fits] + h) - stack[fits]
        omegas[i] = np.linalg.norm(irv @ ds @ irv, 2, axis=(1, 2)).max(initial=0.0)

    floor = 1e-14
    in_decade = h_grid <= h_grid[0] * 10.0 * (1.0 + 1e-12)
    hs = h_grid[in_decade]
    ws = omegas[in_decade]
    positive = ws > floor
    if positive.sum() < 2:
        exponent = math.inf
    else:
        exponent = float(np.polyfit(np.log(hs[positive]), np.log(ws[positive]), 1)[0])

    return FormAuditReport(dini_exponent=exponent, dini_pass=bool(exponent > 0.5))


@dataclass(frozen=True)
class Projection:
    """Pivot-orthogonal projection of ``space``, given by its coordinate ``matrix``
    (see :func:`project`)."""

    space: GalerkinSpace
    matrix: Matrix

    def complement(self) -> Matrix:
        return np.eye(self.space.n_modes) - self.matrix


def project(space: GalerkinSpace, m: int) -> Projection:
    """Projection onto span of the first m modes, self-adjoint in the pivot norm."""
    n = space.n_modes
    if not 1 <= m <= n:
        raise ValueError(f"m={m} out of range [1, {n}]")
    e = np.eye(n)[:, :m]
    # P = E (E^T G_H E)^(-1) E^T G_H; reduces to diag(1..1,0..0) for identity Gram
    gh = space.gram_H
    p = e @ np.linalg.solve(e.T @ gh @ e, e.T @ gh)
    return Projection(space=space, matrix=p)


def stiffness_stack(form: TimeForm, proj: Projection | None, times: np.ndarray) -> np.ndarray:
    """Stiffness of the (optionally projected) form at every time, as a ``(k, n, n)`` stack.

    This is the one place the stiffness is evaluated on a set of times: one
    ``stiffness_at`` call on the whole array, checked against the horizon
    and the stack contract of :class:`TimeForm`.  The stack returned is
    C-contiguous, a copy when ``stiffness_at`` gave a view in another layout
    (see :class:`TimeForm`).  With a projection, it is then reduced in place
    by :func:`project_stack`.
    """
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times <= form.horizon * (1.0 + 1e-12))):
        raise ValueError(f"times outside [0, {form.horizon}]")
    shape = (times.size, form.space.n_modes, form.space.n_modes)
    if not times.size:  # a np.vectorize wrapper cannot be called on no times
        return np.empty(shape)
    try:
        stack = np.ascontiguousarray(form.stiffness_at(times), dtype=float)
        broken = f"got shape {stack.shape}" if stack.shape != shape else ""
    except (IndexError, TypeError, ValueError) as exc:
        broken = f"raised {exc!r}"
    if broken:
        raise ValueError(f"stiffness_at breaks the stack contract: on {times.size} times it must "
                         f"return a {shape} stack, {broken}; wrap a function of one time in "
                         "np.vectorize(fn, signature='()->(n,n)')")
    return stack if proj is None else project_stack(form, proj, stack)


def project_stack(form: TimeForm, proj: Projection, stack: np.ndarray) -> np.ndarray:
    """Turn a ``(k, n, n)`` stiffness stack of ``form`` into the reduced form's
    ``P^T S P + alpha Q^T G_V Q`` in place and return it.

    The complement is penalised with ``coercivity_alpha`` times the energy
    Gram, which keeps the reduced form coercive (with at least half the
    original constant) while decoupling the discarded modes.
    """
    if proj.space is not form.space:
        raise ValueError("form and projection refer to different spaces")
    q = proj.complement()
    np.matmul(proj.matrix.T, stack, out=stack)
    np.matmul(stack, proj.matrix, out=stack)
    stack += form.coercivity_alpha * (q.T @ form.space.gram_V @ q)
    return stack
