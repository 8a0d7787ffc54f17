"""Problem containers for distributed coding of correlated Gaussian sources.

Two layouts share this module. In the *remote* layout a hidden source
``X`` in R^K is observed by L encoders through ``Y = A X + N`` with
independent Gaussian noises, and the decoder reconstructs ``X`` under a
weighted quadratic distortion. In the *multiterminal* layout the encoders
compress the observations ``Y`` in R^L themselves; a diagonal noise split
``Sigma_Y = Sigma_X + diag(split_sigma_n)`` fixes the bookkeeping used by
:mod:`rdregion.duality` to move between the two layouts.

Rates are measured in nats throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from . import linalg
from .errors import (
    InvalidAuxRate,
    InvalidInput,
    InvalidMatrix,
    InvalidWeights,
    SingularInput,
    SingularSplit,
)

__all__ = [
    "RemoteProblem",
    "MultiterminalProblem",
    "TransformData",
    "MatrixCrit",
    "VectorCrit",
    "SumCrit",
    "DistortionCriterion",
    "check_criterion",
    "FeasibilityReport",
    "as_rates",
    "conditional_covariance",
    "noise_precision",
    "posterior_precision",
    "weighted_error_covariance",
    "mt_posterior_precision",
    "mt_offset",
    "criterion_margin",
    "feasibility",
    "weighted_split_problem",
    "problem_from_dict",
    "load_problem",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    # cached arrays are shared by every caller; an in-place edit would
    # silently corrupt the cache, so it raises instead
    a.setflags(write=False)
    return a


def _check_invertible(name: str, m: np.ndarray) -> None:
    sign, _ = np.linalg.slogdet(m)
    if sign == 0.0:
        raise SingularInput(f"{name} must be invertible")


@dataclass(frozen=True)
class RemoteProblem:
    """Hidden Gaussian source observed through a linear channel.

    Attributes
    ----------
    sigma_x : (K, K) ndarray
        Source covariance, symmetric positive definite.
    a_mat : (L, K) ndarray
        Observation matrix; row l feeds encoder l.
    noise_vars : (L,) ndarray
        Observation noise variances, all positive.
    gamma : (K, K) ndarray
        Invertible distortion weight; the reconstruction error is measured
        through ``gamma @ (x - xhat)``.

    ``sigma_x_inv`` and ``logdet_gamma2`` are computed on first use and
    cached; cached arrays are read-only.
    """

    sigma_x: np.ndarray
    a_mat: np.ndarray
    noise_vars: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        sigma_x = linalg.as_symmetric(self.sigma_x)
        if linalg.min_eig(sigma_x) <= 0.0:
            raise InvalidMatrix("sigma_x must be positive definite")
        a_mat = np.atleast_2d(np.asarray(self.a_mat, dtype=float))
        if a_mat.shape[1] != sigma_x.shape[0]:
            raise InvalidInput(
                f"a has {a_mat.shape[1]} columns but sigma_x is {sigma_x.shape[0]}x{sigma_x.shape[0]}"
            )
        if not np.all(np.isfinite(a_mat)):
            raise InvalidInput("a has non-finite entries")
        noise_vars = np.asarray(self.noise_vars, dtype=float).ravel()
        if noise_vars.shape[0] != a_mat.shape[0]:
            raise InvalidInput(
                f"noise_vars has length {noise_vars.shape[0]} but a has {a_mat.shape[0]} rows"
            )
        if not np.all(np.isfinite(noise_vars)) or np.any(noise_vars <= 0.0):
            raise InvalidInput("noise_vars must be positive and finite")
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.shape != sigma_x.shape:
            raise InvalidInput(f"gamma must be {sigma_x.shape[0]}x{sigma_x.shape[0]}")
        if not np.all(np.isfinite(gamma)):
            raise InvalidInput("gamma has non-finite entries")
        _check_invertible("gamma", gamma)
        object.__setattr__(self, "sigma_x", sigma_x)
        object.__setattr__(self, "a_mat", a_mat)
        object.__setattr__(self, "noise_vars", noise_vars)
        object.__setattr__(self, "gamma", gamma)

    @property
    def k(self) -> int:
        return self.sigma_x.shape[0]

    @cached_property
    def sigma_x_inv(self) -> np.ndarray:
        return _read_only(linalg.inv_pd(self.sigma_x))

    @cached_property
    def logdet_gamma2(self) -> float:
        """``2 log|det gamma|``, the log-determinant of ``gamma @ gamma.T``."""
        return float(2.0 * np.linalg.slogdet(self.gamma)[1])

    @property
    def l(self) -> int:
        return self.a_mat.shape[0]


@dataclass(frozen=True)
class MultiterminalProblem:
    """Direct compression of correlated Gaussian observations.

    ``split_sigma_n`` carries the diagonal of the noise part of the split
    ``sigma_y = sigma_x + diag(split_sigma_n)``; the implied source part
    must stay positive definite.

    The per-problem constants below are computed on first use and cached;
    cached arrays are read-only.
    """

    sigma_y: np.ndarray
    split_sigma_n: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        sigma_y = linalg.as_symmetric(self.sigma_y)
        if linalg.min_eig(sigma_y) <= 0.0:
            raise InvalidMatrix("sigma_y must be positive definite")
        split = np.asarray(self.split_sigma_n, dtype=float).ravel()
        if split.shape[0] != sigma_y.shape[0]:
            raise InvalidInput(
                f"split_sigma_n has length {split.shape[0]} but sigma_y is "
                f"{sigma_y.shape[0]}x{sigma_y.shape[0]}"
            )
        if not np.all(np.isfinite(split)) or np.any(split <= 0.0):
            raise InvalidInput("split_sigma_n must be positive and finite")
        if linalg.min_eig(sigma_y - np.diag(split)) <= 0.0:
            raise SingularSplit("sigma_y - diag(split_sigma_n) must stay positive definite")
        gamma = np.asarray(self.gamma, dtype=float)
        if gamma.shape != sigma_y.shape:
            raise InvalidInput(f"gamma must be {sigma_y.shape[0]}x{sigma_y.shape[0]}")
        if not np.all(np.isfinite(gamma)):
            raise InvalidInput("gamma has non-finite entries")
        _check_invertible("gamma", gamma)
        object.__setattr__(self, "sigma_y", sigma_y)
        object.__setattr__(self, "split_sigma_n", split)
        object.__setattr__(self, "gamma", gamma)

    @property
    def l(self) -> int:
        return self.sigma_y.shape[0]

    @property
    def implied_sigma_x(self) -> np.ndarray:
        return self.sigma_y - np.diag(self.split_sigma_n)

    @cached_property
    def sigma_y_inv(self) -> np.ndarray:
        return _read_only(linalg.inv_pd(self.sigma_y))

    @cached_property
    def logdet_sigma_y(self) -> float:
        return linalg.logdet_pd(self.sigma_y)

    @cached_property
    def offset(self) -> np.ndarray:
        """The covariance offset ``B = Sigma_N + Sigma_N Sigma_X^-1 Sigma_N``.

        B is the gap between estimating the observations and estimating
        the implied hidden source; it drives the multiterminal outer floors
        and the layout transforms in :mod:`rdregion.duality`.
        """
        sn = np.diag(self.split_sigma_n)
        b = sn + sn @ linalg.inv_pd(self.implied_sigma_x) @ sn
        return _read_only(0.5 * (b + b.T))

    @cached_property
    def logdet_sigma_y_offset(self) -> float:
        """``logdet(Sigma_Y + B)``."""
        return linalg.logdet_pd(self.sigma_y + self.offset)

    @cached_property
    def transform(self) -> TransformData:
        """Estimator, posterior and offsets of the layout transform."""
        posterior = linalg.inv_pd(
            linalg.inv_pd(self.implied_sigma_x) + np.diag(1.0 / self.split_sigma_n)
        )
        weighted = self.gamma @ self.offset @ self.gamma.T
        weighted = 0.5 * (weighted + weighted.T)
        return TransformData(
            estimator=_read_only(self.implied_sigma_x @ self.sigma_y_inv),
            posterior=_read_only(posterior),
            offset=self.offset,
            offset_weighted=_read_only(weighted),
            offset_diag=_read_only(np.diag(weighted).copy()),
            offset_trace=float(np.trace(weighted)),
        )


@dataclass(frozen=True)
class TransformData:
    """Matrices linking the multiterminal and remote views of a problem.

    Attributes
    ----------
    estimator : (L, L) ndarray
        ``A~ = Sigma_X (Sigma_X + Sigma_N)^-1``, the MMSE map from Y to X.
    posterior : (L, L) ndarray
        ``(Sigma_X^-1 + Sigma_N^-1)^-1``, the error of that estimate.
    offset : (L, L) ndarray
        ``B = Sigma_N + Sigma_N Sigma_X^-1 Sigma_N``.
    offset_weighted : (L, L) ndarray
        ``Gamma B Gamma^T``.
    offset_diag : (L,) ndarray
        Diagonal of ``offset_weighted`` (per-coordinate budget shifts).
    offset_trace : float
        Trace of ``offset_weighted`` (sum budget shift).
    """

    estimator: np.ndarray
    posterior: np.ndarray
    offset: np.ndarray
    offset_weighted: np.ndarray
    offset_diag: np.ndarray
    offset_trace: float


@dataclass(frozen=True)
class MatrixCrit:
    """Loewner cap on the reconstruction error covariance."""

    target: np.ndarray

    def __post_init__(self):
        target = linalg.as_symmetric(self.target)
        if linalg.min_eig(target) <= 0.0:
            raise InvalidMatrix("matrix distortion target must be positive definite")
        object.__setattr__(self, "target", target)


@dataclass(frozen=True)
class VectorCrit:
    """Per-coordinate caps on diag(gamma @ Sigma_d @ gamma.T)."""

    d_vec: np.ndarray

    def __post_init__(self):
        d_vec = np.asarray(self.d_vec, dtype=float).ravel()
        if not np.all(np.isfinite(d_vec)) or np.any(d_vec <= 0.0):
            raise InvalidInput("vector distortion caps must be positive and finite")
        object.__setattr__(self, "d_vec", d_vec)


@dataclass(frozen=True)
class SumCrit:
    """Cap on tr[gamma @ Sigma_d @ gamma.T]."""

    d: float

    def __post_init__(self):
        d = float(self.d)
        if not np.isfinite(d) or d <= 0.0:
            raise InvalidInput("sum distortion cap must be positive and finite")
        object.__setattr__(self, "d", d)


DistortionCriterion = Union[MatrixCrit, VectorCrit, SumCrit]


def check_criterion(criterion: DistortionCriterion, dim: int) -> None:
    """Check that a criterion fits a ``dim``-dimensional reconstruction.

    Raises InvalidInput for per-coordinate caps of the wrong length, a
    matrix target of the wrong shape, or an unknown criterion type.
    """
    if isinstance(criterion, SumCrit):
        return
    if isinstance(criterion, VectorCrit):
        if criterion.d_vec.shape[0] != dim:
            raise InvalidInput(f"expected {dim} distortion caps, got {criterion.d_vec.shape[0]}")
        return
    if isinstance(criterion, MatrixCrit):
        if criterion.target.shape != (dim, dim):
            raise InvalidInput("matrix distortion target has the wrong shape")
        return
    raise InvalidInput(f"unknown criterion type {type(criterion).__name__}")


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    margin: float


def as_rates(r, l: int) -> np.ndarray:
    """Validate an auxiliary rate vector (length l, finite, nonnegative)."""
    arr = np.asarray(r, dtype=float).ravel()
    if arr.shape[0] != l:
        raise InvalidAuxRate(f"expected {l} rates, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InvalidAuxRate("rates must be finite and nonnegative")
    return arr


def conditional_covariance(p: RemoteProblem) -> np.ndarray:
    """Error covariance of the MMSE estimate of X from all observations.

    Computes ``(sigma_x^-1 + a.T diag(1/noise_vars) a)^-1``.
    """
    prec = p.sigma_x_inv + p.a_mat.T @ (p.a_mat / p.noise_vars[:, None])
    return linalg.inv_pd(prec)


def noise_precision(p: RemoteProblem, r) -> np.ndarray:
    """Diagonal of the rate-limited observation precision.

    Entry l is ``(1 - exp(-2 r_l)) / noise_vars[l]``; it is exactly zero at
    ``r_l == 0`` so a silent encoder drops out of every downstream formula.
    """
    rates = as_rates(r, p.l)
    return -np.expm1(-2.0 * rates) / p.noise_vars


def posterior_precision(p: RemoteProblem, r, keep=None) -> np.ndarray:
    """``sigma_x^-1 + a.T Sigma_N(r)^-1 a`` with optional encoder masking.

    ``keep`` is a boolean array over encoders; entries that are False
    contribute zero precision (used to realize subset-complement terms).
    A ``keep`` of shape (S, L) holds one mask per row and gives the
    (S, K, K) stack of masked precisions; the rates are validated once.
    """
    diag = noise_precision(p, r)
    if keep is not None:
        diag = np.where(np.asarray(keep, dtype=bool), diag, 0.0)
    return p.sigma_x_inv + p.a_mat.T @ (p.a_mat * diag[..., None])


def weighted_error_covariance(p: RemoteProblem) -> np.ndarray:
    """``gamma @ conditional_covariance @ gamma.T``, the distortion floor."""
    return p.gamma @ conditional_covariance(p) @ p.gamma.T


def mt_posterior_precision(mp: MultiterminalProblem, r, keep=None) -> np.ndarray:
    """``sigma_y^-1 + Sigma_V(r)^-1`` with optional encoder masking.

    Encoder l quantizes its own observation through a test channel whose
    noise precision is ``(exp(2 r_l) - 1) / split_sigma_n[l]``; it is
    exactly zero at ``r_l == 0``. ``keep`` masks encoders out as in
    :func:`posterior_precision`; a ``keep`` of shape (S, L) gives the
    (S, L, L) stack.
    """
    rates = as_rates(r, mp.l)
    diag = np.expm1(2.0 * rates) / mp.split_sigma_n
    if keep is not None:
        diag = np.where(np.asarray(keep, dtype=bool), diag, 0.0)
    # diagonal matrices of the rows of diag, written through a flat view
    l = diag.shape[-1]
    noise = np.zeros(diag.shape + (l,))
    noise.reshape(-1, l * l)[:, :: l + 1] = diag
    return mp.sigma_y_inv + noise


def mt_offset(mp: MultiterminalProblem) -> np.ndarray:
    """The covariance offset B of a multiterminal problem (cached, see
    :attr:`MultiterminalProblem.offset`)."""
    return mp.offset


def criterion_margin(p: RemoteProblem, criterion: DistortionCriterion, cov) -> float:
    """Signed slack of a distortion criterion against an error covariance.

    The margin is the minimum eigenvalue gap for a matrix criterion, the
    worst per-coordinate gap for a vector criterion, or the trace gap for
    a sum criterion; the criterion holds iff the margin is positive.
    """
    check_criterion(criterion, p.k)
    cov = np.asarray(cov, dtype=float)
    if isinstance(criterion, MatrixCrit):
        return float(linalg.min_eig(criterion.target - cov))
    weighted = p.gamma @ cov @ p.gamma.T
    if isinstance(criterion, VectorCrit):
        return float(np.min(criterion.d_vec - np.diag(weighted)))
    return float(criterion.d - np.trace(weighted))


def feasibility(p: RemoteProblem, criterion: DistortionCriterion) -> FeasibilityReport:
    """Check whether a distortion criterion is reachable at unbounded rates."""
    margin = criterion_margin(p, criterion, conditional_covariance(p))
    return FeasibilityReport(feasible=margin > 0.0, margin=margin)


def weighted_split_problem(sigma_y, weights, delta: float) -> MultiterminalProblem:
    """Multiterminal problem with the split ``Sigma_N = delta * Gamma^-2``.

    ``weights`` is the diagonal of Gamma and must be elementwise >= 1;
    ``delta`` must be positive and small enough that the implied source
    covariance stays positive definite.
    """
    w = np.asarray(weights, dtype=float).ravel()
    if np.any(w < 1.0) or not np.all(np.isfinite(w)):
        raise InvalidWeights("weights must be finite and >= 1")
    if not np.isfinite(delta) or delta <= 0.0:
        raise InvalidInput("delta must be positive")
    split = delta / (w * w)
    return MultiterminalProblem(sigma_y=sigma_y, split_sigma_n=split, gamma=np.diag(w))


def _field_matrix(d: dict, key: str, rows: int, cols: int) -> np.ndarray:
    try:
        m = np.asarray(d[key], dtype=float)
    except KeyError:
        raise InvalidInput(f"missing field '{key}'") from None
    except (TypeError, ValueError):
        raise InvalidInput(f"field '{key}' is not a numeric matrix") from None
    if m.shape != (rows, cols):
        raise InvalidInput(f"field '{key}' must be {rows}x{cols}, got shape {m.shape}")
    return m


def _field_vector(d: dict, key: str, length: int) -> np.ndarray:
    try:
        v = np.asarray(d[key], dtype=float).ravel()
    except KeyError:
        raise InvalidInput(f"missing field '{key}'") from None
    except (TypeError, ValueError):
        raise InvalidInput(f"field '{key}' is not a numeric vector") from None
    if v.shape[0] != length:
        raise InvalidInput(f"field '{key}' must have length {length}, got {v.shape[0]}")
    return v


def problem_from_dict(d: dict) -> RemoteProblem | MultiterminalProblem:
    """Build a problem from a parsed JSON object.

    Remote problems carry ``k, l, sigma_x, a, noise_vars, gamma``;
    multiterminal problems carry ``l, sigma_y, split_sigma_n, gamma``.
    """
    if not isinstance(d, dict):
        raise InvalidInput("problem file must contain a JSON object")
    if "sigma_y" in d:
        try:
            l = int(d["l"])
        except (KeyError, TypeError, ValueError):
            raise InvalidInput("missing or invalid field 'l'") from None
        return MultiterminalProblem(
            sigma_y=_field_matrix(d, "sigma_y", l, l),
            split_sigma_n=_field_vector(d, "split_sigma_n", l),
            gamma=_field_matrix(d, "gamma", l, l),
        )
    if "sigma_x" in d:
        try:
            k = int(d["k"])
            l = int(d["l"])
        except (KeyError, TypeError, ValueError):
            raise InvalidInput("missing or invalid fields 'k'/'l'") from None
        return RemoteProblem(
            sigma_x=_field_matrix(d, "sigma_x", k, k),
            a_mat=_field_matrix(d, "a", l, k),
            noise_vars=_field_vector(d, "noise_vars", l),
            gamma=_field_matrix(d, "gamma", k, k),
        )
    raise InvalidInput("problem file must contain either 'sigma_x' or 'sigma_y'")


def load_problem(path) -> RemoteProblem | MultiterminalProblem:
    """Load a problem description from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read problem file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return problem_from_dict(data)
