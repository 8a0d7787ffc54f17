"""Transforms between the multiterminal and remote layouts.

Compressing correlated observations ``Y = X + N`` (multiterminal) and
estimating the hidden part ``X`` from rate-limited looks at ``Y`` (remote)
are two views of one problem. The bridge is the MMSE estimator
``A~ = Sigma_X (Sigma_X + Sigma_N)^-1`` and the covariance offset
``B = Sigma_N + Sigma_N Sigma_X^-1 Sigma_N``:

* an observation-side error covariance ``Sigma_d`` maps to the hidden-side
  error covariance ``A~ (Sigma_d + B) A~^T``;
* the distortion weight and budget map to ``Gamma A~^-1`` and
  ``D + tr(Gamma B Gamma^T)`` (per-coordinate caps shift by the diagonal).

Every mt-prefixed quantity in :mod:`rdregion.regions` can therefore be
recomputed through the transformed remote problem; the two routes are kept
separate so they can be cross-checked.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InvalidInput
from .problems import (
    DistortionCriterion,
    MatrixCrit,
    MultiterminalProblem,
    RemoteProblem,
    SumCrit,
    TransformData,
    VectorCrit,
    check_criterion,
)
from .regions import RegionSpec, region_inner, region_outer
from .waterfill import waterfill_det

__all__ = [
    "TransformData",
    "transform_data",
    "dual_remote",
    "dual_criterion",
    "transform_covariance",
    "mt_det_level",
    "mt_region_inner_transformed",
    "mt_region_outer_transformed",
]


def transform_data(mp: MultiterminalProblem) -> TransformData:
    """Estimator, posterior and offsets of the layout transform (cached on
    the problem, see :attr:`MultiterminalProblem.transform`)."""
    return mp.transform


def dual_remote(mp: MultiterminalProblem) -> RemoteProblem:
    """Remote problem whose bounds reproduce the multiterminal ones.

    The hidden source is the implied ``Sigma_X``, observed through the
    identity channel with the split noises; the distortion weight becomes
    ``Gamma A~^-1`` so that weighted distortions line up after the budget
    shift from :func:`dual_criterion`.
    """
    data = transform_data(mp)
    return RemoteProblem(
        sigma_x=mp.implied_sigma_x,
        a_mat=np.eye(mp.l),
        noise_vars=mp.split_sigma_n,
        gamma=mp.gamma @ np.linalg.inv(data.estimator),
    )


def dual_criterion(
    mp: MultiterminalProblem, criterion: DistortionCriterion
) -> DistortionCriterion:
    """Map an observation-side distortion criterion to the remote view."""
    check_criterion(criterion, mp.l)
    data = transform_data(mp)
    if isinstance(criterion, SumCrit):
        return SumCrit(criterion.d + data.offset_trace)
    if isinstance(criterion, VectorCrit):
        return VectorCrit(criterion.d_vec + data.offset_diag)
    mapped = data.estimator @ (criterion.target + data.offset) @ data.estimator.T
    return MatrixCrit(linalg.as_symmetric(mapped))


def transform_covariance(mp: MultiterminalProblem, sigma_d) -> np.ndarray:
    """Hidden-side error covariance ``A~ (Sigma_d + B) A~^T``."""
    data = transform_data(mp)
    sigma_d = linalg.as_symmetric(sigma_d)
    if sigma_d.shape != data.offset.shape:
        raise InvalidInput("covariance has the wrong shape")
    return linalg.as_symmetric(
        data.estimator @ (sigma_d + data.offset) @ data.estimator.T
    )


def mt_det_level(mp: MultiterminalProblem, criterion: DistortionCriterion, r) -> float:
    """Offset determinant level ``max det(Sigma_d + B)`` for the outer bound.

    Computed through the transform: the remote-side level of the dual
    problem divided by ``det(A~)^2``. Feeds
    :func:`rdregion.regions.mt_rate_bound_outer`.
    """
    data = transform_data(mp)
    level = waterfill_det(dual_remote(mp), dual_criterion(mp, criterion), r)
    return float(level / np.linalg.det(data.estimator) ** 2)


def mt_region_inner_transformed(mp: MultiterminalProblem, r) -> RegionSpec:
    """Inner region of a multiterminal problem via the remote transform.

    Same floors as :func:`rdregion.regions.mt_region_inner`, computed on
    the dual remote problem; keeping both routes allows cross-validation.
    """
    return region_inner(dual_remote(mp), r)


def mt_region_outer_transformed(
    mp: MultiterminalProblem, criterion: DistortionCriterion, r
) -> RegionSpec:
    """Outer region of a multiterminal problem via the remote transform."""
    dual = dual_remote(mp)
    level = waterfill_det(dual, dual_criterion(mp, criterion), r)
    return region_outer(dual, r, level)
