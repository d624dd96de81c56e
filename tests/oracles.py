"""Small oracles several test modules share; the library never calls them."""

import numpy as np

from contactkit.grids import upper_pairs


def skew_of_jacobian(jac: np.ndarray) -> np.ndarray:
    """The upper columns of skew(p): column c is beta_rs = p[..., s, r] -
    p[..., r, s] for (r, s) = upper_pairs(m)[c]."""
    r, s = np.array(upper_pairs(jac.shape[-1])).T
    return jac[..., s, r] - jac[..., r, s]


def top_coefficient(defect, pt):
    """The coefficient of dz_1^...^dz_m of a top-degree defect form."""
    return defect.coefficient_at(pt, tuple(range(defect.m)))
