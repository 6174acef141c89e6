"""Rotation frames and the sphere atlas.

Each split of a collision tree contributes a pair of special-orthogonal
frames, functions of the split's angles (phi, theta):

    left(phi, theta)  = [[-cos t cos p,  sin t,  cos t sin p],
                         [-sin t cos p, -cos t,  sin t sin p],
                         [ sin p,             0,       cos p]]

    right(phi, theta) = [[ sin t,  cos t sin p, -cos t cos p],
                         [-cos t,  sin t sin p, -sin t cos p],
                         [      0,       cos p,        sin p]]

right(phi, theta) is left(phi, theta) with its columns cycled, [..., [1, 2, 0]].

The frames' third columns are the post-collisional directions of the two
branches when the incoming direction is e3.  Composing them along
root-to-leaf paths (`wildsim.sampler.grow`) yields one rotation per leaf;
applied to e3 and mapped through a frame B(u) with B(u) e3 = u they give
the leaf directions on the sphere.  No continuous global B exists, so B is realized through four
smooth elliptic charts, each carrying an explicit orthonormal frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfChart

E3 = np.array([0.0, 0.0, 1.0])
ROTATION_TOL = 1e-12
CHART_TOL = 1e-9

_ELLIPSE_A = 5.0 * math.pi      # u half-axis scale
_ELLIPSE_B = 11.0 * math.pi     # v half-axis scale
_ELLIPSE_R2 = (1.0 / 12.0) ** 2
_V_CENTER = {1: math.pi, 2: 0.0, 3: math.pi, 4: 0.0}


def left_frame(phi, theta) -> np.ndarray:
    """Left collision frame; vectorized, returns shape (..., 3, 3)."""
    p, t = np.broadcast_arrays(np.asarray(phi, float), np.asarray(theta, float))
    cp, sp, ct, st = np.cos(p), np.sin(p), np.cos(t), np.sin(t)
    out = np.empty(p.shape + (3, 3))
    out[..., 0, 0] = -ct * cp
    out[..., 0, 1] = st
    out[..., 0, 2] = ct * sp
    out[..., 1, 0] = -st * cp
    out[..., 1, 1] = -ct
    out[..., 1, 2] = st * sp
    out[..., 2, 0] = sp
    out[..., 2, 1] = 0.0
    out[..., 2, 2] = cp
    return out


def right_frame(phi, theta) -> np.ndarray:
    """Right collision frame; vectorized, returns shape (..., 3, 3)."""
    return collision_frames(phi, theta)[1]


def collision_frames(phi, theta) -> tuple[np.ndarray, np.ndarray]:
    """The (left, right) frames of splits from one evaluation: the right
    frame is the left one with its columns cycled, copied to C order (matmul
    over the cycled layout takes about twice as long)."""
    left = left_frame(phi, theta)
    return left, np.ascontiguousarray(left[..., [1, 2, 0]])


def rotation_z(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def is_rotation(q: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    q = np.asarray(q)
    if q.shape != (3, 3):
        return False
    ortho = float(np.max(np.abs(q.T @ q - np.eye(3))))
    return ortho < tol and abs(float(np.linalg.det(q)) - 1.0) < tol


@dataclass(frozen=True)
class RotationArray:
    """One rotation per leaf, in left-to-right leaf order: shape (n, 3, 3)."""

    rotations: np.ndarray

    def __len__(self):
        return len(self.rotations)

    def third_columns(self) -> np.ndarray:
        """Each rotation's third column (its image of e3), shape (n, 3)."""
        return self.rotations[..., 2]


# --- sphere atlas -------------------------------------------------------------

def chart_point(k: int, u: float, v: float) -> np.ndarray:
    """Parametrization of chart k at local coordinates (u, v)."""
    su, cu, sv, cv = math.sin(u), math.cos(u), math.sin(v), math.cos(v)
    if k in (1, 2):
        return np.array([cv * su, sv * su, cu])
    if k in (3, 4):
        return np.array([cu, cv * su, sv * su])
    raise OutOfChart(f"chart index {k} outside 1..4")


def _ellipse_excess(k: int, u: float, v: float) -> float:
    du = (u - math.pi / 2.0) / _ELLIPSE_A
    dv = (v - _V_CENTER[k]) / _ELLIPSE_B
    return du * du + dv * dv - _ELLIPSE_R2


def chart_parameters(k: int, w) -> tuple[float, float]:
    """Invert the chart map at a unit vector; OutOfChart beyond the domain."""
    w = np.asarray(w, float)
    if k in (1, 2):
        u = math.acos(min(1.0, max(-1.0, float(w[2]))))
        v = math.atan2(float(w[1]), float(w[0]))
    elif k in (3, 4):
        u = math.acos(min(1.0, max(-1.0, float(w[0]))))
        v = math.atan2(float(w[2]), float(w[1]))
    else:
        raise OutOfChart(f"chart index {k} outside 1..4")
    if k in (1, 3) and v < 0.0:
        v += 2.0 * math.pi
    if _ellipse_excess(k, u, v) > CHART_TOL:
        raise OutOfChart(f"direction outside chart {k}")
    return u, v


def chart_contains(k: int, w) -> bool:
    try:
        chart_parameters(k, w)
    except OutOfChart:
        return False
    return True


def chart_for_direction(w) -> int:
    """First chart (in the fixed order 1..4) containing the direction."""
    for k in (1, 2, 3, 4):
        if chart_contains(k, w):
            return k
    raise OutOfChart("direction not covered by any chart")  # pragma: no cover


def _basis_from_parameters(k: int, u: float, v: float) -> np.ndarray:
    su, cu, sv, cv = math.sin(u), math.cos(u), math.sin(v), math.cos(v)
    rows = [[sv, cv * cu, cv * su], [-cv, sv * cu, sv * su], [0.0, -su, cu]]
    if k in (1, 2):
        return np.array(rows)
    return np.array([rows[2], rows[0], rows[1]])


def chart_basis(k: int, w) -> np.ndarray:
    """Orthonormal frame of chart k whose third column is the direction."""
    u, v = chart_parameters(k, w)
    return _basis_from_parameters(k, u, v)


def frame_for(w) -> np.ndarray:
    """Orthonormal frame B with B e3 = w, from the first chart containing w."""
    return chart_basis(chart_for_direction(w), w)
