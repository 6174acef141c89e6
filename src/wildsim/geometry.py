"""Rotation frames: the collision frames and the frame of a direction.

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
applied to e3 and mapped through a rotation B(u) with B(u) e3 = u they give
the leaf directions psi_j = B(u) O_j e3 on the sphere.  B need only be
measurable in u: the root azimuth is uniform, so the law of the psi_j does
not depend on which B is chosen (no continuous choice exists on the whole
sphere).  `frame_for` takes Duff et al.'s branchless orthonormal completion
(JCGT 2017), vectorised over any array of directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


@dataclass(frozen=True)
class RotationArray:
    """One rotation per leaf, in left-to-right leaf order: shape (n, 3, 3)."""

    rotations: np.ndarray

    def third_columns(self) -> np.ndarray:
        """Each rotation's third column (its image of e3), shape (n, 3)."""
        return self.rotations[..., 2]


def frame_for(w) -> np.ndarray:
    """Rotations B with B e3 = w for unit vectors w, shape (..., 3) to
    (..., 3, 3).  With s = copysign(1, z), a = -1 / (s + z) and b = x y a,
    the columns are (1 + s x^2 a, s b, -s x), (b, s + y^2 a, -y) and w
    itself (Duff et al., JCGT 2017).  A zero z counts as +0, so the sign
    of a zero never changes the frame.  Each direction is computed on its
    own, so an array call equals its per-row calls bit for bit."""
    w = np.asarray(w, float)
    x, y = w[..., 0], w[..., 1]
    z = w[..., 2] + 0.0  # -0 + 0 = +0
    s = np.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    out = np.empty(w.shape + (3,))
    out[..., 0, 0] = 1.0 + s * x * x * a
    out[..., 1, 0] = s * b
    out[..., 2, 0] = -s * x
    out[..., 0, 1] = b
    out[..., 1, 1] = s + y * y * a
    out[..., 2, 1] = -y
    out[..., 2] = w
    return out
