"""Discrete-ordinates (Sn) angular quadrature sets.

Provides the two families Sn transport codes use:

* :func:`level_symmetric` - the classic LQn sets (S2 ... S16).  The mu
  levels follow the standard recursion with tabulated first levels
  (Lewis & Miller, Table 4-1); point-class weights are recovered by
  moment matching, which reproduces the published weight tables and
  extends uniformly across orders.
* :func:`product_quadrature` - Gauss-Legendre polar x uniform
  (Chebyshev) azimuthal product sets of arbitrary size, used for the
  large angle counts of the Kobayashi runs (320 directions in the
  paper).

Weights are normalized so that the full-sphere sum is 4*pi; the scalar
flux is ``phi = sum_a w_a psi_a``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ReproError, check_count

__all__ = ["Quadrature", "level_symmetric", "product_quadrature"]

FOUR_PI = 4.0 * np.pi

# First mu level of the level-symmetric LQn sets (Lewis & Miller).
_LQN_MU1 = {
    2: 0.5773503,
    4: 0.3500212,
    6: 0.2666355,
    8: 0.2182179,
    10: 0.1893213,
    12: 0.1672126,
    14: 0.1519859,
    16: 0.1389568,
}


@dataclass(frozen=True)
class Quadrature:
    """A set of discrete ordinates with weights summing to 4*pi."""

    directions: np.ndarray  # (na, 3) unit vectors
    weights: np.ndarray  # (na,)
    name: str = "quadrature"

    def __post_init__(self):
        d = np.asarray(self.directions, dtype=np.float64)
        w = np.asarray(self.weights, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] != 3 or len(w) != len(d):
            raise ReproError("directions must be (na, 3) with matching weights")
        norms = np.linalg.norm(d, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ReproError("directions must be unit vectors")
        if np.any(w <= 0):
            raise ReproError("weights must be positive")
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "weights", w)

    @property
    def num_angles(self) -> int:
        return len(self.weights)

    def octant_of(self, a: int) -> int:
        """Octant id 0..7 from the signs of the direction components."""
        d = self.directions[a]
        return (d[0] < 0) * 1 + (d[1] < 0) * 2 + (d[2] < 0) * 4

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Quadrature({self.name}, angles={self.num_angles})"


def level_symmetric(n: int) -> Quadrature:
    """Level-symmetric LQn quadrature with ``n(n+2)`` directions.

    ``n`` must be an even order with a tabulated first level (2..16).
    """
    check_count("n", n, "level-symmetric order")
    if n not in _LQN_MU1:
        raise ReproError(
            f"S{n} not available; choose from {sorted(_LQN_MU1)} "
            "or use product_quadrature"
        )
    mu1 = _LQN_MU1[n]
    nlev = n // 2
    if n == 2:
        mus = np.array([mu1])
    else:
        delta = 2.0 * (1.0 - 3.0 * mu1**2) / (n - 2.0)
        mus = np.sqrt(mu1**2 + np.arange(nlev) * delta)

    # Point classes: level index triples (i, j, k), 1-based, with
    # i + j + k = n/2 + 2, grouped by sorted triple (shared weight).
    target = nlev + 2
    triples = []
    for i in range(1, nlev + 1):
        for j in range(1, nlev + 1):
            k = target - i - j
            if 1 <= k <= nlev:
                triples.append((i, j, k))
    classes = sorted({tuple(sorted(t)) for t in triples})
    class_of = {t: classes.index(tuple(sorted(t))) for t in triples}
    counts = np.zeros(len(classes))
    for t in triples:
        counts[class_of[t]] += 1

    # Moment matching on one octant: weights (per octant summing to 1)
    # must integrate even polynomials in mu exactly.
    # sum w = 1; sum w mu_i^2 = 1/3; sum w mu_i^4 = 1/5; ...
    # plus cross moments mu^2 eta^2 = 1/15, etc.
    rows, rhs = [], []

    def add_moment(px: int, py: int, pz: int, value: float):
        row = np.zeros(len(classes))
        for t in triples:
            mx, my, mz = mus[t[0] - 1], mus[t[1] - 1], mus[t[2] - 1]
            row[class_of[t]] += mx**px * my**py * mz**pz
        rows.append(row)
        rhs.append(value)

    # Exact octant moments of x^(2a) y^(2b) z^(2c) over the unit sphere,
    # normalized by the octant solid angle: the classic formula
    # I = Gamma(a+1/2)Gamma(b+1/2)Gamma(c+1/2) / (2 Gamma(a+b+c+3/2))
    # divided by I(0,0,0).
    from math import gamma

    def sphere_moment(a: int, b: int, c: int) -> float:
        num = gamma(a + 0.5) * gamma(b + 0.5) * gamma(c + 0.5)
        den = 2.0 * gamma(a + b + c + 1.5)
        base = gamma(0.5) ** 3 / (2.0 * gamma(1.5))
        return (num / den) / base

    max_deg = nlev  # enough equations to pin the classes
    for total in range(0, max_deg + 1):
        for a in range(total + 1):
            for b in range(total - a + 1):
                c = total - a - b
                add_moment(2 * a, 2 * b, 2 * c, sphere_moment(a, b, c))

    A = np.asarray(rows)
    y = np.asarray(rhs)
    w_class, *_ = np.linalg.lstsq(A, y, rcond=None)
    if np.any(w_class <= 0):
        raise ReproError(f"S{n} weight solve produced non-positive weights")
    # Enforce the zeroth moment exactly (lstsq balances residuals).
    w_class /= float(counts @ w_class)

    # Expand to all 8 octants.
    dirs, wts = [], []
    octants = [
        (sx, sy, sz)
        for sx in (1, -1)
        for sy in (1, -1)
        for sz in (1, -1)
    ]
    for t in triples:
        d = np.array([mus[t[0] - 1], mus[t[1] - 1], mus[t[2] - 1]])
        d /= np.linalg.norm(d)  # guard rounding of the level recursion
        w = w_class[class_of[t]] * (FOUR_PI / 8.0)
        for sx, sy, sz in octants:
            dirs.append(d * np.array([sx, sy, sz]))
            wts.append(w)
    q = Quadrature(np.asarray(dirs), np.asarray(wts), name=f"S{n}")
    if q.num_angles != n * (n + 2):
        raise ReproError(
            f"S{n}: expected {n * (n + 2)} angles, built {q.num_angles}"
        )
    return q


def product_quadrature(n_polar: int, n_azim: int) -> Quadrature:
    """Gauss-Legendre (polar) x uniform (azimuthal) product quadrature.

    ``n_polar`` Gauss points in cos(theta) over (-1, 1), ``n_azim``
    equally-weighted azimuthal angles; total ``n_polar * n_azim``
    directions.  Use for arbitrary angle counts (e.g. the 320-direction
    Kobayashi configuration: 8 polar x 40 azimuthal).
    """
    check_count("n_polar", n_polar, "polar quadrature size")
    check_count("n_azim", n_azim, "azimuthal quadrature size")
    xi, wp = np.polynomial.legendre.leggauss(n_polar)
    phis = (np.arange(n_azim) + 0.5) * (2.0 * np.pi / n_azim)
    wa = 2.0 * np.pi / n_azim
    dirs, wts = [], []
    for x, w in zip(xi, wp):
        s = np.sqrt(max(0.0, 1.0 - x * x))
        for ph in phis:
            dirs.append((s * np.cos(ph), s * np.sin(ph), x))
            wts.append(w * wa)
    return Quadrature(
        np.asarray(dirs), np.asarray(wts), name=f"P{n_polar}x{n_azim}"
    )
