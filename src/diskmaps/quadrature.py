"""Gauss-Legendre panels and the Legendre-tail test that splits them.

Shared by the Green solver's radial panels (`potential`) and the ray
lengths (`lengths`).  A panel of q Gauss nodes is resolved when the last
two Legendre coefficients of its samples are at roundoff, the split test
of Greengard & Lee ("A direct adaptive Poisson solver of arbitrary order
accuracy", J. Comput. Phys. 125 (1996)); the Gauss rule on it then errs
far less than that (Trefethen, "Is Gauss quadrature better than
Clenshaw-Curtis?", SIAM Review 50 (2008)).  Tables are built on first use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Largest last-two Legendre coefficient of a resolved panel, each over its
# transform row's 1-norm (`legendre_tail`), relative to the scale the caller
# gives.  Transform roundoff alone reaches ~6 eps.
RESOLVED = 16.0 * np.finfo(float).eps


@lru_cache(maxsize=None)
def gauss01(n: int):
    # Cached, shared arrays; callers must treat them as read-only.
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def gauss(lo, hi, n: int):
    """n-point Gauss rule on [lo, hi] for arrays lo, hi: nodes and weights
    along a new last axis."""
    u, w = gauss01(n)
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    return lo + (hi - lo) * u, (hi - lo) * w


@lru_cache(maxsize=None)
def legendre_tail(q: int) -> np.ndarray:
    """Rows that turn q samples at the Gauss nodes into the Legendre
    coefficients of degrees q - 2 and q - 1 (the Gauss quadrature transform),
    each divided by its 1-norm, the most it can make of samples of size 1;
    cached and read-only.  Its roundoff then stays below ~6 eps of the
    largest sample."""
    x, w = np.polynomial.legendre.leggauss(q)
    degrees = np.arange(q - 2, q)
    tail = (degrees[:, None] + 0.5) * w * np.polynomial.legendre.legvander(x, q - 1)[:, q - 2:].T
    tail /= np.abs(tail).sum(axis=1, keepdims=True)
    tail.flags.writeable = False
    return tail


def unresolved(samples: np.ndarray, scale, mass, total) -> np.ndarray:
    """The panel-split test: which panels to split.

    `samples` holds each panel's values at its q Gauss nodes, (panel, node,
    ...).  A panel is unresolved where the largest of its last two Legendre
    coefficients (`legendre_tail`), over all trailing entries, exceeds
    `RESOLVED` times `scale`, and its `mass` exceeds eps times `total`.
    """
    tail = np.abs(np.einsum("nj,pj...->pn...", legendre_tail(samples.shape[1]), samples))
    tail = tail.reshape(len(samples), -1).max(axis=1)
    return (tail > RESOLVED * scale) & (mass > np.finfo(float).eps * total)
