"""Gauss-Legendre panels and the one adaptive loop that splits them, shared
by the Green solver's radial panels (`potential`) and the ray lengths
(`lengths`); each gives its sampler, its mass density and its limits.

The split rule.  Every panel of q Gauss nodes belongs to an owner (a ray,
or the one Green grid).  A panel is unresolved when the largest of the
last two Legendre coefficients of its samples, over all their trailing
entries, is above `RESOLVED` times its owner's largest |sample|, and its
mass, the Gauss sum of the density over it, is above eps times its
owner's total: the split test of Greengard & Lee ("A direct adaptive
Poisson solver of arbitrary order accuracy", J. Comput. Phys. 125 (1996));
the Gauss rule on a resolved panel then errs far less than that
(Trefethen, "Is Gauss quadrature better than Clenshaw-Curtis?", SIAM
Review 50 (2008)).  Each round halves every unresolved panel that the
caller's limit lets split, except in an owner whose panels would pass the
caller's cap, and samples all the new halves in one call.  The loop ends
at the first round that splits nothing; a panel that a limit kept whole
stays unresolved.  Tables are built on first use.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Largest last-two Legendre coefficient of a resolved panel, each over its
# transform row's 1-norm (`legendre_tail`), relative to the owner's largest
# |sample|.  Transform roundoff alone reaches ~6 eps.
RESOLVED = 16.0 * np.finfo(float).eps


def read_only(*arrays):
    """The arrays, made read-only for a cache to share: one alone, else a tuple."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


@lru_cache(maxsize=None)
def gauss01(n: int):
    """n-point Gauss rule on [0, 1]: nodes and weights, cached and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return read_only((x + 1.0) / 2.0, w / 2.0)


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
    return read_only(tail)


def refine_panels(sample, owner, lo, hi, splittable, cap: int, samples=None, density=None):
    """Split unresolved panels in halves, round by round (module docstring).

    The panels [lo, hi] are listed owner by owner, `owner` numbering the
    owners 0, 1, ... in order.  `sample(owner, lo, hi)` gives the samples at
    the q Gauss nodes of such panels, (panel, q, ...): of the starting
    panels unless `samples` holds them, then of each round's new halves.
    `splittable(lo, hi, owner, depth)` says which panels the caller's limit
    lets split, depth counting their halvings; `cap` is the most panels of
    an owner.  The mass density is the envelope, the largest |sample| over
    the trailing entries, or `density(envelope, nodes)`.

    Returns the panels' owner, lo and hi, their samples and masses, and
    which of them the last round found unresolved.
    """
    if samples is None:
        samples = sample(owner, lo, hi)
    q = samples.shape[1]
    weights = gauss01(q)[1]
    depth = np.zeros(owner.size, dtype=int)
    while True:
        first = np.searchsorted(owner, np.arange(owner[-1] + 1))  # each owner's first panel
        envelope = np.abs(samples).reshape(owner.size, q, -1).max(axis=2)
        rho = envelope if density is None else density(envelope, gauss(lo, hi, q)[0])
        mass = (rho * weights).sum(axis=1) * (hi - lo)
        total = np.add.reduceat(mass, first)[owner]
        scale = np.maximum.reduceat(envelope.max(axis=1), first)[owner]
        tail = np.abs(np.einsum("nj,pj...->pn...", legendre_tail(q), samples))
        pending = ((tail.reshape(owner.size, -1).max(axis=1) > RESOLVED * scale)
                   & (mass > np.finfo(float).eps * total))
        split = pending & splittable(lo, hi, owner, depth)
        split &= (np.bincount(owner, 1 + split) <= cap)[owner]
        if not split.any():
            return owner, lo, hi, samples, mass, pending
        # Each panel's rows in the new list: a split panel's halves take two.
        rows = np.repeat(np.arange(owner.size), 1 + split)
        left = (np.cumsum(1 + split) - 2)[split]
        mid = (lo + hi)[split] / 2.0
        owner, lo, hi, samples, depth = owner[rows], lo[rows], hi[rows], samples[rows], depth[rows]
        hi[left], lo[left + 1] = mid, mid
        fresh = np.repeat(split, 1 + split)
        depth += fresh
        samples[fresh] = sample(owner[fresh], lo[fresh], hi[fresh])
