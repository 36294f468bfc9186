"""The Gauss tables and the adaptive panel loop, on synthetic owners.

Each owner's samples are |x - c|^0.5 on [0, 1] for an owner with a kink
c = 1/3 (never a panel edge, so every round has a panel to split there),
and the polynomial 1 + x - x^3 for an owner without one (nan), which the
16-node panels resolve.
"""

import numpy as np
import pytest

from diskmaps.quadrature import gauss, gauss01, legendre_tail, refine_panels

Q = 16
KINK = 1.0 / 3.0


def _sampler(kinks, calls):
    """sample(owner, lo, hi) of the owners' functions; each call appends its
    owner array to `calls`."""
    kinks = np.asarray(kinks, dtype=float)

    def sample(owner, lo, hi):
        calls.append(owner.copy())
        x = gauss(lo, hi, Q)[0]
        c = kinks[owner][:, None]
        return np.where(np.isnan(c), 1.0 + x - x**3, np.sqrt(np.abs(x - c)))

    return sample


def _start(counts):
    """Owner, lo, hi of uniform starting panels on [0, 1], counts[i] for owner i."""
    owner = np.repeat(np.arange(len(counts)), counts)
    share = np.concatenate([np.arange(n) / n for n in counts])
    width = 1.0 / np.asarray(counts, dtype=float)[owner]
    return owner, share, share + width


def _depth_limit(most):
    return lambda lo, hi, owner, depth: depth < most


def test_the_gauss_tables_are_read_only():
    for table in (*gauss01(Q), legendre_tail(Q)):
        with pytest.raises(ValueError):
            table[0] = 0.0
    # A write through the panel rule's output leaves the tables alone.
    nodes, weights = gauss(np.array([0.0]), np.array([2.0]), Q)
    nodes[...] = weights[...] = 0.0
    assert np.all(gauss01(Q)[0] > 0.0) and gauss01(Q)[1].sum() == pytest.approx(1.0, abs=1e-15)


def test_a_smooth_owner_is_sampled_once_and_never_split():
    calls = []
    owner, lo, hi, samples, mass, unresolved = refine_panels(
        _sampler([KINK, np.nan], calls), *_start([1, 1]), _depth_limit(20), 64)
    smooth = owner == 1
    assert np.array_equal(lo[smooth], [0.0]) and np.array_equal(hi[smooth], [1.0])
    assert [np.count_nonzero(c == 1) for c in calls] == [1] + [0] * (len(calls) - 1)
    assert not unresolved[smooth].any()
    assert mass[smooth].sum() == pytest.approx(1.25, rel=1e-15)
    # The kinked owner's panels tile [0, 1] and integrate |x - 1/3|^0.5.
    kinked = owner == 0
    assert lo[kinked][0] == 0.0 and hi[kinked][-1] == 1.0
    assert np.array_equal(lo[kinked][1:], hi[kinked][:-1])
    want = 2.0 / 3.0 * (KINK**1.5 + (1.0 - KINK) ** 1.5)
    assert mass[kinked].sum() == pytest.approx(want, rel=1e-9)
    assert samples.shape == (owner.size, Q)


def test_a_panel_a_limit_keeps_whole_stays_unresolved():
    owner, lo, hi, _, _, unresolved = refine_panels(
        _sampler([KINK, np.nan], []), *_start([1, 1]), _depth_limit(20), 64)
    # Every round halves the panel around the kink until its depth is 20.
    around = (owner == 0) & (lo <= KINK) & (KINK < hi)
    assert np.count_nonzero(around) == 1 and (hi - lo)[around] == 2.0**-20
    assert unresolved[around].all()
    # The panels that stay unresolved are the deepest ones beside the kink.
    assert np.all((hi - lo)[unresolved] == 2.0**-20)
    assert np.all(np.abs(lo[unresolved] - KINK) <= 2.0**-19)


def test_each_round_of_splits_is_one_sample_call():
    calls = []
    owner, _, _, samples, _, _ = refine_panels(
        _sampler([KINK, np.nan], calls), *_start([1, 1]), _depth_limit(20), 64)
    # The starting panels, then one call for each of the 20 rounds of splits,
    # which samples both halves of every panel split in that round.
    assert len(calls) == 21
    assert sum(c.size for c in calls) == 2 * owner.size - 2
    # Starting samples handed in are not taken again.
    again = []
    start = _start([1, 1])
    given = _sampler([KINK, np.nan], [])(start[0], *start[1:])
    result = refine_panels(_sampler([KINK, np.nan], again), *start, _depth_limit(20), 64,
                           samples=given)
    assert len(again) == 20 and np.array_equal(result[3], samples)


def test_an_owner_at_its_cap_stops_alone():
    calls = []
    cap = 12
    owner, lo, hi, _, _, unresolved = refine_panels(
        _sampler([KINK, KINK], calls), *_start([8, 1]), _depth_limit(30), cap)
    counts = np.bincount(owner)
    pending = np.bincount(owner, unresolved)
    # Both owners stopped on the cap: splitting every unresolved panel
    # would pass it.
    assert np.all(counts <= cap) and np.all(counts + pending > cap)
    # Owner 0, which starts with more panels, stops first; owner 1 keeps
    # splitting in the rounds after.
    last = max(i for i, c in enumerate(calls) if (c == 0).any())
    assert any((c == 1).any() for c in calls[last + 1:])


def test_the_density_weights_the_mass():
    # A density envelope * x gives the mass of (1 + x - x^3) x dx, the
    # Green solver's s ds.
    _, _, _, _, mass, unresolved = refine_panels(
        _sampler([np.nan], []), *_start([2]), _depth_limit(20), 64, density=np.multiply)
    assert mass.size == 2 and not unresolved.any()
    assert mass.sum() == pytest.approx(0.5 + 1.0 / 3.0 - 0.2, rel=1e-15)
