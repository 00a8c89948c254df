"""Dyadic bilinear block constants: regimes, support conditions, exponents."""
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from kdvrad import bilinear
from kdvrad.bilinear import (DyadicTriple, WavePacketField, fit_exponent,
                             measure_block_ratio, predicted_block_constant,
                             product, xnorm_product_ratio)
from kdvrad.bumps import dyadic_bump
from kdvrad.errors import UnresolvableBandError, VanishingConfigurationError

from conftest import admissible_xi3, pick, resonance_roots, targeted_tube_pair


def support(n):
    """|s| range of supp beta_n: [n/2, 2n], or [0, 2] for n = 1; beta_n > 0 inside."""
    return (0.0, 2.0) if n == 1 else (n / 2.0, 2.0 * n)


def output_reachable(t, points=801):
    """Brute force of the support lemma, independent of ``satisfies_support_conditions``.

    Does some input pair with |xi_k| in supp beta_Nk and |lam_k| in supp beta_Lk
    (k = 1, 2) put xi3 = xi1 + xi2 and lam3 = lam1 + lam2 - 3 xi1 xi2 xi3 where
    beta_N3(xi3) beta_L3(lam3) > 0, i.e. inside the open supports?  xi1 and xi2 run
    over ``points`` values per sign; lam1 + lam2 over each sign choice is an exact interval.
    """
    (c3, d3), (c, d) = support(t.n3), support(t.l3)
    signs = list(itertools.product((-1.0, 1.0), repeat=2))
    lam_sums = []
    for s1, s2 in signs:
        (p1, q1), (p2, q2) = (sorted((s * lo, s * hi)) for s, (lo, hi)
                              in ((s1, support(t.l1)), (s2, support(t.l2))))
        lam_sums.append((p1 + p2, q1 + q2))
    for s1, s2 in signs:
        xi1 = s1 * np.linspace(*support(t.n1), points)[:, None]
        xi2 = s2 * np.linspace(*support(t.n2), points)[None, :]
        xi3 = xi1 + xi2
        h = 3.0 * xi1 * xi2 * xi3
        in_n3 = (np.abs(xi3) > c3) & (np.abs(xi3) < d3)
        for p, q in lam_sums:  # lam3 in [p - h, q - h] meets +-(c, d)
            if np.any(in_n3 & (((p - h < d) & (q - h > c)) | ((p - h < -c) & (q - h > -d)))):
                return True
    return False


def single_tube(xi_lo, lam, dxi):
    """One tube built alone, as the probes built each trial's: 5 lattice points from xi_lo,
    each at every modulation in lam."""
    idx = int(round(xi_lo / dxi)) + np.arange(5)
    tau = (lam[None, :] + (idx * dxi)[:, None] ** 3).ravel()
    return WavePacketField(np.repeat(idx, lam.size), tau, np.ones(tau.size, dtype=complex),
                           dxi, bilinear.DEFAULT_DTAU)


def row_slices(f):
    """The cells of each row of ``f``, as slices of its flat arrays."""
    return [slice(a, b) for a, b in zip([0, *f.ends[:-1]], f.ends)]


def trial_by_trial(draw, ratio, lams, trials, seed):
    """(max ratio, attempts) of the per-trial loop: each admissible draw from the one seeded
    stream is built, multiplied and measured alone (a stack of one row, so one ratio), and
    the max starts from 0.0."""
    rng = np.random.default_rng(seed)
    best, performed, attempts = 0.0, 0, 0
    while performed < trials:
        attempts += 1
        params = draw(rng)
        if params is not None:
            lo1, lo2, dxi = params
            (r,) = ratio(single_tube(lo1, lams[0], dxi), single_tube(lo2, lams[1], dxi))
            best = max(best, r)
            performed += 1
    return best, attempts


def block_oracle(t, trials, seed):
    """``measure_block_ratio``'s (measured_lhs, attempts), one trial at a time."""
    tg = bilinear._tube_targets(t)
    return trial_by_trial(
        lambda rng: targeted_tube_pair(tg, *rng.random(2).tolist()),
        lambda u, v: product(u, v).band_l2_norm(t.n3, t.l3) / (u.l2_norm() * v.l2_norm()),
        (tg["lam1"], tg["lam2"]), trials, seed)


def xnorm_oracle(n, trials, seed):
    """``xnorm_product_ratio(n, n, n)``, one trial at a time."""
    def ratio(u, v):
        w = product(u, v)
        amp = w.amp * (1j * w.xi) * dyadic_bump(n, w.xi) / (1j + w.modulation)
        f = WavePacketField(w.xi_index, w.tau, amp, w.dxi, w.dtau)
        return f.x_norm() / (u.x_norm() * v.x_norm())

    bands = [bilinear._band(n, 0.1)] * 3
    lam = bilinear._lam_centers(1)
    return trial_by_trial(lambda rng: bilinear._xnorm_tube_pair(bands, rng), ratio, (lam, lam),
                          trials, seed)[0]


def assert_vanishes(t):
    """The block is identically zero: no output reaches the N3 x L3 supports, the
    support conditions fail, and the measurement refuses the triple."""
    assert not output_reachable(t)
    assert not t.satisfies_support_conditions()
    with pytest.raises(VanishingConfigurationError):
        measure_block_ratio(t, trials=4, seed=1)


def lattice_cloud(n, l, seed):
    """Random-amplitude cloud on 48 consecutive lattice points across supp beta_n, each at
    16 modulations across supp beta_l; the spacing depends on n alone."""
    rng = np.random.default_rng(seed)
    lo, hi = support(n)
    dxi = (hi - lo) / 48
    idx = np.repeat(int(round(lo / dxi)) + np.arange(48), 16)
    lam = np.tile(np.linspace(*support(l), 16), 48)
    amp = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
    return WavePacketField(idx, lam + (idx * dxi) ** 3, amp, dxi, 0.5)


def product_oracle(u, v):
    """``product`` pair by pair, as (xi_index, tau, amp, dxi per cell, row ends).

    Each row's pairs, u's cell major, add amp_u amp_v w (w = dxi dtau / (2 pi)^2) to the
    cell (xi_u + xi_v, round((tau_u + tau_v) / dtau)), one pair at a time in input order,
    from 0.0; the cells come out by row, then xi index, then tau bin.
    """
    out = {name: [] for name in ("xi_index", "tau", "amp", "dxi")}
    ends = []
    for dxi, cells_u, cells_v in zip(u.dxi, row_slices(u), row_slices(v)):
        xa, ta, aa = (a[cells_u] for a in (u.xi_index, u.tau, u.amp))
        xb, tb, ab = (a[cells_v] for a in (v.xi_index, v.tau, v.amp))
        pair_amps = ((aa[:, None] * ab[None, :]) * (dxi * u.dtau / (2 * np.pi) ** 2)).ravel()
        cells = {}
        for k, (i, j) in enumerate(itertools.product(range(xa.size), range(xb.size))):
            cell = (int(xa[i] + xb[j]), int(np.round((ta[i] + tb[j]) / u.dtau)))
            re, im = cells.get(cell, (0.0, 0.0))
            cells[cell] = (re + pair_amps[k].real, im + pair_amps[k].imag)
        for (xi_index, tau_bin), (re, im) in sorted(cells.items()):
            out["xi_index"].append(xi_index)
            out["tau"].append(tau_bin * u.dtau)
            out["amp"].append(complex(re, im))
            out["dxi"].append(dxi)
        ends.append(len(out["amp"]))
    return (np.array(out["xi_index"], dtype=np.int64), np.array(out["tau"], dtype=np.float64),
            np.array(out["amp"], dtype=np.complex128), np.array(out["dxi"]), ends)


def xnorm_tube_pair_by_choice(bands, rng):
    """``_xnorm_tube_pair`` with its signs drawn by ``rng.choice((-1.0, 1.0))``: the
    reference for its integer sign draws."""
    (lo1, hi1), (lo2, hi2), (lo3, hi3) = bands
    xi3 = lo3 + rng.uniform(0.05, 0.95) * (hi3 - lo3)
    sign3 = rng.choice((-1.0, 1.0))
    prefer_stationary = rng.uniform() < 0.7
    jitter = rng.uniform(-1.0, 1.0)
    xi1_frac = rng.uniform(0.1, 0.9)
    sign1 = rng.choice((-1.0, 1.0))
    if prefer_stationary and lo1 <= xi3 / 2 <= hi1 and lo2 <= xi3 / 2 <= hi2:
        xi1 = xi3 / 2 + jitter * np.sqrt(bilinear.DEFAULT_DTAU / (3.0 * xi3))
    else:
        xi1 = (lo1 + xi1_frac * (hi1 - lo1)) * sign1
    xi2 = xi3 - xi1
    if not (lo1 <= abs(xi1) <= hi1 and lo2 <= abs(xi2) <= hi2):
        return None
    return bilinear._coherent_pair(sign3 * xi1, sign3 * xi2, bands[0], bands[1])


class TestDyadicTriple:
    def test_validation(self):
        with pytest.raises(ValueError, match="n1"):
            DyadicTriple(3, 8, 8, 1, 1, 128)
        with pytest.raises(ValueError, match="l1"):
            DyadicTriple(2, 8, 8, 0.5, 1, 128)

    def test_balanced_regime(self):
        t = DyadicTriple(8, 8, 8, 1, 4, 512)
        assert t.regime == "balanced"

    def test_low_peak_regime(self):
        t = DyadicTriple(1, 16, 16, 256, 1, 4)
        assert t.regime == "low-peak"

    def test_generic_regime(self):
        # dominant modulation on a high-frequency slot: not the low-peak case
        t = DyadicTriple(2, 16, 16, 1, 1, 512)
        assert t.regime == "generic"

    def test_vanishing_configuration(self):
        t = DyadicTriple(2, 2, 32, 1, 1, 2048)
        assert not t.satisfies_support_conditions()
        with pytest.raises(VanishingConfigurationError):
            predicted_block_constant(t)


class TestPredictedConstant:
    def test_balanced_example(self):
        c = predicted_block_constant(DyadicTriple(8, 8, 8, 1, 4, 512))
        assert c == pytest.approx(8.0 ** -0.25 * np.sqrt(2.0), rel=1e-12)

    def test_low_peak_example(self):
        for l_med in (1, 4):
            c = predicted_block_constant(DyadicTriple(1, 16, 16, 256, l_med, 4))
            l_min = min(256, l_med, 4)
            expected = (1 / 16) * np.sqrt(l_min) \
                * np.sqrt(min(256.0, 16.0 * sorted((256, l_med, 4))[1]))
            assert c == pytest.approx(expected, rel=1e-12)

    def test_generic_formula(self):
        c = predicted_block_constant(DyadicTriple(2, 16, 16, 1, 1, 512))
        assert c == pytest.approx((1 / 16) * 1.0 * np.sqrt(min(512.0, 1.0)),
                                  rel=1e-12)


class TestMeasureBlockRatio:
    def test_vanishing_configuration_is_numerically_zero(self):
        # |xi1 + xi2| <= 8 never reaches the N3 = 64 band: the block is exactly zero
        assert_vanishes(DyadicTriple(2, 2, 64, 1, 1, 1024))

    def test_modulation_separated_configuration_vanishes(self):
        # L3 far above both the resonance size and the other modulations
        assert_vanishes(DyadicTriple(2, 2, 4, 1, 1, 2 ** 16))

    def test_vanishing_configuration_with_unequal_input_bands(self):
        # L3 far below the resonance N1 N3^2, with input bands that differ
        assert_vanishes(DyadicTriple(2, 16, 16, 1, 1, 16))

    def test_refusal_names_the_failed_condition(self):
        # the outputs reach the supports (xi1 = xi2 = 1.9: |3 xi1 xi2 xi3| = 41 > 32), but
        # L3 = 64 is not within a factor 4 of the resonance size N_min N_max^2 = 8
        t = DyadicTriple(2, 2, 2, 1, 1, 64)
        assert output_reachable(t) and not t.satisfies_support_conditions()
        for triple, condition in ((t, "L_max = 64 is not ~ max(N_min N_max^2, L_med) = 8"),
                                  (DyadicTriple(2, 2, 32, 1, 1, 2048),
                                   "N_max = 32 is not ~ N_med = 2")):
            with pytest.raises(VanishingConfigurationError) as refused:
                measure_block_ratio(triple, trials=4, seed=1)
            message = str(refused.value)
            assert condition in message and "no block constant is predicted" in message
            assert "vanish" not in message

    def test_band_beyond_cap_rejected(self):
        for t in (DyadicTriple(2 ** 13, 2 ** 13, 2 ** 13, 1, 1, 1),
                  DyadicTriple(4, 4, 4, 1, 1, 2 ** 27)):
            with pytest.raises(UnresolvableBandError, match="exceeds the configured cap"):
                measure_block_ratio(t, trials=1)

    def test_unresolvable_triple_reports_counts(self):
        # |3 xi1 xi2 xi3| <= 6 at |xi| <= 2 cannot take lam1 + lam2 ~ 21 into
        # the L3 = 64 band, so no tube pair is ever admissible
        t = DyadicTriple(1, 1, 1, 1, 16, 64)
        assert t.satisfies_support_conditions()
        with pytest.raises(UnresolvableBandError,
                           match=r"0 of 4 requested trials admissible after 256 attempts"):
            measure_block_ratio(t, trials=4, seed=0)
        with pytest.raises(ValueError):
            measure_block_ratio(t, trials=0)

    def test_resolvable_triples_perform_every_trial(self):
        triples = [DyadicTriple(2, n, n, 1, 1, 2 * n ** 2) for n in (8, 16, 32, 64)]
        triples += [DyadicTriple(1, 16, 16, 256, 1, 4), DyadicTriple(1, 1, 1, 1, 1, 1),
                    DyadicTriple(8, 8, 8, 1, 4, 512)]
        for t in triples:
            assert output_reachable(t)
            rec = measure_block_ratio(t, trials=32, seed=7)
            assert rec.trials == 32
            assert rec.attempts >= rec.trials
            assert rec.measured_lhs > 0

    @pytest.mark.parametrize("n", [8, 64])
    def test_performs_every_requested_trial(self, n, monkeypatch):
        rows = []
        original = bilinear.product
        monkeypatch.setattr(bilinear, "product",
                            lambda u, v: rows.append(len(u.ends)) or original(u, v))
        measure_block_ratio(DyadicTriple(2, n, n, 1, 1, 2 * n ** 2), trials=32, seed=3)
        assert sum(rows) == 32

    def test_targets_are_built_once_per_triple(self, monkeypatch):
        reached = []
        reach = bilinear._reachable_lam3
        monkeypatch.setattr(bilinear, "_reachable_lam3", lambda *a: reached.append(a) or reach(*a))
        bilinear._tube_targets.cache_clear()
        t = DyadicTriple(2, 16, 16, 1, 1, 512)
        first, second = [measure_block_ratio(t, trials=8, seed=3) for _ in range(2)]
        assert len(reached) == 1
        assert first == second and (first.measured_lhs.hex(), first.ratio.hex()) == \
            (second.measured_lhs.hex(), second.ratio.hex())
        tg = bilinear._tube_targets(t)
        with pytest.raises(TypeError):
            tg["lam_in"] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            tg["lam1"][0] = 0.0
        assert all(isinstance(tg[k], tuple) for k in ("edge_terms", "lam3", "lam3_weights"))

    def test_more_trials_never_decrease_max(self):
        t = DyadicTriple(2, 16, 16, 1, 1, 512)
        r8 = measure_block_ratio(t, trials=8, seed=7)
        r16 = measure_block_ratio(t, trials=16, seed=7)
        assert r16.measured_lhs >= r8.measured_lhs
        assert r16.trials == 16

    def test_generic_regime_exponent(self):
        # N1 = 2 fixed, N2 = N3 = N, L = (1, 1, 2 N^2): predicted constant
        # N^-1 * sqrt(min(2 N^2, 1)) gives raw-ratio slope -1.  A common seed
        # reuses the same dimensionless trial family at every N.
        ns = [8, 16, 32, 64]
        vals = []
        for n in ns:
            t = DyadicTriple(2, n, n, 1, 1, 2 * n ** 2)
            rec = measure_block_ratio(t, trials=32, seed=7)
            assert t.regime == "generic"
            vals.append(rec.measured_lhs)
        slope = fit_exponent(ns, vals)
        assert slope == pytest.approx(-1.0, abs=0.15)


class TestXnormProductRatio:
    def test_zero_like_inputs(self):
        # empty amplitude cloud gives zero ratio contribution
        f = WavePacketField(np.array([3]), np.array([27.0]),
                            np.array([0.0 + 0j]), 0.1, 0.5)
        assert f.x_norm() == 0.0

    def test_x_norm_equals_per_band_loop_bitwise(self):
        def loop_x_norm(f):
            # row by row, one dyadic_bump per band L = 1, 2, 4, ... <= 2 max(1, max|lam|)
            norms = []
            for cells, weight in zip(row_slices(f), f.cell_weight):
                lam, amp = f.modulation[cells], f.amp[cells]
                total = 0.0
                l = 1
                l_top = 2.0 * max(1.0, float(np.max(np.abs(lam))))
                while l <= l_top:
                    wgt = dyadic_bump(l, lam)
                    total += np.sqrt(l) * np.sqrt(np.sum(wgt * wgt * np.abs(amp) ** 2) * weight)
                    l *= 2
                norms.append(float(total))
            return norms

        rng = np.random.default_rng(11)
        clouds = [lattice_cloud(n, l, seed=n + l) for n, l in ((4, 1), (16, 64), (32, 8))]
        clouds.append(product(clouds[0], lattice_cloud(4, 2, seed=5)))
        for size, scale in ((40, 1.0), (300, 50.0), (7, 1e4)):
            clouds.append(WavePacketField(
                rng.integers(-200, 200, size), rng.uniform(-scale, scale, size),
                rng.standard_normal(size) + 1j * rng.standard_normal(size),
                rng.uniform(0.01, 0.2), 0.5))
        # max|lam| exactly dyadic: the loop's extra top band carries zero weight
        clouds.append(WavePacketField(np.array([0, 0]), np.array([4.0, -1.0]),
                                      np.array([1.0, 2.0j]), 0.1, 0.5))
        clouds.append(stack(clouds))  # every cloud above as a row of one stack
        for f in clouds:
            assert f.x_norm().tolist() == loop_x_norm(f)
        # a row's norms are its norms as a cloud alone, bit for bit
        for name, args in (("x_norm", ()), ("l2_norm", ()), ("band_l2_norm", (16, 64))):
            alone = np.concatenate([getattr(f, name)(*args) for f in clouds[:-1]])
            assert getattr(clouds[-1], name)(*args).tobytes() == alone.tobytes(), name
        assert WavePacketField([], [], [], 0.1, 0.5).x_norm() == 0.0

    def test_x_norm_refuses_a_nan_modulation(self):
        with pytest.raises(ValueError, match="non-finite"):
            WavePacketField([0, 1], [np.nan, 1.0], [1, 1], 0.1, 0.5).x_norm()

    @pytest.mark.parametrize("n", [8, 64])
    def test_performs_every_requested_trial(self, n, monkeypatch):
        rows = []
        original = bilinear.product
        monkeypatch.setattr(bilinear, "product",
                            lambda u, v: rows.append(len(u.ends)) or original(u, v))
        xnorm_product_ratio(n, n, n, trials=32, seed=3)
        assert sum(rows) == 32

    def test_unresolvable_bands_report_counts(self):
        # no (xi1, xi2) in +-(0.1, 2) sums to |xi3| >= 32
        with pytest.raises(UnresolvableBandError,
                           match=r"0 of 4 requested trials admissible after 256 attempts"):
            xnorm_product_ratio(1, 1, 64, trials=4)
        with pytest.raises(ValueError):
            xnorm_product_ratio(8, 8, 8, trials=0)

    def test_comparable_bands_exponent(self):
        ns = [8, 16, 32, 64]
        vals = [xnorm_product_ratio(n, n, n, trials=32, seed=3) for n in ns]
        slope = fit_exponent(ns, vals)
        assert slope == pytest.approx(-0.75, abs=0.2)

    def test_low_output_exponent(self):
        ns = [16, 32, 64, 128]
        vals = [xnorm_product_ratio(n, n, 1, trials=32, seed=3) for n in ns]
        slope = fit_exponent(ns, vals)
        assert slope <= -1.5 + 0.2


class TestProductBookkeeping:
    def test_convolution_shifts_frequency(self):
        u = WavePacketField(np.array([4]), np.array([64.0 * 0.001 ** 0 + 0.0]),
                            np.array([1.0 + 0j]), 0.5, 0.5)
        # single cells at xi=2: product must land at xi=4
        u = WavePacketField(np.array([4]), np.array([2.0 ** 3 / 1.0]),
                            np.array([1.0 + 0j]), 0.5, 0.5)
        w = product(u, u)
        assert w.xi_index.tolist() == [8]
        assert w.xi[0] == pytest.approx(4.0)

    def test_box_probes_share_lattice(self):
        # same-band clouds live on a common lattice, so products work
        a = lattice_cloud(4, 1, seed=1)
        b = lattice_cloud(4, 1, seed=2)
        w = product(a, b)
        assert w.l2_norm() > 0
        # mixed lattices are rejected
        c = lattice_cloud(8, 1, seed=3)
        with pytest.raises(ValueError, match="lattice"):
            product(a, c)

    def test_an_operand_without_cells_gives_an_empty_product(self):
        empty = WavePacketField([], [], [], 0.1, 0.5)
        cloud = WavePacketField([1, 2], [0.5, 1.0], [1.0, 1j], 0.1, 0.5)
        for u, v in ((empty, cloud), (cloud, empty), (empty, empty)):
            w = product(u, v)
            assert w.xi_index.size == w.tau.size == w.amp.size == 0
            assert (w.dxi.tolist(), w.dtau) == ([0.1], 0.5) and w.x_norm().tolist() == [0.0]
        rows = np.full(3, 0.1)
        none = WavePacketField([], [], [], rows, 0.5, [0, 0, 0])
        some = WavePacketField(np.ones(6), np.ones(6), np.ones(6), rows, 0.5, [2, 4, 6])
        for u, v in ((none, some), (some, none), (none, none)):
            w = product(u, v)
            assert w.xi_index.size == w.tau.size == w.amp.size == w.xi.size == 0
            assert w.ends.dtype == np.int64 and w.ends.tolist() == [0, 0, 0]


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_tau_is_refused(self, bad):
        # named by operand, row and cell; found among the operand cells, not the pairs
        lo1, lo2, dxi = np.array([3.1, -7.4]), np.array([2.2, 1.5]), np.array([0.01, 0.002])
        u = bilinear._tube(lo1, bilinear._lam_centers(2), dxi)
        v = bilinear._tube(lo2, bilinear._lam_centers(8), dxi)
        v.tau[v.ends[0] + 7] = bad
        for args, name in (((u, v), "v"), ((v, u), "u")):
            with pytest.raises(ValueError,
                               match=re.escape(f"operand {name} has tau = {bad} in row 1, cell 7")):
                product(*args)


class TestBatchedTrials:
    """The probes evaluate all trials as one stack; each trial's ratio, the max and the
    attempt count are bitwise those of the trial-by-trial loop."""

    @pytest.mark.parametrize("trials", [1, 8])
    def test_probes_equal_the_trial_by_trial_loop_bitwise(self, trials):
        triples = [DyadicTriple(2, n, n, 1, 1, 2 * n ** 2) for n in (8, 16, 32, 64)]
        triples += [DyadicTriple(1, 16, 16, 256, 1, 4), DyadicTriple(1, 1, 1, 1, 1, 1),
                    DyadicTriple(8, 8, 8, 1, 4, 512)]
        for seed in (1, 7, 19):
            for t in triples:
                rec = measure_block_ratio(t, trials=trials, seed=seed)
                lhs, attempts = block_oracle(t, trials, seed)
                assert type(rec.measured_lhs) is float and type(rec.ratio) is float
                assert (rec.measured_lhs.hex(), rec.ratio.hex(), rec.attempts) == \
                    (lhs.hex(), (lhs / rec.predicted_c).hex(), attempts)
            for n in (8, 16, 32, 64):
                value = xnorm_product_ratio(n, n, n, trials=trials, seed=seed)
                assert type(value) is float and value.hex() == xnorm_oracle(n, trials, seed).hex()

    def test_tube_has_five_points_at_every_modulation(self):
        rng = np.random.default_rng(0)
        widths = np.exp(rng.uniform(np.log(1e-6), np.log(10.0), 2000))
        xi_lo = rng.uniform(-100.0, 100.0, widths.size)
        lam = bilinear._lam_centers(4)
        # the count the tubes took from round(width / dxi) is 5 at every width
        assert all(round(w / (w / 5.0)) == 5 for w in widths)
        u = bilinear._tube(xi_lo, lam, widths / 5.0)
        row = 5 * lam.size
        assert u.xi_index.shape == u.tau.shape == u.amp.shape == (widths.size * row,)
        assert u.ends.tolist() == (row * np.arange(1, widths.size + 1)).tolist()
        idx = u.xi_index.reshape(widths.size, 5, lam.size)
        assert (idx == idx[:, :, :1]).all() and (np.diff(idx[:, :, 0], axis=1) == 1).all()
        assert np.all(np.abs(u.xi[::row] - xi_lo) <= widths / 10.0 * (1.0 + 1e-12))
        assert u.modulation == pytest.approx(np.tile(lam, 5 * widths.size), abs=1e-8)
        for r in (0, 999):
            single = single_tube(xi_lo[r], lam, widths[r] / 5.0)
            cells = row_slices(u)[r]
            assert u.xi_index[cells].tolist() == single.xi_index.tolist()
            assert u.tau[cells].tobytes() == single.tau.tobytes()

    def test_modulation_is_the_per_cell_cube_bitwise(self):
        # tubes, their product, random clouds, an empty one, and a -0.0 run next to 0.0
        rng = np.random.default_rng(14)
        lo1, lo2, dxi = np.array([3.1, -7.4]), np.array([2.2, 1.5]), np.array([0.01, 0.002])
        u = bilinear._tube(lo1, bilinear._lam_centers(2), dxi)
        v = bilinear._tube(lo2, bilinear._lam_centers(8), dxi)
        fields = [u, product(u, v), random_cloud(rng, 50, 3, 10.0, 0.3),
                  WavePacketField([], [], [], 0.1, 0.5),
                  WavePacketField([0, 0, 0, 1, 2], [-0.0, -0.0, -0.0, 2.0, 3.0], np.ones(5),
                                  np.array([0.5, -0.5, 0.5, 0.5, np.nan]), 0.5, [1, 2, 3, 4, 5])]
        for f in fields:
            assert f.modulation.tobytes() == (f.tau - f.xi ** 3).tobytes()


def random_cloud(rng, size, index_span, tau_scale, dxi):
    return WavePacketField(rng.integers(-index_span, index_span, size),
                           rng.uniform(-tau_scale, tau_scale, size),
                           rng.standard_normal(size) + 1j * rng.standard_normal(size), dxi, 0.5)


def stack(clouds):
    """The clouds as one stack, a row each."""
    return WavePacketField(*(np.concatenate([getattr(c, a) for c in clouds])
                             for a in ("xi_index", "tau", "amp", "dxi")), clouds[0].dtau,
                           np.cumsum([c.amp.size for c in clouds]))


class TestStackedProduct:
    def assert_rows_are_single_products(self, us, vs):
        w = product(stack(us), stack(vs))
        sizes = [product(u, v).amp.size for u, v in zip(us, vs)]
        assert w.ends.tolist() == np.cumsum(sizes).tolist()
        for u, v, cells, dxi in zip(us, vs, row_slices(w), w.dxi):
            single = product(u, v)
            for name in ("xi_index", "tau", "amp", "xi"):
                got, want = getattr(w, name)[cells], getattr(single, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert [dxi] == u.dxi.tolist() and w.dtau == single.dtau

    def test_rows_equal_their_single_products_bitwise(self):
        # random-amplitude tubes, each row on its own lattice
        rng = np.random.default_rng(4)
        us, vs = [], []
        for xi1, xi2, dxi in ((3.1, 2.2, 0.01), (-7.4, 1.5, 0.002), (0.2, 0.4, 0.03)):
            us.append(single_tube(xi1, bilinear._lam_centers(2), dxi))
            vs.append(single_tube(xi2, bilinear._lam_centers(8), dxi))
        for t in us + vs:
            t.amp = rng.standard_normal(t.amp.size) + 1j * rng.standard_normal(t.amp.size)
        self.assert_rows_are_single_products(us, vs)
        self.assert_rows_are_single_products(us[1:2], vs[1:2])  # a batch of one

    def test_a_sparse_row_takes_the_sorted_keys(self, monkeypatch):
        # the first row's keys span far more than 4 x its 42 pairs, so np.unique (no dense count)
        rng = np.random.default_rng(6)
        us = [random_cloud(rng, 7, 200, 1e4, 0.05), random_cloud(rng, 7, 3, 1.0, 0.1)]
        vs = [random_cloud(rng, 6, 200, 1e4, 0.05), random_cloud(rng, 6, 3, 1.0, 0.1)]
        sizes = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda x, weights=None, minlength=0:
                            sizes.append(max(minlength, int(np.max(x)) + 1))
                            or bincount(x, weights=weights, minlength=minlength))
        self.assert_rows_are_single_products(us, vs)
        assert max(sizes) <= 4 * 42 * 2

    def test_rows_on_different_lattices_are_refused(self):
        rng = np.random.default_rng(8)
        us = [random_cloud(rng, 4, 5, 1.0, dxi) for dxi in (0.1, 0.2)]
        vs = [random_cloud(rng, 4, 5, 1.0, dxi) for dxi in (0.1, 0.3)]
        with pytest.raises(ValueError, match="lattice"):
            product(stack(us), stack(vs))
        with pytest.raises(ValueError, match="lattice"):
            product(stack(us[:1]), stack(us))

    def test_rows_of_several_lengths_are_refused(self):
        # a product fed back in: its rows hold as many cells as their pairs reach
        rng = np.random.default_rng(12)
        us = [random_cloud(rng, 4, 5, 1.0, dxi) for dxi in (0.1, 0.2)]
        w = product(stack(us), stack(us))
        lengths = [int(cells.stop - cells.start) for cells in row_slices(w)]
        assert lengths == [7, 10]
        for u, v in ((w, w), (stack(us), w), (w, stack(us))):
            with pytest.raises(ValueError, match=re.escape(f"got row lengths {lengths}")):
                product(u, v)
        ragged = stack([random_cloud(rng, 7, 5, 1.0, 0.1), random_cloud(rng, 6, 5, 1.0, 0.1)])
        with pytest.raises(ValueError, match=re.escape("got row lengths [7, 6]")):
            product(ragged, ragged)


class TestProductOracle:
    """``product`` equals the pair-by-pair oracle bitwise: unit-amplitude operands through
    the count path, every other amplitude through the weighted sums."""

    def assert_equals_oracle(self, u, v, counted, sparse, monkeypatch):
        weighted, sorted_keys = [], []
        bincount, unique = np.bincount, np.unique
        with monkeypatch.context() as m:
            m.setattr(np, "bincount", lambda x, weights=None, minlength=0:
                      weighted.append(weights is not None)
                      or bincount(x, weights=weights, minlength=minlength))
            m.setattr(np, "unique", lambda *a, **k: sorted_keys.append(1) or unique(*a, **k))
            got = product(u, v)
        assert any(weighted) != counted and bool(sorted_keys) == sparse
        xi_index, tau, amp, dxi, ends = product_oracle(u, v)
        assert got.ends.tolist() == ends and got.dxi.tobytes() == u.dxi.tobytes()
        for name, want in (("xi_index", xi_index), ("tau", tau), ("amp", amp),
                           ("xi", xi_index * dxi)):
            have = getattr(got, name)
            assert have.dtype == want.dtype and have.tobytes() == want.tobytes(), name
        return got

    def test_unit_tube_stacks_are_counted(self, monkeypatch):
        # dense keys, a dxi per row, a batch of one and a single tube
        lo1, lo2 = np.array([3.1, -7.4, 0.2, 25.0]), np.array([2.2, 1.5, 0.4, -24.0])
        dxi = np.array([0.01, 0.002, 0.03, 0.0004])
        lam1, lam2 = bilinear._lam_centers(2), bilinear._lam_centers(8)
        u, v = bilinear._tube(lo1, lam1, dxi), bilinear._tube(lo2, lam2, dxi)
        w = self.assert_equals_oracle(u, v, True, False, monkeypatch)
        assert w.amp.size < u.amp.size * v.ends[0]  # cells reached by several pairs
        self.assert_equals_oracle(bilinear._tube(lo1[1:2], lam1, dxi[1:2]),
                                  bilinear._tube(lo2[1:2], lam2, dxi[1:2]), True, False,
                                  monkeypatch)
        self.assert_equals_oracle(single_tube(3.1, lam1, 0.01), single_tube(2.2, lam2, 0.01),
                                  True, False, monkeypatch)

    def test_unit_clouds_with_sparse_keys_are_counted(self, monkeypatch):
        # 4 xi indices up to 900 and 3 tau values: keys span far more than 4 x the pairs,
        # and most cells are reached by several pairs
        rng = np.random.default_rng(12)

        def unit_cloud(size, dxi):
            return WavePacketField(rng.choice([0, 1, 2, 900], size),
                                   rng.choice([0.0, 0.5, 1.0], size), np.ones(size), dxi, 0.5)

        us = [unit_cloud(12, dxi) for dxi in (0.05, 0.1)]
        vs = [unit_cloud(10, dxi) for dxi in (0.05, 0.1)]
        w = self.assert_equals_oracle(stack(us), stack(vs), True, True, monkeypatch)
        assert w.amp.size < 2 * 12 * 10 / 3
        self.assert_equals_oracle(stack(us[1:]), stack(vs[1:]), True, True, monkeypatch)
        self.assert_equals_oracle(us[0], vs[0], True, True, monkeypatch)

    def test_other_amplitudes_take_the_weighted_sums(self, monkeypatch):
        rng = np.random.default_rng(13)
        lo1, lo2, dxi = np.array([3.1, -7.4]), np.array([2.2, 1.5]), np.array([0.01, 0.002])
        u = bilinear._tube(lo1, bilinear._lam_centers(2), dxi)
        v = bilinear._tube(lo2, bilinear._lam_centers(8), dxi)
        v.amp[v.ends[0] + 7] = 1j  # one amplitude off 1 sends the stack down the weighted path
        self.assert_equals_oracle(u, v, False, False, monkeypatch)
        u.amp = rng.standard_normal(u.amp.shape) + 1j * rng.standard_normal(u.amp.shape)
        self.assert_equals_oracle(u, v, False, False, monkeypatch)
        us = [random_cloud(rng, 7, 200, 1e4, 0.05), random_cloud(rng, 7, 3, 1.0, 0.1)]
        vs = [random_cloud(rng, 6, 200, 1e4, 0.05), random_cloud(rng, 6, 3, 1.0, 0.1)]
        self.assert_equals_oracle(stack(us), stack(vs), False, True, monkeypatch)
        self.assert_equals_oracle(random_cloud(rng, 30, 5, 3.0, 0.1),
                                  random_cloud(rng, 20, 5, 3.0, 0.1), False, False, monkeypatch)


    def test_row_boxes_come_from_the_operand_extrema(self, monkeypatch):
        # every tau sum an odd multiple of dtau / 2 (a tie, rounded to even), tau of both
        # signs, and in each u row the extreme xi and the extreme tau at four distinct cells
        u = WavePacketField([0, 4, -3, 2, -1, -5, 1, -2],
                            [-1.75, 0.25, 0.75, 2.75, -4.25, -2.25, -3.25, -0.75],
                            np.ones(8), [0.1, 0.3], 0.5, [4, 8])
        v = WavePacketField([2, -1, 0, 0, 3, 1], [-1.0, 1.5, 0.5, -2.5, 0.0, -0.5],
                            np.ones(6), [0.1, 0.3], 0.5, [3, 6])
        sums = (u.tau.reshape(2, -1, 1) + v.tau.reshape(2, 1, -1)) / 0.5
        assert (sums % 1 == 0.5).all() and (sums < 0).any() and (sums > 0).any()
        # each row's top xi column reaches only its row's lowest tau bin: the boxes hold
        # 2 x 18 keys for 6 pairs, more than 4 x, while the keys span 2 x 10, so the dense count
        a = WavePacketField([0, 0, 1, 2, 3, 3], [-0.25, -4.25, -4.25, 1.75, -2.25, -2.25],
                            np.ones(6), [0.1, 0.3], 0.5, [3, 6])
        b = WavePacketField([0, -1], [-0.5, 0.5], np.ones(2), [0.1, 0.3], 0.5, [1, 2])
        rng = np.random.default_rng(15)
        for f, g, sparse in ((u, v, True), (a, b, False)):
            self.assert_equals_oracle(f, g, True, sparse, monkeypatch)
            amp = rng.standard_normal(f.amp.size) + 1j * rng.standard_normal(f.amp.size)
            weighted = WavePacketField(f.xi_index, f.tau, amp, f.dxi, f.dtau, f.ends)
            self.assert_equals_oracle(weighted, g, False, sparse, monkeypatch)
            self.assert_equals_oracle(g, weighted, False, sparse, monkeypatch)

    def test_peak_memory_of_a_tube_stack_product(self):
        # 32 rows of unit tubes at 8 lam centres, as measure_block_ratio builds them: the
        # traced peak stays within 3.5 pair grids of float64 (the keys are the only one)
        tg = bilinear._tube_targets(DyadicTriple(2, 16, 16, 1, 1, 512))
        rng = np.random.default_rng(2)
        lo1, lo2, dxi = bilinear._targeted_tube_pairs(tg, rng.random((64, 2)))[:32].T
        u, v = bilinear._tube(lo1, tg["lam1"], dxi), bilinear._tube(lo2, tg["lam2"], dxi)
        assert (len(u.ends), u.ends[0], v.ends[0]) == (32, 40, 40)
        grid_bytes = 32 * 40 * 40 * 8
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            product(u, v)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 3.5 * grid_bytes, peak / grid_bytes


def resonance_range_by_arrays(band1, band2, xi3, signs):
    """``_resonance_range`` with its candidate points and inside test on numpy arrays: the
    oracle for the float comprehension."""
    (a1, b1), (a2, b2), (c, d) = (sorted((sg * lo, sg * hi)) for sg, (lo, hi)
                                  in zip(signs, (band1, band2, xi3)))
    points = [(e1, e2) for e1 in (a1, b1) for e2 in (a2, b2)]
    points += [(e1, s - e1) for e1 in (a1, b1) for s in (c, d)]
    points += [(s - e2, e2) for e2 in (a2, b2) for s in (c, d)]
    points += [(e1, -e1 / 2.0) for e1 in (a1, b1)]
    points += [(-e2 / 2.0, e2) for e2 in (a2, b2)]
    points += [(s / 2.0, s / 2.0) for s in (c, d)]
    z1, z2 = np.array(points).T
    tol = 1e-12 * max(abs(b1), abs(b2), abs(d))
    inside = ((z1 >= a1 - tol) & (z1 <= b1 + tol) & (z2 >= a2 - tol) & (z2 <= b2 + tol)
              & (z1 + z2 >= c - tol) & (z1 + z2 <= d + tol))
    if not inside.any():
        return None
    h = 3.0 * z1[inside] * z2[inside] * (z1[inside] + z2[inside])
    return float(h.min()), float(h.max())


def assert_floats(*values):
    """Every number in ``values``, tuples and lists flattened, is a Python float."""
    for v in values:
        if isinstance(v, (tuple, list)):
            assert_floats(*v)
        else:
            assert type(v) is float, (v, type(v))


def regime_triples(n):
    """One triple per regime at N = n: generic, balanced and low-peak."""
    return (DyadicTriple(2, n, n, 1, 1, 2 * n ** 2), DyadicTriple(n, n, n, 1, 4, n ** 3),
            DyadicTriple(1, n, n, n * n, 1, 4))


def draw_stages(tg, fracs):
    """The stages of ``_targeted_tube_pairs`` on the rows of ``fracs``: (H = lam_in - lam3,
    the xi3 slots (lower, upper, length), the picked xi3, the roots xi1, xi2 and where they
    fit)."""
    band1, band2 = tg["band1"], tg["band2"]
    big_h = tg["lam_in"] - bilinear._pick(np.column_stack([tg["lam3"], tg["lam3_weights"]]),
                                          fracs[:, 0])
    pieces = bilinear._admissible_xi3(big_h, band1, band2, tg["xi3"], tg["edge_terms"])
    x3 = bilinear._pick(pieces, fracs[:, 1])
    sign3 = np.where(x3 > 0, 1.0, -1.0)
    return (big_h, pieces, x3, *bilinear._resonance_roots(np.abs(x3), sign3 * big_h, band1, band2))


def bits(*values):
    """The hex of every number in ``values``, tuples and lists flattened."""
    return [bits(*v) if isinstance(v, (tuple, list)) else float(v).hex() for v in values]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloatGeometry:
    """The tube-pair geometry runs on float64 arrays, a row per draw, with the bits of the
    per-draw Python-float reference in conftest; its padded slots raise no warning."""

    def test_resonance_range_equals_the_array_form(self):
        # the n = 1 floor, both xi3 scales, and empty polygons (far-apart bands)
        bands = [bilinear._band(n, 0.1, *scale) for n in (1, 2, 8, 64)
                 for scale in ((0.5, 2.0), (0.75, 1.5))]
        empty = set()
        for band1, band2, xi3 in itertools.product(bands, repeat=3):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                got = bilinear._resonance_range(band1, band2, xi3, signs)
                want = resonance_range_by_arrays(band1, band2, xi3, signs)
                empty.add(got is None)
                assert (got is None) == (want is None)
                if got is not None:
                    assert_floats(got)
                    assert [h.hex() for h in got] == [h.hex() for h in want]
        assert empty == {True, False}

    @pytest.mark.parametrize("ends", [[80 * k for k in range(1, 33)], [7], [0, 0, 0],
                                      [10, 15, 30], [3, 3, 9], [0, 4, 8]])
    def test_row_sums_equal_the_per_row_loop_bitwise(self, ends):
        # magnitudes spread over 16 decades, so another summation order shows in the bits
        rng = np.random.default_rng(len(ends))
        ends = np.array(ends, dtype=np.int64)
        for shape in ((ends[-1],), (3, ends[-1])):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
            want = np.stack([np.sum(x[..., a:b], axis=-1)
                             for a, b in zip([0, *ends[:-1]], ends)], axis=-1)
            got = bilinear._row_sums(x, ends)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_geometry_returns_float64_arrays(self, n):
        tg = bilinear._tube_targets(DyadicTriple(2, n, n, 1, 1, 2 * n ** 2))
        band1, band2, xi3 = tg["band1"], tg["band2"], tg["xi3"]
        assert_floats(band1, band2, xi3, tg["lam3"], tg["lam3_weights"], tg["lam_in"])
        reach = bilinear._reachable_lam3(band1, band2, xi3, bilinear._band(2 * n ** 2, 0.0),
                                         tg["lam_in"])
        assert reach and tg["lam3"]
        assert_floats(reach, bilinear._resonance_range(band1, band2, xi3, (1.0, 1.0, 1.0)))
        rng = np.random.default_rng(n)
        fracs = rng.random((32, 2))
        big_h, pieces, x3, xi1, xi2, ok = draw_stages(tg, fracs)
        sign3 = np.where(x3 > 0, 1.0, -1.0)
        pair = np.column_stack(bilinear._coherent_pair(sign3[ok] * xi1[ok], sign3[ok] * xi2[ok],
                                                       band1, band2))
        for a, shape in ((big_h, (32,)), (pieces, (32, 36, 3)), (x3, (32,)), (xi1, (32,)),
                         (xi2, (32,)), (pair, (ok.sum(), 3))):
            assert a.dtype == np.float64 and a.shape == shape
        assert ok.dtype == bool and ok.any()
        assert pair.tobytes() == bilinear._targeted_tube_pairs(tg, fracs).tobytes()
        bands = [bilinear._band(n, 0.1)] * 3
        pairs = [p for p in (bilinear._xnorm_tube_pair(bands, rng) for _ in range(32)) if p]
        assert pairs and all(len(p) == 3 and all(type(x) is np.float64 for x in p) for p in pairs)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_batched_draws_equal_the_float_reference_bitwise(self, n):
        # 20 seeds per regime, and in each batch four draws exactly on a cut (xi3 fraction 0
        # or 1), where a root can round off its band: the reference gives None there
        rounded_off = 0
        for t in regime_triples(n):
            tg = bilinear._tube_targets(t)
            band1, band2 = tg["band1"], tg["band2"]
            for lo, hi in tg["lam3"]:
                h = tg["lam_in"] - (lo + hi) / 2.0
                length = sum((b - a for a, b in admissible_xi3(h, band1, band2, tg["xi3"],
                                                                tg["edge_terms"])), 0.0)
                weight = tg["lam3_weights"][tg["lam3"].index((lo, hi))]
                assert weight.hex() == ((hi - lo) * length).hex()
            for seed in range(20):
                fracs = np.random.default_rng(seed).random((32, 2))
                fracs[:4, 1] = (0.0, 1.0, 0.0, 1.0)
                big_h, slots, x3, xi1, xi2, ok = draw_stages(tg, fracs)
                want = []
                for r, (lam3_frac, xi3_frac) in enumerate(fracs.tolist()):
                    h = tg["lam_in"] - pick(tg["lam3"], lam3_frac, tg["lam3_weights"])
                    pieces = admissible_xi3(h, band1, band2, tg["xi3"], tg["edge_terms"])
                    held = slots[r, :, 2] > 0
                    assert bits(big_h[r]) == bits(h)
                    assert bits(slots[r, held, :2].tolist()) == bits(pieces)
                    assert bits(slots[r, held, 2].tolist()) == bits([b - a for a, b in pieces])
                    assert pieces, "every targeted lam3 reaches some xi3"
                    xi3 = pick(pieces, xi3_frac)
                    sign3 = 1.0 if xi3 > 0 else -1.0
                    roots = resonance_roots(abs(xi3), sign3 * h, band1, band2)
                    assert bits(x3[r]) == bits(xi3) and ok[r] == (roots is not None)
                    if roots is None:
                        rounded_off += 1
                    else:
                        assert bits(xi1[r], xi2[r]) == bits(*roots)
                    want.append(targeted_tube_pair(tg, lam3_frac, xi3_frac))
                got = bilinear._targeted_tube_pairs(tg, fracs)
                assert bits(got.tolist()) == bits([p for p in want if p is not None])
        assert rounded_off > 0

    def test_pick_equals_the_interval_loop_bitwise(self):
        # rows of 1-5 intervals in 8 slots with zero-width slots between them, at fractions 0,
        # 1 and random
        rng = np.random.default_rng(5)
        rows = [sorted(map(tuple, np.sort(rng.uniform(-9, 9, (k, 2)), 1).tolist()))
                for k in rng.integers(1, 6, 200)]
        rows = [r for r in rows if all(b > a for a, b in r)
                and all(p[1] <= q[0] for p, q in zip(r, r[1:]))]
        slots = np.zeros((len(rows), 8, 3))
        for i, r in enumerate(rows):
            taken = np.sort(rng.choice(8, len(r), replace=False))
            slots[i, taken, :2] = r
        slots[..., 2] = slots[..., 1] - slots[..., 0]
        for frac in (np.zeros(len(rows)), np.ones(len(rows)), rng.random(len(rows))):
            got = bilinear._pick(slots, frac)
            assert bits(got.tolist()) == bits([pick(r, f) for r, f in zip(rows, frac.tolist())])
        # weights 0.1, 0.2, 0.3: the whole total walked back leaves more than the last weight,
        # so the walk runs past the last interval and ends in it
        weights = [0.1, 0.2, 0.3]
        assert (0.1 + 0.2 + 0.3) - 0.1 - 0.2 > 0.3
        pieces = [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
        got = bilinear._pick(np.column_stack([pieces, weights]), np.ones(1))
        assert bits(got[0]) == bits(pick(pieces, 1.0, weights))
        # a row without an interval gives its first slot, with no warning
        assert bilinear._pick(np.array([[[-2.0, -2.0, 0.0], [1.0, 1.0, 0.0]]]),
                              np.array([0.5])).tolist() == [-2.0]

    def test_a_draw_off_a_cut_is_skipped_and_counted(self):
        # draws 2 and 5 sit exactly on a cut and round off it, so 7 trials take 9 draws: a
        # batch of 7, then one of the 2 still needed
        t = DyadicTriple(8, 8, 8, 1, 4, 512)
        tg = bilinear._tube_targets(t)
        fracs = np.random.default_rng(0).random((9, 2))
        fracs[[2, 5]] = (0.6369616873214543, 0.0)
        want = [targeted_tube_pair(tg, *row) for row in fracs.tolist()]
        assert [r for r, p in enumerate(want) if p is None] == [2, 5]
        rows, batches, stacks = iter(fracs), [], []

        def draw(rng, count):
            batches.append(count)
            return bilinear._targeted_tube_pairs(tg, np.array([next(rows) for _ in range(count)]))

        def ratios(u, v):
            stacks.append((u, v))
            return np.ones(len(u.ends))

        assert bilinear._max_ratio(draw, ratios, (tg["lam1"], tg["lam2"]), 7, 0, t) == (1.0, 9)
        assert batches == [7, 2]
        (u, v), = stacks
        assert bits(u.dxi.tolist()) == bits([p[2] for p in want if p is not None])


#: measure_block_ratio (measured_lhs, ratio, attempts) of the generic triple
#: (2, N, N, 1, 1, 2 N^2) and xnorm_product_ratio(N, N, N) at N = 8..64, 32 trials, by seed;
#: a change of the draw stream or of any float operation on the way moves them.  Taken with
#: numpy 2.4 on x86-64 with AVX-512, whose vectorised pow and exp set the last bits
BLOCK_PINS = {
    (1, 8): ("0x1.4aaddd4013198p-7", "0x1.4aaddd4013198p-4", 32),
    (1, 16): ("0x1.1dd425a6c5a06p-8", "0x1.1dd425a6c5a06p-4", 32),
    (1, 32): ("0x1.08ac7e4058b7bp-9", "0x1.08ac7e4058b7bp-4", 32),
    (1, 64): ("0x1.002f0fc886811p-10", "0x1.002f0fc886811p-4", 32),
    (7, 8): ("0x1.48126dd1ab626p-7", "0x1.48126dd1ab626p-4", 32),
    (7, 16): ("0x1.285e15d96997ep-8", "0x1.285e15d96997ep-4", 32),
    (7, 32): ("0x1.19ac299ee1b8ap-9", "0x1.19ac299ee1b8ap-4", 32),
    (7, 64): ("0x1.117ce6e991849p-10", "0x1.117ce6e991849p-4", 32),
    (19, 8): ("0x1.4ab25cc7958d4p-7", "0x1.4ab25cc7958d4p-4", 32),
    (19, 16): ("0x1.24323580efc4bp-8", "0x1.24323580efc4bp-4", 32),
    (19, 32): ("0x1.109da14b3ace9p-9", "0x1.109da14b3ace9p-4", 32),
    (19, 64): ("0x1.09b7b4a01d5ecp-10", "0x1.09b7b4a01d5ecp-4", 32),
}
XNORM_PINS = {
    1: ("0x1.65f6c68db4774p-7", "0x1.ab4ebe697e300p-8", "0x1.fb2c9332e1cd9p-9",
        "0x1.2dc898faa3bb6p-9"),
    7: ("0x1.9862ca01a7008p-7", "0x1.e4322e122c4eap-8", "0x1.1faaea532bb26p-8",
        "0x1.565efdcf87b55p-9"),
    19: ("0x1.8b0b3f1ffb6f2p-7", "0x1.d4a0eee525f80p-8", "0x1.1644f92f0d29cp-8",
         "0x1.4ab7ad8b1ed5fp-9"),
}


class TestPinnedDraws:
    """The trial-by-trial oracle shares the draw functions, so only fixed values catch a
    change of the draw stream."""

    @pytest.mark.parametrize("seed", [1, 7, 19])
    def test_probe_values_are_pinned(self, seed):
        for n, xnorm in zip((8, 16, 32, 64), XNORM_PINS[seed]):
            rec = measure_block_ratio(DyadicTriple(2, n, n, 1, 1, 2 * n ** 2), seed=seed)
            assert (rec.measured_lhs.hex(), rec.ratio.hex(), rec.attempts) == BLOCK_PINS[seed, n]
            assert xnorm_product_ratio(n, n, n, seed=seed).hex() == xnorm

    def test_xnorm_tube_pairs_are_the_choice_draws(self):
        # both branches of xi1 and both signs of each: stationary points in (8, 8, 8) and
        # (64, 64, 64), uniform xi1 in (16, 16, 1) and (2, 16, 16)
        band_sets = [[bilinear._band(n, 0.1) for n in ns]
                     for ns in ((8, 8, 8), (64, 64, 64), (16, 16, 1), (2, 16, 16))]
        for seed in range(20):
            for bands in band_sets:
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(40):
                    got = bilinear._xnorm_tube_pair(bands, rng)
                    want = xnorm_tube_pair_by_choice(bands, ref)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
                assert rng.bit_generator.state == ref.bit_generator.state


class TestFitExponent:
    def test_power_law_slope(self):
        ns = [8, 16, 32, 64]
        assert fit_exponent(ns, [n ** -0.75 for n in ns]) == pytest.approx(-0.75, abs=1e-12)

    @pytest.mark.parametrize("values, where", [
        ([1.0, 0.5, 0.0, 0.1], "index 2 (n = 32)"),
        ([1.0, -0.5, 0.2, -0.1], "index 1 (n = 16)"),
        ([1.0, 0.5, np.nan, 0.1], "index 2 (n = 32)"),
        ([np.inf, 0.5, 0.2, 0.1], "index 0 (n = 8)"),
    ])
    def test_a_value_without_a_finite_log_is_refused(self, values, where):
        with pytest.raises(ValueError, match=re.escape(where)):
            fit_exponent([8, 16, 32, 64], values)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_a_band_index_without_a_finite_log_is_refused(self, bad):
        where = f"band index {bad} at index 2 (n = {bad:g})"
        with pytest.raises(ValueError, match=re.escape(where)):
            fit_exponent([8, 16, bad, 64], [1.0, 0.5, 0.2, 0.1])

    def test_a_length_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="4 band indices but 3 values"):
            fit_exponent([8, 16, 32, 64], [1.0, 0.5, 0.2])

    @pytest.mark.parametrize("ns, distinct", [([8], 1), ([8, 8, 8], 1), ([], 0)])
    def test_fewer_than_two_distinct_band_indices_are_refused(self, ns, distinct):
        with pytest.raises(ValueError, match=f"at least 2 distinct band indices, got {distinct}"):
            fit_exponent(ns, [1.0] * len(ns))
        assert fit_exponent([8, 8, 16], [1.0, 1.0, 0.5]) == pytest.approx(-1.0, abs=1e-12)
