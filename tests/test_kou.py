import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from wingtail import kou
from wingtail.errors import ConvergenceError, DomainError, MomentExplosionError
from wingtail.kou import KouJumpParams
from wingtail.mellin import WING_LARGE, WING_SMALL
from wingtail.numerics import DEFAULT_TOL, RngStream, Tolerance


def variant(**kwargs):
    base = dict(lam=1.0, eta1=2.0, eta2=1.0, p=0.5, q=0.5, t=1.0)
    base.update(kwargs)
    return KouJumpParams(**base)


# The per-k algorithm that `kou.coefficients` replaced: one n-series per k and
# side, each with its own block of P_{n,k} and its own logsumexp calls. The
# one-pass table must reproduce it bit for bit.
def _ref_log_factorial(n):
    return gammaln(np.arange(n + 1).astype(float) + 1.0)


def _ref_log_pnk_block(n_lo, n_hi, K, eta_num, eta_den, p, q):
    """log P_{n,K} for all n in [n_lo, n_hi], one n at a time."""
    if not 1 <= K <= n_lo:
        raise DomainError(f"P_{{n,k}} needs 1 <= k <= n, got n={n_lo}, k={K}")
    lf = _ref_log_factorial(n_hi + 2)
    ns = np.arange(n_lo, n_hi + 1)
    width = n_hi - K  # largest i-offset + 1
    offs = np.arange(max(width, 1))
    nn = ns[:, None]
    oo = offs[None, :]
    ii = K + oo
    valid = oo <= nn - 1 - K
    log_ratio_up = math.log(eta_num / (eta_num + eta_den))
    log_ratio_dn = math.log(eta_den / (eta_num + eta_den))
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(
            valid,
            (lf[np.maximum(nn - K - 1, 0)] - lf[oo] - lf[np.maximum(nn - 1 - K - oo, 0)])
            + (lf[nn] - lf[ii] - lf[np.maximum(nn - ii, 0)])
            + oo * log_ratio_up
            + (nn - ii) * log_ratio_dn
            + ii * math.log(p)
            + (nn - ii) * math.log(q),
            -np.inf,
        )
        log_p = logsumexp(terms, axis=1)
    log_p[ns == K] = K * math.log(p)
    return log_p


def _ref_log_coefficient(params, k, tol, up):
    """(log a_k or log b_k, the window it settled at)"""
    lam_t = params.lam * params.t
    if up:
        eta_num, eta_den, p, q = params.eta1, params.eta2, params.p, params.q
    else:
        eta_num, eta_den, p, q = params.eta2, params.eta1, params.q, params.p
    K = k + 1
    log_front = K * math.log(eta_num) - _ref_log_factorial(k + 2)[k]
    size = 24
    while size <= 768:
        n_hi = K + size
        lf = _ref_log_factorial(n_hi + 2)
        ns = np.arange(K, n_hi + 1)
        log_pi = -lam_t + ns * math.log(lam_t) - lf[ns]
        log_terms = log_pi + _ref_log_pnk_block(K, n_hi, K, eta_num, eta_den, p, q)
        total = float(logsumexp(log_terms))
        decreasing = np.all(np.diff(log_terms[-4:]) < 0.0)
        if decreasing and log_terms[-1] < total + math.log(tol.rel):
            return float(log_front + total), size
        size *= 2
    raise ConvergenceError(f"coefficient n-series did not settle for k={k}")


def _ref_table(params, k_max, tol):
    """log a, log b and the window each k settled at, one k at a time."""
    up = [_ref_log_coefficient(params, k, tol, True) for k in range(k_max + 1)]
    down = [_ref_log_coefficient(params, k, tol, False) for k in range(k_max + 1)]
    return (np.array([v for v, _ in up]), np.array([v for v, _ in down]),
            np.array([[w for _, w in up], [w for _, w in down]]))


# the Kou box of the param-sweep benchmark workload
KOU_BOX = dict(lam=(0.5, 1.5), eta1=(2.0, 6.0), eta2=(1.0, 4.0), p=(0.3, 0.7))


def _box_sample(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = {key: float(rng.uniform(lo, hi)) for key, (lo, hi) in KOU_BOX.items()}
        out.append(variant(q=1.0 - d["p"], **d))
    return out


BIT_SETS = [variant()] + _box_sample(4, seed=2024)
RELS = sorted({1e-10, DEFAULT_TOL.rel, 1e-12})
K_MAXES = (0, 1, 19, 64)


def _assert_bit_identical(params, rel, k_top):
    """Every table up to k_top matches the per-k reference bit for bit; the
    windows the reference settled at are returned."""
    tol = Tolerance(rel=rel)
    ref_a, ref_b, windows = _ref_table(params, k_top, tol)
    for k_max in (k for k in K_MAXES if k <= k_top):
        tab = kou.coefficients(params, k_max, tol)
        assert np.array_equal(tab.log_a, ref_a[:k_max + 1]), (params, rel, k_max)
        assert np.array_equal(tab.log_b, ref_b[:k_max + 1]), (params, rel, k_max)
    return windows


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(eta1=1.0), dict(eta1=0.8), dict(eta2=0.0), dict(lam=0.0),
        dict(p=0.0, q=1.0), dict(p=0.6, q=0.5), dict(t=0.0),
    ])
    def test_invariants(self, kwargs):
        with pytest.raises(DomainError):
            variant(**kwargs)

    @pytest.mark.parametrize("field", ["lam", "eta1", "eta2", "p", "q", "t"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected_by_name(self, field, value):
        with pytest.raises(DomainError, match=f"KouJumpParams.{field} must be finite"):
            variant(**{field: value})


def _ref_weights(n, k, params):
    """(P_{n,k}, Q_{n,k}) from the reference block; Q is P with (eta1, p)
    and (eta2, q) swapped."""
    e1, e2, p, q = params.eta1, params.eta2, params.p, params.q
    return (math.exp(_ref_log_pnk_block(n, n, k, e1, e2, p, q)[0]),
            math.exp(_ref_log_pnk_block(n, n, k, e2, e1, q, p)[0]))


class TestWeights:
    # the reference weights the table test compares against, at closed forms
    def test_all_up(self, ref_kou):
        assert _ref_weights(1, 1, ref_kou)[0] == pytest.approx(0.5, rel=1e-14)
        assert _ref_weights(4, 4, ref_kou)[0] == pytest.approx(0.5**4, rel=1e-13)
        assert _ref_weights(3, 3, ref_kou)[1] == pytest.approx(0.5**3, rel=1e-13)

    def test_two_jump_closed_form(self, ref_kou):
        # coefficient of e^(-eta1 y) in the two-fold convolution of the
        # two-sided exponential law: 2 p q eta2 / (eta1 + eta2)
        expected = 2.0 * 0.5 * 0.5 * ref_kou.eta2 / (ref_kou.eta1 + ref_kou.eta2)
        assert _ref_weights(2, 1, ref_kou)[0] == pytest.approx(expected, rel=1e-13)


class TestCoefficients:
    def test_hat_zero_closed_form(self, ref_kou):
        tab = kou.coefficients(ref_kou, 4)
        expected = math.exp(
            ref_kou.eta2 * ref_kou.lam * ref_kou.t * ref_kou.q / (ref_kou.eta1 + ref_kou.eta2)
            - ref_kou.lam * ref_kou.t
        ) * ref_kou.eta1 * ref_kou.lam * ref_kou.t * ref_kou.p
        assert tab.a_hat[0] == pytest.approx(expected, rel=1e-14)

    def test_golden_a0(self, ref_kou):
        # frozen after cross-checking against direct summation and the
        # FFT-convolution oracle of the jump-sum density
        tab = kou.coefficients(ref_kou, 2)
        assert tab.a[0] == pytest.approx(0.44826445353229355, rel=1e-12)

    def test_down_side_vanishes_with_q(self):
        params = variant(p=1.0 - 1e-9, q=1e-9)
        tab = kou.coefficients(params, 6)
        assert np.all(tab.b[1:] < 1e-8 * tab.a[1:])
        assert tab.b[0] == pytest.approx(params.eta2 * params.lam * params.t * params.q
                                         * math.exp(params._down_exp_shift()), rel=1e-6)

    def test_positivity_and_gap(self, ref_kou):
        tab = kou.coefficients(ref_kou, 60)
        assert np.all(tab.a > 0) and np.all(tab.b > 0)
        assert np.all(tab.a - tab.a_hat > 0)
        assert np.all(tab.b - tab.b_hat > 0)

    def test_ratio_decay(self, ref_kou):
        # k * a_k / a_{k-1} decays like 1/(k+1)
        tab = kou.coefficients(ref_kou, 60)
        ks = np.arange(2, 61)
        vals = ks * tab.a[2:] / tab.a[1:-1] * (ks + 1)
        assert np.max(vals) < 5.0

    def test_fft_convolution_oracle(self, ref_kou):
        # independent construction of the jump-sum density: Poisson mixture of
        # n-fold convolutions on a grid via FFT, against the series form
        L, N = 60.0, 1 << 17
        dx = 2 * L / N
        grid = (np.arange(N) - N // 2) * dx
        g = np.where(grid >= 0, 0.5 * 2.0 * np.exp(-2.0 * grid), 0.5 * 1.0 * np.exp(grid))
        ghat = np.fft.rfft(np.fft.ifftshift(g)) * dx
        dens_hat = np.zeros_like(ghat)
        conv_hat = np.ones_like(ghat)
        for n in range(1, 50):
            conv_hat = conv_hat * ghat
            dens_hat = dens_hat + math.exp(-1.0 + n * 0.0 - math.lgamma(n + 1)) * conv_hat
        dens = np.fft.fftshift(np.fft.irfft(dens_hat)) / dx
        for u in (0.3, 0.7, 1.5, 3.0, -0.5, -2.0):
            idx = int(round(u / dx)) + N // 2
            series = (kou.g1(ref_kou, u) * math.exp(-2.0 * u) if u > 0
                      else math.exp(kou.g2_log(ref_kou, -u)) * math.exp(u))
            assert dens[idx] == pytest.approx(series, rel=2e-3)

    def test_closed_forms_where_their_constant_underflows(self):
        # c1 = b1/(2 pi) e^(-757.4) is 0 in double precision here; the closed
        # forms d and l are formed from log c, so the table and the density build
        params = variant(lam=775.0, eta1=1.05, eta2=0.05)
        assert params.c1_jump == 0.0
        tab = kou.coefficients(params, 19)
        assert tab.log_a[0] == pytest.approx(-231.35065790006826, rel=1e-12)
        assert np.all(tab.l > 0) and tab.d[0] == 0.0 and np.all(tab.d[2:] > 0)
        assert kou.h_density(params, 5.0) == pytest.approx(5.303035702583993e-102, rel=1e-10)
        assert kou.g1_log(params, 3.0) == pytest.approx(-228.63960441542346, rel=1e-12)

    def test_table_constants(self, ref_kou):
        assert ref_kou.b1_jump == pytest.approx(1.0)
        assert ref_kou.b2_jump == pytest.approx(0.5)
        assert ref_kou.c1_jump == pytest.approx(1.0 / (2 * math.pi) * math.exp(0.5 / 3.0 - 1.0))


class TestOnePassTable:
    # the reference stops per k, so a table to k_max is the prefix of the
    # reference to 64 at every k_max

    @pytest.mark.parametrize("rel", RELS)
    @pytest.mark.parametrize("index", range(len(BIT_SETS)))
    def test_bit_identical_to_per_k_reference(self, index, rel):
        _assert_bit_identical(BIT_SETS[index], rel, 64)

    @pytest.mark.parametrize("rel", RELS)
    def test_rows_settling_in_different_passes(self, rel):
        # at rel 1e-12, k = 0, 1, 2 need the 48-term window on both sides and
        # the other 17 k settle at 24
        windows = _assert_bit_identical(variant(lam=5.0), rel, 19)
        expected = np.where(np.arange(20) < 3, 48, 24) if rel == 1e-12 else np.full(20, 24)
        assert np.array_equal(windows, [expected, expected])

    @pytest.mark.parametrize("rel", RELS)
    def test_window_schedule(self, rel):
        # at lam = 16 the terms past the window a k settles at still move the
        # last bits of its sum, so any other window schedule changes the table
        _assert_bit_identical(variant(lam=16.0), rel, 19)

    def test_four_passes(self):
        windows = _assert_bit_identical(variant(lam=100.0), DEFAULT_TOL.rel, 19)
        assert np.all(windows == 192)

    def test_unsettled_series_named(self):
        with pytest.raises(ConvergenceError, match=r"for k=0$"):
            kou.coefficients(variant(lam=1000.0), 2)

    def test_reach_of_a_20_term_table(self):
        # with these jump parameters and the default tolerance a 20-term table
        # settles within the 768-term window up to lam t = 629.7 (the reach the
        # docstring of kou.coefficients states); past it k = 0 is named
        tab = kou.coefficients(variant(lam=629.0), 19)
        assert np.all(tab.a > tab.a_hat) and np.all(tab.b > tab.b_hat)
        with pytest.raises(ConvergenceError, match=r"for k=0$"):
            kou.coefficients(variant(lam=631.0), 19)

    @pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (5, 3), (30, 7), (40, 40), (60, 1)])
    def test_weights_match_reference(self, ref_kou, n, k):
        # the table's row kernel at one n, both sides
        j = np.array([n - k])
        logs = kou._log_pnk_rows(np.full(2, k), np.arange(2), j, kou._index_plane(j, max(n - k, 1)),
                                 kou._side_logs(ref_kou))[:, 0]
        assert tuple(map(math.exp, logs)) == _ref_weights(n, k, ref_kou)

    def test_memory_and_time_bounded(self):
        # 65 k at windows 24 to 192 on both sides: unblocked, the i-sum terms
        # of one pass alone take 130 * 193 * 192 doubles (39 MB)
        params = variant(lam=100.0)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            kou.coefficients(params, 64)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        assert elapsed < 1.7

    @pytest.mark.parametrize("k_max", [2.5, 3.0, math.nan, math.inf, True, False, -1, np.int64(-2), "3", None])
    def test_bad_k_max_refused_by_name(self, ref_kou, k_max):
        with pytest.raises(DomainError, match="k_max"):
            kou.coefficients(ref_kou, k_max)

    def test_numpy_integer_k_max(self, ref_kou):
        tab = kou.coefficients(ref_kou, np.int64(3))
        assert np.array_equal(tab.log_a, kou.coefficients(ref_kou, 3).log_a)


class TestTableCache:
    @pytest.fixture
    def fresh_cache(self, monkeypatch):
        # an empty cache of the same kind, and a stand-in for the coefficient
        # computation (~50 ms per table)
        cache = type(kou._TABLE_CACHE)()
        monkeypatch.setattr(kou, "_TABLE_CACHE", cache)
        monkeypatch.setattr(kou, "coefficients", lambda params, k_max: SimpleNamespace(truncation_k=k_max))
        return cache

    def test_bounded_like_the_heston_caches(self, fresh_cache):
        assert kou.TABLE_CACHE_SIZE == 256
        for i in range(300):
            kou._table(variant(lam=1.0 + 0.001 * i), 0)
        assert len(fresh_cache) <= 256
        assert variant(lam=1.0) not in fresh_cache  # least recently used went first
        assert variant(lam=1.299) in fresh_cache

    def test_a_hit_makes_a_table_the_most_recently_used(self, fresh_cache):
        for i in range(256):
            kou._table(variant(lam=1.0 + 0.001 * i), 0)
        kou._table(variant(lam=1.0), 0)
        kou._table(variant(lam=2.0), 0)
        assert variant(lam=1.0) in fresh_cache
        assert variant(lam=1.001) not in fresh_cache
        assert len(fresh_cache) == 256

    def test_hit_returns_the_same_table(self, fresh_cache):
        first = kou._table(variant(), 10)
        assert kou._table(variant(), 10) is first
        assert kou._table(variant(), 80) is not first  # a longer table replaces it
        assert kou._table(variant(), 10).truncation_k == 80

    def test_clear(self, fresh_cache):
        kou._table(variant(), 0)
        fresh_cache.clear()
        assert len(fresh_cache) == 0


class TestSeries:
    def test_value_at_zero_is_a0(self, ref_kou):
        tab = kou.coefficients(ref_kou, 2)
        assert kou.g1(ref_kou, 0.0) == pytest.approx(float(tab.a[0]), rel=1e-13)

    def test_strictly_increasing(self, ref_kou):
        us = np.linspace(0.0, 30.0, 16)
        vals = [kou.g1(ref_kou, float(u)) for u in us]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_matches_fractional_integral_envelope(self, ref_kou):
        s, r = kou.watson_params(ref_kou)
        u = 50.0
        g1v = kou.g1(ref_kou, u)
        f3 = kou.frac_integral(-1.5, s, r, u)
        f5 = kou.frac_integral(-2.5, s, r, u)
        assert abs(g1v - f3) <= 3.0 * f5

    @pytest.mark.parametrize("up", [True, False])
    def test_series_sum_is_scipys_logsumexp(self, ref_kou, up):
        # the sum over k of the table's terms at u, as scipy sums them
        g_log = kou.g1_log if up else kou.g2_log
        for u in (0.5, 10.0, 1e3, 1e4):
            value = g_log(ref_kou, u)
            table = kou._TABLE_CACHE[ref_kou]  # the table the value was summed from
            log_coeffs = table.log_a if up else table.log_b
            terms = log_coeffs + np.arange(log_coeffs.size) * np.log(np.array([u]))[:, None]
            assert value == float(logsumexp(terms, axis=1)[0])

    def test_huge_argument_log_form(self, ref_kou):
        # series evaluation stays finite in log space at u = 1e4
        val = kou.g1_log(ref_kou, 1e4)
        assert math.isfinite(val) and val > 100.0


class TestHDensity:
    def test_right_limit_at_one(self, ref_kou):
        tab = kou.coefficients(ref_kou, 2)
        assert kou.h_density(ref_kou, 1.0) == pytest.approx(float(tab.a[0]), rel=1e-13)

    def test_normalization(self, ref_kou):
        up = quad(lambda u: kou.g1(ref_kou, u) * math.exp(-ref_kou.eta1 * u), 0, 200, limit=300)[0]
        dn = quad(lambda v: math.exp(kou.g2_log(ref_kou, v)) * math.exp(-ref_kou.eta2 * v), 0, 200, limit=300)[0]
        assert ref_kou.atom_mass + up + dn == pytest.approx(1.0, abs=1e-8)

    def test_decomposition_record(self, ref_kou):
        # atom plus density, as the jump-law interface exposes them
        assert ref_kou.atom_mass == pytest.approx(math.exp(-1.0))
        assert ref_kou.price_density(2.0) == pytest.approx(kou.h_density(ref_kou, 2.0))

    def test_power_factor_slowly_varying(self):
        # H(t,x) x^(eta1+1) moves slowly: doubling x changes it by o(1) factors
        params = variant(lam=2.0, t=1.0)
        x = math.exp(40.0)
        lhs = kou.h_log_density(params, 2 * x) + (params.eta1 + 1) * math.log(2 * x)
        rhs = kou.h_log_density(params, x) + (params.eta1 + 1) * math.log(x)
        assert abs(lhs - rhs) < 0.2

    def test_domain(self, ref_kou):
        with pytest.raises(DomainError):
            kou.h_density(ref_kou, 0.0)

    @pytest.mark.parametrize("fn", [kou.h_density, kou.h_log_density, kou.g1_log, kou.g2_log])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_refused_by_value(self, ref_kou, fn, value):
        for point in (value, np.array([2.0, value])):
            with pytest.raises(DomainError, match=f"got {value}"):
                fn(ref_kou, point)

    @pytest.mark.parametrize("fn, points", [
        (kou.h_density, [0.01, 0.5, 1.0, 1.0 + 1e-12, 3.0, math.exp(40.0)]),
        (kou.h_log_density, [0.01, 0.5, 1.0, 1.0 + 1e-12, 3.0, math.exp(40.0)]),
        (kou.g1_log, [0.0, 1e-12, 0.5, 3.0, 30.0, 1e4]),
        (kou.g2_log, [0.0, 1e-12, 0.5, 3.0, 30.0, 1e4]),
    ])
    def test_array_call_is_the_scalar_calls(self, ref_kou, fn, points):
        # the array call first, so that both read the one coefficient table it sizes
        got = fn(ref_kou, np.array(points))
        scalars = [fn(ref_kou, v) for v in points]
        assert all(type(v) is float for v in scalars)
        assert got.tolist() == scalars
        assert fn(ref_kou, np.array(points).reshape(2, 3)).tolist() == [scalars[:3], scalars[3:]]


class TestFracIntegral:
    def test_small_argument_limit(self, ref_kou):
        s, r = kou.watson_params(ref_kou)
        val = kou.frac_integral(-1.5, s, r, 1e-8)
        assert val == pytest.approx(s / math.gamma(1.5) * (2.0 / 3.0), rel=1e-4)

    def test_watson_large_argument(self, ref_kou):
        s, r = kou.watson_params(ref_kou)
        u = 400.0
        watson = (s / math.gamma(1.5) * math.exp(r * math.sqrt(u))
                  * math.sqrt(2.0) * math.gamma(1.5) * r**-1.5 * u**-0.75)
        assert kou.frac_integral(-1.5, s, r, u) == pytest.approx(watson, rel=0.06)

    def test_envelope_constant_finite(self, ref_kou):
        s, r = kou.watson_params(ref_kou)
        cs = []
        for u in np.geomspace(1.0, 400.0, 12):
            diff = abs(kou.g1(ref_kou, float(u)) - kou.frac_integral(-1.5, s, r, float(u)))
            cs.append(diff / kou.frac_integral(-2.5, s, r, float(u)))
        assert max(cs) < 5.0

    def test_supported_orders_only(self, ref_kou):
        s, r = kou.watson_params(ref_kou)
        with pytest.raises(DomainError):
            kou.frac_integral(-0.5, s, r, 1.0)


def _series_asymptote_log(rec, ell):
    """log of the wing record of H without its power factor: the leading term of G1 or G2."""
    return rec.log_value_logx(ell) + rec.r3 * ell


class TestWingAsymptotes:
    def test_ratio_scaled_bounded(self, ref_kou):
        rec = kou.h_wing_record(ref_kou, WING_LARGE)
        vals = []
        for ell in (10.0, 100.0, 1e3, 1e4):
            ratio = math.exp(kou.g1_log(ref_kou, ell) - _series_asymptote_log(rec, ell))
            vals.append(abs(ratio - 1.0) * math.sqrt(ell))
        assert max(vals) < 1.0
        assert vals[-1] <= vals[0]

    def test_prefactor_in_pure_up_limit(self):
        # q -> 0: prefactor tends to (1/2 sqrt(pi)) (eta1 lam t)^(1/4) e^(-lam t)
        params = variant(p=1.0 - 1e-10, q=1e-10)
        rec = kou.h_wing_record(params, WING_LARGE)
        expected = (0.5 / math.sqrt(math.pi)) * (params.eta1 * params.lam * params.t) ** 0.25 \
            * math.exp(-params.lam * params.t)
        assert rec.r1 == pytest.approx(expected, rel=1e-6)

    def test_up_down_symmetry(self):
        # the large-wing series asymptote of a law equals the small-wing one of
        # its mirror (p, eta1) <-> (q, eta2)
        params = variant(p=0.3, q=0.7, eta1=3.0, eta2=2.0)
        mirrored = variant(p=0.7, q=0.3, eta1=2.0, eta2=3.0)
        up = math.exp(_series_asymptote_log(kou.h_wing_record(params, WING_LARGE), 9.0))
        down = math.exp(_series_asymptote_log(kou.h_wing_record(mirrored, WING_SMALL), 9.0))
        assert up == pytest.approx(down, rel=1e-12)

    def test_records_expose_density_exponents(self, ref_kou):
        rec = kou.h_wing_record(ref_kou, WING_LARGE)
        assert rec.r3 == ref_kou.eta1 + 1.0 and rec.r4 == -0.75
        zrec = kou.h_wing_record(ref_kou, WING_SMALL)
        assert zrec.r3 == ref_kou.eta2 - 1.0


class TestJumpMgf:
    def test_unit_at_zero(self, ref_kou):
        assert kou.jump_mgf(ref_kou, 0.0) == 1.0

    def test_zero_intensity_limit(self):
        params = variant(lam=1e-14)
        for s in (-0.5, 0.5, 1.5):
            assert kou.jump_mgf(params, s) == pytest.approx(1.0, abs=1e-12)

    def test_martingale_identity(self, ref_kou):
        mu = kou.risk_neutral_drift(ref_kou)
        assert math.exp(mu * ref_kou.t) * kou.jump_mgf(ref_kou, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_atom_subtraction_matches_quadrature(self, ref_kou):
        for s in (0.5, -0.5, 1.5):
            closed = kou.jump_mgf(ref_kou, s) - ref_kou.atom_mass
            up = quad(lambda u: kou.g1(ref_kou, u) * math.exp((s - ref_kou.eta1) * u), 0, 300, limit=300)[0]
            dn = quad(lambda v: math.exp(kou.g2_log(ref_kou, v)) * math.exp(-(ref_kou.eta2 + s) * v), 0, 300,
                      limit=300)[0]
            assert closed == pytest.approx(up + dn, abs=1e-10)

    def test_pole_rejection(self, ref_kou):
        with pytest.raises(MomentExplosionError):
            kou.jump_mgf(ref_kou, ref_kou.eta1)
        with pytest.raises(MomentExplosionError):
            kou.jump_mgf(ref_kou, -ref_kou.eta2)


class TestCoefficientIdentities:
    def test_cnalpha_normalized_limit(self):
        # Gamma(n+1)/Gamma(n+|alpha|+1) * (n+1)^|alpha| -> 1
        ns = np.arange(1, 200)
        for alpha in (-1.5, -2.5):
            c = np.exp([math.lgamma(n + 1) - math.lgamma(n - alpha + 1) for n in ns])
            scaled = c * (ns + 1.0) ** (-alpha)
            assert abs(scaled[-1] - 1.0) < 0.01
            gaps = np.abs((ns + 1.0) ** alpha - c)
            c_next = np.exp([math.lgamma(n + 1) - math.lgamma(n - alpha + 2) for n in ns])
            # fitted constant: ~0.61 for order -3/2, ~4.8 for order -5/2
            assert np.all(gaps <= 8.0 * c_next)

    def test_combined_cosh_coefficient_bound(self, ref_kou):
        # |a_k - c_{k,-3/2} d~_k| <= const * c_{k,-5/2} d~_k
        s, r = kou.watson_params(ref_kou)
        tab = kou.coefficients(ref_kou, 60)
        ks = np.arange(61)
        log_dt = math.log(s) + 2 * ks * math.log(r) - np.array(
            [math.lgamma(2 * k + 1) for k in ks])
        c32 = np.exp([math.lgamma(k + 1) - math.lgamma(k + 2.5) for k in ks])
        c52 = np.exp([math.lgamma(k + 1) - math.lgamma(k + 3.5) for k in ks])
        lhs = np.abs(tab.a - c32 * np.exp(log_dt))
        rhs = c52 * np.exp(log_dt)
        assert np.all(lhs <= 8.0 * rhs)


class TestSampling:
    def test_atom_probability(self):
        params = variant(lam=0.05)
        stream = RngStream(5)
        draws = kou.sample_jump_factors(params, stream, 400_000)
        p_one = np.mean(draws == 1.0)
        se = math.sqrt(p_one * (1 - p_one) / draws.size)
        assert abs(p_one - math.exp(-0.05)) <= 3.0 * se + 1e-12

    def test_mean_matches_mgf(self, ref_kou):
        draws = kou.sample_jump_factors(ref_kou, RngStream(6), 1_000_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - kou.jump_mgf(ref_kou, 1.0)) <= 3.0 * se

    def test_single_draw(self, ref_kou):
        val = ref_kou.sample_factors(RngStream(7), 1)[0]
        assert val > 0
