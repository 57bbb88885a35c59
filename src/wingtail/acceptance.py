"""The acceptance gate: twelve property-based criteria, each runnable on its
own, each returning a structured pass/fail result with the measured constants.

Each criterion takes no arguments and returns (passed, detail): it pins its
parameter sets (reference values plus configs engineered to force each tail
regime), its tolerances and its Monte Carlo seeds, so the gate has one
configuration. `run_criterion` times one criterion and builds its
`CriterionResult`; `run_all` runs the twelve and prints one line each, and is
what the CLI `validate` subcommand executes, as `pytest`
(tests/test_acceptance.py) runs each criterion.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import heston, kou, mellin, mixed, nig, oracles, smile
from .errors import DegenerateRegimeError, InversionError
from .heston import HestonParams
from .kou import KouJumpParams
from .mellin import TailAsymptote
from .mixed import MixedModel, WING_LARGE, WING_SMALL
from .nig import NIGParams
from .numerics import RngStream, Tolerance, integrate

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all", "smile_variants"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime: float
    detail: str


# reference parameter sets ---------------------------------------------------

def _ref_heston(mu: float = 0.0, a: float = 1.0, t: float = 1.0) -> HestonParams:
    return HestonParams(mu=mu, a=a, b=2.0, c=0.5, rho=-0.3, x0=1.0, y0=0.04, t=t)


def _kou(lam=1.0, eta1=2.0, eta2=1.0, p=0.5, t=1.0) -> KouJumpParams:
    return KouJumpParams(lam=lam, eta1=eta1, eta2=eta2, p=p, q=1.0 - p, t=t)


def _kou_model(eta1=2.0, eta2=1.0, a=1.0) -> MixedModel:
    j = _kou(eta1=eta1, eta2=eta2)
    return MixedModel(heston=_ref_heston(mu=kou.risk_neutral_drift(j), a=a), jumps=j)


def _nig_model(alpha=2.0, a=1.0) -> MixedModel:
    j = NIGParams(alpha=alpha, delta=1.0, t=1.0)
    return MixedModel(heston=_ref_heston(mu=nig.nig_no_arb_drift(j), a=a), jumps=j)


def smile_variants() -> dict[str, MixedModel]:
    """The four dominance-regime variants of the smile criterion (9)."""
    return {
        "kou jump-dom": _kou_model(eta1=2.0, eta2=1.0, a=1.0),
        "kou diff-dom": _kou_model(eta1=15.0, eta2=8.0, a=0.25),
        "nig jump-dom": _nig_model(alpha=2.0, a=1.0),
        "nig diff-dom": _nig_model(alpha=15.0, a=0.25),
    }


def _verdict(checks: list[tuple[str, bool]], passed: str) -> tuple[bool, str]:
    """Whether every named check holds, and the detail: `passed`, or the names of the checks that fail."""
    failed = [name for name, good in checks if not good]
    return not failed, "failed: " + "; ".join(failed) if failed else passed


# criterion 1 ----------------------------------------------------------------

def criterion_1_coefficient_inequalities() -> tuple[bool, str]:
    """Exact-vs-approximate coefficient gaps: positive, with (k+1)-scaled
    relative size bounded uniformly in k by 10x its small-k level."""
    worst = {"a_const": 0.0, "b_const": 0.0, "ad_const": 0.0, "bl_const": 0.0}
    ok = True
    ks = np.arange(61)
    for lam in (0.5, 1.0, 2.0):
        for p in (0.3, 0.5, 0.7):
            for eta1 in (2.0, 5.0):
                for eta2 in (1.0, 3.0):
                    params = _kou(lam=lam, eta1=eta1, eta2=eta2, p=p)
                    tab = kou.coefficients(params, 60)
                    # the hat sequences bound the coefficients from below, the closed forms only approximate them
                    for exact, approx, key, below in ((tab.a, tab.a_hat, "a", True), (tab.b, tab.b_hat, "b", True),
                                                      (tab.a, tab.d, "ad", False), (tab.b, tab.l, "bl", False)):
                        gap = exact - approx
                        if below and not np.all(gap > 0):
                            ok = False
                        rel = np.abs(gap) * (ks + 1) / approx
                        cap = 10.0 * float(np.max(rel[:11]))
                        worst[f"{key}_const"] = max(worst[f"{key}_const"], float(np.max(rel)))
                        if not np.max(rel) <= cap:
                            ok = False
    detail = (
        f"max (a-ahat)(k+1)/ahat = {worst['a_const']:.4f}, b-side {worst['b_const']:.4f}, "
        f"|a-d|(k+1)/d = {worst['ad_const']:.4f}, |b-l|(k+1)/l = {worst['bl_const']:.4f}"
    )
    return ok, detail


# criterion 2 ----------------------------------------------------------------

def criterion_2_fractional_envelope() -> tuple[bool, str]:
    """|G1 - F_{3/2}| / F_{5/2} finite over u in [1, 400], with no upward drift.

    The envelope constant is attained at the small-u end and the bound only
    slackens with u (the ratio decays monotonically), so the 50% stability
    requirement is applied in the direction that would reveal an asymptotic
    envelope failure: the upper-half sup must not exceed the lower-half sup
    by more than 50%.
    """
    params = _kou()
    s, r = kou.watson_params(params)
    us = np.geomspace(1.0, 400.0, 40)
    ratios = []
    for u in us:
        g1v = math.exp(kou.g1_log(params, float(u)))
        f3 = kou.frac_integral(-1.5, s, r, float(u))
        f5 = kou.frac_integral(-2.5, s, r, float(u))
        ratios.append(abs(g1v - f3) / f5)
    sup_all = max(ratios)
    sup_lower = max(ratios[:20])
    sup_upper = max(ratios[20:])
    ok = math.isfinite(sup_all) and sup_upper <= 1.5 * sup_lower
    return ok, f"sup|G1-F3|/F5 = {sup_all:.4f} (lower half {sup_lower:.4f}, upper half {sup_upper:.4f})"


# criterion 3 ----------------------------------------------------------------

def criterion_3_jump_tail_asymptote() -> tuple[bool, str]:
    """Series-vs-asymptote ratio of the jump density factors, scaled by sqrt(log x).

    The asymptote of G1 (G2) is the large (small) wing record of H without its
    power factor: log_value_logx(ell) + r3 * ell."""
    params = _kou()
    ells = [10.0, 30.0, 100.0, 300.0, 1e3, 1e4]
    scaled_up, scaled_dn = [], []
    for g_log, wing, scaled in ((kou.g1_log, WING_LARGE, scaled_up), (kou.g2_log, WING_SMALL, scaled_dn)):
        rec = kou.h_wing_record(params, wing)
        for ell in ells:
            ratio = math.exp(g_log(params, ell) - (rec.log_value_logx(ell) + rec.r3 * ell))
            scaled.append(abs(ratio - 1.0) * math.sqrt(ell))
    ok = all(math.isfinite(v) for v in scaled_up + scaled_dn)
    for vals in (scaled_up, scaled_dn):
        fitted = 1.5 * vals[0] + 0.05
        ok = ok and max(vals) <= fitted and max(vals) <= 10.0
    return ok, f"up-side |ratio-1|*sqrt(u): {max(scaled_up):.4f}, down-side: {max(scaled_dn):.4f}"


# criterion 4 ----------------------------------------------------------------

def criterion_4_mellin_asymptote() -> tuple[bool, str]:
    """Quadrature convolution of a compact factor with the jump density versus
    the transfer-rule asymptote, scaled by sqrt(log x)."""
    params = _kou()
    norm_const = float(integrate(lambda v, _panel: (v - 0.5) ** 2 * (2.0 - v) ** 2, 0.5, 2.0)[0])

    def U(v):
        return np.where((v > 0.5) & (v < 2.0), (v - 0.5) ** 2 * (2.0 - v) ** 2 / norm_const, 0.0)

    mu_val = float(integrate(lambda v, _panel: U(v) * v ** params.eta1, 0.5, 2.0)[0])
    conv_tol = Tolerance(rel=1e-9, abs=1e-300)
    scaled = []
    for ell in (15.0, 25.0, 40.0, 50.0):
        conv = mellin.mellin_convolve(U, params.price_density, math.exp(ell), conv_tol)
        asym = mu_val * math.exp(kou.h_log_density_logx(params, ell))
        scaled.append(abs(conv / asym - 1.0) * math.sqrt(ell))
    ok = all(math.isfinite(v) for v in scaled) and max(scaled) <= 1.5 * scaled[0] + 0.05 and max(scaled) <= 10.0
    return ok, f"|conv/asym - 1|*sqrt(log x) over log x in [15,50]: max {max(scaled):.4f}"


# criterion 5 ----------------------------------------------------------------

def criterion_5_critical_moments() -> tuple[bool, str]:
    """Round trip of the critical moment through the explosion time, and
    agreement with the Riccati ODE oracle."""
    ok = True
    worst_rt, worst_gap = 0.0, 0.0
    for t in (0.25, 1.0, 4.0):
        params = _ref_heston(t=t)
        cm = heston.critical_moments(params)
        rt = abs(heston.explosion_time(params, cm.s_plus) - t)
        gap = abs(oracles.riccati_critical_moment(params, upper=True) - cm.s_plus)
        worst_rt, worst_gap = max(worst_rt, rt), max(worst_gap, gap)
        ok = ok and rt <= 1e-8 and gap <= 1e-6
    return ok, f"max |T*(s+) - t| = {worst_rt:.2e}, max |s+ - oracle| = {worst_gap:.2e}"


# criterion 6 ----------------------------------------------------------------

def _ratio_trend(model: MixedModel, record: TailAsymptote, sign: int, ells) -> tuple[list, float]:
    """Oracle/asymptote ratios plus their extrapolated limit.

    The relative error of a wing record expands in 1/sqrt(log x) and
    1/log x, so the limit is read off a least-squares fit of log-ratio
    against [1, 1/sqrt(ell), 1/ell]."""
    log_ratios = []
    for ell in ells:
        ld = oracles.log_density_fourier_logx(model, sign * ell)
        log_ratios.append(ld - record.log_value_logx(ell))
    x = np.asarray(ells)
    basis = np.column_stack([np.ones_like(x), 1.0 / np.sqrt(x), 1.0 / x])
    coef, *_ = np.linalg.lstsq(basis, np.asarray(log_ratios), rcond=None)
    return [math.exp(v) for v in log_ratios], math.exp(coef[0])


def _monotone(seq) -> bool:
    diffs = np.diff(seq)
    return bool(np.all(diffs > 0) or np.all(diffs < 0))


def criterion_6_mixed_density_wings() -> tuple[bool, str]:
    """Oracle/asymptote density ratios on both wings for a jump-dominant and a
    diffusion-dominant config: monotone trend, extrapolated constant within
    15% of 1, and the coefficient-level identity with the Mellin transfer rule.

    The diffusion-dominant config uses the gentler vol-of-var ratio a = 0.25:
    with the reference a = 1 the asymptote's (log x)^(-1/2) correction carries
    a coefficient near 10 and the window [6, 12] sits far outside the
    asymptotic regime, so that case is certified instead by the far-field
    check below (the shifted-contour oracle stays accurate out there).
    """
    window = [6.0, 7.5, 9.0, 10.5, 12.0]
    checks = []
    jd = _kou_model(eta1=2.0, eta2=1.0, a=1.0)
    dd = _kou_model(eta1=15.0, eta2=8.0, a=0.25)
    for model, want in ((jd, mixed.DOMINANT_JUMP), (dd, mixed.DOMINANT_DIFFUSION)):
        large, small = (mixed.classify_wing(model, wing) for wing in (WING_LARGE, WING_SMALL))
        checks.append((f"{want} classify", large.dominant == want and small.dominant == want))
        for wing, sign in ((WING_LARGE, +1), (WING_SMALL, -1)):
            ratios, limit = _ratio_trend(model, mixed.mixed_asymptote(model, wing), sign, window)
            checks.append((f"{want} {wing} monotone", _monotone(ratios)))
            checks.append((f"{want} {wing} limit {limit:.3f}", abs(limit - 1.0) <= 0.15))
    # far-field certification of the steep reference diffusion-dominant case
    dd_ref = _kou_model(eta1=15.0, eta2=8.0, a=1.0)
    ratios, limit = _ratio_trend(dd_ref, mixed.mixed_asymptote(dd_ref, WING_LARGE), +1, [200.0, 500.0, 1000.0])
    checks.append((f"reference dd far-field limit {limit:.3f}", _monotone(ratios) and abs(limit - 1.0) <= 0.15))
    # record-level identity with the Mellin transfer rule (the proof route):
    # jump-dominant wing = jump record scaled by the diffusion moment, on the
    # diffusion's moment strip; diffusion-dominant wing = diffusion record
    # scaled by the jump-law moment, on the jump law's strip
    cm = heston.critical_moments(jd.heston)
    for wing in (WING_LARGE, WING_SMALL):
        jrec = jd.jumps.wing_record(wing)
        via = mellin.convolve_asymptote(jrec, (cm.s_minus, cm.s_plus), heston.mgf(jd.heston, -jrec.mellin_point - 1.0))
        checks.append((f"jump-dom transfer identity ({wing})", via == mixed.mixed_asymptote(jd, wing)))
        hrec = heston.wing_record(dd.heston, wing)
        via = mellin.convolve_asymptote(hrec, dd.jumps.moment_strip(), dd.jump_moment(-hrec.mellin_point - 1.0))
        checks.append((f"diff-dom transfer identity ({wing})", via == mixed.mixed_asymptote(dd, wing)))
    return _verdict(checks, "all ratio trends and identities hold")


# criterion 7 ----------------------------------------------------------------

def criterion_7_martingale() -> tuple[bool, str]:
    """Monte Carlo martingale check under the no-arbitrage drifts.

    Both models have E[X^2] = inf, so the raw sample mean has no standard
    error; the statistic is the z-score of the capped mean min(X, 2 x0)
    (`oracles.martingale_z`). The same sample must also reject the drifts
    shifted by +-0.01, or the check has no power.
    """
    shift = 0.01
    results = []
    for model in (_kou_model(), _nig_model(alpha=1.25)):
        sample = oracles.simulate_paths(model, 1_000_000, 200, RngStream(11))
        hp = model.heston
        # mu enters the simulated log-price only as mu t, so the sample under
        # the drift mu + d is this one times exp(d t), draw for draw
        shifted = [oracles.martingale_z(MixedModel(heston=replace(hp, mu=hp.mu + d), jumps=model.jumps),
                                        sample * math.exp(d * hp.t)) for d in (-shift, shift)]
        results.append((model.jump_kind, oracles.martingale_z(model, sample), shifted))
    ok = all(abs(z) <= 3.0 and min(map(abs, shifted)) > 3.0 for _kind, z, shifted in results)
    detail = "; ".join(f"{kind}: capped-mean z={z:+.2f}, drift -/+{shift} z={lo:+.2f}/{hi:+.2f}"
                       for kind, z, (lo, hi) in results)
    return ok, detail


# criterion 8 ----------------------------------------------------------------

def criterion_8_moment_identities() -> tuple[bool, str]:
    """Closed-form moments vs Monte Carlo, and the transform/moment identity."""
    j = _kou(eta1=5.0, eta2=3.0)
    model = MixedModel(heston=_ref_heston(mu=kou.risk_neutral_drift(j)), jumps=j)
    sample = oracles.simulate_paths(model, 1_000_000, 200, RngStream(23))
    ok = True
    zs = []
    for s in (-1.0, 0.5, 2.0):
        closed = heston.mgf(model.heston, s) * model.jump_moment(s)
        pows = sample**s
        mc, se = float(np.mean(pows)), float(np.std(pows) / math.sqrt(pows.size))
        z = (mc - closed) / se
        zs.append(z)
        ok = ok and abs(z) <= 3.0
    # MU(eta) equals the moment of order -eta-1: check on the closed-form jump density
    nig_model = _nig_model()
    gap = 0.0
    for eta in (-2.5, -0.5, 0.2):
        mu_val = mellin.mellin_transform(nig_model.jumps.price_density, eta)
        closed = nig_model.jump_moment(-eta - 1.0)
        gap = max(gap, abs(mu_val - closed))
        ok = ok and abs(mu_val - closed) <= 1e-8
    return ok, f"MC z-scores {', '.join(f'{z:+.2f}' for z in zs)}; max transform-moment gap {gap:.2e}"


# criterion 9 ----------------------------------------------------------------

def criterion_9_smile_expansion() -> tuple[bool, str]:
    """Five-term wing expansion vs Black-Scholes inversion of the asymptotic
    price on all four regime variants, plus exact-price agreement at L <= 8.

    Diffusion-dominant variants use the a = 0.25 Heston (same reason as
    criterion 6: the reference a = 1 wing corrections put L in [10, 100]
    outside the regime where the leading density term is meaningful).
    """
    variants = smile_variants()
    grid = [10.0, 14.0, 20.0, 30.0, 45.0, 68.0, 100.0]
    checks = []
    worst = 0.0
    for name, model in variants.items():
        for wing in (WING_LARGE, WING_SMALL):
            expn = smile.smile_expansion(model, wing)
            scaled = []
            for L in grid:
                iv_inv = smile.bs_implied_vol_from_log(expn.log_call(L), L, model.t)
                scaled.append(abs(iv_inv - expn.evaluate(L)) * L)
            worst = max(worst, max(scaled))
            lo = [v for v, L in zip(scaled, grid) if L <= 30.0]
            hi = [v for v, L in zip(scaled, grid) if L >= 30.0]
            # window stability detects residuals growing like sqrt(L); residuals
            # below 0.05 are at the next-order-term floor where the comparison
            # of two tiny sups is shape noise, not error growth
            stable = max(scaled) <= 0.05 or abs(max(lo) - max(hi)) <= 0.5 * max(max(lo), max(hi))
            checks.append((f"{name} {wing} residual*L {max(scaled):.3f} stable", max(scaled) <= 10.0 and stable))
        # exact-price agreement at moderate strikes (large wing)
        expn = smile.smile_expansion(model, WING_LARGE)
        for L in (5.0, 6.5, 8.0):
            K = math.exp(L)
            iv_exact = smile.bs_implied_vol_from_log(math.log(oracles.call_fourier(model, K)), math.log(K), model.t)
            rel = abs(expn.evaluate(L) / iv_exact - 1.0)
            checks.append((f"{name} exact L={L} rel {rel:.3%}", rel <= 0.10))
    return _verdict(checks, f"max residual*L = {worst:.3f}; all windows stable; exact-price iv within 10%")


# criterion 10 ---------------------------------------------------------------

def criterion_10_bs_round_trip() -> tuple[bool, str]:
    """Black-Scholes price/implied-vol round trip to 1e-10 wherever the price
    is strictly inside the no-arbitrage band (deep-ITM tiny-vol prices collapse
    to intrinsic in double precision and must raise instead)."""
    worst = 0.0
    ok = True
    edge_points = 0
    for sigma in (0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 1.6, 2.0):
        for k_rel in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
            price = smile.bs_call(1.0, k_rel, 1.0, sigma)
            intrinsic = max(1.0 - k_rel, 0.0)
            if not intrinsic < price < 1.0:
                edge_points += 1
                try:
                    smile.bs_implied_vol_from_log(math.log(price), math.log(k_rel), 1.0)
                    ok = False
                except InversionError:
                    pass
                continue
            srt = sigma  # T = 1
            d1 = (math.log(1.0 / k_rel) + 0.5 * srt * srt) / srt
            vega = math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)
            if math.ulp(price) / vega > 1e-11:
                # one ulp of the double-precision price moves sigma by more
                # than a tenth of the tolerance: the price does not determine
                # the volatility to 1e-10 and the point is a band-edge case
                edge_points += 1
                continue
            worst = max(worst, abs(smile.bs_implied_vol_from_log(math.log(price), math.log(k_rel), 1.0) - sigma))
            ok = ok and worst <= 1e-10
    return ok, f"max |round trip - sigma| = {worst:.2e}; {edge_points} band-edge points excluded"


# criterion 11 ---------------------------------------------------------------

def criterion_11_degeneracy() -> tuple[bool, str]:
    """Configs engineered onto the exponent-equality boundary must refuse."""
    base = _ref_heston()
    k = heston.tail_constants(base)

    def refuses(step, model: MixedModel, wing: str) -> bool:
        try:
            step(model, wing)
        except DegenerateRegimeError:
            return True
        return False

    checks = []
    j_large = _kou(eta1=k.A3 - 1.0, eta2=1.0)
    j_small = _kou(eta1=2.0, eta2=k.A3t + 1.0)
    for j, wing in ((j_large, WING_LARGE), (j_small, WING_SMALL)):
        model = MixedModel(heston=base, jumps=j)
        checks.append((f"kou {wing}", refuses(mixed.classify_wing, model, wing)))
        checks.append((f"kou {wing} asymptote", refuses(mixed.mixed_asymptote, model, wing)))
    nig_model = MixedModel(heston=base, jumps=NIGParams(alpha=k.A3 - 1.0, delta=1.0, t=1.0))
    checks.append(("nig large", refuses(mixed.classify_wing, nig_model, WING_LARGE)))
    return _verdict(checks, "all boundary configs raised structured degeneracy errors")


# criterion 12 ---------------------------------------------------------------

def criterion_12_normalizations() -> tuple[bool, str]:
    """Atom + jump density mass = 1; jump-factor and mixed densities integrate to 1.

    The Kou and NIG masses integrate to eps/100 and the mixed mass to eps."""
    eps = 1e-9
    params = _kou()
    fine = Tolerance(rel=eps * 1e-2, abs=eps * 1e-2)
    # the masses of H(x) dx and of the NIG price density in u = log x; a panel edge at Kou's kink u = 0
    h_mass = integrate(lambda u, _panel: np.exp(kou.h_log_density_logx(params, u) + u),
                       [-300.0, 0.0], [0.0, 300.0], fine)[0]
    gap_h = abs(params.atom_mass + float(h_mass.sum()) - 1.0)
    np_params = NIGParams(alpha=2.0, delta=1.0, t=1.0)
    nig_mass = float(integrate(lambda y, _panel: np.exp(nig.nig_price_log_density_logx(np_params, y) + y),
                               -80.0, 80.0, fine)[0])
    gap_nig = abs(nig_mass - 1.0)
    model = _kou_model()
    # panels of width 6 in log x: one 21-point panel over the whole range
    # misses the density's peak with both rules, and at rel 1e-2 passed 6% off
    edges = np.linspace(-28.0, 14.0, 8)
    mixed_mass = float(integrate(
        lambda ell, _panel: np.exp(oracles.log_density_fourier_logx(model, ell) + ell),
        edges[:-1], edges[1:], Tolerance(rel=eps, abs=eps),
    )[0].sum())
    gap_mixed = abs(mixed_mass - 1.0)
    ok = gap_h <= 1e-8 and gap_nig <= 1e-8 and gap_mixed <= 1e-6
    return ok, f"|atom+intH-1|={gap_h:.2e}, |int nig-1|={gap_nig:.2e}, |int mixed-1|={gap_mixed:.2e}"


CRITERIA = {
    1: ("coefficient approximation inequalities", criterion_1_coefficient_inequalities),
    2: ("fractional-integral envelope", criterion_2_fractional_envelope),
    3: ("jump-factor wing asymptote", criterion_3_jump_tail_asymptote),
    4: ("Mellin tail-transfer asymptote", criterion_4_mellin_asymptote),
    5: ("critical moments vs Riccati oracle", criterion_5_critical_moments),
    6: ("mixed-density wing asymptotes vs oracle", criterion_6_mixed_density_wings),
    7: ("martingale drift (Monte Carlo)", criterion_7_martingale),
    8: ("moment identities (MC and transform)", criterion_8_moment_identities),
    9: ("implied-volatility wing expansions", criterion_9_smile_expansion),
    10: ("Black-Scholes round trip", criterion_10_bs_round_trip),
    11: ("degenerate regime handling", criterion_11_degeneracy),
    12: ("normalizations", criterion_12_normalizations),
}


def run_criterion(number: int) -> CriterionResult:
    """Run criterion `number` and time it."""
    name, criterion = CRITERIA[number]
    start = time.time()
    passed, detail = criterion()
    return CriterionResult(number, name, passed, time.time() - start, detail)


def run_all() -> list[CriterionResult]:
    """Run every criterion in order, printing one line each."""
    results = []
    for number in sorted(CRITERIA):
        res = run_criterion(number)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] criterion {res.number:2d} ({res.name}) in {res.runtime:.1f}s: {res.detail}")
    return results
