import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besov_rough._rng import rng_for
from besov_rough.errors import RegimeError
from besov_rough.grid import GridPath, TwoParamField, UniformGrid, delta
from besov_rough.norms import (
    INF,
    BesovParams,
    EndpointModulus,
    band_lp_norms,
    besov_metric,
    besov_seminorm,
    campanato_ratio,
    check_embedding,
    delta2_norm,
    holder_seminorm,
    interpolation_check,
    lp_modulus,
    lp_norm,
    oscillation_variation,
    pvariation,
    two_param_metric,
    two_param_norm,
)
from besov_rough.rough import canonical_lift
from besov_rough.signals import (
    brownian_path,
    dyadic_time_change,
    heaviside,
    loglog_signal,
    pw_linear_random,
    sawtooth,
    smooth_random,
)

GRID = UniformGrid(1.0, 8)


def _const(grid=GRID, value=1.3):
    return GridPath(grid, np.full(grid.n, value))


# -- parameters ---------------------------------------------------------------

def test_besov_params_regimes():
    assert BesovParams(0.6, 4.0, INF).young_ok
    assert BesovParams(0.5, 4.0, 2.0).young_ok
    assert not BesovParams(0.5, 4.0, 3.0).young_ok  # q <= 2 at alpha = 1/2
    assert not BesovParams(0.6, 1.5, INF).young_ok  # p <= 1/alpha
    assert BesovParams(0.4, 4.0, INF).level2_ok
    assert BesovParams(1.0 / 3.0, 4.0, 3.0).level2_ok
    assert not BesovParams(1.0 / 3.0, 4.0, 4.0).level2_ok
    assert BesovParams(0.3, 5.0, 4.0).levelN_ok(3)


@pytest.mark.parametrize("n_level", [1, 2, 3])
def test_regime_ladder_endpoint_tolerance(n_level):
    lo, q_end = 1.0 / (n_level + 1), n_level + 1
    # at 1/(N+1) and within 1e-12 above it: the endpoint, where q <= N+1
    for alpha in (lo, lo + 1e-13):
        assert BesovParams(alpha, 8.0, q_end).endpoint(n_level)
        assert BesovParams(alpha, 8.0, q_end).levelN_ok(n_level)
        assert not BesovParams(alpha, 8.0, q_end + 1).levelN_ok(n_level)
    # below 1/(N+1), however close: outside level N for every q
    below = BesovParams(lo - 1e-13, 8.0, 1.0)
    assert below.endpoint(n_level) and not below.levelN_ok(n_level)
    # clear of the tolerance: every q
    above = BesovParams(lo + 1e-11, 8.0, INF)
    assert not above.endpoint(n_level) and above.levelN_ok(n_level)
    if n_level == 1:
        assert not BesovParams(lo + 1e-13, 8.0, q_end + 1).young_ok
        assert BesovParams(lo + 1e-11, 8.0, INF).young_ok


def test_triviality_rejected():
    with pytest.raises(RegimeError):
        besov_seminorm(_const(), 1.5, 2.0, 2.0)
    with pytest.raises(RegimeError):
        BesovParams(1.2, 2.0, 2.0)


def test_endpoint_modulus():
    mod = EndpointModulus(r=2.0, exponent=1.0)
    h = np.array([1e-6, 1e-3, 0.1, 0.5])
    ell = mod.ell(h)
    assert np.all(np.diff(ell) <= 0)  # non-increasing
    assert mod.check_integrable(1.0) < math.inf
    assert EndpointModulus(r=INF).ell(h) == pytest.approx(1.0)


# -- moduli and seminorms -----------------------------------------------------

def test_lp_modulus_examples():
    assert lp_modulus(_const(), 2.0, 0.5) == 0.0
    h = heaviside(GRID)
    assert lp_modulus(h, 2.0, 0.25) == pytest.approx(0.5)
    lin = GridPath(GRID, GRID.times())
    assert lp_modulus(lin, INF, 0.25) == pytest.approx(0.25)
    with pytest.raises(RegimeError):
        lp_modulus(h, 2.0, 0.0)


def test_modulus_nondecreasing_in_tau():
    f = brownian_path(GRID, rng_for(0, "mod"))
    taus = GRID.horizon * 2.0 ** (-np.arange(1, GRID.level + 1))
    vals = [lp_modulus(f, 2.0, t) for t in sorted(taus)]
    assert np.all(np.diff(vals) >= 0)


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_heaviside_critical_norm_exact(p):
    # single jump at a node: dyadic-form value 1 at every level
    value = besov_seminorm(heaviside(GRID), 1.0 / p, p, INF, form="dyadic")
    assert value == pytest.approx(1.0, abs=1e-12)


def test_linear_path_dyadic_value():
    # |delta_h f|_{L^2} = h (1-h)^{1/2}; sup attained at n=1 with value 1/2
    lin = GridPath(GRID, GRID.times())
    value = besov_seminorm(lin, 0.5, 2.0, INF, form="dyadic")
    assert value == pytest.approx(0.5, abs=1e-12)


def test_constant_path_zero():
    assert besov_seminorm(_const(), 0.4, 2.0, 2.0, form="dyadic") == 0.0
    assert besov_seminorm(_const(), 0.4, 2.0, 2.0, form="integral") == 0.0


def test_scaling_homogeneity():
    f = pw_linear_random(GRID, rng_for(1, "scale"))
    for form in ("dyadic", "integral"):
        a = besov_seminorm(3.7 * f, 0.4, 3.0, 2.0, form=form)
        b = 3.7 * besov_seminorm(f, 0.4, 3.0, 2.0, form=form)
        assert a == pytest.approx(b, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    f = GridPath(GRID, rng.standard_normal(GRID.n))
    g = GridPath(GRID, rng.standard_normal(GRID.n))
    for form in ("dyadic", "integral"):
        s = besov_seminorm(f + g, 0.4, 2.0, 2.0, form=form)
        assert s <= (
            besov_seminorm(f, 0.4, 2.0, 2.0, form=form)
            + besov_seminorm(g, 0.4, 2.0, 2.0, form=form)
            + 1e-10
        )


def test_dyadic_integral_ratio_stable():
    # the two forms are equivalent with a fixed two-sided constant
    for seed in range(20):
        rng = rng_for(2, "forms", seed)
        f = pw_linear_random(GRID, rng)
        alpha = 0.3 + 0.5 * rng.random()
        dy = besov_seminorm(f, alpha, 4.0, 2.0, form="dyadic")
        it = besov_seminorm(f, alpha, 4.0, 2.0, form="integral")
        assert dy > 0 and it > 0
        assert 0.2 <= dy / it <= 5.0


def test_heaviside_divergence_growth():
    # B^{1/2}_{2,2} of the jump grows like sqrt(L), exactly on dyadic grids
    vals = {}
    for level in (8, 12):
        g = UniformGrid(1.0, level)
        vals[level] = besov_seminorm(heaviside(g), 0.5, 2.0, 2.0, form="dyadic")
        assert vals[level] == pytest.approx(math.sqrt(level), abs=1e-9)
    lhs = vals[12] - vals[8]
    assert lhs >= 0.8 * (math.sqrt(12) - math.sqrt(8)) * (vals[8] / math.sqrt(8))


@pytest.mark.parametrize("p", [2.0, 4.0])
def test_loglog_signal_stays_bounded(p):
    vals = {}
    for level in (8, 12, 16):
        vals[level] = besov_seminorm(
            loglog_signal(UniformGrid(1.0, level)), 1.0 / p, p, p, form="dyadic"
        )
    assert vals[16] <= 1.10 * vals[12]
    assert vals[16] / vals[12] <= vals[12] / vals[8] + 0.02  # growth dying out


def test_brownian_seminorm_diverges_for_finite_q():
    growth = []
    for seed in range(8):
        w = brownian_path(UniformGrid(1.0, 13), rng_for(3, "bmdiv", seed))
        a = besov_seminorm(w.subsample(4), 0.5, 8.0, 8.0, form="dyadic") ** 8
        b = besov_seminorm(w, 0.5, 8.0, 8.0, form="dyadic") ** 8
        growth.append(b / a)
    assert np.median(growth) > 1.15


def test_reparametrization_invariance_of_critical_norm():
    # H and H composed with a dyadic piecewise-linear time change share the
    # critical norm exactly
    h = heaviside(GRID)
    warped = dyadic_time_change(
        h, np.array([0.0, 0.25, 1.0]), np.array([0.0, 0.5, 1.0])
    )
    for p in (2.0, 4.0):
        a = besov_seminorm(h, 1.0 / p, p, INF, form="dyadic")
        b = besov_seminorm(warped, 1.0 / p, p, INF, form="dyadic")
        assert a == pytest.approx(b, abs=1e-12)


# -- metric -------------------------------------------------------------------

def test_metric_zero_and_symmetry():
    rng = rng_for(4, "metric")
    f = GridPath(GRID, rng.standard_normal(GRID.n))
    g = GridPath(GRID, rng.standard_normal(GRID.n))
    for (p, q) in [(2.0, 2.0), (0.7, 0.5), (2.0, 0.5), (0.5, 2.0), (0.5, INF),
                   (2.0, INF)]:
        assert besov_metric(f, f, 0.4, p, q) == 0.0
        assert besov_metric(f, g, 0.4, p, q) == pytest.approx(
            besov_metric(g, f, 0.4, p, q)
        )


def test_metric_rejects_paths_on_other_grids_or_dimensions():
    f = GridPath(GRID, np.zeros(GRID.n))
    coarse = GridPath(UniformGrid(1.0, GRID.level - 1),
                      np.zeros(GRID.n // 2 + 1))
    plane = GridPath(GRID, np.zeros((GRID.n, 2)))
    for g in (coarse, plane):
        with pytest.raises(ValueError, match="mismatch"):
            besov_metric(f, g, 0.4, 2.0, 2.0)


def test_metric_q_inf_below_p_one():
    # p < 1, q = inf: the ratio term is (max ratio)^p, zero for equal inputs
    rng = rng_for(4, "metric")
    f = GridPath(GRID, rng.standard_normal(GRID.n))
    g = GridPath(GRID, rng.standard_normal(GRID.n))
    A, B = delta(f), delta(g)
    assert two_param_metric(A, A, 0.4, 0.5, INF) == 0.0
    ratio_max = two_param_norm(A - B, 0.4, 0.5, INF)
    assert two_param_metric(A, B, 0.4, 0.5, INF) == ratio_max**0.5
    diff = f - g
    assert besov_metric(f, g, 0.4, 0.5, INF) == (
        lp_norm(diff, 0.5) ** 0.5
        + besov_seminorm(diff, 0.4, 0.5, INF, form="integral") ** 0.5
    )


def test_metric_heaviside_brute_force():
    # p = q = 2, f - g = Heaviside, alpha = 0.4: check against direct sums
    h = heaviside(GRID)
    zero = _const(GRID, 0.0)
    got = besov_metric(h, zero, 0.4, 2.0, 2.0)
    mesh = GRID.mesh
    v = h.values[:, 0]
    lp = math.sqrt(np.sum(v[:-1] ** 2) * mesh)
    acc = 0.0
    for n in range(1, GRID.level + 1):
        kmax = 1 << (GRID.level - n)
        best = 0.0
        for k in range(1, kmax + 1):
            d = v[k:] - v[:-k]
            best = max(best, math.sqrt(np.sum(d[:-1] ** 2) * mesh))
        acc += (best / (2.0**-n) ** 0.4) ** 2 * math.log(2.0)
    assert got == pytest.approx(lp + math.sqrt(acc), rel=1e-12)


# -- two-parameter norms --------------------------------------------------------

def test_two_param_of_increment_matches_integral_form():
    f = pw_linear_random(GRID, rng_for(5, "twop"), dim=2)
    A = delta(f)
    for (gamma, p, q) in [(0.4, 2.0, 2.0), (0.3, 4.0, INF)]:
        a = two_param_norm(A, gamma, p, q)
        b = besov_seminorm(f, gamma, p, q, form="integral")
        assert a == pytest.approx(b, abs=1e-12)
    # one band kernel: a path, its increment field (lazy and array-backed)
    # and the level 1 of its lift give the same bands, so the same norms
    # bit for bit; f0 = f - f_0 makes the lift's prefix subtraction exact
    f0 = GridPath(GRID, f.values - f.values[0])
    forms = [delta(f0), delta(f0).materialize(), canonical_lift(f0, 1).level(1)]
    for p in (1.0, 2.0, 8.0, INF):
        ref = band_lp_norms(f0, p, GRID.n - 1)
        for obj in forms:
            assert np.array_equal(band_lp_norms(obj, p, GRID.n - 1), ref)
    for beta in (0.3, 0.7):
        ref = holder_seminorm(f0, beta)
        assert all(holder_seminorm(obj, beta) == ref for obj in forms)
    assert np.array_equal(f0.band(0), np.zeros((GRID.n, 2)))


def test_two_param_power_field():
    g = GRID
    tt = g.times()
    A = TwoParamField(
        g, 1, germ=lambda ii, jj: ((tt[jj] - tt[ii]) ** 2)[:, None]
    )
    assert two_param_norm(A, 2.0, INF, INF) == pytest.approx(1.0)
    assert two_param_norm(delta(_const()), 1.0, 2.0, 2.0) == 0.0


def test_delta2_norm_of_product_germ():
    rng = rng_for(6, "d2n")
    f = smooth_random(GRID, rng)
    g2 = smooth_random(GRID, rng)
    fv, gv = f.values[:, 0], g2.values[:, 0]
    A = TwoParamField(
        GRID, 1, germ=lambda ii, jj: (fv[ii] * (gv[jj] - gv[ii]))[:, None]
    )
    val = delta2_norm(A, 2.0, INF, INF)
    assert 0 < val < math.inf
    # delta2 of an increment field vanishes identically
    assert delta2_norm(delta(f), 1.0, INF, INF) <= 1e-12


def test_holder_seminorm_examples():
    lin = GridPath(GRID, GRID.times())
    assert holder_seminorm(lin, 1.0) == pytest.approx(1.0)
    assert holder_seminorm(_const(), 0.5) == 0.0


def test_brownian_holder_grows_with_level():
    meds = []
    for level in (6, 10):
        vals = [
            holder_seminorm(brownian_path(UniformGrid(1.0, level),
                                          rng_for(7, "bmh", s)), 0.5)
            for s in range(10)
        ]
        meds.append(np.median(vals))
    assert meds[1] > meds[0]


# -- variation ----------------------------------------------------------------

def test_pvariation_examples():
    tt = GRID.times()
    mono = GridPath(GRID, tt**2)
    assert pvariation(mono, 1.0) == pytest.approx(1.0)
    h = heaviside(GRID)
    for p in (1.0, 2.0, 3.5):
        assert pvariation(h, p) == pytest.approx(1.0)
    assert oscillation_variation(h, 2.0) == pytest.approx(0.5)
    assert oscillation_variation(_const(), 3.0) == 0.0
    with pytest.raises(RegimeError):
        pvariation(h, 0.8)


def _plain_variation_dp(sizes, n, p):
    best = np.zeros(n)
    for j in range(1, n):
        best[j] = (best[:j] + sizes(j) ** p).max()
    return float(best[-1] ** (1.0 / p))


def test_variation_rescue_keeps_finite_results_bitwise():
    for seed in range(5):
        rng = rng_for(3, "var-bits", seed)
        f = pw_linear_random(UniformGrid(1.0, 6), rng, breaks_level=4)
        p = 1.0 + 7.0 * rng.random()
        v = f.values
        want = _plain_variation_dp(lambda j: np.abs(v[j] - v[:j])[:, 0], len(v), p)
        assert pvariation(f, p) == want


def test_variation_large_p_keeps_the_largest_block():
    g = UniformGrid(1.0, 4)
    f = GridPath(g, np.sin(g.times()))
    # sin(1)^5000 underflows: the plain DP gives 0
    value, points = pvariation(f, 5000.0, return_partition=True)
    assert value == pytest.approx(math.sin(1.0), rel=1e-12)
    assert points == [0, g.n - 1]
    assert oscillation_variation(f, 4000.0) == pytest.approx(
        math.sin(1.0) / 2, rel=1e-12)


def test_variation_large_scale_scales_back():
    g = UniformGrid(1.0, 4)
    f = GridPath(g, np.sin(g.times()))
    big = GridPath(g, 1e10 * np.sin(g.times()))
    # (1e10 sin 1)^32 overflows: the plain DP gives inf
    assert pvariation(big, 32.0) == pytest.approx(1e10 * pvariation(f, 32.0),
                                                  rel=1e-12)
    assert oscillation_variation(big, 32.0) == pytest.approx(
        1e10 * oscillation_variation(f, 32.0), rel=1e-12)


def test_pvariation_witness_partition():
    f = sawtooth(UniformGrid(1.0, 6), 2, 0.5)
    value, points = pvariation(f, 1.6, return_partition=True)
    # witness has every extremum: 2^{n+1} + 1 points
    assert len(points) == 9
    assert value == pytest.approx(8 ** (1 / 1.6) * 2 ** (-1.0), rel=1e-12)


def test_sawtooth_sharpness_bound():
    g = UniformGrid(1.0, 9)
    for n in (2, 4, 6):
        f = sawtooth(g, n, 0.5)
        r = 1.6
        assert pvariation(f, r) >= 2 ** (n * (1 / r - 0.5)) * (1 - 1e-9)


def test_vp_sandwich_exact():
    for seed in range(25):
        rng = rng_for(8, "sand", seed)
        f = pw_linear_random(UniformGrid(1.0, 7), rng, breaks_level=5)
        p = 1.0 + 3.0 * rng.random()
        pv = pvariation(f, p)
        ov = oscillation_variation(f, p)
        assert 0.5 * pv <= ov * (1 + 1e-12)
        assert ov <= pv * (1 + 1e-12)


def test_pvariation_superadditive_over_halves():
    for seed in range(10):
        f = pw_linear_random(UniformGrid(1.0, 7), rng_for(9, "super", seed),
                             breaks_level=5)
        p = 2.3
        whole = pvariation(f, p) ** p
        half = 1 << 6
        left = pvariation(f.restrict(0, half), p) ** p
        right = pvariation(f.restrict(half, 2 * half), p) ** p
        assert whole >= left + right - 1e-12


# -- Campanato and inequality reports ------------------------------------------

def test_campanato_linear_path():
    g = UniformGrid(1.0, 7)
    lin = GridPath(g, g.times())
    got = campanato_ratio(lin, 1.0)
    # brute-force double Riemann sum at one window as the independent oracle
    w = 16
    c = g.n // 2
    idx = np.arange(c - w, c + w)
    vals = g.times()[idx]
    dbl = np.abs(vals[:, None] - vals[None, :]).sum() * g.mesh**2
    r = w * g.mesh
    oracle = dbl / (2 * r) ** 2 / r
    assert got == pytest.approx(2.0 / 3.0, rel=0.05)
    assert got >= oracle - 1e-12
    assert campanato_ratio(_const(), 0.5) == 0.0


def test_campanato_holder_comparable():
    ratios = []
    for seed in range(15):
        f = smooth_random(UniformGrid(1.0, 7), rng_for(10, "camp", seed))
        h = holder_seminorm(f, 0.7)
        if h > 0:
            ratios.append(campanato_ratio(f, 0.7) / h)
    assert min(ratios) > 0.2
    assert max(ratios) <= 1.0 + 1e-9


def test_check_embedding_reports():
    assert check_embedding(_const(), 0.6, 4.0, 2.0)["ratio"] == 0.0
    h = heaviside(GRID)
    rep = check_embedding(h, 0.5, 2.0, INF, target="variation")
    assert rep["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert rep["rhs"] == pytest.approx(1.0, abs=1e-12)
    # smooth path: Hoelder-(alpha - 1/p) controlled by the Besov seminorm,
    # fitted constant stable under refinement
    ratios = {}
    for level in (8, 10):
        f = smooth_random(UniformGrid(1.0, level), rng_for(11, "emb"))
        ratios[level] = check_embedding(f, 0.6, 4.0, INF, target="holder")["ratio"]
    assert 0 < ratios[10] < math.inf
    assert abs(ratios[10] / ratios[8] - 1.0) < 0.25


def test_interpolation_check_stable():
    reports = {}
    for level in (8, 10, 12):
        g = UniformGrid(1.0, level)
        f = pw_linear_random(g, rng_for(12, "interp"), dim=1)
        A = delta(f)
        reports[level] = interpolation_check(
            A, alpha=0.35, gamma=0.45, p=2.0, r=4.0, q=2.0, delta=0.3
        )
    vals = [r["ratio"] for r in reports.values()]
    assert all(0 < v < math.inf for v in vals)
    assert max(vals) / min(vals) < 1.5
    with pytest.raises(RegimeError):
        interpolation_check(A, alpha=0.5, gamma=0.45, p=2.0, r=4.0, q=2.0,
                            delta=0.3)


# -- the stacked band kernel --------------------------------------------------
# A stack of S fields (band(k) of shape (S, n-k, m)) must give, bit for bit,
# the numbers of S unstacked calls: the kernels sum over the last axis of
# C-ordered arrays and take their roots one scalar at a time.

class _Stack:
    """S paths on one grid, read by the kernels through `grid` and `band`."""

    def __init__(self, paths):
        self.grid = paths[0].grid
        self.values = np.stack([f.values for f in paths])

    def band(self, k):
        n = self.grid.n
        return self.values[:, k:] - self.values[:, : n - k]


def _paths(S, level, dim, seed=0):
    grid = UniformGrid(1.0, level)
    return [brownian_path(grid, rng_for(seed, "stack", s), dim)
            for s in range(S)]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("S", [1, 2, 7])
def test_stacked_band_lp_norms_equal_rows(S, dim):
    from besov_rough.norms import _integral_norm

    for level in (1, 3, 7):
        paths = _paths(S, level, dim, seed=level)
        stack = _Stack(paths)
        max_shift = 1 << (level - 1)
        for p in (0.5, 1.0, 2.0, 2.5, 8.0, INF):
            got = band_lp_norms(stack, p, max_shift)
            want = np.array([band_lp_norms(f, p, max_shift) for f in paths])
            assert got.shape == (S, max_shift)
            assert np.array_equal(got, want)
            for q in (0.7, 2.0, 8.0, INF):
                denom = lambda tau: tau**0.4  # noqa: E731
                got = _integral_norm(stack, p, q, denom)
                want = [besov_seminorm(f, 0.4, p, q, form="integral")
                        for f in paths]
                assert got.tolist() == want


def test_q_sum_is_bit_equal_on_any_memory_order():
    # the per-level ratios come out of fancy indexing, which may hand back an
    # F-ordered array; its row sums must still be the 1-D sums
    from besov_rough.norms import _q_sum

    ratios = np.random.default_rng(3).random((20, 8)) * 5.0
    for q in (0.7, 4.0, 8.0, INF):
        want = [_q_sum(r.copy(), q, log_weight=True) for r in ratios]
        for arr in (ratios, np.asfortranarray(ratios)):
            assert _q_sum(arr, q, log_weight=True).tolist() == want


def test_unstacked_kernels_return_floats():
    f = _paths(1, 6, 2)[0]
    for value in (lp_norm(f, 2.0), besov_seminorm(f, 0.4, 2.0, 2.0),
                  besov_seminorm(f, 0.4, 2.0, 2.0, form="integral"),
                  two_param_norm(delta(f), 0.4, 2.0, INF)):
        assert type(value) is float


def test_log_fit_is_linregress_bit_for_bit():
    from scipy.stats import linregress

    from besov_rough.norms import _log_fit

    rng = np.random.default_rng(2021)
    cases = []
    for n in range(2, 16):
        levels = np.arange(1.0, n + 1.0)
        cases += [(levels, np.full(n, -3.25)), (levels, 0.75 * levels - 2.0),
                  (np.log(levels + 1.0), -1.5 * np.log(levels + 1.0))]
        for _ in range(150):
            x = np.sort(rng.normal(size=n) * 3.0)
            cases.append((x, rng.normal(size=n)))
            cases.append((levels, np.log2(rng.random(n) * 10.0 ** -levels)))
    for x, y in cases:
        fit = linregress(x, y)
        got = np.array(_log_fit(x, y))
        want = np.array([fit.slope, fit.rvalue**2])
        assert got.tobytes() == want.tobytes(), (x, y)


def test_lp_sum_large_p_does_not_overflow():
    import warnings

    from besov_rough.norms import _lp_sum

    grid = UniformGrid(2 * math.pi, 8)
    wave = np.sin(grid.times())
    base = lp_norm(GridPath(grid, wave), 32.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = lp_norm(GridPath(grid, 1e10 * wave), 32.0)
        rows = _lp_sum(np.abs(np.stack([wave, 1e10 * wave, 1e-20 * wave])),
                       32.0, grid.mesh)
    assert math.isfinite(big)
    assert big == pytest.approx(1e10 * base, rel=1e-12)
    assert rows[0] == _lp_sum(np.abs(wave), 32.0, grid.mesh)
    assert rows[1] == pytest.approx(1e10 * base, rel=1e-12)
    assert rows[2] == pytest.approx(1e-20 * base, rel=1e-12)
