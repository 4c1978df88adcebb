import math
import tracemalloc

import numpy as np
import pytest

from besov_rough._rng import rng_for
from besov_rough.errors import RegimeError
from besov_rough.grid import GridPath, TwoParamField, UniformGrid, delta
from besov_rough.norms import (
    INF,
    _band_lp,
    _plane_mags,
    _q_sum,
    _ratios_from_norms,
    two_param_norm,
)
from besov_rough.sewing import (
    SewingInput,
    _suffix,
    dyadic_riemann,
    rate_certificate,
    sew,
    small_oscillation_check,
)
from besov_rough.signals import smooth_random
from besov_rough.young import product_germ

GRID = UniformGrid(1.0, 10)


def _young_germ(grid=GRID, f=np.sin, g=np.sin):
    t = grid.times()
    return product_germ(GridPath(grid, f(t)), GridPath(grid, g(t)))


def test_input_validation():
    germ = _young_germ()
    with pytest.raises(RegimeError):
        SewingInput(germ=germ, gamma=0.9, p2=INF, q2=INF)  # gamma <= 1
    with pytest.raises(RegimeError):
        SewingInput(germ=germ, gamma=1.0, p2=2.0, q2=2.0)  # endpoint, q2 > 1
    SewingInput(germ=germ, gamma=1.0, p2=2.0, q2=0.5)


@pytest.mark.parametrize("p2", [0.5, 2.0, INF])
def test_endpoint_is_decided_by_gamma_and_p2(p2):
    # gamma within 1e-12 of max(1, 1/p2) is the endpoint, taken as exactly
    # the critical exponent; just outside the band is the regular case
    crit = max(1.0, 1.0 / p2)
    q2 = min(1.0, p2)
    for gamma in (crit - 4e-13, crit, crit + 4e-13):
        inp = SewingInput(germ=None, gamma=gamma, p2=p2, q2=q2)
        assert inp.endpoint and inp.gamma == crit
        assert inp.denominator(0.25) == pytest.approx(
            0.25**crit * math.log(4.0) ** (1.0 / q2 + 0.1), rel=1e-14)
    above = SewingInput(germ=None, gamma=crit + 2e-12, p2=p2, q2=2.0)
    assert not above.endpoint and above.gamma == crit + 2e-12
    assert above.denominator(0.25) == 0.25 ** (crit + 2e-12)
    with pytest.raises(RegimeError):  # below the band: neither case
        SewingInput(germ=None, gamma=crit - 2e-12, p2=p2, q2=q2)


def test_dyadic_riemann_trivial_partition():
    germ = _young_germ()
    same = dyadic_riemann(germ, 0)
    assert same is germ


def test_dyadic_riemann_telescopes_on_increments():
    f = smooth_random(GRID, rng_for(0, "sew"))
    A = delta(f)
    for n in (1, 3):
        rs = dyadic_riemann(A, n)
        step = 1 << n
        ii = np.arange(0, GRID.n - step, step)
        assert np.allclose(rs.pairs(ii, ii + step), A.pairs(ii, ii + step),
                           atol=1e-14)
    with pytest.raises(IndexError):
        dyadic_riemann(A, 2).pairs(np.array([0]), np.array([3]))


def _suffix_reference(field: TwoParamField, w: int) -> np.ndarray:
    """`_suffix` as one cumsum down the flipped rows of the padded band."""
    n, m = field.grid.n, field.dim
    rows = -(-n // w)
    padded = np.zeros((rows * w + w, m))
    padded[: n - w] = field.band(w)
    arr = padded.reshape(rows + 1, w, m)
    return np.flip(np.cumsum(np.flip(arr, 0), 0), 0).reshape(-1, m)


def _suffix_germs(rng, n, m):
    """(values, nan entries) pairs: small integers, signed zeros, entries
    scaled by 1e300 and 1e-300, normals with +-inf entries, and normals with
    +-inf and nan entries."""
    shape = (n, n, m)
    zeros = rng.integers(-1, 2, shape).astype(float)
    zeros[(zeros == 0) & (rng.random(shape) < 0.5)] = -0.0
    scaled = rng.standard_normal(shape) * np.where(
        rng.random(shape) < 0.5, 1e300, 1e-300)
    infs = rng.standard_normal(shape)
    u = rng.random(shape)
    infs[u < 0.05] = INF
    infs[(u >= 0.05) & (u < 0.1)] = -INF
    nans = infs.copy()
    nans[(u >= 0.1) & (u < 0.15)] = np.nan
    return ((rng.integers(-8, 9, shape).astype(float), False),
            (zeros, False), (scaled, False), (infs, False), (nans, True))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_suffix_equals_flipped_cumsum(m):
    # fewer rows than columns adds whole rows, else one accumulate runs down
    # the rows: every width of levels 1-9 meets one of the two.  A NaN
    # running sum meeting a NaN entry may keep either NaN (numpy's add loop
    # swaps its operands on the last few entries of a row), so a germ with
    # nan entries is compared bit for bit off its NaNs only.  The entries
    # 0..n-1 are compared, the only ones `_diff_level_norms` and
    # `dyadic_riemann` read
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(1, 10):
            grid = UniformGrid(1.0, level)
            rng = rng_for(level * 10 + m, "suffix")
            for values, nan_entries in _suffix_germs(rng, grid.n, m):
                field = TwoParamField(grid, m, dense=values)
                for w in range(1, grid.n):
                    got = _suffix(field, w)[:, : grid.n]
                    want = _suffix_reference(field, w)[: grid.n].T
                    assert got.shape == want.shape
                    if nan_entries:
                        nan = np.isnan(want)
                        assert np.array_equal(np.isnan(got), nan)
                        got, want = got[~nan], want[~nan]
                    assert got.tobytes() == want.tobytes(), (level, w)


def _diff_norms_oracle(inp: SewingInput) -> list:
    """Each level's norm of I_{P_{n+1}}A - I_{P_n}A, built pair by pair from
    two `dyadic_riemann` fields on the admissible shifts h = j*2^{n+1}."""
    A, grid = inp.germ, inp.germ.grid
    half = grid.n_cells // 2
    norms = []
    for n in range(grid.level - 1):
        fine, coarse = dyadic_riemann(A, n + 1), dyadic_riemann(A, n)
        s = np.zeros(half)
        for h in range(2 << n, half + 1, 2 << n):
            ii = np.arange(grid.n - h)
            d = fine.pairs(ii, ii + h) - coarse.pairs(ii, ii + h)
            s[h - 1] = _band_lp(_plane_mags(d.T), grid.mesh, inp.p2)
        ratios = _ratios_from_norms(s, grid, inp.denominator)[
            : grid.level - n - 1]
        norms.append(_q_sum(ratios, inp.q2, log_weight=True))
    return norms


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("p2", [0.5, 1.0, 2.0, INF])
@pytest.mark.parametrize("endpoint", [False, True])
def test_sew_diagnostics_match_dyadic_riemann_oracle(dim, p2, endpoint):
    crit = max(1.0, 1.0 / p2)
    if endpoint:
        params = dict(gamma=crit, p2=p2, q2=min(1.0, p2))
    else:
        params = dict(gamma=crit + 0.5, p2=p2, q2=2.0)
    for level in range(1, 9):
        grid = UniformGrid(1.5, level)
        rng = rng_for(level * 10 + dim, "sew-oracle")
        # P_0 is the germ itself, which the suffix-sum form rebuilds only up
        # to roundoff; a germ of small integers makes every sum exact, so
        # its level 0 is compared bit for bit too
        exact = rng.integers(-8, 9, (grid.n, grid.n, dim)).astype(float)
        noisy = rng.standard_normal((grid.n, grid.n, dim))
        for values, first in ((exact, 0), (noisy, 1)):
            inp = SewingInput(germ=TwoParamField(grid, dim, dense=values),
                              **params)
            got = [row["diff_norm"] for row in sew(inp).levels]
            want = _diff_norms_oracle(inp)
            assert len(got) == len(want) == level - 1
            assert got[first:] == want[first:]
            assert got[:first] == pytest.approx(want[:first], rel=1e-12)


def test_sew_diagnostics_hold_two_suffix_arrays():
    # the suffix arrays of every width would take about 64 MB at L12
    grid = UniformGrid(1.0, 12)
    t = grid.times()
    germ = product_germ(GridPath(grid, np.sin(t)), GridPath(grid, np.cos(3 * t)))
    inp = SewingInput(germ=germ, gamma=2.0, p2=INF, q2=INF)
    tracemalloc.start()
    try:
        levels = sew(inp, diagnostics=True).levels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(levels) == 11
    assert peak < 8 << 20


def test_dyadic_riemann_left_sum_converges():
    # f = g = t: I_P A over (0, T) tends to the left Riemann sum of t dt
    t = GRID.times()
    germ = product_germ(GridPath(GRID, t), GridPath(GRID, t))
    full = np.array([0]), np.array([GRID.n - 1])
    vals = [
        dyadic_riemann(germ, n).pairs(*full)[0, 0] for n in (2, 5, GRID.level)
    ]
    errors = np.abs(np.array(vals) - 0.5)
    assert np.all(np.diff(errors) < 0)
    assert errors[-1] <= GRID.mesh


def test_sew_increment_germ_is_exact():
    f = smooth_random(GRID, rng_for(1, "sew"))
    result = sew(SewingInput(germ=delta(f), gamma=2.0, p2=INF,
                             q2=INF))
    expected = f.values - f.values[0]
    assert np.allclose(result.integral.values, expected, atol=1e-13)
    assert result.remainder_norm <= 1e-12
    cert = rate_certificate(result)
    assert cert["slope"] == -INF


def test_sew_young_rate_certificate():
    germ = _young_germ()
    result = sew(SewingInput(germ=germ, gamma=2.0, p2=INF, q2=INF))
    cert = rate_certificate(result, n_range=(2, GRID.level - 2))
    assert cert["slope"] == pytest.approx(-1.0, abs=0.2)
    assert cert["r2"] >= 0.98


def test_sew_matches_antiderivative():
    # int_0^t sin s d(sin s) = sin(t)^2 / 2, at rate mesh^{gamma-1}
    t = GRID.times()
    result = sew(SewingInput(germ=_young_germ(), gamma=2.0, p2=INF, q2=INF),
                 diagnostics=False)
    err = np.abs(result.integral.values[:, 0] - np.sin(t) ** 2 / 2).max()
    assert err < 2 * GRID.mesh


def test_remainder_bound_against_delta2():
    # |RA| at (2, inf, inf) is controlled by |delta2 A| in the barred norm
    from besov_rough.norms import delta2_norm

    rng = rng_for(2, "sew")
    f = smooth_random(GRID, rng)
    g = smooth_random(GRID, rng)
    germ = product_germ(f, g)
    result = sew(SewingInput(germ=germ, gamma=2.0, p2=INF, q2=INF),
                 diagnostics=False)
    lhs = two_param_norm(result.remainder, 2.0, INF, INF)
    rhs = delta2_norm(germ, 2.0, INF, INF)
    assert lhs <= 3.0 * rhs


def test_sew_idempotent():
    germ = _young_germ()
    first = sew(SewingInput(germ=germ, gamma=2.0, p2=INF, q2=INF),
                diagnostics=False)
    again = sew(
        SewingInput(germ=delta(first.integral), gamma=2.0,
                    p2=INF, q2=INF),
        diagnostics=False,
    )
    assert np.allclose(again.integral.values, first.integral.values, atol=1e-12)
    assert again.remainder_norm <= 1e-12


def test_sew_linear():
    rng = rng_for(3, "sew")
    f1, g1 = smooth_random(GRID, rng), smooth_random(GRID, rng)
    f2, g2 = smooth_random(GRID, rng), smooth_random(GRID, rng)
    A = product_germ(f1, g1)
    B = product_germ(f2, g2)
    combo = A * 2.0 + B * (-0.5)
    direct = sew(SewingInput(germ=combo, gamma=2.0, p2=INF, q2=INF),
                 diagnostics=False).integral.values
    parts = (
        2.0 * sew(SewingInput(germ=A, gamma=2.0, p2=INF, q2=INF),
                  diagnostics=False).integral.values
        - 0.5 * sew(SewingInput(germ=B, gamma=2.0, p2=INF, q2=INF),
                    diagnostics=False).integral.values
    )
    assert np.allclose(direct, parts, atol=1e-12)


def test_refinement_consistency():
    fine = UniformGrid(1.0, 12)
    t = fine.times()
    germ_fine = product_germ(GridPath(fine, np.sin(t)), GridPath(fine, np.sin(t)))
    res_fine = sew(SewingInput(germ=germ_fine, gamma=2.0, p2=INF, q2=INF),
                   diagnostics=False)
    coarse = UniformGrid(1.0, 10)
    tc = coarse.times()
    germ_coarse = product_germ(GridPath(coarse, np.sin(tc)),
                               GridPath(coarse, np.sin(tc)))
    res_coarse = sew(SewingInput(germ=germ_coarse, gamma=2.0, p2=INF, q2=INF),
                     diagnostics=False)
    diff = np.abs(res_fine.integral.subsample(2).values
                  - res_coarse.integral.values).max()
    assert diff <= 10.0 * coarse.mesh  # rate gamma - 1 = 1 with a fitted margin


def test_arbitrary_partition_convergence():
    # norms of I_P A - delta IA decrease monotonically in the mesh fraction
    germ = _young_germ()
    result = sew(SewingInput(germ=germ, gamma=2.0, p2=INF, q2=INF),
                 diagnostics=False)
    ia = result.integral.values
    rng = rng_for(4, "parts")
    norms = []
    for frac_pow in (2, 3, 4, 5):
        max_part = GRID.n_cells >> frac_pow
        # random integer composition of the index range with bounded parts
        cuts = [0]
        while cuts[-1] < GRID.n_cells:
            cuts.append(min(GRID.n_cells,
                            cuts[-1] + int(rng.integers(1, max_part + 1))))
        cuts = np.asarray(cuts)
        worst = 0.0
        # evaluate I_P on the family (0, t) and compare in the sup/h^gamma form
        for tpos in range(1, GRID.n_cells + 1):
            scaled = np.unique(np.round(cuts / GRID.n_cells * tpos).astype(int))
            vals = ia[scaled[1:]] - ia[scaled[:-1]]
            germ_vals = germ.pairs(scaled[:-1], scaled[1:])
            err = np.abs((vals - germ_vals).sum(axis=0)).max()
            worst = max(worst, err / (tpos * GRID.mesh) ** 2)
        norms.append(worst)
    assert np.all(np.diff(norms) < 0)


def test_endpoint_sew_bounded():
    # Heaviside x smooth germ in the critical regime: omega-modulus diagnostics
    from besov_rough.signals import heaviside

    t = GRID.times()
    h = heaviside(GRID)
    g = GridPath(GRID, np.sin(2 * t))
    germ = product_germ(h, g)
    inp = SewingInput(germ=germ, gamma=1.0, p2=2.0, q2=1.0)
    result = sew(inp)
    assert result.remainder_norm < math.inf
    cert = rate_certificate(result)
    assert cert["bounded"]
    osc = small_oscillation_check(result.remainder, 2.0)
    assert osc["decreasing"]


def test_small_oscillation_zero_field():
    zero = TwoParamField(
        GRID, 1, germ=lambda ii, jj: np.zeros_like(GRID.times()[jj])[:, None])
    osc = small_oscillation_check(zero, 2.0)
    assert all(v == 0.0 for v in osc["profile"])


def test_small_oscillation_smooth_decay():
    # gamma = 2 remainder: profile decays like tau^{gamma - 1}; the final
    # level sees only the consecutive band, which a compensated sum zeroes
    # by construction, so it is excluded from the fit
    result = sew(SewingInput(germ=_young_germ(), gamma=2.0, p2=INF, q2=INF),
                 diagnostics=False)
    osc = small_oscillation_check(result.remainder, INF)
    prof = osc["profile"][:-1]
    slope = np.polyfit(np.arange(len(prof)), np.log2(prof), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.25)
    assert osc["decreasing"]
