import math
import tracemalloc

import numpy as np
import pytest

from besov_rough import stochlab
from besov_rough._rng import rng_for
from besov_rough.errors import RegimeError
from besov_rough.grid import GridPath, TwoParamField, UniformGrid, delta
from besov_rough.norms import INF, besov_seminorm, two_param_norm
from besov_rough.rough import fbm_path, homogeneous_distance_level2
from besov_rough.signals import brownian_path
from besov_rough.stochlab import (
    DiscreteMartingale,
    bm_besov_statistic,
    fbm_besov_statistic,
    gaussian_abs_moment,
    paraproduct,
    pprod_bdg_experiment,
    square_function,
)


def _mart(kind="gaussian", length=64, seed=0, index=0):
    return DiscreteMartingale.generate(kind, length, rng_for(seed, "mart", index))


# -- generators -----------------------------------------------------------------

@pytest.mark.parametrize("kind", ["gaussian", "random-sign", "stopped-random-walk"])
def test_generators(kind):
    g = _mart(kind)
    assert g.values[0] == 0.0
    assert g.length == 64
    if kind == "random-sign":
        nz = g.increments[g.increments != 0]
        assert np.allclose(np.abs(nz), 1.0 / 8.0)
    if kind == "stopped-random-walk":
        hit = np.nonzero(np.abs(g.values) >= 1.0)[0]
        if len(hit):
            assert np.all(g.increments[hit[0]:] == 0.0)


def test_generator_mean_zero_statistics():
    means = [np.sum(_mart("gaussian", 64, 1, s).increments) for s in range(300)]
    means = np.asarray(means)
    assert abs(means.mean()) <= 3 * means.std(ddof=1) / math.sqrt(len(means))


def test_bad_kind_rejected():
    with pytest.raises(ValueError):
        _mart("uniform")


# -- paraproduct ------------------------------------------------------------------

def test_paraproduct_constant_martingale():
    g = DiscreteMartingale(np.zeros(65), "gaussian")
    F = delta(_mart().as_path())
    pi = paraproduct(F, g)
    assert np.abs(pi.to_dense()).max() == 0.0


def test_paraproduct_f_equals_one():
    # F must carry its diagonal (F_{s,s} enters the j = s term), so the
    # constant field is built densely rather than from a zero-diagonal germ
    g = _mart(seed=2)
    grid = g.grid()
    ones = TwoParamField(grid, 1, dense=np.triu(np.ones((grid.n, grid.n)))[:, :, None])
    pi = paraproduct(ones, g)
    for (s, t) in [(0, 64), (3, 17), (10, 10)]:
        assert pi.at(s, t)[0] == pytest.approx(g.values[t] - g.values[s],
                                               abs=1e-14)


def test_paraproduct_discrete_ito_identity():
    # F = delta g against g itself: Abel summation gives
    # Pi_{0,J} = (g_J^2 - g_0^2)/2 - (1/2) sum dg^2 - g_0 (g_J - g_0)
    g = _mart(seed=3)
    pi = paraproduct(g.as_path(), g)
    got = pi.at(0, g.length)[0]
    dg = g.increments
    expected = 0.5 * (g.values[-1] ** 2 - g.values[0] ** 2) - 0.5 * np.sum(
        dg**2
    ) - g.values[0] * (g.values[-1] - g.values[0])
    assert got == pytest.approx(expected, abs=1e-12)


def test_paraproduct_delta2_structure():
    # delta2 Pi_{sut} = sum_{u <= j < t} (F_{s,j} - F_{u,j}) dg_j; for
    # F = delta f the bracket is constant in j and the sum collapses to
    # delta f_{su} * (g_t - g_u)
    f = _mart(seed=4).as_path()
    g = _mart(seed=5)
    pi = paraproduct(f, g)
    fv = f.values[:, 0]
    for (s, u, t) in [(0, 10, 30), (5, 20, 64), (8, 8, 12)]:
        expected = (fv[u] - fv[s]) * (g.values[t] - g.values[u])
        assert pi.delta2(s, u, t)[0] == pytest.approx(expected, abs=1e-12)


def test_square_function_examples():
    jump = DiscreteMartingale(
        np.concatenate([np.zeros(33), np.ones(32)]), "gaussian"
    )
    sq = square_function(jump)
    assert sq.at(0, 64)[0] == pytest.approx(1.0)
    lin = DiscreteMartingale(np.arange(65) * 0.25, "gaussian")
    sq2 = square_function(lin)
    assert sq2.at(0, 16)[0] == pytest.approx(4.0 * 0.25)
    # additivity of squares over concatenation, exact
    g = _mart(seed=6)
    sq3 = square_function(g)
    assert sq3.at(0, 64)[0] ** 2 == pytest.approx(
        sq3.at(0, 32)[0] ** 2 + sq3.at(32, 64)[0] ** 2, abs=1e-14
    )


# -- statistics -------------------------------------------------------------------

def test_bm_statistic_zero_path_is_zero():
    from besov_rough.rough import homogeneous_distance_level2

    d = homogeneous_distance_level2(np.zeros((5, 2)), np.zeros((5, 2, 2)))
    assert np.all(d == 0.0)


def test_bm_statistic_matches_oracle():
    rep = bm_besov_statistic(2.0, [3, 4, 5], level=9, samples=400, seed=7,
                             oracle_samples=8000)
    for n, row in rep["per_n"].items():
        se = math.sqrt(row["stderr"] ** 2 + row["oracle_stderr_window"] ** 2)
        assert abs(row["mean"] - row["oracle_mean_window"]) <= 3 * se


def test_bm_statistic_variance_rate():
    rep = bm_besov_statistic(2.0, [3, 4, 5, 6, 7], level=10, samples=400, seed=8)
    assert rep["variance_slope"] == pytest.approx(-1.0, abs=0.35)


def test_bm_statistic_moment_monotonicity():
    r2 = bm_besov_statistic(2.0, [4], level=9, samples=400, seed=9)
    r4 = bm_besov_statistic(4.0, [4], level=9, samples=400, seed=9)
    m2 = r2["per_n"][4]["mean"] ** (1 / 2.0)
    m4 = r4["per_n"][4]["mean"] ** (1 / 4.0)
    se = 3 * (r2["per_n"][4]["stderr"] + r4["per_n"][4]["stderr"])
    assert m2 <= m4 + se


def test_bm_statistic_rejects_fine_window():
    with pytest.raises(RegimeError):
        bm_besov_statistic(2.0, [11], level=10, samples=2, seed=0)


def test_bm_statistic_reproducible():
    a = bm_besov_statistic(2.0, [4], level=8, samples=50, seed=10)
    b = bm_besov_statistic(2.0, [4], level=8, samples=50, seed=10)
    assert a["per_n"][4]["mean"] == b["per_n"][4]["mean"]  # bit-exact


def test_fbm_statistic_half_matches_bm_law():
    bm = bm_besov_statistic(2.0, [3, 4], level=8, samples=300, seed=11)
    fb = fbm_besov_statistic(0.5, 2.0, [3, 4], level=8, samples=300, seed=12)
    for n in (3, 4):
        a, b = bm["per_n"][n], fb["per_n"][n]
        se = math.sqrt(a["stderr"] ** 2 + b["stderr"] ** 2)
        assert abs(a["mean"] - b["mean"]) <= 4 * se


def test_fbm_statistic_level1_moment_oracle():
    rep = fbm_besov_statistic(0.7, 4.0, [3, 4], level=9, samples=400, seed=13)
    for n, row in rep["per_n"].items():
        target = (1 - 2.0**-n) * row["moment_oracle"]
        assert abs(row["mean"] - target) <= 4 * row["stderr"]
    assert not rep["level2"]


def test_fbm_statistic_rough_bounded_trend():
    rep = fbm_besov_statistic(0.4, 2.0, [2, 3, 4, 5], level=8, samples=150,
                              seed=14)
    means = [rep["per_n"][n]["mean"] for n in (2, 3, 4, 5)]
    assert max(means) <= 1.5 * means[0]  # stabilizes rather than diverging
    assert rep["level2"]


@pytest.mark.parametrize("H", [0.4, 0.7])
def test_fbm_statistic_matches_a_per_path_loop(H):
    # sample s draws its dim paths in turn from rng_for(seed, "fbm-ynp", s);
    # 70 samples cross a chunk of the batched draws
    level, samples, seed, dim, ns = 8, 70, 21, 3, [3, 5]
    grid = UniformGrid(1.0, level)
    want = [np.stack([fbm_path(H, grid, rng).values[:, 0] for _ in range(dim)])
            for rng in (rng_for(seed, "fbm-ynp", s) for s in range(samples))]
    got = list(stochlab._fbm_planes(H, grid, samples, seed, dim))
    assert len(got) == samples
    scale = np.abs(want).max()
    assert all(np.abs(a - b).max() <= 1e-12 * scale for a, b in zip(got, want))
    table = stochlab._window_table(want, ns, level, 4.0, H, H <= 0.5)
    rep = fbm_besov_statistic(H, 4.0, ns, level, samples, seed, dim)
    for n in ns:
        row = rep["per_n"][n]
        assert row["mean"] == pytest.approx(table[n].mean(), rel=1e-12)
        assert row["variance"] == pytest.approx(table[n].var(ddof=1), rel=1e-12)


def test_fbm_statistic_hurst_range():
    with pytest.raises(RegimeError):
        fbm_besov_statistic(0.3, 2.0, [3], level=8, samples=2, seed=0)


@pytest.mark.parametrize("run", [
    lambda ns: bm_besov_statistic(4.0, ns, level=6, samples=4, seed=1),
    lambda ns: fbm_besov_statistic(0.4, 4.0, ns, level=6, samples=4, seed=1),
], ids=["bm", "fbm"])
def test_repeated_window_exponents_rejected(run):
    # a repeat would count every sample once per copy of n
    for ns in ([3, 3], [5, 3, 5]):
        with pytest.raises(RegimeError, match="distinct"):
            run(ns)
    assert run([3])["per_n"][3]["samples"] == 4


def test_gaussian_moment_helper():
    assert gaussian_abs_moment(2.0, 1) == pytest.approx(1.0)
    assert gaussian_abs_moment(4.0, 1) == pytest.approx(3.0)
    assert gaussian_abs_moment(2.0, 2) == pytest.approx(2.0)


# -- paraproduct BDG experiment ------------------------------------------------------

def test_pprod_invalid_triples_rejected():
    with pytest.raises(RegimeError):
        pprod_bdg_experiment(0.45, 0.6, (8, 8, 5), (8, 8, 4), (8, 8, 4),
                             [64], 2, 0)
    with pytest.raises(RegimeError):
        pprod_bdg_experiment(0.45, 0.05, (8, 8, 4), (8, 8, 4), (8, 8, 4),
                             [64], 2, 0)  # gamma1 <= 1/p1


def test_pprod_constant_f_gives_zero_lhs():
    # coupled with a constant f the paraproduct LHS vanishes; emulate by the
    # ratio of a degenerate (all-zero increments) martingale
    g = DiscreteMartingale(np.zeros(65), "gaussian")
    pi = paraproduct(g.as_path(), _mart(seed=15))
    assert np.abs(pi.to_dense()).max() == 0.0


def test_pprod_experiment_stability():
    out = pprod_bdg_experiment(
        0.45, 0.6, (8.0, 8.0, 4.0), (8.0, 8.0, 4.0), (8.0, 8.0, 4.0),
        lengths=(64, 128), samples=120, seed=16,
    )
    a = out["lengths"][64]
    b = out["lengths"][128]
    assert 0 < a["ratio_p99"] < math.inf
    assert max(a["ratio_p99"], b["ratio_p99"]) < 2.0 * min(
        a["ratio_p99"], b["ratio_p99"]
    )
    assert 0 < a["bdg_p99"] < math.inf
    assert 0 < a["lr_ratio"] < math.inf


def test_pprod_experiment_nongaussian_kind():
    out = pprod_bdg_experiment(
        0.45, 0.6, (8.0, 8.0, 4.0), (8.0, 8.0, 4.0), (8.0, 8.0, 4.0),
        lengths=(64,), samples=60, seed=17, kind="random-sign",
    )
    assert 0 < out["lengths"][64]["ratio_p99"] < math.inf


# -- stacked and chunked paths against their references ---------------------------
# Each fast path must give the reference numbers bit for bit (==, not approx).

_PQ = [
    ((8.0, 8.0, 4.0), (8.0, 8.0, 4.0)),
    ((INF, 2.0, 2.0), (INF, INF, INF)),
    ((4.0, 4.0, 2.0), (2.0, INF, 2.0)),
]


def _unstacked_pprod_norms(f_mart, g_mart, p_tuple, q_tuple, g0, g1):
    (p0, p1, p), (q0, q1, q) = p_tuple, q_tuple
    f_path = f_mart.as_path()
    return [
        two_param_norm(paraproduct(f_path, g_mart), g0 + g1, p, q),
        besov_seminorm(f_path, g1, p1, q1, form="integral"),
        two_param_norm(square_function(g_mart), g0, p0, q0),
        besov_seminorm(g_mart.as_path(), g0, p0, q0, form="integral"),
    ]


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("kind", ["gaussian", "random-sign", "stopped-random-walk"])
def test_stacked_pprod_norms_equal_unstacked(kind, coupled):
    g0, g1 = 0.45, 0.6
    cases = [(1, 2), (2, 2), (7, 4), (1, 16), (2, 64), (7, 128), (2, 512)]
    for i, (S, length) in enumerate(cases):
        p_tuple, q_tuple = _PQ[i % len(_PQ)]
        (p0, p1, p), (q0, q1, q) = p_tuple, q_tuple
        f_marts = [_mart(kind, length, seed=i, index=s) for s in range(S)]
        g_marts = f_marts if coupled else [
            _mart(kind, length, seed=100 + i, index=s) for s in range(S)]
        gamma0_denom = lambda tau: tau**g0  # noqa: E731
        specs = ((p, q, lambda tau: tau ** (g0 + g1)),
                 (p1, q1, lambda tau: tau**g1),
                 (p0, q0, gamma0_denom), (p0, q0, gamma0_denom))
        got = stochlab._pprod_norms(
            f_marts[0].grid(), np.stack([m.values for m in f_marts]),
            np.stack([m.values for m in g_marts]), specs)
        want = [_unstacked_pprod_norms(f, g, p_tuple, q_tuple, g0, g1)
                for f, g in zip(f_marts, g_marts)]
        assert np.shape(got) == (4, S)
        assert np.asarray(got).T.tolist() == want


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("kind", ["gaussian", "random-sign", "stopped-random-walk"])
def test_streamed_paraproduct_bands_equal_dense(kind, coupled):
    # |band k| of the streamed paraproduct is |diagonal k| of the dense
    # oracle, bit for bit, for every k (the experiment reads up to n/2)
    for i, (S, length) in enumerate([(1, 1), (3, 2), (2, 16), (3, 64)]):
        f_marts = [_mart(kind, length, seed=30 + i, index=s) for s in range(S)]
        g_marts = f_marts if coupled else [
            _mart(kind, length, seed=40 + i, index=s) for s in range(S)]
        f = np.stack([m.values for m in f_marts])
        planes = stochlab._paraproduct_planes(
            f, np.diff(np.stack([m.values for m in g_marts]), axis=-1))
        dense = [paraproduct(fm.as_path(), gm).to_dense()[..., 0]
                 for fm, gm in zip(f_marts, g_marts)]
        for k in range(1, length + 1):
            got = np.abs(planes(k))
            assert got.shape == (1, S, length + 1 - k)
            for s in range(S):
                want = np.abs(np.diagonal(dense[s], k))
                assert got[0, s].tobytes() == want.tobytes()


def test_streamed_paraproduct_bands_read_in_order():
    f = np.stack([_mart(seed=50, length=16).values])
    dg = np.diff(f, axis=-1)
    with pytest.raises(ValueError):
        stochlab._paraproduct_planes(f, dg)(2)
    band = stochlab._paraproduct_planes(f, dg)
    band(1)
    band(2)
    for k in (2, 1, 4):
        with pytest.raises(ValueError):
            band(k)
    band(3)


def test_pprod_experiment_holds_no_n_by_n_stack():
    # at length 1024 an (n, n) paraproduct alone is 8.4 MB
    tracemalloc.start()
    try:
        pprod_bdg_experiment(0.45, 0.6, (8.0, 8.0, 4.0), (8.0, 8.0, 4.0),
                             (8.0, 8.0, 4.0), lengths=[1024], samples=4,
                             seed=51)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_paraproduct_matches_running_sum():
    # Pi[s, t] = sum_{s <= j < t} F[s, j] dg_j, summed left to right
    g = _mart(seed=21, length=16)
    dg = g.increments
    f = _mart("random-sign", 16, seed=22).as_path()
    two = GridPath(f.grid, np.column_stack([f.values[:, 0], g.values]))
    for F, dense in ((f, delta(f).to_dense()), (two, delta(two).to_dense()),
                     (delta(two), delta(two).to_dense())):
        pi = paraproduct(F, g).to_dense()
        n = len(g.values)
        for s in range(n):
            acc = np.zeros(dense.shape[-1])
            for t in range(s + 1, n):
                acc = acc + dense[s, t - 1] * dg[t - 1]
                assert np.array_equal(pi[s, t], acc)


def _per_window_reference(w, k):
    dim = w.shape[1]
    q = np.concatenate([
        np.zeros((1, dim, dim)),
        np.cumsum(np.einsum("bi,bj->bij", w[:-1], np.diff(w, axis=0)), axis=0),
    ])
    dw = w[k:] - w[:-k]
    return dw, q[k:] - q[:-k] - np.einsum("bi,bj->bij", w[:-k], dw)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_hoisted_windows_equal_per_window(monkeypatch, dim):
    """The window table's plane rows of dw and xx, taken from one running
    sum, equal each window's own sum."""
    seen = []
    monkeypatch.setattr(stochlab, "_plane_distance",
                        lambda dw, xx: seen.append((dw, xx)) or np.ones(len(dw[0])))
    w = brownian_path(UniformGrid(1.0, 8), rng_for(23, "win", dim), dim).values
    ns = [8, 7, 6, 3, 1, 0]  # windows of 1, 2, 4, 32, 128 and 256 cells
    stochlab._window_table([np.ascontiguousarray(w.T)], ns, 8, 4.0, 0.5, True)
    for (dw, xx), n in zip(seen, ns, strict=True):
        ref_dw, ref_xx = _per_window_reference(w, 1 << (8 - n))
        assert np.array_equal(dw, ref_dw.T)
        assert np.array_equal(xx, ref_xx.reshape(len(ref_xx), -1).T)


def _one_shot_oracle(p, k, dim, seed, draws):
    rng = rng_for(seed, "bm-ynp-oracle", k)
    incs = rng.standard_normal((draws, k, dim)) / math.sqrt(k)
    w = np.concatenate([np.zeros((draws, 1, dim)), np.cumsum(incs, axis=1)],
                       axis=1)
    xx = np.einsum("bki,bkj->bij", w[:, :-1, :], incs)
    d_vals = homogeneous_distance_level2(w[:, -1, :], xx) ** p
    return float(d_vals.mean()), float(d_vals.std(ddof=1) / math.sqrt(draws))


@pytest.mark.parametrize("k, dim, draws", [
    (16, 2, 2000),   # whole chunks only
    (32, 3, 1001),   # a one-row last chunk
    (8, 1, 501),
    (1, 1, 501),
    (4, 4, 20),      # a single short chunk
])
def test_chunked_oracle_equals_one_shot_draw(k, dim, draws):
    assert stochlab._ORACLE_ROWS == 500
    got = stochlab._one_window_oracle(4.0, k, dim, 24, draws)
    assert got == _one_shot_oracle(4.0, k, dim, 24, draws)


@pytest.mark.parametrize("q", [50, 90, 99])
def test_percentile_has_the_bits_of_numpy(q):
    """Sizes 1-50 of normal draws, of ties among a few values, and of
    signed zeros only (where a sorted copy would pick the other zero of a
    tie), plus a nan."""
    rng = np.random.default_rng(q)
    for n in range(1, 51):
        cases = [rng.standard_normal(n),
                 rng.choice([-1.0, 0.0, 0.5, 2.0], n),
                 rng.choice([-1.0, -0.0, 0.0, 1.0], n),
                 rng.choice([-0.0, 0.0], n)]
        nan = rng.standard_normal(n)
        nan[rng.integers(n)] = np.nan
        for x in cases + [nan]:
            want = np.float64(np.percentile(x, q))
            assert np.float64(stochlab._percentile(x, q)).tobytes() \
                == want.tobytes(), (n, q, x)


def test_mc_pprod_bdg_does_not_import_numpy_ma(tmp_path):
    import subprocess
    import sys

    cfg = tmp_path / "pprod.json"
    cfg.write_text('{"experiment": "pprod-bdg", "lengths": [16], "samples": 3}')
    code = ("import sys; from besov_rough.cli import main;"
            f" main(['mc', '--config', {str(cfg)!r},"
            f" '--out', {str(tmp_path / 'out.csv')!r}]);"
            " print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"
