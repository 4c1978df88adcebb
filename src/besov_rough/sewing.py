"""Sewing on dyadic grids: the integral path, the remainder, and rate
certificates for the compensated-sum construction.

On sampled data the "limit" integral is *defined* as the finest-grid
compensated sum; its convergence content is exposed as per-level
diagnostics: the two-parameter norms of successive dyadic Riemann sum
differences, whose decay rate certifies the regularity hypothesis.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import RegimeError
from .grid import GridPath, TwoParamField, _indices
from .norms import (
    INF,
    EndpointModulus,
    _band_norm,
    _dyadic_band_norms,
    _dyadic_ratio_profile,
    _log_fit,
    _power_denominator,
    _q_sum,
    _ratios_from_norms,
    two_param_norm,
)
from .rough import _prefix_sums

__all__ = [
    "SewingInput",
    "SewingResult",
    "dyadic_riemann",
    "sew",
    "rate_certificate",
    "small_oscillation_check",
]


def _suffix(field: TwoParamField, w: int) -> np.ndarray:
    """Strided suffix sums of a germ field's band w, (m, L >= n) planes.

    out[:, i] = sum of band_w entries at i, i+w, i+2w, ...; the compensated
    Riemann sum over cells of width w is then O(1) per pair:
    I_{P}A_{i,i+h} = out[:, i] - out[:, i+h].  Only i = 0..n-1 are read.
    """
    n = field.grid.n
    band = field.band(w).T  # (m, n - w)
    rows = -(-(n - w) // w)  # ceil: the rows of w band entries
    padded = np.zeros((len(band), rows * w + w))
    padded[:, : n - w] = band
    blocks = padded.reshape(len(band), rows + 1, w)
    # running sums up from the zero last row, in place: whole rows while
    # there are fewer rows than columns (an accumulate down the rows runs
    # one inner loop per column), else one accumulate.  Both add the
    # running sum first, as cumsum does, so every entry keeps its bits; a
    # NaN sum meeting a NaN entry may give either NaN (numpy's add loop
    # swaps its operands on a row's last entries)
    if rows < w:
        for r in range(rows - 1, -1, -1):
            np.add(blocks[:, r + 1], blocks[:, r], out=blocks[:, r])
    else:
        np.cumsum(blocks[:, ::-1], axis=1, out=blocks[:, ::-1])
    return padded


@dataclass(frozen=True)
class SewingInput:
    """Germ plus the regularity/integrability parameters of the sewing target.

    The exponents fix the case.  Regular: gamma > max(1, 1/p2).  Endpoint:
    gamma = max(1, 1/p2) to within 1e-12, taken as exactly that critical
    exponent; it needs q2 <= min(1, p2) and measures the remainder against
    the log-corrected modulus omega_{q2}.
    """

    germ: TwoParamField
    gamma: float
    p2: float
    q2: float = INF

    def __post_init__(self):
        if not self.p2 > 0 or not self.q2 > 0:
            raise RegimeError(
                f"p2, q2 must be positive (or inf), got {self.p2}, {self.q2}")
        crit = self.critical_exponent
        if self.endpoint:
            if self.q2 > min(1.0, self.p2):
                raise RegimeError(
                    f"endpoint sewing (gamma = max(1, 1/p2) = {crit}) needs"
                    f" q2 <= min(1, p2); got q2={self.q2}")
            object.__setattr__(self, "gamma", crit)
        elif not self.gamma > crit:
            raise RegimeError(
                f"sewing needs gamma > max(1, 1/p2) = {crit}, or gamma ="
                f" {crit} with q2 <= min(1, p2); got gamma={self.gamma}")

    @property
    def critical_exponent(self) -> float:
        return max(1.0, 1.0 / self.p2)

    @property
    def endpoint(self) -> bool:
        return abs(self.gamma - self.critical_exponent) <= 1e-12

    @property
    def expected_slope(self) -> float:
        """The log2 rate of the successive-difference norms, 0.0 at the
        endpoint: -(gamma - max(1, 1/p2))."""
        return self.critical_exponent - self.gamma

    @property
    def denominator(self):
        """tau -> tau^gamma, or omega_{q2} at the endpoint: what the
        remainder norm and the diagnostics divide Omega_{p2} by."""
        if self.endpoint:
            return EndpointModulus(r=self.q2,
                                   exponent=self.critical_exponent).omega
        return _power_denominator(self.gamma)


@dataclass
class SewingResult:
    """Integral path (starting at 0), remainder field, per-level diagnostics."""

    input: SewingInput
    integral: GridPath
    remainder: TwoParamField
    levels: list = dc_field(default_factory=list)  # [{"n": int, "diff_norm": float}]

    @property
    def remainder_norm(self) -> float:
        inp = self.input
        return two_param_norm(self.remainder, inp.gamma, inp.p2, inp.q2,
                              modulus=inp.denominator)


def dyadic_riemann(A: TwoParamField, n: int) -> TwoParamField:
    """Compensated-sum field over the dyadic partition P_n.

    Defined on pairs (i, j) whose index difference is divisible by 2^n (so
    all partition points are grid nodes); other pairs raise.
    """
    if n < 0:
        raise ValueError("partition level must be nonnegative")
    if n == 0:
        return A
    step = 1 << n
    suffixes: dict[int, np.ndarray] = {}

    def germ(ii, jj):
        ii, jj = _indices(ii), _indices(jj)
        span = jj - ii
        if np.any(span % step):
            raise IndexError(
                f"pair not admissible for P_{n}: index difference must be"
                f" divisible by {step}"
            )
        out = np.zeros((A.dim, len(ii)))
        for diff in np.unique(span[span > 0]):
            sel = span == diff
            w = int(diff) // step
            if w not in suffixes:
                suffixes[w] = _suffix(A, w)
            out[:, sel] = suffixes[w][:, ii[sel]] - suffixes[w][:, jj[sel]]
        return out

    return TwoParamField(A.grid, A.dim, germ=germ)


def _diff_level_norms(A: TwoParamField, p2, q2, denom) -> list:
    """Norms of I_{P_{n+1}}A - I_{P_n}A, n = 0..level-2, over the admissible
    shifts h = j*2^{n+1}, which need the suffix sums of widths j and 2j
    only: the widths are visited along the chains m, 2m, 4m, ... (m odd),
    two suffix arrays at a time; a step keeps its differences of the wider
    sums, which the next step reads at the same shifts.  The other shifts
    enter a level's profile as 0, which leaves its running sup unchanged;
    levels finer than 2^{n+1} cells see no admissible shift and are dropped.
    """
    grid = A.grid
    n_nodes, half = grid.n, grid.n_cells // 2
    profile = np.zeros((max(grid.level - 1, 0), half))
    for m in range(1, half // 2 + 1, 2):
        hi, diffs = _suffix(A, m), None
        w = m
        while 2 * w <= half:
            lo, hi = hi, _suffix(A, 2 * w)
            lo_diffs, diffs = diffs, {}
            for n in range(grid.level - 1):
                h = w << (n + 1)
                if h > half:
                    break
                lo_d = (lo[:, : n_nodes - h] - lo[:, h:n_nodes]
                        if lo_diffs is None else lo_diffs[h])
                diffs[h] = hi[:, : n_nodes - h] - hi[:, h:n_nodes]
                profile[n, h - 1] = _band_norm(lo_d - diffs[h], grid.mesh, p2)
            w *= 2
    return [_q_sum(_ratios_from_norms(s, grid, denom)[: grid.level - n - 1],
                   q2, log_weight=True) for n, s in enumerate(profile)]


def sew(input: SewingInput, diagnostics: bool = True) -> SewingResult:
    """Construct the integral path and remainder of a germ.

    The integral path is the finest-grid compensated sum from 0; the
    remainder is the lazy field (delta I)A - A.  Diagnostics record, for each
    n, the two-parameter norm of I_{P_{n+1}}A - I_{P_n}A measured at
    (gamma, p2, q2) (against the omega modulus in the endpoint case).
    """
    A = input.germ
    grid = A.grid
    consec = A.band(1).T
    if not np.all(np.isfinite(consec)):
        raise RegimeError("germ is not finite on consecutive grid pairs")
    ia = _prefix_sums(consec)
    integral = GridPath._from_planes(grid, ia)

    def rem_germ(ii, jj):
        return ia[:, jj] - ia[:, ii] - A._planes(ii, jj)

    remainder = TwoParamField(grid, A.dim, germ=rem_germ)

    levels = []
    if diagnostics:
        norms = _diff_level_norms(A, input.p2, input.q2, input.denominator)
        levels = [{"n": n, "diff_norm": v} for n, v in enumerate(norms)]
    return SewingResult(input=input, integral=integral, remainder=remainder,
                        levels=levels)


_ZERO_FLOOR = 1e-300


def rate_certificate(
    result: SewingResult, n_range: tuple[int, int] | None = None
) -> dict:
    """log2-regression of successive-difference norms against the level.

    The expected slope is the input's `expected_slope`; a germ that is
    already an increment has all-zero differences and reports slope -inf.
    In the endpoint case the expected slope is 0 and the report carries a
    boundedness flag instead.  Any other germ with fewer than two levels of
    positive norm has no slope and raises ValueError.
    """
    expected = result.input.expected_slope
    rows = result.levels
    if n_range is not None:
        rows = [r for r in rows if n_range[0] <= r["n"] <= n_range[1]]
    if not rows:
        raise ValueError("no diagnostic levels available; run sew(diagnostics=True)")
    ns = np.array([r["n"] for r in rows], dtype=float)
    vals = np.array([r["diff_norm"] for r in rows], dtype=float)
    # already-additive germ: remainder identically zero up to roundoff, all
    # successive differences are float noise -> -inf sentinel
    rem_scale = float(_dyadic_band_norms(result.remainder, INF).max())
    ia_scale = float(np.abs(result.integral.planes).max())
    if rem_scale <= 1e-12 * max(1.0, ia_scale):
        return {"slope": -INF, "expected": expected, "r2": 1.0, "levels": rows,
                "bounded": True}
    keep = vals > _ZERO_FLOOR
    if keep.sum() < 2:
        raise ValueError(
            "a rate needs two diagnostic levels with a positive norm,"
            f" got {int(keep.sum())}")
    slope, r2 = _log_fit(ns[keep], np.log2(vals[keep]))
    bounded = bool(vals.max() <= 2.0 * max(vals[0], _ZERO_FLOOR))
    return {
        "slope": slope,
        "expected": expected,
        "r2": r2,
        "levels": rows,
        "bounded": bounded,
    }


def small_oscillation_check(R: TwoParamField, p2: float) -> dict:
    """Profile tau -> sup_{h <= tau} Omega_{p2}(R, tau)/tau^{max(1,1/p2)}.

    Membership in the little space shows up as a profile decreasing toward
    the smallest resolved tau.
    """
    grid = R.grid
    crit = max(1.0, 1.0 / p2)
    profile = [float(r) for r in
               _dyadic_ratio_profile(R, p2, lambda tau: tau**crit)]
    taus = [grid.horizon * 2.0**-n for n in range(1, grid.level + 1)]
    decreasing = profile[-1] <= profile[0] + 1e-12
    return {"taus": taus, "profile": profile, "decreasing": bool(decreasing)}
