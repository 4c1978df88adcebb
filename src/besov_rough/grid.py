"""Uniform dyadic grids, sampled paths, and two-parameter fields.

Everything downstream (norms, sewing, rough paths) consumes the three types
defined here.  Grids are dyadic only: n = 2**level + 1 nodes on [0, T], with
node times exactly i*T/2**level.  Values are float64 throughout; all types are
immutable after construction and every operation is a pure function.
"""
from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

import numpy as np

__all__ = [
    "UniformGrid",
    "GridPath",
    "TwoParamField",
    "delta",
    "load_path_csv",
    "save_path_csv",
    "load_germ_csv",
    "GridFormatError",
]

class GridFormatError(ValueError):
    """Malformed path/germ input (non-dyadic times, bad shape, bad header)."""


@dataclass(frozen=True)
class UniformGrid:
    """Dyadic grid on [0, horizon] with 2**level + 1 nodes."""

    horizon: float
    level: int

    def __post_init__(self):
        if not (self.horizon > 0):
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.level < 0 or self.level != int(self.level):
            raise ValueError(f"level must be a nonnegative integer, got {self.level}")

    @property
    def n(self) -> int:
        return (1 << self.level) + 1

    @property
    def n_cells(self) -> int:
        return 1 << self.level

    @property
    def mesh(self) -> float:
        return self.horizon / (1 << self.level)

    def times(self) -> np.ndarray:
        return np.arange(self.n) * (self.horizon / (1 << self.level))

    def coarsen(self, k: int) -> "UniformGrid":
        if k < 0 or k > self.level:
            raise ValueError(f"cannot coarsen level {self.level} grid by {k}")
        return UniformGrid(self.horizon, self.level - k)


class GridPath:
    """A path sampled on a uniform dyadic grid, values in R^m.

    ``values`` has shape (grid.n, m); it is copied and frozen at construction.
    """

    def __init__(self, grid: UniformGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != grid.n:
            raise ValueError(
                f"values must have shape ({grid.n}, m), got {values.shape}"
            )
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def band(self, k: int) -> np.ndarray:
        """Increments f[i+k] - f[i] for i = 0..n-1-k, shape (n-k, m): band k
        of the increment field delta(f), as in `TwoParamField.band`."""
        n = self.grid.n
        if not 0 <= k < n:
            raise IndexError(f"band offset {k} out of range for n={n}")
        return self.values[k:] - self.values[: n - k]

    def subsample(self, k: int) -> "GridPath":
        """Pointwise evaluation on the k-times-coarser grid."""
        if k == 0:
            return self
        return GridPath(self.grid.coarsen(k), self.values[:: 1 << k])

    def restrict(self, i0: int, i1: int) -> "GridPath":
        """Restriction to nodes [i0, i1]; i1 - i0 must be a power of two."""
        span = i1 - i0
        if span <= 0 or span & (span - 1):
            raise ValueError(f"restriction span {span} is not a power of two")
        sub = UniformGrid(span * self.grid.mesh, span.bit_length() - 1)
        return GridPath(sub, self.values[i0 : i1 + 1])

    def __add__(self, other: "GridPath") -> "GridPath":
        _check_same(self, other)
        return GridPath(self.grid, self.values + other.values)

    def __sub__(self, other: "GridPath") -> "GridPath":
        _check_same(self, other)
        return GridPath(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridPath":
        return GridPath(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"GridPath(level={self.grid.level}, T={self.grid.horizon}, m={self.dim})"


def _check_same(a, b):
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


class TwoParamField:
    """Two-parameter array A[i][j] in R^m on grid pairs i <= j.

    The field is a vectorized germ ``germ(ii, jj) -> (len, m)``, evaluated
    on demand, so fine grids keep O(n) memory; ii, jj are two slices (bands:
    views) or two intp arrays (`pairs`), used only to index (`_indices`
    converts).  Array data enters through ``dense=``, an (n, n, m) array
    copied, frozen and read at the requested pairs (never below the
    diagonal); an array built for the field is handed over, frozen in place,
    through the germ `_frozen_germ(arr)`.  The diagonal is whatever the germ
    gives there: zero for increment-type germs, the stored diagonal for
    array data.  Band access (all entries A[i, i+k]) is the workhorse for
    every norm.
    """

    def __init__(
        self,
        grid: UniformGrid,
        dim: int,
        dense: Optional[np.ndarray] = None,
        germ: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ):
        if (dense is None) == (germ is None):
            raise ValueError("exactly one of dense/germ must be given")
        if dense is not None:
            dense = np.array(dense, dtype=np.float64)
            if dense.ndim == 2:
                dense = dense[:, :, None]
            if dense.shape != (grid.n, grid.n, dim):
                raise ValueError(
                    f"dense must have shape ({grid.n}, {grid.n}, {dim}),"
                    f" got {dense.shape}"
                )
            germ = _frozen_germ(dense)
        self.grid = grid
        self.dim = dim
        self._germ = germ

    def materialize(self) -> "TwoParamField":
        """Array-backed copy; agrees entrywise with this field."""
        return TwoParamField(self.grid, self.dim,
                             germ=_frozen_germ(self.to_dense()))

    # -- access ------------------------------------------------------------
    def _values(self, ii, jj, rows: int = -1) -> np.ndarray:
        """Germ values at the selectors ii, jj as a (rows, m) array."""
        return np.asarray(self._germ(ii, jj), float).reshape(rows, self.dim)

    def band(self, k: int) -> np.ndarray:
        """All entries A[i, i+k] for i = 0..n-1-k, shape (n-k, m)."""
        n = self.grid.n
        if not 0 <= k < n:
            raise IndexError(f"band offset {k} out of range for n={n}")
        return self._values(slice(0, n - k), slice(k, n), n - k)

    def pairs(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Entries A[ii, jj] for index arrays with ii <= jj, shape (len, m)."""
        ii = np.asarray(ii, dtype=np.intp)
        jj = np.asarray(jj, dtype=np.intp)
        if np.any(ii > jj):
            raise IndexError("pairs requires ii <= jj")
        return self._values(ii, jj, len(ii))

    def at(self, i: int, j: int) -> np.ndarray:
        return self.pairs(np.array([i]), np.array([j]))[0]

    def delta2(self, i: int, u: int, j: int) -> np.ndarray:
        """A[i][j] - A[i][u] - A[u][j] for i <= u <= j."""
        if not i <= u <= j:
            raise IndexError(f"delta2 needs i <= u <= j, got {(i, u, j)}")
        ii = np.array([i, i, u])
        jj = np.array([j, u, j])
        v = self.pairs(ii, jj)
        return v[0] - v[1] - v[2]

    def delta2_bands(self, u_off: int, k: int) -> np.ndarray:
        """delta2(i, i+u_off, i+k) for all i, vectorized over the band."""
        n = self.grid.n
        if not 0 <= u_off <= k < n:
            raise IndexError("delta2_bands needs 0 <= u_off <= k < n")
        i, u, j = slice(0, n - k), slice(u_off, u_off + n - k), slice(k, n)
        return self._values(i, j) - self._values(i, u) - self._values(u, j)

    def to_dense(self) -> np.ndarray:
        """(n, n, m) array of the entries on and above the diagonal, zero
        below it; filled by one `pairs` call per block of 64 rows, so the
        germ's temporaries stay small next to the output."""
        n = self.grid.n
        dense = np.zeros((n, n, self.dim))
        for r0 in range(0, n, _DENSE_ROWS):
            ii, jj = np.triu_indices(min(_DENSE_ROWS, n - r0), m=n - r0)
            ii, jj = ii + r0, jj + r0
            dense[ii, jj] = self.pairs(ii, jj)
        return dense

    # -- linear structure ----------------------------------------------------
    def _combine(self, other, f):
        if isinstance(other, TwoParamField):
            if other.grid != self.grid or other.dim != self.dim:
                raise ValueError("field mismatch")
            a, b = self._values, other._values
            return TwoParamField(
                self.grid, self.dim, germ=lambda ii, jj: f(a(ii, jj), b(ii, jj))
            )
        raise TypeError(f"cannot combine TwoParamField with {type(other)}")

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        c = float(scalar)
        germ = self._germ
        return TwoParamField(self.grid, self.dim, germ=lambda ii, jj: c * germ(ii, jj))

    __rmul__ = __mul__

    def __repr__(self):
        return f"TwoParamField(level={self.grid.level}, m={self.dim})"


_DENSE_ROWS = 64


def _frozen_germ(dense: np.ndarray):
    """Germ reading an (n, n, m) float array the caller hands over: the
    array is frozen in place, not copied as ``dense=`` does."""
    dense.setflags(write=False)

    def germ(ii, jj):
        return dense[_indices(ii), _indices(jj)]

    return germ


def _indices(sel) -> np.ndarray:
    """Index array of a germ selector: a slice becomes its arange."""
    return np.arange(sel.start, sel.stop) if isinstance(sel, slice) else sel


def delta(path: GridPath) -> TwoParamField:
    """Increment field of a path: result[i][j] = f_j - f_i."""
    values = path.values
    return TwoParamField(
        path.grid, path.dim, germ=lambda ii, jj: values[jj] - values[ii]
    )


# -- CSV interchange ---------------------------------------------------------

def load_path_csv(path, magnitudes: bool = True) -> GridPath:
    """Read a path from CSV with header ``t,v0,...,v{m-1}``.

    Times must be strictly increasing and dyadic to within 1e-12*T; every
    value and every increment of a value column must be finite.  With
    `magnitudes`, a file of two or more value columns also needs a finite
    sum of squared column spans, which bounds the square of every
    increment's Euclidean magnitude.  Rough-path levels 2 and up skip that
    rule: `lift` writes every level whose Chen residual is finite.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        with _csv_errors(path, reader):
            header = next(reader, None)
            if header is None:
                raise GridFormatError(f"{path}: empty file")
            if not header or header[0].strip() != "t":
                raise GridFormatError(f"{path}: header must start with 't'")
            lines = []
            try:
                lines.extend(reader)
            except (csv.Error, UnicodeDecodeError):
                _float_rows(path, lines, len(header))  # a bad line before it first
                raise
    data = _float_rows(path, lines, len(header))
    if not len(data):
        raise GridFormatError(f"{path}: no data rows")
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        raise GridFormatError(
            f"{path}: non-finite value in data row {bad[0, 0] + 1}"
        )
    with np.errstate(over="ignore"):
        span = np.ptp(data[:, 1:], axis=0)
        square_sum = np.sum(span * span)
    bad = np.flatnonzero(~np.isfinite(span))
    if len(bad):
        raise GridFormatError(
            f"{path}: non-finite increments in column v{bad[0]}")
    if magnitudes and len(span) > 1 and not np.isfinite(square_sum):
        raise GridFormatError(
            f"{path}: increment magnitudes overflow: the sum of squared "
            "column spans is not finite")
    times, values = data[:, 0], data[:, 1:]
    n = len(times)
    level = (n - 1).bit_length() - 1
    if n < 2 or n != (1 << level) + 1:
        raise GridFormatError(f"{path}: {n} rows; need 2^L + 1 nodes")
    horizon = float(times[-1])
    if horizon <= 0:
        raise GridFormatError(f"{path}: final time must be positive")
    grid = UniformGrid(horizon, level)
    if np.any(np.diff(times) <= 0):
        raise GridFormatError(f"{path}: times not strictly increasing")
    if np.max(np.abs(times - grid.times())) > 1e-12 * horizon:
        raise GridFormatError(f"{path}: times not dyadic within 1e-12*T")
    return GridPath(grid, values)


@contextlib.contextmanager
def _csv_errors(path, reader):
    """Report a line csv cannot parse or decode as a GridFormatError."""
    try:
        yield
    except (csv.Error, UnicodeDecodeError) as exc:
        raise GridFormatError(f"{path}:{reader.line_num}: {exc}") from None


def _float_rows(path, lines, width: int) -> np.ndarray:
    """Non-empty csv records (file lines 2, ...) as floats; the first bad one raises."""
    rows = list(filter(None, lines))
    if not set(map(len, rows)) - {width}:
        with contextlib.suppress(ValueError):
            cells = np.fromiter(map(float, chain.from_iterable(rows)), float)
            return cells.reshape(len(rows), width)
    for lineno, row in enumerate(lines, start=2):  # name the first bad line
        if row and len(row) != width:
            raise GridFormatError(f"{path}:{lineno}: ragged row")
        try:
            list(map(float, row))
        except ValueError as exc:
            raise GridFormatError(f"{path}:{lineno}: {exc}") from None


def save_path_csv(path, grid_path: GridPath) -> None:
    m = grid_path.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"v{j}" for j in range(m)])
        writer.writerows([repr(t), *map(repr, row)] for t, row in zip(
            grid_path.grid.times().tolist(), grid_path.values.tolist()))


def load_germ_csv(path) -> TwoParamField:
    """Read an upper-triangular germ on [0, 1] from CSV rows ``i,j,v0,...``.

    Missing pairs default to zero; the node count n is inferred from the
    largest index and must be 2^L + 1, and the file must hold at least n - 1
    rows, so memory stays in proportion to the file.  The rows follow
    `_pair_rows`.
    """
    n, flat, values = _pair_rows(path)
    level = (n - 1).bit_length() - 1
    if n < 2 or n - 1 != 1 << level:
        raise GridFormatError(f"{path}: max index {n - 1} is not a power of two")
    if n - 1 > len(flat):
        raise GridFormatError(
            f"{path}: max index {n - 1} needs at least {n - 1} rows,"
            f" got {len(flat)}")

    def germ(ii, jj):
        pos, hit = _find(flat, _indices(ii) * n + _indices(jj))
        return np.where(hit[:, None], values[pos], 0.0)

    return TwoParamField(UniformGrid(1.0, level), values.shape[1], germ=germ)


def _pair_rows(path, nodes: int | None = None, width: int | None = None):
    """(n, keys, values) of the rows ``i,j,v0,...`` of a pair CSV: sorted
    keys i * n + j, n = `nodes` or the largest index + 1, and (len, m) values.
    Each row needs 0 <= i <= j < n and m finite values (`width`, or as many
    as the first row); a pair may appear once, and only the first line may
    be a header (starting with ``i``)."""
    keys, rows = [], []
    with open(path, newline="") as fh, _csv_errors(path, reader := csv.reader(fh)):
        for lineno, row in enumerate(reader, start=1):
            if not row or (lineno == 1 and row[0].strip().startswith("i")):
                continue
            if len(row) < 3:
                raise GridFormatError(f"{path}:{lineno}: need i, j and values")
            try:
                i, j = int(row[0]), int(row[1])
                vals = [float(x) for x in row[2:]]
            except ValueError as exc:
                raise GridFormatError(f"{path}:{lineno}: {exc}") from None
            if not 0 <= i <= j < (nodes or j + 1):
                raise GridFormatError(f"{path}:{lineno}: need 0 <= i <= j"
                                      + (f" < {nodes}" if nodes else ""))
            if len(vals) != (width := width or len(vals)):
                raise GridFormatError(
                    f"{path}:{lineno}: need {width} values, got {len(vals)}")
            keys.append((i, j))
            rows.append(vals)
    if not rows:
        raise GridFormatError(f"{path}: no germ rows")
    ij = np.array(keys, dtype=np.int64)
    n = int(ij[:, 1].max()) + 1 if nodes is None else nodes
    flat = ij[:, 0] * n + ij[:, 1]
    order = np.argsort(flat, kind="stable")
    flat, values = flat[order], np.array(rows)[order]
    dup = np.flatnonzero(flat[1:] == flat[:-1])
    if len(dup):
        i, j = divmod(int(flat[dup[0]]), n)
        raise GridFormatError(f"{path}: pair ({i}, {j}) given twice")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        i, j = divmod(int(flat[bad[0]]), n)
        raise GridFormatError(f"{path}: non-finite value at pair ({i}, {j})")
    return n, flat, values


def _find(keys: np.ndarray, want: np.ndarray):
    """Positions of `want` in the sorted nonempty `keys`; whether each is in."""
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return pos, keys[pos] == want
