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
from itertools import chain, repeat
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
    """A path sampled on a uniform dyadic grid, values in R^m, held as one
    frozen C-contiguous (m, grid.n) array `planes`.  The constructor copies
    rows (grid.n, m) or a 1-D array; `values` is the read-only (grid.n, m)
    transposed view, and `_from_planes` takes over fresh planes uncopied."""

    def __init__(self, grid: UniformGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != grid.n:
            raise ValueError(
                f"values must have shape ({grid.n}, m), got {values.shape}"
            )
        self.grid, self.planes = grid, values.T.copy()
        self.planes.setflags(write=False)

    @classmethod
    def _from_planes(cls, grid: UniformGrid, planes: np.ndarray) -> "GridPath":
        """The path of (m, grid.n) planes built for it, frozen in place, not
        copied (unless they are not C-contiguous floats)."""
        path = cls.__new__(cls)
        path.grid, path.planes = grid, np.ascontiguousarray(planes, float)
        path.planes.setflags(write=False)
        return path

    @property
    def values(self) -> np.ndarray:
        return self.planes.T

    @property
    def dim(self) -> int:
        return len(self.planes)

    def band(self, k: int) -> np.ndarray:
        """Increments f[i+k] - f[i] for i = 0..n-1-k, shape (n-k, m): band k
        of the increment field delta(f), as in `TwoParamField.band`, the
        transpose of its (m, n-k) planes."""
        n = self.grid.n
        if not 0 <= k < n:
            raise IndexError(f"band offset {k} out of range for n={n}")
        return (self.planes[:, k:] - self.planes[:, : n - k]).T

    def subsample(self, k: int) -> "GridPath":
        """Pointwise evaluation on the k-times-coarser grid."""
        return GridPath._from_planes(self.grid.coarsen(k),
                                     self.planes[:, :: 1 << k])

    def restrict(self, i0: int, i1: int) -> "GridPath":
        """Restriction to nodes [i0, i1]; i1 - i0 must be a power of two."""
        span = i1 - i0
        if span <= 0 or span & (span - 1):
            raise ValueError(f"restriction span {span} is not a power of two")
        sub = UniformGrid(span * self.grid.mesh, span.bit_length() - 1)
        return GridPath._from_planes(sub, self.planes[:, i0 : i1 + 1])

    def __add__(self, other: "GridPath") -> "GridPath":
        _check_same(self, other)
        return GridPath._from_planes(self.grid, self.planes + other.planes)

    def __sub__(self, other: "GridPath") -> "GridPath":
        _check_same(self, other)
        return GridPath._from_planes(self.grid, self.planes - other.planes)

    def __mul__(self, scalar: float) -> "GridPath":
        return GridPath._from_planes(self.grid, self.planes * float(scalar))

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

    The field is a vectorized germ ``germ(ii, jj) -> (m, len)``, one
    component plane per row, evaluated on demand, so fine grids keep O(n)
    memory; ii, jj are two slices (bands: views) or two intp arrays
    (`pairs`), used only to index (`_indices` converts).  `band` and `pairs`
    return the transpose, (len, m), as a view (a band's planes, `band(k).T`,
    are C-contiguous).  Array data enters through ``dense=``, an (n, n, m)
    array copied into (m, n, n) planes, frozen and read at the requested
    pairs (never below the diagonal); planes built for the field are handed
    over, frozen in place, through the germ `_frozen_germ(planes)`.  The
    diagonal is whatever the germ gives there: zero for increment-type
    germs, the stored diagonal for array data.  Band access (all entries
    A[i, i+k]) is the workhorse for every norm.
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
            dense = np.asarray(dense, dtype=np.float64)
            if dense.ndim == 2:
                dense = dense[:, :, None]
            if dense.shape != (grid.n, grid.n, dim):
                raise ValueError(
                    f"dense must have shape ({grid.n}, {grid.n}, {dim}),"
                    f" got {dense.shape}"
                )
            germ = _frozen_germ(np.moveaxis(dense, -1, 0).copy())
        self.grid = grid
        self.dim = dim
        self._germ = germ

    def materialize(self) -> "TwoParamField":
        """Array-backed copy; agrees entrywise with this field."""
        return TwoParamField(self.grid, self.dim,
                             germ=_frozen_germ(self._dense_planes()))

    # -- access ------------------------------------------------------------
    def _planes(self, ii, jj, rows: int = -1) -> np.ndarray:
        """Germ values at the selectors ii, jj as (m, rows) component planes."""
        return np.asarray(self._germ(ii, jj), float).reshape(self.dim, rows)

    def band(self, k: int) -> np.ndarray:
        """All entries A[i, i+k] for i = 0..n-1-k, shape (n-k, m)."""
        n = self.grid.n
        if not 0 <= k < n:
            raise IndexError(f"band offset {k} out of range for n={n}")
        return np.ascontiguousarray(
            self._planes(slice(0, n - k), slice(k, n), n - k)).T

    def pairs(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Entries A[ii, jj] for index arrays with ii <= jj, shape (len, m)."""
        ii = np.asarray(ii, dtype=np.intp)
        jj = np.asarray(jj, dtype=np.intp)
        if np.any(ii > jj):
            raise IndexError("pairs requires ii <= jj")
        return self._planes(ii, jj, len(ii)).T

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
        return (self._planes(i, j) - self._planes(i, u) - self._planes(u, j)).T

    def to_dense(self) -> np.ndarray:
        """(n, n, m) array of the entries on and above the diagonal, zero
        below it: the view of `_dense_planes` with the components last."""
        return np.moveaxis(self._dense_planes(), 0, -1)

    def _dense_planes(self) -> np.ndarray:
        """(m, n, n) planes of the entries on and above the diagonal, zero
        below it; filled by one germ call per block of 64 rows, so the
        germ's temporaries stay small next to the output."""
        n = self.grid.n
        planes = np.zeros((self.dim, n, n))
        for r0 in range(0, n, _DENSE_ROWS):
            ii, jj = np.triu_indices(min(_DENSE_ROWS, n - r0), m=n - r0)
            ii, jj = ii + r0, jj + r0
            planes[:, ii, jj] = self._planes(ii, jj, len(ii))
        return planes

    # -- linear structure ----------------------------------------------------
    def _combine(self, other, f):
        if isinstance(other, TwoParamField):
            if other.grid != self.grid or other.dim != self.dim:
                raise ValueError("field mismatch")
            a, b = self._planes, other._planes
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


def _frozen_germ(planes: np.ndarray):
    """Germ reading (m, n, n) float planes the caller hands over: they are
    frozen in place, not copied as ``dense=`` does."""
    planes.setflags(write=False)
    m, n = planes.shape[:2]
    flat = planes.reshape(m, n * n)

    def germ(ii, jj):
        return flat.take(_indices(ii) * n + _indices(jj), axis=1)

    return germ


def _indices(sel) -> np.ndarray:
    """Index array of a germ selector: a slice becomes its arange."""
    return np.arange(sel.start, sel.stop) if isinstance(sel, slice) else sel


def delta(path: GridPath) -> TwoParamField:
    """Increment field of a path: result[i][j] = f_j - f_i."""
    planes = path.planes
    return TwoParamField(
        path.grid, path.dim, germ=lambda ii, jj: planes[:, jj] - planes[:, ii]
    )


# -- CSV interchange ---------------------------------------------------------
#
# A file is read whole.  Text that decodes and holds no '"', no NUL and no
# line longer than csv's field limit has nothing csv.reader treats
# specially, so its records are its lines split at ','; csv.reader reads
# any other file.  The writers join repr cells with ',' and '\r\n': a
# float's or an int's repr needs no quoting, so these are the bytes
# csv.writer (excel dialect) writes.

def load_path_csv(path, magnitudes: bool = True) -> GridPath:
    """Read a path from CSV with header ``t,v0,...,v{m-1}``, m >= 1.

    Times must be strictly increasing and dyadic to within 1e-12*T; every
    value and every increment of a value column must be finite.  With
    `magnitudes`, a file of two or more value columns also needs a finite
    sum of squared column spans, which bounds the square of every
    increment's Euclidean magnitude.  Rough-path levels 2 and up skip that
    rule: `lift` writes every level whose Chen residual is finite.
    """
    records, error = _records(path)
    if not records:
        raise error or GridFormatError(f"{path}: empty file")
    header = _listed(records[:1])[0]
    if not header or header[0].strip() != "t":
        raise GridFormatError(f"{path}: header must start with 't'")
    if len(header) < 2:
        raise GridFormatError(f"{path}: no value columns after 't'")
    data = _float_rows(path, records[1:], len(header))
    if error:  # a bad line before it is named first
        raise error
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


def _records(path):
    """(records, error): the csv records of a file, line 1 first, and the
    GridFormatError naming the line where csv.reader stopped, or None.  The
    records of plain text are its lines, str, cut at ',' by `_cells` and
    `_listed`; those of any other file are csv.reader's lists of cells."""
    lines = _plain_lines(path)
    if lines is not None:
        return lines, None
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            records.extend(reader)
        except (csv.Error, UnicodeDecodeError) as exc:
            return records, GridFormatError(f"{path}:{reader.line_num}: {exc}")
    return records, None


def _plain_lines(path) -> Optional[list]:
    """The lines of a file that csv.reader splits at ',' and nothing else,
    cut at '\r\n', '\r' and '\n' as its file iterator cuts them; None when
    the text does not decode or has a '"', a NUL or a line over csv's
    field limit."""
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if '"' in text or "\0" in text:
        return None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # after the last line end, or an empty file
    if max(map(len, lines), default=0) > csv.field_size_limit():
        return None
    return lines


def _cells(rows):
    """(widths, cells) of nonempty `_records`: the set of their cell counts,
    and all their cells in order, as one list."""
    if rows and isinstance(rows[0], str):
        return ({n + 1 for n in set(map(str.count, rows, repeat(",")))},
                ",".join(rows).split(","))
    return set(map(len, rows)), list(chain.from_iterable(rows))


def _listed(records) -> list:
    """`_records` as lists of cells."""
    if records and isinstance(records[0], str):
        return [line.split(",") if line else [] for line in records]
    return records


def _float_rows(path, lines, width: int) -> np.ndarray:
    """Non-empty csv records (file lines 2, ...) as floats; the first bad one raises."""
    rows = list(filter(None, lines))
    widths, cells = _cells(rows)
    if not widths - {width}:
        with contextlib.suppress(ValueError):
            return np.fromiter(map(float, cells), float).reshape(len(rows), width)
    for lineno, row in enumerate(_listed(lines), start=2):  # name the first bad line
        if row and len(row) != width:
            raise GridFormatError(f"{path}:{lineno}: ragged row")
        try:
            list(map(float, row))
        except ValueError as exc:
            raise GridFormatError(f"{path}:{lineno}: {exc}") from None


def save_path_csv(path, grid_path: GridPath) -> None:
    _write_columns(path, ["t"] + [f"v{j}" for j in range(grid_path.dim)],
                   [grid_path.grid.times(), *grid_path.planes])


def _write_columns(path, header, columns) -> None:
    """Write a header row, then row r of the 1-d arrays `columns` as line r,
    in blocks of about `_WRITE_CELLS` cells, so the strings of a wide file
    (a level-4 file has up to 256 columns) are never all held at once."""
    step = max(1, _WRITE_CELLS // len(columns))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), step):
            cells = [map(repr, col[lo:lo + step].tolist()) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


_WRITE_CELLS = 1 << 16


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

    planes = np.ascontiguousarray(values.T)

    def germ(ii, jj):
        pos, hit = _find(flat, _indices(ii) * n + _indices(jj))
        return np.where(hit, planes.take(pos, axis=1), 0.0)

    return TwoParamField(UniformGrid(1.0, level), len(planes), germ=germ)


# Node indices of a pair CSV stay below this, so keys i * n + j fit int64.
_MAX_NODES = 1 << 31


def _pair_rows(path, nodes: int | None = None, width: int | None = None):
    """(n, keys, values) of the rows ``i,j,v0,...`` of a pair CSV: sorted
    keys i * n + j, n = `nodes` or the largest index + 1, and (len, m) values.
    Each row needs 0 <= i <= j < n and m finite values (`width`, or as many
    as the first row), and j < 2**31; a pair may appear once, and only the
    first line may be a header (starting with ``i``)."""
    records, error = _records(path)
    first = _listed(records[:1])
    head = bool(first and first[0] and first[0][0].strip().startswith("i"))
    parsed = (_pair_arrays(list(filter(None, records[head:])), nodes, width)
              or _pair_lines(path, _listed(records), head, nodes, width))
    if error:  # a bad line before it is named first
        raise error
    if parsed is None:
        raise GridFormatError(f"{path}: no germ rows")
    (ii, jj), values = parsed
    n = int(jj.max()) + 1 if nodes is None else nodes
    flat = ii * n + jj
    order = np.argsort(flat, kind="stable")
    flat, values = flat[order], values[order]
    dup = np.flatnonzero(flat[1:] == flat[:-1])
    if len(dup):
        i, j = divmod(int(flat[dup[0]]), n)
        raise GridFormatError(f"{path}: pair ({i}, {j}) given twice")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        i, j = divmod(int(flat[bad[0]]), n)
        raise GridFormatError(f"{path}: non-finite value at pair ({i}, {j})")
    return n, flat, values


def _pair_arrays(rows, nodes, width):
    """((i, j), values) of the nonempty pair `_records` as int64 and
    (len, m) float arrays, checked at once; None without rows or when a row
    fails a check of `_pair_lines`."""
    widths, cells = _cells(rows)
    w = (width + 2) if width else min(widths, default=0)
    if w < 3 or widths != {w}:
        return None
    try:
        ij = np.fromiter(map(int, chain(cells[0::w], cells[1::w])),
                         np.int64).reshape(2, -1)
        columns = [cells[c::w] for c in range(2, w)]
        values = np.fromiter(map(float, chain.from_iterable(zip(*columns))),
                             float).reshape(-1, w - 2)
    except (ValueError, OverflowError):
        return None
    ii, jj = ij
    bound = min(nodes or _MAX_NODES, _MAX_NODES)
    if (ii < 0).any() or (ii > jj).any() or jj.max() >= bound:
        return None
    return ij, values


def _pair_lines(path, records, head: bool, nodes, width):
    """`_pair_arrays` of the records after a header, one line at a time:
    the first line that fails a check raises a GridFormatError naming it."""
    keys, rows = [], []
    for lineno, row in enumerate(records[head:], start=1 + head):
        if not row:
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
        if j >= _MAX_NODES:
            raise GridFormatError(
                f"{path}:{lineno}: index {j} too large; need j < {_MAX_NODES}")
        if len(vals) != (width := width or len(vals)):
            raise GridFormatError(
                f"{path}:{lineno}: need {width} values, got {len(vals)}")
        keys.append((i, j))
        rows.append(vals)
    if rows:
        return np.array(keys, dtype=np.int64).T, np.array(rows)


def _find(keys: np.ndarray, want: np.ndarray):
    """Positions of `want` in the sorted nonempty `keys`; whether each is in."""
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return pos, keys[pos] == want
