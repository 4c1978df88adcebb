import csv
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from besov_rough import grid
from besov_rough.grid import (
    GridFormatError,
    GridPath,
    TwoParamField,
    UniformGrid,
    delta,
    load_path_csv,
    save_path_csv,
    load_germ_csv,
)
from besov_rough.cli import save_rough_dir
from besov_rough.rough import brownian_lift


@pytest.mark.parametrize("shape", [(17,), (17, 1), (17, 3)])
def test_values_are_a_read_only_rows_view_of_the_planes(shape):
    raw = np.arange(np.prod(shape), dtype=float).reshape(shape)
    f = GridPath(UniformGrid(1.0, 4), raw)
    rows = raw.reshape(17, -1)
    assert f.planes.shape == (rows.shape[1], 17)
    assert f.planes.flags.c_contiguous and not f.planes.flags.writeable
    assert f.values.shape == rows.shape and np.array_equal(f.values, rows)
    assert np.shares_memory(f.values, f.planes)
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


@pytest.mark.parametrize("shape", [(17,), (17, 1), (17, 3)])
def test_path_keeps_its_values_when_the_input_changes(shape):
    raw = np.random.default_rng(0).standard_normal(shape)
    f = GridPath(UniformGrid(1.0, 4), raw)
    before = f.values.copy()
    raw[3] = 99.0
    assert np.array_equal(f.values, before)
    assert not np.shares_memory(f.planes, raw)


def test_solver_sweeps_copy_no_path(monkeypatch):
    # the Picard gauges hand their fresh difference planes to a path; the
    # copying constructor is never called, not even for the results
    from besov_rough.controlled import rde_solve
    from besov_rough.norms import INF, BesovParams
    from besov_rough.rough import geometric_lift
    from besov_rough.young import (rotation_field, scalar_linear_field,
                                   young_ode_solve)

    def drivers():
        t = UniformGrid(1.0, 10).times()
        yield "young", GridPath(UniformGrid(1.0, 10), np.sin(t))
        g = UniformGrid(1.0, 8)
        rough = GridPath(g, np.column_stack([np.sin(g.times()),
                                             np.cos(2 * g.times())]))
        yield "rde", geometric_lift(rough, 2, BesovParams(0.5, INF, INF))

    copied, handed = [], []
    init, from_planes = GridPath.__init__, GridPath._from_planes.__func__
    for kind, driver in drivers():
        copied.clear()
        handed.clear()
        with monkeypatch.context() as m:
            m.setattr(GridPath, "__init__", lambda self, *a: (
                copied.append(a), init(self, *a))[1])
            m.setattr(GridPath, "_from_planes", classmethod(lambda cls, *a: (
                handed.append(a), from_planes(cls, *a))[1]))
            if kind == "young":
                sol = young_ode_solve(scalar_linear_field(), driver, 1.0,
                                      BesovParams(0.9, INF, INF))
            else:
                sol = rde_solve(rotation_field(), driver, [1.0, 0.5])
            sol.path
        assert copied == [], kind
        assert len(handed) >= sum(sol.iterations) > 0, kind


def test_grid_nodes_exact():
    g = UniformGrid(2.0, 5)
    assert g.n == 33
    assert g.mesh == 2.0 / 32
    t = g.times()
    assert t[0] == 0.0 and t[-1] == 2.0
    # node times are exactly i*T/2^L
    assert np.all(t == np.arange(33) * 2.0 / 32)


def test_subsample_refine_roundtrip():
    g = UniformGrid(1.0, 6)
    f = GridPath(g, np.sin(g.times()))
    coarse = f.subsample(2)
    assert coarse.grid.level == 4
    assert np.array_equal(coarse.values, f.values[::4])


def test_delta_examples():
    g = UniformGrid(1.0, 1)
    ident = GridPath(g, g.times())
    d = delta(ident)
    assert d.at(0, 1)[0] == pytest.approx(0.5)
    assert d.at(0, 2)[0] == pytest.approx(1.0)
    assert d.at(1, 2)[0] == pytest.approx(0.5)
    const = GridPath(g, np.ones(3))
    assert np.all(delta(const).to_dense() == 0.0)
    g2 = UniformGrid(1.0, 2)
    sq = GridPath(g2, g2.times() ** 2)
    assert delta(sq).at(1, 3)[0] == pytest.approx(0.75**2 - 0.25**2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 4), st.integers(0, 200))
def test_delta2_of_delta_is_zero(level_extra, seed):
    g = UniformGrid(1.0, 3 + level_extra % 3)
    rng = np.random.default_rng(seed)
    f = GridPath(g, rng.standard_normal((g.n, 2)))
    d = delta(f)
    scale = np.abs(f.values).max()
    for (i, u, j) in [(0, 0, 0), (0, g.n // 2, g.n - 1), (1, 2, 3)]:
        assert np.abs(d.delta2(i, u, j)).max() <= 4 * np.finfo(float).eps * max(
            1.0, scale
        )


def test_delta2_product_germ_identity():
    # A_{st} = f_s (g_t - g_s)  =>  delta2 A_{sut} = -(f_u - f_s)(g_t - g_u)
    rng = np.random.default_rng(0)
    g = UniformGrid(1.0, 4)
    fv = rng.standard_normal(g.n)
    gv = rng.standard_normal(g.n)
    A = TwoParamField(
        g, 1, germ=lambda ii, jj: (fv[ii] * (gv[jj] - gv[ii]))[:, None]
    )
    for (i, u, j) in [(0, 3, 9), (2, 5, 16), (1, 1, 4)]:
        expected = -(fv[u] - fv[i]) * (gv[j] - gv[u])
        assert A.delta2(i, u, j)[0] == pytest.approx(expected, abs=1e-12)


def test_delta2_index_order_rejected():
    g = UniformGrid(1.0, 3)
    A = delta(GridPath(g, g.times()))
    with pytest.raises(IndexError):
        A.delta2(5, 2, 7)


def test_lazy_eager_agree():
    # a germ and its array-backed materialize() copy agree entrywise
    rng = np.random.default_rng(1)
    g = UniformGrid(1.0, 5)
    fv = rng.standard_normal((g.n, 2))
    f = GridPath(g, fv)
    lazy = delta(f)
    eager = lazy.materialize()
    for k in (0, 1, 7, g.n - 1):
        assert np.array_equal(lazy.band(k), eager.band(k))
    ii = np.array([0, 3, 5])
    jj = np.array([4, 3, 30])
    assert np.array_equal(lazy.pairs(ii, jj), eager.pairs(ii, jj))


def test_path_csv_roundtrip(tmp_path):
    g = UniformGrid(1.5, 4)
    f = GridPath(g, np.column_stack([np.sin(g.times()), np.cos(g.times())]))
    p = tmp_path / "path.csv"
    save_path_csv(p, f)
    back = load_path_csv(p)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_path_csv_rejects_nondyadic(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,v0\n0.0,1.0\n0.3,2.0\n1.0,3.0\n")
    with pytest.raises(GridFormatError):
        load_path_csv(p)


def test_path_csv_rejects_wrong_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,v0\n0.0,1.0\n")
    with pytest.raises(GridFormatError):
        load_path_csv(p)


@pytest.mark.parametrize("row", ["0.5,2.0,3.0", "0.5"])
def test_path_csv_rejects_ragged_rows(tmp_path, row):
    p = tmp_path / "ragged.csv"
    p.write_text(f"t,v0\n0.0,1.0\n{row}\n1.0,3.0\n")
    with pytest.raises(GridFormatError, match=r":3: ragged row"):
        load_path_csv(p)


def _writer_loop_bytes(path, header, rows):
    """The files the CSV writers wrote one row and one numpy scalar at a
    time: the reference for their bytes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for lead, row in rows:
            writer.writerow(lead + [repr(float(x)) for x in row])
    return path.read_bytes()


_SPECIALS = [-0.0, 5e-324, 1e300, 2.0, 0.0, 1e-300, -1e-300]


def test_csv_writers_keep_their_bytes(tmp_path):
    # path files of 1, 2 and 4 value columns and a k.pairs.csv: the header,
    # repr cells, CRLF line ends and no quoting of the csv.writer reference
    g = UniformGrid(3.7, 4)
    t = g.times()
    for m in (1, 2, 4):
        vals = np.column_stack([np.sin((7 + c) * t) / 3**c for c in range(m)])
        for c in range(m):
            vals[1:8, c] = np.roll(_SPECIALS, c)
        save_path_csv(tmp_path / "path.csv", GridPath(g, vals))
        want = _writer_loop_bytes(
            tmp_path / "ref.csv", ["t"] + [f"v{c}" for c in range(m)],
            [([repr(float(x))], row) for x, row in zip(t, vals)])
        assert (tmp_path / "path.csv").read_bytes() == want
        assert want.count(b"\r\n") == g.n + 1 and b'"' not in want
    assert all(repr(x).encode() in want for x in _SPECIALS)
    lift = brownian_lift(2, UniformGrid(1.0, 3), 5)
    values = np.array([_SPECIALS[:4], _SPECIALS[3:], [0.1, -2.5, 3.0, 7.0]])
    save_rough_dir(str(tmp_path / "rp"),
                   lift.with_pairs(2, [1, 2, 3], [5, 6, 8], values))
    want = _writer_loop_bytes(tmp_path / "ref.csv", ["i", "j", "c0", "c1",
                                                     "c2", "c3"], [
        ([i, j], row) for i, j, row in zip([1, 2, 3], [5, 6, 8], values)])
    assert (tmp_path / "rp" / "2.pairs.csv").read_bytes() == want
    assert want.startswith(b"i,j,c0,c1,c2,c3\r\n1,5,-0.0,5e-324,1e+300,2.0\r\n")
    assert want.count(b"\r\n") == 4


@pytest.mark.parametrize("text, match", [
    ("t,v0\n0,1\n0.5,1,2\n1,x\n", r":3: ragged row"),
    ("t,v0\n0,1\n0.5,x\n1,2,3\n", r":3: could not convert string to float: 'x'"),
    ("t,v0\n0,1\n0.5,y\n1,x\n", r":3: .*'y'"),
    ("t,v0\n0,1\n0.5,x,2\n1,2\n", r":3: ragged row"),  # ragged before unparsable
    ("t,v0\n\n0,1\n\n0.5,1\n1,1e\n", r":6: .*'1e'"),   # blank records count
    ("t,v0\n0,1\n0.5,1\n1,\n", r":4: could not convert string to float: ''"),
    ("t,v0\n0.0,1.0,0.5\n2.0\n1.0,3.0\n", r":2: ragged row"),  # 3 x 2 cells
], ids=["ragged-then-bad", "bad-then-ragged", "two-bad", "both-in-one",
        "after-blanks", "empty-cell", "ragged-filling-rows"])
def test_path_csv_reports_the_first_bad_line(tmp_path, text, match):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(GridFormatError, match=match):
        load_path_csv(p)


def test_path_csv_bad_line_before_a_read_error(tmp_path):
    p = tmp_path / "bad.csv"
    huge = "9" * (csv.field_size_limit() + 1)
    p.write_text(f"t,v0\n0,1\n0.5,x\n1,{huge}\n")
    with pytest.raises(GridFormatError, match=r":3: .*'x'"):
        load_path_csv(p)
    p.write_text(f"t,v0\n0,1\n0.5,1\n1,{huge}\n")
    with pytest.raises(GridFormatError, match=r"bad\.csv:4: .*field limit"):
        load_path_csv(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_loaders_reject_non_finite(tmp_path, bad):
    p = tmp_path / "path.csv"
    p.write_text(f"t,v0\n0.0,1.0\n0.5,{bad}\n1.0,3.0\n")
    with pytest.raises(GridFormatError, match="non-finite"):
        load_path_csv(p)
    germ = tmp_path / "germ.csv"
    germ.write_text(f"i,j,c0\n0,1,1.0\n1,2,{bad}\n0,2,0.5\n")
    with pytest.raises(GridFormatError, match=r"non-finite value at pair \(1, 2\)"):
        load_germ_csv(germ)


def test_germ_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    g = UniformGrid(1.0, 3)
    A = delta(GridPath(g, rng.standard_normal((g.n, 2))))
    p = tmp_path / "germ.csv"
    _writer_loop_bytes(p, ["i", "j", "c0", "c1"], [
        ([i, i + k], A.band(k)[i]) for k in range(1, g.n)
        for i in range(g.n - k)])
    back = load_germ_csv(p)
    assert back.grid.level == 3
    assert np.allclose(back.to_dense(), A.to_dense())


def test_germ_csv_sparse_rows(tmp_path):
    # missing pairs read as zero; a stored diagonal entry is kept
    p = tmp_path / "germ.csv"
    p.write_text("i,j,c0\n0,4,2.5\n1,1,-1.0\n2,3,0.5\n3,4,1.5\n")
    A = load_germ_csv(p)
    assert A.grid.level == 2
    assert np.array_equal(A.band(0)[:, 0], [0.0, -1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(A.band(1)[:, 0], [0.0, 0.0, 0.5, 1.5])
    assert np.array_equal(A.band(4)[:, 0], [2.5])
    assert np.array_equal(A.pairs([0, 2, 1], [2, 3, 1])[:, 0], [0.0, 0.5, -1.0])


@pytest.mark.parametrize("text, match", [
    # 18 bytes naming node 4096: a level-12 grid would need 4096 rows
    ("i,j,v0\n0,4096,1.0\n", "needs at least 4096 rows, got 1"),
    ("i,j,v0\n0,1,1.0\n1,2,2.0\n0,2,3.0\n1,2,2.0\n",
     r"pair \(1, 2\) given twice"),
    ("i,j,v0\n0,0,1.0\n", "max index 0 is not a power of two"),
    ("i,j,v0\n0,1,1.0\n5\n", ":3: need i, j and values"),
    ("i,j,v0\n0,1\n", ":2: need i, j and values"),
    (f"i,j,v0\n0,1,{'9' * (csv.field_size_limit() + 1)}\n", ":2: .*field limit"),
    # an index past int64, and one whose keys i * n + j would pass it
    ("i,j,v0\n0,1,1.0\n0,99999999999999999999,2.0\n",
     ":3: index 99999999999999999999 too large; need j < 2147483648"),
    ("i,j,v0\n0,2147483648,2.0\n", ":2: index 2147483648 too large"),
], ids=["far-index", "duplicate", "diagonal-only", "one-cell", "no-values",
        "huge-cell", "index-past-int64", "index-past-2**31"])
def test_germ_csv_rejects(tmp_path, text, match):
    p = tmp_path / "germ.csv"
    p.write_text(text)
    with pytest.raises(GridFormatError, match=match):
        load_germ_csv(p)


_BASES = {
    "path": [["t", "v0"], ["0.0", "1.0"], ["0.5", "2.0"], ["1.0", "3.0"]],
    "germ": [["i", "j", "v0"], ["0", "1", "1.0"], ["1", "2", "2.0"],
             ["0", "2", "0.5"]],
}
_HUGE = "9" * (csv.field_size_limit() + 1)
_CELLS = ["0", "1", "2", "0.5", "-1", " 1.0", "2 ", "1_0", "\u0661",
          "\uff12", "", "x", "nan", "1e999", "\x00", '"1.0"', '"1,0"', '"',
          _HUGE]


@st.composite
def _csv_files(draw):
    """(kind, bytes): a valid 3-row path or germ CSV after a few edits."""
    kind = draw(st.sampled_from(sorted(_BASES)))
    rows = [list(row) for row in _BASES[kind]]
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["cell", "quote", "blank", "comma", "drop"]))
        if edit == "blank":
            rows.insert(r, [])
        elif edit == "comma":
            rows[r].append("")
        elif edit == "drop":
            del rows[r]
        elif rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = (draw(st.sampled_from(_CELLS)) if edit == "cell"
                          else f'"{rows[r][c]}"')
    ends = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]),
                         min_size=len(rows), max_size=len(rows)))
    if ends and draw(st.booleans()):
        ends[-1] = ""
    data = "".join(",".join(row) + end for row, end in zip(rows, ends)).encode()
    if draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return kind, data


def _outcome(load, fname):
    """What a loader makes of a file: the grid and value bits, or the error."""
    try:
        out = load(fname)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, GridPath):
        return out.grid, out.values.tobytes()
    return out.grid, out.to_dense().tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_csv_files())
@example(("path", b't,v0\r\n"0.0",1.0\r\n0.5,"2.0"\r\n1.0,3.0\r\n'))
@example(("path", b"t,v0\n\n0.0,1.0\n0.5,2.0\n\n1.0,3.0\n\n"))
@example(("path", b"t,v0\r0.0,1.0\r0.5,2.0\r\n1.0,3.0"))
@example(("path", b"t, v0\n 0.0 ,1.0\n0.5,\xd9\xa1\n1.0,3.0 \n"))
@example(("path", b"t,v0,\n0.0,1.0,\n0.5,2.0,\n1.0,3.0,\n"))
@example(("path", b"t,v0\n0.0,1.0\n0.5,2.0\x00\n1.0,3.0\n"))
@example(("path", f"t,v0\n0,1\n0.5,{_HUGE}\n1,3\n".encode()))
@example(("path", b"t,v0\n0.0,1.0\n0.5,\xff\n1.0,3.0\n"))
@example(("germ", b"i,j,v0\r\n0,1_0,1.0\r\n0,1,\xef\xbc\x92\r\n1,2,2.0\r\n"))
@example(("germ", b'i,j,v0\n0,1,"1,0"\n1,2,2.0\n0,2,0.5\n'))
@example(("germ", b"i,j,v0\n0,1,1.0\n\n1,2,2.0\r\r0,2,0.5"))
@example(("germ", b"i,j,v0\n-1,1,1.0\n1,2,2.0\n0,2,0.5\n"))
@example(("germ", b"i,j,v0\n0,1,1.0\n2,1,2.0\n0,2,0.5\n"))
# ragged rows whose cells would fill whole rows
@example(("germ", b"i,j,v0\n0,1,1.0\n1,2,2.0,0\n2,4\n3,4,1.0\n"))
@example(("germ", b"i,j,v0\n0,1,1.0\n1,2,2.0,0\n2,0.5,1,3,3.0\n"))
@example(("path", b""))
def test_whole_file_reader_matches_csv_reader(case):
    # the split of plain text and csv.reader, and the array checks of germ
    # rows and the line by line ones, give the same values or errors
    kind, data = case
    load = load_path_csv if kind == "path" else load_germ_csv
    with tempfile.TemporaryDirectory() as tmp:
        fname = os.path.join(tmp, f"{kind}.csv")
        with open(fname, "wb") as fh:
            fh.write(data)
        fast = _outcome(load, fname)
        with mock.patch.object(grid, "_plain_lines", lambda path: None):
            assert _outcome(load, fname) == fast
        with mock.patch.object(grid, "_pair_arrays", lambda *args: None):
            assert _outcome(load, fname) == fast  # germ rows line by line
