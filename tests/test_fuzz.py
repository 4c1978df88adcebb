"""Fuzz the CLI input boundary.

Path CSVs, germ CSVs, rough-path directories (the signature layout and its
explicit-pair files) and Monte Carlo configs start from a valid input and
get one edit that makes them malformed; the CLI must then exit with code 1
or 2 and print exactly one JSON line on stderr, never a traceback.  A
second test writes arbitrary bytes where a loader reads, for which only the
absence of a traceback and the one-line error rule are asserted.
"""
import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besov_rough.cli import main, save_rough_dir
from besov_rough.grid import UniformGrid
from besov_rough.norms import INF, BesovParams
from besov_rough.rough import brownian_lift

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                database=None)

GRID = UniformGrid(1.0, 3)
LIFT = brownian_lift(2, GRID, 5, "ito", BesovParams(0.45, 32.0, INF))
# LIFT with three explicit level-2 pairs: saved with a 2.pairs.csv
PAIRS = [(1, 5), (2, 6), (3, 8)]
FIELDS = LIFT.with_pairs(2, *zip(*PAIRS), np.arange(12.0).reshape(3, 4))

BAD_TOKENS = ["nan", "inf", "-inf", "1e999", "abc", "", "1.0.0"]
BAD_JSON = [float("nan"), float("inf"), -1, "1", True, [1], {}]
META_KEYS = ["n", "N", "level", "horizon", "alpha", "p", "q", "format"]
CONFIG = {"experiment": "bm-ynp", "samples": 2, "level": 4, "ns": [2],
          "p": 2.0, "seed": 5}


def _run(argv):
    """Exit code and stderr lines of one CLI call; a traceback fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _assert_one_error_line(lines):
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error", "message"}


def _assert_rejected(code, lines):
    assert code in (1, 2)
    _assert_one_error_line(lines)


def _path_rows():
    t = GRID.times()
    rows = [["t", "v0", "v1"]]
    rows += [[repr(float(a)), repr(float(np.sin(a))), repr(float(np.cos(2 * a)))]
             for a in t]
    return rows


def _germ_rows():
    rows = [["i", "j", "v0"]]
    for i in range(GRID.n):
        for j in range(i + 1, GRID.n):
            rows.append([str(i), str(j), repr(float(j - i) ** 1.5)])
    return rows


def _read_rows(fname):
    with open(fname) as fh:
        return [line.split(",") for line in fh.read().splitlines()]


def _write_rows(fname, rows):
    with open(fname, "w") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


# each edit below makes the file malformed on its own
PATH_EDITS = ["token", "ragged", "drop_row", "header", "time", "overflow",
              "square_overflow"]
GERM_EDITS = ["token", "ragged", "header", "swap", "far_index"]
PAIR_EDITS = GERM_EDITS + ["zero_i", "diagonal", "width", "duplicate", "many"]


@st.composite
def _edited(draw, rows, edits):
    rows = [list(r) for r in rows]
    edit = draw(st.sampled_from(edits))
    r = draw(st.integers(1, len(rows) - 1))
    if edit == "token":
        c = draw(st.integers(0, len(rows[r]) - 1))
        rows[r][c] = draw(st.sampled_from(BAD_TOKENS))
    elif edit == "ragged":
        if draw(st.booleans()):
            rows[r].pop()
        else:
            rows[r].append("1.0")
    elif edit == "drop_row":
        del rows[r]
    elif edit == "header":
        rows[0][0] = "x"
    elif edit == "time":
        rows[r][0] = repr(float(rows[r][0]) + 0.01)
    elif edit == "overflow":  # finite values, an increment that is not
        rows[1][1], rows[-1][1] = "-1e308", "1e308"
    elif edit == "square_overflow":  # finite increments, their magnitude not
        # (a rough-path level file rejects it as a nonzero first row)
        rows[1][1:3], rows[-1][1:3] = ["1e200", "1e200"], ["-1e200", "3"]
    elif edit == "swap":
        rows[r][0], rows[r][1] = rows[r][1], rows[r][0]
    elif edit == "far_index":
        rows[r][1] = str(GRID.n + 1)  # largest index no longer a power of two
    elif edit == "first_row":
        rows[1][draw(st.integers(1, len(rows[1]) - 1))] = "0.5"
    elif edit == "zero_i":
        rows[r][0] = "0"
    elif edit == "diagonal":
        rows[r][1] = rows[r][0]
    elif edit == "width":  # the same wrong width on every row
        for row in rows:
            row.append("1.0")
    elif edit == "duplicate":
        rows.append(list(rows[r]))
    elif edit == "many":  # distinct valid pairs, more than GRID.n of them
        held = {(int(a), int(b)) for a, b, *_ in rows[1:]}
        rows += [[str(i), str(j), "0.5", "0.5", "0.5", "0.5"]
                 for i in range(1, GRID.n) for j in range(i + 1, GRID.n)
                 if (i, j) not in held][: GRID.n + 1 - len(held)]
    return rows


@given(_edited(_path_rows(), PATH_EDITS))
@FUZZ
def test_fuzz_path_csv(rows):
    with tempfile.TemporaryDirectory() as tmp:
        fname = os.path.join(tmp, "path.csv")
        _write_rows(fname, rows)
        _assert_rejected(*_run(["var", "--input", fname, "--p", "2"]))


@given(_edited(_germ_rows(), GERM_EDITS))
@FUZZ
def test_fuzz_germ_csv(rows):
    with tempfile.TemporaryDirectory() as tmp:
        fname = os.path.join(tmp, "germ.csv")
        _write_rows(fname, rows)
        _assert_rejected(*_run(["sew", "--germ", fname, "--gamma", "2",
                                "--p2", "inf",
                                "--out", os.path.join(tmp, "o.json")]))


def _rde(d, tmp):
    return _run(["rde", "--driver", d, "--field", "builtin:rotation",
                 "--y0", "1.0,0.5", "--out", os.path.join(tmp, "sol.csv")])


@given(layout=st.sampled_from(["signature", "pairs"]), data=st.data())
@FUZZ
def test_fuzz_rough_dir(layout, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "rp")
        save_rough_dir(d, LIFT if layout == "signature" else FIELDS)
        meta_file = os.path.join(d, "meta.json")
        with open(meta_file) as fh:
            meta = json.load(fh)
        files = ["meta", "1.csv", "2.csv"] + ["2.pairs.csv"] * (layout == "pairs")
        target = data.draw(st.sampled_from(files))
        if target == "meta":
            key = data.draw(st.sampled_from(META_KEYS))
            if data.draw(st.booleans()):
                del meta[key]
            else:
                meta[key] = data.draw(st.sampled_from(BAD_JSON))
        else:
            fname = os.path.join(d, target)
            edits = (PAIR_EDITS if target == "2.pairs.csv"
                     else PATH_EDITS + ["first_row"])
            _write_rows(fname, data.draw(_edited(_read_rows(fname), edits)))
        with open(meta_file, "w") as fh:
            json.dump(meta, fh)
        _assert_rejected(*_rde(d, tmp))


@pytest.mark.parametrize("edit", PAIR_EDITS)
@given(data=st.data())
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
def test_pairs_file_edit_exits_1(edit, data):
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "rp")
        save_rough_dir(d, FIELDS)
        fname = os.path.join(d, "2.pairs.csv")
        _write_rows(fname, data.draw(_edited(_read_rows(fname), [edit])))
        code, lines = _rde(d, tmp)
        assert code == 1
        _assert_one_error_line(lines)


@given(st.data())
@FUZZ
def test_fuzz_mc_config(data):
    cfg = dict(CONFIG)
    edit = data.draw(st.sampled_from(["value", "unknown", "truncate",
                                      "no_experiment"]))
    if edit == "value":
        key = data.draw(st.sampled_from(
            ["experiment", "seed", "samples", "level", "p", "ns", "H", "dim",
             "gamma0", "p_tuple", "lengths", "kind", "coupled"]))
        cfg[key] = data.draw(st.sampled_from(
            [float("nan"), float("inf"), -float("inf"), None, [None],
             {"a": 1}]))
    elif edit == "unknown":
        cfg["workers"] = 2
    elif edit == "no_experiment":
        del cfg["experiment"]
    text = json.dumps(cfg)
    if edit == "truncate":
        text = text[: data.draw(st.integers(0, len(text) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        fname = os.path.join(tmp, "cfg.json")
        with open(fname, "w") as fh:
            fh.write(text)
        _assert_rejected(*_run(["mc", "--config", fname,
                                "--out", os.path.join(tmp, "o.csv")]))


@given(target=st.sampled_from(["path", "meta", "level", "config"]),
       blob=st.binary(max_size=200))
@FUZZ
def test_fuzz_arbitrary_bytes(target, blob):
    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "rp")
        save_rough_dir(d, LIFT)
        files = {"path": os.path.join(tmp, "path.csv"),
                 "meta": os.path.join(d, "meta.json"),
                 "level": os.path.join(d, "1.csv"),
                 "config": os.path.join(tmp, "cfg.json")}
        with open(files[target], "wb") as fh:
            fh.write(blob)
        if target == "path":
            code, lines = _run(["var", "--input", files["path"], "--p", "2"])
        elif target == "config":
            code, lines = _run(["mc", "--config", files["config"],
                                "--out", os.path.join(tmp, "o.csv")])
        else:
            code, lines = _rde(d, tmp)
        assert code in (0, 1, 2)
        if code:
            _assert_one_error_line(lines)
