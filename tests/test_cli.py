import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest

import besov_rough
from besov_rough import acceptance
from besov_rough.cli import (
    MAX_GRID_LEVEL,
    ExperimentConfig,
    load_rough_dir,
    main,
    save_rough_dir,
)
from besov_rough.controlled import ControlledPath, rough_integral
from besov_rough.grid import GridPath, UniformGrid, save_path_csv
from besov_rough.norms import BesovParams, INF
from besov_rough.rough import brownian_lift, chen_residual, lyons_extend


@pytest.fixture
def sin_csv(tmp_path):
    g = UniformGrid(1.0, 6)
    p = tmp_path / "sin.csv"
    save_path_csv(p, GridPath(g, np.sin(g.times())))
    return str(p)


@pytest.fixture
def planar_csv(tmp_path):
    g = UniformGrid(1.0, 6)
    t = g.times()
    p = tmp_path / "planar.csv"
    save_path_csv(p, GridPath(g, np.column_stack([np.sin(t), np.cos(2 * t)])))
    return str(p)


def test_cli_import_leaves_scipy_out():
    # every CLI run pays its imports; scipy alone took about 1 s of them
    src = os.path.dirname(os.path.dirname(besov_rough.__file__))
    code = ("import sys, besov_rough.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout.strip() == "[]"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "besov-rough" in capsys.readouterr().out


def test_norm_on_bundled_heaviside(capsys):
    fixture = resources.files("besov_rough") / "data" / "heaviside_l8.csv"
    code = main(["norm", "--input", str(fixture), "--alpha", "0.5",
                 "--p", "2", "--q", "inf", "--form", "dyadic"])
    assert code == 0
    out = capsys.readouterr().out
    value = float(out.split()[-1])
    assert abs(value - 1.0) <= 0.02


def test_norm_report_json(sin_csv, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["norm", "--input", sin_csv, "--alpha", "0.5", "--p", "2",
                 "--q", "2", "--form", "integral", "--out", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert set(data) == {"seminorm", "levels", "params"}
    assert len(data["levels"]) == 6
    assert {"n", "h", "lp_increment_norm"} <= set(data["levels"][0])


def test_malformed_csv_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    for text, why in [("t,v0\n0.0,1.0\n0.4,2.0\n1.0,3.0\n", "dyadic"),
                      ("t,v0\n0,0\n", "need 2^L + 1 nodes")]:
        bad.write_text(text)
        code = main(["norm", "--input", str(bad), "--alpha", "0.5", "--p", "2",
                     "--q", "2"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"
        assert why in err["message"]


def _single_json_error(capsys) -> dict:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("argv, bad", [
    (["norm", "--alpha", "0.5", "--p", "2", "--q", "2"], "nan"),
    (["var", "--p", "2"], "inf"),
])
def test_non_finite_csv_exit_1(tmp_path, capsys, argv, bad):
    g = UniformGrid(1.0, 3)
    vals = [repr(float(x)) for x in np.sin(g.times())]
    vals[4] = bad
    path = tmp_path / "path.csv"
    path.write_text("t,v0\n" + "".join(
        f"{t!r},{v}\n" for t, v in zip(g.times().tolist(), vals)))
    assert main(argv + ["--input", str(path)]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io"
    assert "non-finite" in err["message"]


_OVERFLOWING_PATHS = [
    # finite values whose increment 1e308 - (-1e308) is not
    ("t,v0\n0.0,0.0\n0.5,1e308\n1.0,-1e308\n",
     "non-finite increments in column v0"),
    # finite increments whose squares, summed for the magnitude, are not
    ("t,v0,v1\n0,0,0\n0.5,1e200,1e200\n1,-1e200,3\n",
     "sum of squared column spans is not finite"),
]


@pytest.mark.parametrize("argv", [
    ["norm", "--alpha", "0.5", "--p", "2", "--q", "2", "--form", "integral"],
    ["var", "--p", "2"],
    ["norm", "--alpha", "0.5", "--p", "2", "--q", "2"],
])
def test_overflowing_increments_csv_exit_1(tmp_path, capsys, argv):
    path = tmp_path / "path.csv"
    for text, message in _OVERFLOWING_PATHS:
        path.write_text(text)
        assert main(argv + ["--input", str(path)]) == 1
        err = _single_json_error(capsys)
        assert err["error"] == "io"
        assert message in err["message"]


def test_overflowing_level1_csv_exit_1(tmp_path, capsys):
    # a driver's level 1 is a path: its squared spans must not overflow
    rp = tmp_path / "rp"
    assert main(["lift", "--kind", "bm", "--level", "1", "--out", str(rp)]) == 0
    capsys.readouterr()
    (rp / "1.csv").write_text(_OVERFLOWING_PATHS[1][0])
    assert main(["rde", "--driver", str(rp), "--field", "builtin:rotation",
                 "--y0", "1.0,0.5", "--out", str(tmp_path / "sol.csv")]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io"
    assert _OVERFLOWING_PATHS[1][1] in err["message"]


def test_young_ode_non_contraction_exit_3(tmp_path, capsys):
    # cell increments of +-10: every one-cell Picard step has a factor ~5
    g = UniformGrid(1.0, 6)
    drv = tmp_path / "spiky.csv"
    save_path_csv(drv, GridPath(g, 10.0 * (np.arange(g.n) % 2)))
    code = main(["young-ode", "--driver", str(drv), "--field", "builtin:linear",
                 "--y0", "1.0", "--alpha", "0.9", "--p", "inf", "--q", "inf",
                 "--out", str(tmp_path / "sol.csv")])
    assert code == 3
    assert _single_json_error(capsys)["error"] == "numerical"


def test_regime_violation_exit_2(sin_csv, capsys):
    code = main(["norm", "--input", sin_csv, "--alpha", "1.5", "--p", "2",
                 "--q", "2"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "regime"


def test_var_command(sin_csv, capsys):
    assert main(["var", "--input", sin_csv, "--p", "2"]) == 0
    assert main(["var", "--input", sin_csv, "--p", "2", "--oscillation"]) == 0
    out = capsys.readouterr().out
    assert "pvariation" in out and "oscillation_variation" in out


def test_sew_command(tmp_path, capsys):
    # germ = increments of a path: zero remainder, -inf slope reported as null
    g = UniformGrid(1.0, 4)
    t = g.times()
    germ_file = tmp_path / "germ.csv"
    rows = ["i,j,v0"]
    for i in range(g.n):
        for j in range(i, g.n):
            rows.append(f"{i},{j},{math.sin(t[j]) - math.sin(t[i])!r}")
    germ_file.write_text("\n".join(rows) + "\n")
    out = tmp_path / "result.json"
    code = main(["sew", "--germ", str(germ_file), "--gamma", "2.0",
                 "--p2", "inf", "--q2", "inf", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["slope"] is None
    assert data["remainder_norm"] <= 1e-12
    assert len(data["integral_path"]) == g.n


def _no_nan(token):
    raise ValueError(f"{token} is not valid JSON")


@pytest.mark.parametrize("rows", [
    ["0,1,1.0"],
    ["0,1,1.0", "0,2,3.0", "1,2,1.5"],
    # 5 nodes, not additive: a single diagnostic level
    [f"{i},{j},{(j - i) ** 2 / 2 + i!r}" for i in range(5)
     for j in range(i + 1, 5)],
], ids=["2-nodes", "3-nodes", "5-nodes"])
def test_sew_small_germ_null_slope(tmp_path, capsys, rows):
    germ_file = tmp_path / "germ.csv"
    germ_file.write_text("\n".join(["i,j,v0"] + rows) + "\n")
    out = tmp_path / "result.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["sew", "--germ", str(germ_file), "--gamma", "2.0",
                     "--p2", "inf", "--q2", "inf", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    data = json.loads(out.read_text(), parse_constant=_no_nan)
    assert data["slope"] is None
    assert data["expected_slope"] == -1.0


@pytest.mark.parametrize("exponents", [
    ["--p2", "0"],
    ["--p2", "inf", "--q2", "0"],
    ["--p2=-inf"],
    ["--p2", "inf", "--q2", "-1"],
])
def test_sew_nonpositive_exponent_exit_2(tmp_path, capsys, exponents):
    germ_file = tmp_path / "germ.csv"
    germ_file.write_text("i,j,v0\n0,1,1.0\n0,2,3.0\n1,2,1.5\n")
    out = tmp_path / "result.json"
    code = main(["sew", "--germ", str(germ_file), "--gamma", "2.0",
                 *exponents, "--out", str(out)])
    assert code == 2
    assert _single_json_error(capsys)["error"] == "regime"
    assert not out.exists()


def test_young_ode_command(sin_csv, tmp_path):
    out = tmp_path / "sol.csv"
    code = main(["young-ode", "--driver", sin_csv, "--field", "builtin:linear",
                 "--y0", "1.0", "--alpha", "0.9", "--p", "inf", "--q", "inf",
                 "--out", str(out)])
    assert code == 0
    from besov_rough.grid import load_path_csv

    sol = load_path_csv(out)
    g = sol.grid
    assert np.abs(sol.values[:, 0] - np.exp(np.sin(g.times()))).max() < 1e-4


def test_lift_rde_extend_pipeline(planar_csv, tmp_path, capsys):
    rp = tmp_path / "rp"
    code = main(["lift", "--kind", "canonical", "--flavor", "geometric",
                 "--input", planar_csv, "--N", "2", "--alpha", "0.5",
                 "--p", "inf", "--q", "inf", "--out", str(rp)])
    assert code == 0
    sol = tmp_path / "sol.csv"
    rep = tmp_path / "rep.json"
    code = main(["rde", "--driver", str(rp), "--field", "builtin:rotation",
                 "--y0", "1.0,0.5", "--out", str(sol), "--report", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert {"iterations", "subinterval_boundaries", "controlled_norm",
            "davie_slope", "davie_norm"} <= set(report)
    rp3 = tmp_path / "rp3"
    code = main(["extend", "--input", str(rp), "--N", "3", "--out", str(rp3)])
    assert code == 0
    back = load_rough_dir(str(rp3))
    assert back.depth == 3
    assert chen_residual(back) < 1e-10


def test_rough_dir_roundtrip(tmp_path):
    # signature-backed paths round-trip bit-exactly through the O(n) layout
    g = UniformGrid(1.0, 5)
    params = BesovParams(0.45, 32.0, INF)
    ito = brownian_lift(2, g, 3, "ito", params)
    cases = {
        "ito": ito,
        "stratonovich": brownian_lift(2, g, 3, "stratonovich", params),
        "extended": lyons_extend(ito, 3),
    }
    ii, jj = np.triu_indices(g.n, k=1)
    for name, lift in cases.items():
        save_rough_dir(str(tmp_path / name), lift)
        meta = json.loads((tmp_path / name / "meta.json").read_text())
        assert meta["format"] == "signature"
        assert (tmp_path / name / "1.csv").read_text().count("\n") == g.n + 1
        back = load_rough_dir(str(tmp_path / name))
        assert back.params == lift.params and back.depth == lift.depth
        for k in range(1, lift.depth + 1):
            assert np.array_equal(back.level(k).pairs(ii, jj),
                                  lift.level(k).pairs(ii, jj))


def _faulty(g, pairs=((3, 11),)):
    lift = brownian_lift(2, g, 3, "ito", BesovParams(0.45, 32.0, INF))
    ii, jj = np.array(pairs).T
    return lift, lift.with_pairs(2, ii, jj, lift.level(2).pairs(ii, jj) + 1e-3)


def test_field_backed_dir_keeps_chen_defect(tmp_path):
    # a path with an explicit pair (a stored Chen defect) survives a save
    g = UniformGrid(1.0, 5)
    lift, faulty = _faulty(g)
    save_rough_dir(str(tmp_path / "rp"), faulty)
    meta = json.loads((tmp_path / "rp" / "meta.json").read_text())
    assert meta["format"] == "signature"
    assert sorted(os.listdir(tmp_path / "rp")) == [
        "1.csv", "2.csv", "2.pairs.csv", "meta.json"]
    assert (tmp_path / "rp" / "2.pairs.csv").read_text().splitlines()[1:] == [
        "3,11," + ",".join(map(repr, faulty.level(2).at(3, 11).tolist()))]
    back = load_rough_dir(str(tmp_path / "rp"))
    assert chen_residual(back) == chen_residual(faulty)
    assert chen_residual(back) == pytest.approx(1e-3, rel=1e-6)
    # its signature files are the clean lift's
    save_rough_dir(str(tmp_path / "clean"), lift)
    for f in ("meta.json", "1.csv", "2.csv"):
        assert ((tmp_path / "rp" / f).read_bytes()
                == (tmp_path / "clean" / f).read_bytes())
    # a clean save over the directory leaves no stale pairs behind
    save_rough_dir(str(tmp_path / "rp"), lift)
    assert not (tmp_path / "rp" / "2.pairs.csv").exists()
    assert chen_residual(load_rough_dir(str(tmp_path / "rp"))) < 1e-12
    # extension needs a multiplicative functional: exit 2
    save_rough_dir(str(tmp_path / "rp"), faulty)
    assert main(["extend", "--input", str(tmp_path / "rp"), "--N", "3",
                 "--out", str(tmp_path / "rp3")]) == 2


def test_pairs_file_rows_equal_to_chen_are_dropped(tmp_path, capsys):
    g = UniformGrid(1.0, 5)
    lift, faulty = _faulty(g, [(3, 11), (4, 5)])
    # the row (6, 20) holds its Chen value in every bit: no defect
    ii, jj = np.array([(3, 11), (4, 5), (6, 20)]).T
    values = lift.level(2).pairs(ii, jj)
    values[:2] += 1e-3
    d = tmp_path / "rp"
    save_rough_dir(str(d), lift.with_pairs(2, ii, jj, values))
    assert (d / "2.pairs.csv").read_text().count("\n") == 4
    back = load_rough_dir(str(d))
    keys, stored = back._pairs[2]
    assert keys.tolist() == [3 * g.n + 11, 4 * g.n + 5]
    assert stored.tobytes() == faulty._pairs[2][1].tobytes()
    assert chen_residual(back) == chen_residual(faulty)
    # more than grid.n pairs off Chen's relation: not held, exit 1
    ii, jj = np.triu_indices(g.n, k=1)
    ii, jj = ii[ii > 0][:g.n + 1], jj[ii > 0][:g.n + 1]
    rows = (lift.level(2).pairs(ii, jj) + 1e-3).tolist()
    (d / "2.pairs.csv").write_text("i,j,c0,c1,c2,c3\n" + "".join(
        f"{i},{j}," + ",".join(map(repr, row)) + "\n"
        for i, j, row in zip(ii, jj, rows)))
    capsys.readouterr()
    assert main(["rde", "--driver", str(d), "--field", "builtin:rotation",
                 "--y0", "1.0,0.5", "--out", str(tmp_path / "sol.csv")]) == 1
    err = _single_json_error(capsys)
    assert "at most grid.n" in err["message"]
    assert not (tmp_path / "sol.csv").exists()


def _edit_meta(**changes):
    def edit(d):
        meta = json.loads((d / "meta.json").read_text())
        for key, value in changes.items():
            if value is KeyError:
                del meta[key]
            else:
                meta[key] = value
        (d / "meta.json").write_text(json.dumps(meta))
    return edit


def _edit_level2(edit_row):
    def edit(d):
        lines = (d / "2.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines]
        for r, row in enumerate(rows):
            edit_row(r, row)
        (d / "2.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    return edit


def _nonzero_first_row(r, row):
    if r == 1:
        row[2] = "1e-9"


def _drop_last_column(r, row):
    row.pop()


# a directory in any layout but the signature one is named and sent to `lift`
LAYOUT = ["'format'", '"signature"', "`lift` again"]


@pytest.mark.parametrize("corrupt, words", [
    (_edit_level2(_nonzero_first_row), []),
    (_edit_level2(_drop_last_column), []),
    (_edit_meta(level=4), []),
    (_edit_meta(horizon=2.0), []),
    (_edit_meta(format="dense"), LAYOUT + ["'dense'"]),
    (_edit_meta(horizon=KeyError), []),
    (_edit_meta(alpha=KeyError), []),
    (_edit_meta(alpha=float("nan")), []),
    (_edit_meta(p=float("inf")), []),
    (_edit_meta(n="2"), []),
    (_edit_meta(N=2.0), []),
    (_edit_meta(level=True), []),
    (_edit_meta(level=64), []),
    (_edit_meta(format="pairwise"), LAYOUT + ["'pairwise'"]),
    (_edit_meta(format=KeyError), LAYOUT + ["missing"]),
], ids=["first-row", "width", "level", "grid", "format", "no-horizon",
        "no-alpha", "nan-alpha", "inf-p", "str-n", "float-N", "bool-level",
        "huge-level", "pairwise-format", "no-format"])
def test_malformed_signature_dir_exit_1(tmp_path, capsys, corrupt, words):
    g = UniformGrid(1.0, 5)
    d = tmp_path / "rp"
    save_rough_dir(str(d), brownian_lift(2, g, 3, "ito",
                                         BesovParams(0.45, 32.0, INF)))
    corrupt(d)
    code = main(["rde", "--driver", str(d), "--field", "builtin:rotation",
                 "--y0", "1.0,0.5", "--out", str(tmp_path / "sol.csv")])
    assert code == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io"
    assert all(w in err["message"] for w in words), err["message"]


@pytest.mark.parametrize("layout", ["signature", "pairs"])
def test_meta_level_is_checked_against_the_files_first(tmp_path, capsys,
                                                        layout):
    # a level-5 directory whose meta claims level 20: nothing is sized by
    # the claimed 2^20 + 1 nodes (8 MB an array) before the files refute it
    d, lift = tmp_path / "rp", brownian_lift(2, UniformGrid(1.0, 5), 3)
    if layout == "pairs":
        lift = _faulty(UniformGrid(1.0, 5))[1]
    save_rough_dir(str(d), lift)
    _edit_meta(level=20)(d)
    for argv in (["rde", "--driver", str(d), "--field", "builtin:rotation",
                  "--y0", "1.0,0.5", "--out", str(tmp_path / "sol.csv")],
                 ["extend", "--input", str(d), "--N", "3",
                  "--out", str(tmp_path / "rp3")]):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and _single_json_error(capsys)["error"] == "io"
        assert peak < 1 << 20, f"{argv[0]} peaked at {peak} bytes"


@pytest.mark.parametrize("target", ["path", "germ", "rough-dir"])
def test_oversized_csv_cell_exit_1(tmp_path, capsys, target):
    # csv refuses a cell above its field limit; that is a bad file, not a crash
    huge = "9" * (csv.field_size_limit() + 1)
    out = str(tmp_path / "out")
    if target == "path":
        bad = tmp_path / "path.csv"
        bad.write_text(f"t,v0\n0.0,{huge}\n0.5,1.0\n1.0,2.0\n")
        argv = ["norm", "--input", str(bad), "--alpha", "0.5", "--p", "2",
                "--q", "2"]
    elif target == "germ":
        bad = tmp_path / "germ.csv"
        bad.write_text(f"i,j,v0\n0,1,1.0\n1,2,{huge}\n0,2,0.5\n")
        argv = ["sew", "--germ", str(bad), "--gamma", "2.0", "--p2", "inf",
                "--q2", "inf", "--out", out]
    else:
        d = tmp_path / "rp"
        save_rough_dir(str(d), brownian_lift(2, UniformGrid(1.0, 3), 3))
        bad = d / "2.csv"
        lines = bad.read_text().splitlines()
        lines[2] = lines[2].split(",", 1)[0] + "," + huge
        bad.write_text("\n".join(lines) + "\n")
        argv = ["rde", "--driver", str(d), "--field", "builtin:rotation",
                "--y0", "1.0,0.5", "--out", out]
    assert main(argv) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io"
    assert f"{bad}:" in err["message"] and "field limit" in err["message"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ["--n", "5"], ["--n", "0"], ["--N", "5"], ["--N", "0"], ["--level", "-1"],
    ["--level", "0"], ["--level", "13"], ["--level", "40"],
    ["--horizon", "nan"], ["--horizon", "-1"], ["--flavor", "geometric"],
    ["--horizon", "1e308"],  # the lift overflows: a nan Chen residual
])
def test_lift_argument_errors_exit_1(tmp_path, capsys, argv):
    code = main(["lift", "--kind", "bm", "--level", "3",
                 "--out", str(tmp_path / "rp")] + argv)
    assert code == 1
    assert _single_json_error(capsys)["error"] == "io"
    assert not (tmp_path / "rp").exists()


@pytest.mark.parametrize("kind, flavor", [
    ("fbm", "stratonovich"), ("fbm", "geometric"),
    ("canonical", "stratonovich")])
def test_lift_flavor_the_kind_does_not_use_exit_1(tmp_path, capsys, kind,
                                                  flavor):
    drv = tmp_path / "drv.csv"
    drv.write_text("t,v0,v1\n0,0,1\n0.5,0.5,0.75\n1,0.25,0.5\n")
    argv = ["lift", "--kind", kind, "--level", "3", "--input", str(drv),
            "--out", str(tmp_path / "rp")]
    assert main(argv + ["--flavor", flavor]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io"
    assert f"--kind {kind} takes --flavor" in err["message"]
    assert not (tmp_path / "rp").exists()
    assert main(argv) == 0  # the default ito suits every kind


def test_extend_below_the_input_depth_exit_1(tmp_path, capsys):
    rp, out = tmp_path / "rp", tmp_path / "out"
    assert main(["lift", "--kind", "bm", "--level", "3", "--N", "3",
                 "--out", str(rp)]) == 0
    capsys.readouterr()
    assert main(["extend", "--input", str(rp), "--N", "2",
                 "--out", str(out)]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io"
    assert "--N 2" in err["message"] and "depth 3" in err["message"]
    assert not out.exists()
    # --N equal to the depth writes a copy
    assert main(["extend", "--input", str(rp), "--N", "3",
                 "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == sorted(os.listdir(rp))
    for f in os.listdir(rp):
        assert (out / f).read_bytes() == (rp / f).read_bytes()


def test_extend_overflow_exit_1(tmp_path, capsys):
    # the level-2 lift fits in float64, its level-4 extension does not
    rp, out = tmp_path / "rp", tmp_path / "rp4"
    assert main(["lift", "--kind", "bm", "--level", "3", "--horizon", "1e250",
                 "--out", str(rp)]) == 0
    capsys.readouterr()
    assert main(["extend", "--input", str(rp), "--N", "4",
                 "--out", str(out)]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io" and "chen_residual is nan" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, columns", [
    (["lift", "--kind", "canonical", "--out", "rp"], 5),
    (["var", "--p", "2", "--oscillation"], 2),
], ids=["lift-5-columns", "oscillation-2-columns"])
def test_path_columns_out_of_range_exit_1(tmp_path, capsys, argv, columns):
    g = UniformGrid(1.0, 4)
    path = tmp_path / "wide.csv"
    save_path_csv(path, GridPath(g, np.sin(np.outer(g.times(),
                                                    np.arange(1, columns + 1)))))
    out = tmp_path / "rp"
    argv = [str(out) if a == "rp" else a for a in argv]
    assert main(argv + ["--input", str(path)]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io" and f"{columns}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("y0", ["1.0,abc", "1.0,nan", ""])
def test_rde_bad_y0_exit_1(tmp_path, capsys, y0):
    d = tmp_path / "rp"
    save_rough_dir(str(d), brownian_lift(2, UniformGrid(1.0, 4), 3))
    code = main(["rde", "--driver", str(d), "--field", "builtin:rotation",
                 "--y0", y0, "--out", str(tmp_path / "sol.csv")])
    assert code == 1
    assert _single_json_error(capsys)["error"] == "io"


ROTATION = [[[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]]


def _rde_with_coeffs(tmp_path, text, y0="1.0,0.5"):
    d = tmp_path / "rp"
    save_rough_dir(str(d), brownian_lift(2, UniformGrid(1.0, 4), 3))
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(text)
    out = tmp_path / "sol.csv"
    code = main(["rde", "--driver", str(d), "--field", str(coeffs),
                 "--y0", y0, "--out", str(out)])
    return code, out


def test_rde_coeffs_file_matches_builtin(tmp_path, capsys):
    code, out = _rde_with_coeffs(
        tmp_path, json.dumps({"kind": "linear", "matrices": ROTATION}))
    assert code == 0
    ref = tmp_path / "ref.csv"
    assert main(["rde", "--driver", str(tmp_path / "rp"), "--field",
                 "builtin:rotation", "--y0", "1.0,0.5", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_sigmoid_field_writes_the_library_solve(tmp_path):
    # a 3-d state on a 3-d lift (rde) and on a 2-column driver (young-ode)
    from besov_rough.controlled import rde_solve
    from besov_rough.young import sigmoid_field, young_ode_solve

    y0 = [1.0, 0.5, -0.25]
    X = lyons_extend(brownian_lift(3, UniformGrid(1.0, 6), 4, "stratonovich"), 4)
    save_rough_dir(str(tmp_path / "rp"), X)
    g = UniformGrid(1.0, 8)
    t = g.times()
    driver = GridPath(g, np.column_stack([np.sin(3 * t), np.cos(2 * t)]))
    save_path_csv(tmp_path / "drv.csv", driver)
    runs = {
        "rde": (["--driver", str(tmp_path / "rp")],
                rde_solve(sigmoid_field(3, 3), load_rough_dir(
                    str(tmp_path / "rp")), y0).path),
        "young-ode": (["--driver", str(tmp_path / "drv.csv"), "--alpha", "0.9",
                       "--p", "inf", "--q", "inf"],
                      young_ode_solve(sigmoid_field(3, 2), driver, y0,
                                      BesovParams(0.9, INF, INF)).path),
    }
    for cmd, (argv, path) in runs.items():
        out, ref = tmp_path / f"{cmd}.csv", tmp_path / f"{cmd}.ref.csv"
        assert main([cmd, "--field", "builtin:sigmoid", "--y0", "1.0,0.5,-0.25",
                     "--out", str(out)] + argv) == 0
        save_path_csv(ref, path)
        assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("name", ["nosuch", "sigmoid-saturated"])
def test_unknown_builtin_field_exit_1(tmp_path, capsys, name):
    d = tmp_path / "rp"
    save_rough_dir(str(d), brownian_lift(2, UniformGrid(1.0, 4), 3))
    capsys.readouterr()
    out = tmp_path / "sol.csv"
    assert main(["rde", "--driver", str(d), "--field", f"builtin:{name}",
                 "--y0", "1.0,0.5", "--out", str(out)]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io" and name in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '{"kind": "linear"}',
    '{"kind": "quadratic", "matrices": %s}' % json.dumps(ROTATION),
    '{"kind": "linear", "matrices": "abc"}',
    '{"kind": "linear", "matrices": []}',
    '{"kind": "linear", "matrices": ["abc", "def"]}',
    '{"kind": "linear", "matrices": [[[0, -1], ["1", 0]], [[1, 0], [0, -1]]]}',
    '{"kind": "linear", "matrices": [[[0, -1], [1]], [[1, 0], [0, -1]]]}',
    '{"kind": "linear", "matrices": [[[0, -1, 0], [1, 0, 0]], [[1, 0], [0, -1]]]}',
    '{"kind": "linear", "matrices": [[[NaN, -1], [1, 0]], [[1, 0], [0, -1]]]}',
    '{"kind": "linear", "matrices": [[[0, -1], [1, 0]], [[1]]]}',
], ids=["list", "no-matrices", "kind", "str-matrices", "empty", "str-entry",
        "str-number", "ragged", "non-square", "nan", "mixed-sizes"])
def test_rde_malformed_coeffs_exit_1(tmp_path, capsys, text):
    code, out = _rde_with_coeffs(tmp_path, text)
    assert code == 1
    assert _single_json_error(capsys)["error"] == "io"
    assert not out.exists()


def _huge_lift(d):
    # fits in float64, but the solver's tau**gamma overflows
    assert main(["lift", "--kind", "bm", "--n", "2", "--level", "3",
                 "--horizon", "1e250", "--out", str(d)]) == 0


def _huge_level2(d):
    # level 2 skips the squared-span rule: finite entries whose products
    # overflow in the solution
    assert main(["lift", "--kind", "bm", "--n", "2", "--level", "3",
                 "--out", str(d)]) == 0
    path = d / "2.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    rows[3][1:3] = ["1e200", "1e200"]
    rows[-1][1:3] = ["-1e200", "3"]
    path.write_text("".join(",".join(r) + "\n" for r in rows))


@pytest.mark.parametrize("make", [_huge_lift, _huge_level2])
def test_rde_overflowing_driver_exit_1(tmp_path, capsys, make):
    d, out, rep = tmp_path / "rp", tmp_path / "sol.csv", tmp_path / "rep.json"
    make(d)
    capsys.readouterr()
    assert main(["rde", "--driver", str(d), "--field", "builtin:rotation",
                 "--y0", "1,0", "--out", str(out), "--report", str(rep)]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io" and "not finite" in err["message"]
    assert not out.exists() and not rep.exists()


def _overflowing_run(case, d):
    """argv of a run on valid-looking inputs whose result overflows float64:
    a germ whose sum passes 1e308, or a driver with increments of 1e150."""
    if case == "sew":
        (d / "germ.csv").write_text("i,j,v0\n0,1,1e308\n1,2,1e308\n0,2,0\n")
        return ["sew", "--germ", str(d / "germ.csv"), "--gamma", "2",
                "--p2", "inf"]
    g = UniformGrid(1.0, 3)
    save_path_csv(d / "big.csv", GridPath(g, 1e150 * (np.arange(g.n) % 2)))
    if case == "young-ode":
        return ["young-ode", "--driver", str(d / "big.csv"), "--field",
                "builtin:linear", "--y0", "1", "--alpha", "0.9", "--p", "inf",
                "--q", "inf"]
    assert main(["lift", "--kind", "canonical", "--input", str(d / "big.csv"),
                 "--N", "2", "--alpha", "0.5", "--p", "inf", "--q", "inf",
                 "--out", str(d / "rp")]) == 0
    save_path_csv(d / "y.csv", GridPath(g, np.full(g.n, 1e200)))
    save_path_csv(d / "yp.csv", GridPath(g, np.ones(g.n)))
    return ["integrate", "--driver", str(d / "rp"), "--y", str(d / "y.csv"),
            "--yprime", str(d / "yp.csv"), "--report", str(d / "rep.json")]


@pytest.mark.parametrize("case", ["sew", "integrate", "young-ode"])
def test_overflowing_result_exit_1(tmp_path, capsys, case):
    argv = _overflowing_run(case, tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io" and "not finite" in err["message"]
    assert not out.exists() and not (tmp_path / "rep.json").exists()


@pytest.mark.parametrize("matrices, y0", [
    (ROTATION + [[[1.0, 0.0], [0.0, 1.0]]], "1.0,0.5"),
    ([[[1.0]], [[2.0]]], "1.0,0.5"),
    (ROTATION, "1.0,0.5,2.0"),
], ids=["three-channels", "one-by-one", "state-dim"])
def test_rde_coeffs_dimension_mismatch_exit_2(tmp_path, capsys, matrices, y0):
    code, out = _rde_with_coeffs(
        tmp_path, json.dumps({"kind": "linear", "matrices": matrices}), y0)
    assert code == 2
    assert _single_json_error(capsys)["error"] == "regime"
    assert not out.exists()


def test_sew_far_index_germ_exit_1(tmp_path, capsys):
    # an 18-byte germ file naming node 4096 is rejected before any allocation
    germ = tmp_path / "far.csv"
    germ.write_text("i,j,v0\n0,4096,1.0\n")
    code = main(["sew", "--germ", str(germ), "--gamma", "2", "--p2", "inf",
                 "--out", str(tmp_path / "o.json")])
    assert code == 1
    assert "4096 rows" in _single_json_error(capsys)["message"]


def test_integrate_command(tmp_path, planar_csv):
    rp = tmp_path / "rp"
    main(["lift", "--kind", "canonical", "--flavor", "geometric", "--input",
          planar_csv, "--N", "2", "--alpha", "0.5", "--p", "inf", "--q", "inf",
          "--out", str(rp)])
    X = load_rough_dir(str(rp))
    g = X.grid
    # integrand (X, Id): Y is the (1, 2) row X_t, Y' the identity pairing
    y_file = tmp_path / "y.csv"
    yp_file = tmp_path / "yp.csv"
    save_path_csv(y_file, GridPath(g, X.base_path().values))
    yp_vals = np.tile(np.eye(2).reshape(-1), (g.n, 1))  # (1,2,2) row-major
    save_path_csv(yp_file, GridPath(g, yp_vals))
    sol = tmp_path / "isol.csv"
    rep = tmp_path / "irep.json"
    code = main(["integrate", "--driver", str(rp), "--y", str(y_file),
                 "--yprime", str(yp_file), "--out", str(sol),
                 "--report", str(rep)])
    assert code == 0
    data = json.loads(rep.read_text())
    assert data["remainder_norm"] < math.inf
    # int X dX against the geometric lift telescopes: Z_T = |X_T|^2/2 exactly
    from besov_rough.grid import load_path_csv

    z = load_path_csv(sol)
    x_end = X.base_path().values[-1]
    assert z.values[-1, 0] == pytest.approx(float(x_end @ x_end) / 2, abs=1e-10)


@pytest.mark.parametrize("which", ["y", "yprime"])
@pytest.mark.parametrize("grid", [UniformGrid(1.0, 5), UniformGrid(2.0, 6)],
                         ids=["other-level", "other-horizon"])
def test_integrate_off_grid_integrand_exit_1(tmp_path, capsys, which, grid):
    rp = tmp_path / "rp"
    X = brownian_lift(2, UniformGrid(1.0, 6), 5)
    save_rough_dir(str(rp), X)
    files = {}
    for name, dim in (("y", 2), ("yprime", 4)):
        g = grid if name == which else X.grid
        files[name] = tmp_path / f"{name}.csv"
        save_path_csv(files[name], GridPath(g, np.ones((g.n, dim))))
    code = main(["integrate", "--driver", str(rp), "--y", str(files["y"]),
                 "--yprime", str(files["yprime"]),
                 "--out", str(tmp_path / "isol.csv")])
    assert code == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io" and "driver's grid" in err["message"]
    assert not (tmp_path / "isol.csv").exists()


def test_integrate_two_integrand_rows_match_the_library(tmp_path):
    # m = 2 on an n = 2 driver: column a*n + b of --y is Y[a, b] and column
    # a*n*n + j*n + k of --yprime is Y'[a, j, k]
    rp = tmp_path / "rp"
    X = brownian_lift(2, UniformGrid(1.0, 6), 13)
    save_rough_dir(str(rp), X)
    m, n, g = 2, 2, X.grid
    rng = np.random.default_rng(17)
    y = np.cumsum(rng.standard_normal((g.n, m * n)), axis=0) * 0.1
    yp = rng.standard_normal((g.n, m * n * n))
    save_path_csv(tmp_path / "y.csv", GridPath(g, y))
    save_path_csv(tmp_path / "yp.csv", GridPath(g, yp))
    out, rep = tmp_path / "z.csv", tmp_path / "z.json"
    assert main(["integrate", "--driver", str(rp), "--y", str(tmp_path / "y.csv"),
                 "--yprime", str(tmp_path / "yp.csv"), "--out", str(out),
                 "--report", str(rep)]) == 0
    Y, Yp = np.empty((m, n, g.n)), np.empty((m, n, n, g.n))
    for a in range(m):
        for j in range(n):
            Y[a, j] = y[:, a * n + j]
            for k in range(n):
                Yp[a, j, k] = yp[:, a * n * n + j * n + k]
    z, want = rough_integral(ControlledPath(X, Y, Yp), report=True)
    save_path_csv(tmp_path / "lib.csv", z.y_path())
    assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()
    assert json.loads(rep.read_text()) == want


@pytest.mark.parametrize("command", ["rde", "integrate"])
def test_level_one_driver_exit_2(tmp_path, capsys, planar_csv, command):
    rp = tmp_path / "rp"
    assert main(["lift", "--kind", "canonical", "--input", planar_csv,
                 "--N", "1", "--out", str(rp)]) == 0
    out = tmp_path / "out.csv"
    if command == "rde":
        argv = ["rde", "--driver", str(rp), "--field", "builtin:rotation",
                "--y0", "1.0,0.5"]
    else:
        g = load_rough_dir(str(rp)).grid
        save_path_csv(tmp_path / "yp.csv", GridPath(g, np.ones((g.n, 4))))
        argv = ["integrate", "--driver", str(rp), "--y", planar_csv,
                "--yprime", str(tmp_path / "yp.csv")]
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = _single_json_error(capsys)
    assert err["error"] == "regime" and "depth >= 2" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["norm", "--input", "{t}", "--alpha", "0.4", "--p", "2", "--q", "inf"],
    ["var", "--input", "{t}", "--p", "2"],
    ["young-ode", "--driver", "{t}", "--field", "builtin:sigmoid", "--y0",
     "1.0", "--alpha", "0.9", "--p", "inf", "--q", "inf", "--out", "{o}"],
    ["lift", "--kind", "canonical", "--input", "{t}", "--out", "{o}"],
    ["integrate", "--driver", "{rp}", "--y", "{t}", "--yprime", "{t}",
     "--out", "{o}"],
], ids=["norm", "var", "young-ode", "lift", "integrate"])
def test_path_csv_without_value_columns_exit_1(tmp_path, capsys, argv):
    t_only = tmp_path / "t.csv"
    t_only.write_text("t\n0\n0.25\n0.5\n0.75\n1\n")
    save_rough_dir(str(tmp_path / "rp"), brownian_lift(2, UniformGrid(1.0, 2), 3))
    names = {"t": t_only, "o": tmp_path / "out", "rp": tmp_path / "rp"}
    assert main([a.format(**names) for a in argv]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io" and "no value columns" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["var", "--p", "nan"],
    ["var", "--p", "inf"],
    ["norm", "--alpha", "nan", "--p", "2", "--q", "2"],
    ["norm", "--alpha", "0.5", "--p", "nan", "--q", "2"],
    ["norm", "--alpha", "0.5", "--p", "2", "--q", "NaN"],
    ["sew", "--gamma", "2.0", "--p2", "nan"],
    ["sew", "--gamma", "2.0", "--p2", "inf", "--q2", "nan"],
    ["sew", "--gamma", "inf", "--p2", "inf"],
    ["sew", "--gamma", "nan", "--p2", "inf"],
    ["young-ode", "--field", "builtin:linear", "--y0", "1.0",
     "--alpha", "inf", "--p", "inf", "--q", "inf"],
    ["lift", "--kind", "fbm", "--H", "nan"],
    ["lift", "--kind", "fbm", "--H", "inf"],
    ["lift", "--kind", "bm", "--alpha", "nan"],
])
def test_non_finite_flag_exit_1(sin_csv, tmp_path, capsys, argv):
    germ = tmp_path / "germ.csv"
    germ.write_text("i,j,v0\n0,1,1.0\n")
    inputs = {"var": ["--input", sin_csv], "norm": ["--input", sin_csv],
              "sew": ["--germ", str(germ)], "young-ode": ["--driver", sin_csv],
              "lift": ["--level", "3"]}[argv[0]]
    out = tmp_path / "out"
    code = main(argv + inputs + ([] if argv[0] in ("var", "norm")
                                 else ["--out", str(out)]))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "io"
    assert not out.exists()


def test_mc_command_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "bm-ynp", "samples": 30, "level": 7,
        "ns": [3, 4], "p": 2.0, "seed": 5,
    }))
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["mc", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["mc", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()  # byte-identical reruns
    header = out1.read_text().splitlines()[0]
    assert header == "key,statistic,estimate,stderr,samples"


def test_fbm_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the fBm factor and its products run in an order fixed by the code, not
    # by how OpenBLAS splits the work among its threads
    src = os.path.dirname(os.path.dirname(besov_rough.__file__))
    cfg = tmp_path / "fbm.json"
    cfg.write_text(json.dumps({
        "experiment": "fbm-ynp", "samples": 3, "level": 9, "ns": [3, 5],
        "p": 4.0, "H": 0.4, "dim": 2, "seed": 5,
    }))
    code = "import sys; from besov_rough.cli import main; sys.exit(main(sys.argv[1:]))"
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        mc_out, lift_out = tmp_path / f"mc{threads}.csv", tmp_path / f"rp{threads}"
        for argv in (["mc", "--config", str(cfg), "--out", str(mc_out)],
                     ["lift", "--kind", "fbm", "--n", "2", "--level", "9",
                      "--H", "0.4", "--seed", "3", "--out", str(lift_out)]):
            subprocess.run([sys.executable, "-c", code, *argv], env=env,
                           check=True, capture_output=True)
        outputs.append([mc_out.read_bytes()] + [
            (lift_out / name).read_bytes()
            for name in ("meta.json", "1.csv", "2.csv")])
    assert outputs[0] == outputs[1]


def test_mc_out_of_memory_exit_1(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.22 GiB")

    monkeypatch.setattr("besov_rough.cli.pprod_bdg_experiment", exhausted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "pprod-bdg", "samples": 4,
                               "lengths": [8]}))
    out = tmp_path / "o.csv"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "memory"
    assert "1.22 GiB" in err["message"]
    assert not out.exists()


def test_mc_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "bm-ynp", "bogus": 3}')
    code = main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 1


@pytest.mark.parametrize("key, value", [
    ("workers", 2), ("tolerance_overrides", {"01": 0.1}),
])
def test_mc_removed_keys_rejected(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bm-ynp", key: value}))
    code = main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io" and key in err["message"]


def test_workers_flag_removed(sin_csv, capsys):
    code = main(["--workers", "2", "norm", "--input", sin_csv, "--alpha", "0.5",
                 "--p", "2", "--q", "2"])
    assert code == 1
    assert _single_json_error(capsys)["error"] == "io"


@pytest.mark.parametrize("text", [
    '{"experiment": "bm-ynp", "p": NaN}',
    '{"experiment": "bm-ynp", "H": Infinity}',
    '{"experiment": "bm-ynp", "p_tuple": [8.0, -Infinity, 4.0]}',
    '{"experiment": "bm-ynp", "samples": "30"}',
    '{"experiment": "bm-ynp", "seed": true}',
    '{"experiment": "bm-ynp", "level": 7.0}',
    '{"experiment": "bm-ynp", "ns": [3, 4.5]}',
    '{"experiment": "pprod-bdg", "coupled": 1}',
    '{"experiment": "bm-ynp", "samples": 1}',
    '{"experiment": "bm-ynp", "samples": 0}',
    '{"experiment": "fbm-ynp", "ns": []}',
    '{"experiment": "bm-ynp", "ns": [0, 4]}',
    '{"experiment": "bm-ynp", "level": 5, "ns": [4, 6]}',
    '{"experiment": "pprod-bdg", "lengths": [100]}',
    '{"experiment": "pprod-bdg", "lengths": [0]}',
    '{"experiment": "pprod-bdg", "lengths": [1]}',
    '{"experiment": "pprod-bdg", "lengths": []}',
    '{"experiment": "pprod-bdg", "lengths": [128, 8192]}',
    '{"experiment": "pprod-bdg", "lengths": [1099511627776]}',
    '{"experiment": "bm-ynp", "level": 13}',
    '{"experiment": "fbm-ynp", "level": 40, "ns": [4]}',
    '{"experiment": "fbm-ynp", "dim": 0}',
    '{"experiment": "bm-ynp", "dim": 5}',
    '{"experiment": "bm-ynp", "p": -1.0}',
    '{"experiment": "bm-ynp", "p": 0}',
    '{"experiment": 3}',
    '[{"experiment": "bm-ynp"}]',
    '5',
    '{"experiment": "bm-ynp", "level": 6, "samples": 4, "ns": [3, 3]}',
    '{"experiment": "fbm-ynp", "level": 6, "samples": 4, "ns": [4, 3, 4]}',
    '{"experiment": "bm-ynp", "level": 1099511627776}',
    '{"experiment": "pprod-bdg", "p_tuple": [8.0, 8.0]}',
    '{"experiment": "pprod-bdg", "q_tuple": [8.0, 8.0, 4.0, 4.0]}',
    '{"experiment": "pprod-bdg", "r_tuple": []}',
    '{"experiment": "pprod-bdg", "p_tuple": [0.0, 8.0, 4.0]}',
    '{"experiment": "pprod-bdg", "p_tuple": [-4.0, 2.0, 4.0]}',
    '{"experiment": "pprod-bdg", "kind": "cauchy"}',
    '{"experiment": "bm-ynp", "kind": "cauchy"}',
    '{"experiment": "bm-ynp", "level": 12, "ns": [4, 12], "p": 200}',
    '{"experiment": "fbm-ynp", "level": 8, "ns": [4, 8], "H": 0.75, "p": 171}',
])
def test_mc_malformed_config_exit_1(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(["mc", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert _single_json_error(capsys)["error"] == "io"
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("p, code", [(255, 1), (40, 0)])
def test_mc_overflowing_moments_exit_1(tmp_path, capsys, p, code):
    # p = 255 passes the window-scale rule, but the statistic's variance
    # and the oracle's stderr overflow float64; p = 40 writes finite rows
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bm-ynp", "samples": 2,
                               "level": 8, "ns": [4, 8], "p": p}))
    out = tmp_path / "o.csv"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == code
    if code:
        assert "not finite" in _single_json_error(capsys)["message"]
        assert not out.exists()
        return
    with open(out) as fh:
        cells = [v for r in csv.DictReader(fh) for v in (r["estimate"],
                                                         r["stderr"]) if v]
    assert len(cells) == 11 and all(math.isfinite(float(v)) for v in cells)


def test_mc_accepts_the_maximum_level(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bm-ynp", "samples": 2,
                               "level": MAX_GRID_LEVEL,
                               "ns": [MAX_GRID_LEVEL]}))
    out = tmp_path / "o.csv"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # one n has no variance slope: an empty cell, as for the stderr cells
    assert [r["estimate"] for r in rows
            if r["statistic"] == "variance_log2_slope"] == [""]


def test_mc_p_just_under_the_scale_bound_runs(tmp_path):
    # p * max(ns) * H = 1022.4: the window scale 2^(n p H) stays finite
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "fbm-ynp", "samples": 2,
                               "level": 8, "ns": [8], "H": 0.9, "p": 142.0}))
    out = tmp_path / "o.csv"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert all(math.isfinite(float(r["estimate"])) for r in rows)


def test_config_roundtrip():
    cfg = ExperimentConfig(experiment="pprod-bdg", samples=11,
                           lengths=[64, 128])
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_usage_error_exit_code(capsys):
    assert main(["norm"]) == 1  # missing required arguments -> io error


def test_accept_subset(capsys):
    code = main(["accept", "--ids", "01,03"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2


def test_accept_unknown_id_exit_1(capsys):
    assert main(["accept", "--ids", "01,99"]) == 1
    err = _single_json_error(capsys)
    assert err["error"] == "io"
    assert "99" in err["message"] and "01,02" in err["message"]


def test_accept_failing_criterion_exit_4(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [("01", "always fails", lambda: {"passed": False})])
    assert main(["accept", "--ids", "01"]) == 4
    assert "[FAIL] 01" in capsys.readouterr().out


def test_main_calls_in_one_process_run_as_fresh(tmp_path, capsys):
    # the parser is built once and reused; each call still parses alone
    from besov_rough.cli import _build_parser

    def files(d):
        return {f: (d / f).read_bytes() for f in sorted(os.listdir(d))}

    lift = ["lift", "--kind", "bm", "--n", "2", "--level", "5", "--seed", "3"]
    assert main(lift + ["--out", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out.startswith("chen_residual ")
    assert main(["lift", "--kind", "bm"]) == 1  # --out missing
    assert _single_json_error(capsys)["error"] == "io"
    assert main(["extend", "--input", str(tmp_path / "a"), "--N", "3",
                 "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.startswith("extended to level 3;")
    assert json.loads((tmp_path / "b" / "meta.json").read_text())["N"] == 3
    assert main(lift + ["--out", str(tmp_path / "c")]) == 0
    assert files(tmp_path / "a") == files(tmp_path / "c")
    assert _build_parser() is _build_parser()


def test_cli_import_leaves_acceptance_out():
    # only `accept` imports the acceptance suite; an unknown id still
    # exits 1 and lists the valid ones
    code = ("import sys; import besov_rough.cli as cli;"
            " print('besov_rough.acceptance' in sys.modules);"
            " print(cli.main(['accept', '--ids', '99']))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == ["False", "1"]
    err = json.loads(run.stderr)
    assert err["error"] == "io" and "valid ids: 01,02," in err["message"]
