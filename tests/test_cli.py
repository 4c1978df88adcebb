import csv
import json
import math
import os
import subprocess
import sys
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
from besov_rough.grid import GridPath, TwoParamField, UniformGrid, save_path_csv
from besov_rough.norms import BesovParams, INF
from besov_rough.rough import RoughPath, brownian_lift, chen_residual, lyons_extend


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
    bad.write_text("t,v0\n0.0,1.0\n0.4,2.0\n1.0,3.0\n")
    code = main(["norm", "--input", str(bad), "--alpha", "0.5", "--p", "2",
                 "--q", "2"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "io"
    assert "dyadic" in err["message"]


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


def _write_pairwise_dir(path, X):
    """The pairwise layout as earlier versions wrote it (no "format" key)."""
    path.mkdir()
    alpha, p, _ = X.params.as_tuple
    meta = {"n": X.n, "N": X.depth, "level": X.grid.level,
            "horizon": X.grid.horizon, "alpha": alpha, "p": p, "q": None}
    (path / "meta.json").write_text(json.dumps(meta))
    ii, jj = np.triu_indices(X.grid.n, k=1)
    for k in range(1, X.depth + 1):
        lines = ["i,j," + ",".join(f"c{c}" for c in range(X.n**k))]
        for i, j, row in zip(ii, jj, X.level(k).pairs(ii, jj)):
            lines.append(f"{i},{j}," + ",".join(repr(float(v)) for v in row))
        (path / f"{k}.csv").write_text("\n".join(lines) + "\n")


def test_pairwise_dir_matches_signature_pipeline(tmp_path):
    g = UniformGrid(1.0, 6)
    lift = brownian_lift(2, g, 11, "ito", BesovParams(0.45, 32.0, INF))
    _write_pairwise_dir(tmp_path / "old", lift)
    save_rough_dir(str(tmp_path / "new"), lift)
    for name in ("old", "new"):
        d = tmp_path / name
        assert main(["extend", "--input", str(d), "--N", "3",
                     "--out", str(tmp_path / f"{name}3")]) == 0
        assert main(["rde", "--driver", str(d), "--field", "builtin:rotation",
                     "--y0", "1.0,0.5", "--out", str(d / "sol.csv"),
                     "--report", str(d / "rep.json")]) == 0
    for out in ("sol.csv", "rep.json"):
        assert ((tmp_path / "old" / out).read_bytes()
                == (tmp_path / "new" / out).read_bytes())
    # a field-backed extension is written pairwise, a signature one is not
    assert json.loads((tmp_path / "old3" / "meta.json").read_text())[
        "format"] == "pairwise"
    old3 = load_rough_dir(str(tmp_path / "old3"))
    new3 = load_rough_dir(str(tmp_path / "new3"))
    ii, jj = np.triu_indices(g.n, k=1)
    for k in (1, 2, 3):
        assert np.abs(old3.level(k).pairs(ii, jj)
                      - new3.level(k).pairs(ii, jj)).max() <= 1e-12


def test_field_backed_dir_keeps_chen_defect(tmp_path):
    g = UniformGrid(1.0, 5)
    lift = brownian_lift(2, g, 3, "ito", BesovParams(0.45, 32.0, INF))
    dense = lift.level(2).to_dense().copy()
    dense[3, 11] += 1e-3
    faulty = RoughPath.from_fields(
        g, lift.params,
        [lift.level(1).materialize(), TwoParamField(g, 4, dense=dense)])
    save_rough_dir(str(tmp_path / "rp"), faulty)
    meta = json.loads((tmp_path / "rp" / "meta.json").read_text())
    assert meta["format"] == "pairwise"
    back = load_rough_dir(str(tmp_path / "rp"))
    assert chen_residual(back) == chen_residual(faulty)
    assert chen_residual(back) == pytest.approx(1e-3, rel=1e-6)


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


@pytest.mark.parametrize("corrupt", [
    _edit_level2(_nonzero_first_row),
    _edit_level2(_drop_last_column),
    _edit_meta(level=4),
    _edit_meta(horizon=2.0),
    _edit_meta(format="dense"),
    _edit_meta(horizon=KeyError),
    _edit_meta(alpha=KeyError),
    _edit_meta(alpha=float("nan")),
    _edit_meta(p=float("inf")),
    _edit_meta(n="2"),
    _edit_meta(N=2.0),
    _edit_meta(level=True),
], ids=["first-row", "width", "level", "grid", "format", "no-horizon",
        "no-alpha", "nan-alpha", "inf-p", "str-n", "float-N", "bool-level"])
def test_malformed_signature_dir_exit_1(tmp_path, capsys, corrupt):
    g = UniformGrid(1.0, 5)
    d = tmp_path / "rp"
    save_rough_dir(str(d), brownian_lift(2, g, 3, "ito",
                                         BesovParams(0.45, 32.0, INF)))
    corrupt(d)
    code = main(["rde", "--driver", str(d), "--field", "builtin:rotation",
                 "--y0", "1.0,0.5", "--out", str(tmp_path / "sol.csv")])
    assert code == 1
    assert _single_json_error(capsys)["error"] == "io"


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
])
def test_lift_argument_errors_exit_1(tmp_path, capsys, argv):
    code = main(["lift", "--kind", "bm", "--level", "3",
                 "--out", str(tmp_path / "rp")] + argv)
    assert code == 1
    assert _single_json_error(capsys)["error"] == "io"
    assert not (tmp_path / "rp").exists()


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


def test_mc_accepts_the_maximum_level(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bm-ynp", "samples": 2,
                               "level": MAX_GRID_LEVEL,
                               "ns": [MAX_GRID_LEVEL]}))
    out = tmp_path / "o.csv"
    assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


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
