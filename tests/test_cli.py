"""Command-line interface: subcommands, file formats, exit codes,
byte-stability, schema conformance."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from wavecut.cli import build_parser, main, parse_grid, parse_k_grid
from wavecut.output import fmt, write_table

jsonschema = pytest.importorskip("jsonschema")


def run_cli(args, capsys=None):
    return main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def csv_module_bytes(names, columns):
    """What csv.writer writes for the header and the fmt strings of the
    columns: it quotes any field that needs quoting, so these bytes equal
    the plain comma join only when no field does."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(names)
    w.writerows(zip(*([fmt(v) for v in columns[n]] for n in names)))
    return buf.getvalue().encode()


def child_env():
    """Environment in which a child finds the package from src/ in an
    uninstalled checkout."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


def test_parse_grid():
    g = parse_grid("0:6:61")
    assert len(g) == 61 and g[0] == 0.0 and g[-1] == 6.0
    assert np.allclose(parse_grid("2:2:1"), [2.0])
    kg = parse_k_grid("im:0.1:5:10")
    assert kg[0] == 0.1j and kg[-1] == 5j
    kg = parse_k_grid("re:1:3:3")
    assert kg[1] == 2.0


def test_parse_grid_errors():
    from wavecut.cli import UsageError
    with pytest.raises(UsageError):
        parse_grid("1:2")
    with pytest.raises(UsageError):
        parse_grid("a:b:c")
    with pytest.raises(UsageError):
        parse_grid("0:1:0")
    for text in ("nan:-50:3", "10:inf:2", "-inf:0:2", "0:nan:1"):
        with pytest.raises(UsageError, match="finite"):
            parse_grid(text)


@pytest.mark.parametrize("argv", [
    ["asymptotics", "--law", "far32", "--R", "nan:-50:3", "--y", "0:1:2"],
    ["asymptotics", "--law", "sd35", "--R", "10:inf:2", "--y", "0:1:2"],
    ["factor", "--k-grid", "im:nan:1:2"],
], ids=["far32-R-nan", "sd35-R-inf", "factor-k-nan"])
def test_non_finite_grid_end_is_a_usage_error(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_factor_at_K(tmp_path, capsys):
    rc = main(["factor", "--a", "1", "--k0", "2", "--at-K",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0.9732490" in out
    names, rows = read_csv(tmp_path / "factor.csv")
    assert names == ["re_k", "im_k", "re_splus", "im_splus", "method",
                     "err_est"]
    assert float(rows[0][0]) == pytest.approx(math.sqrt(5.0))


def test_factor_oracle_grid(tmp_path, capsys):
    rc = main(["factor", "--a", "1", "--k0", "2",
               "--k-grid", "im:0.1:5:10", "--check-oracle",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max rel dev" in out
    dev = float(out.split("max rel dev closed form vs exp(-J):")[1].split()[0])
    assert dev <= 1e-6
    _, rows = read_csv(tmp_path / "factor.csv")
    assert len(rows) == 10


def test_factor_oracle_real_axis_near_minus_k0(tmp_path, capsys):
    # the oracle's limit from above shrinks its step as k nears -k0
    rc = main(["factor", "--a", "1", "--k0", "2",
               "--k-grid=re:-2.01:-2.0001:3", "--check-oracle",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    dev = float(out.split("max rel dev closed form vs exp(-J):")[1].split()[0])
    assert dev <= 1e-6


@pytest.mark.parametrize("grid", ["re:-3:3:7", "re:-3:-2.5:2"])
@pytest.mark.parametrize("oracle", [True, False])
def test_factor_real_axis_left_of_minus_k0(tmp_path, capsys, grid, oracle):
    # real k < -k0 lies on the closed form's own cuts: S+ must be the limit
    # from above (the side j_direct takes); k = -k0 is the zero of S+,
    # where J diverges and the relative oracle deviation is undefined
    from wavecut.model import ReducedParams
    from wavecut.wiener_hopf import j_direct

    rc = main(["factor", "--a", "1", "--k0", "2", f"--k-grid={grid}",
               "--out", str(tmp_path)] + (["--check-oracle"] if oracle else []))
    err = capsys.readouterr().err
    if oracle and grid == "re:-3:3:7":
        assert rc == 2
        assert "k = -k0" in err
        assert not (tmp_path / "factor.csv").exists()
        return
    assert rc == 0
    _, rows = read_csv(tmp_path / "factor.csv")
    rp = ReducedParams.from_a_k0(1.0, 2.0)
    for row in rows:
        k = complex(float(row[0]), float(row[1]))
        val = complex(float(row[2]), float(row[3]))
        if k == -2.0:
            assert val == 0
            continue
        ref = np.exp(-j_direct(k, rp, tol=1e-9))
        assert abs(val - ref) <= 1e-6 * abs(ref), (k, val, ref)
    assert abs(complex(float(rows[0][2]), float(rows[0][3]))
               - (0.70106 + 0.09230j)) < 1e-5


def test_factor_requires_input(tmp_path):
    assert main(["factor", "--out", str(tmp_path)]) == 2


def test_wavefunction_grid_csv(tmp_path):
    rc = main(["wavefunction", "--R", "-4:-1:4", "--y", "0:2:3",
               "--out", str(tmp_path)])
    assert rc == 0
    names, rows = read_csv(tmp_path / "wavefunction.csv")
    assert names == ["R", "y", "re_psi", "im_psi", "abs2", "err_est",
                     "method", "converged"]
    assert len(rows) == 12
    # abs2 column consistent with re/im
    for row in rows:
        re, im, a2 = float(row[2]), float(row[3]), float(row[4])
        assert a2 == pytest.approx(re * re + im * im, rel=1e-12)


def test_wavefunction_rejects_boundary(tmp_path):
    # scan_grid's ValueError on R = 0 comes before any output
    assert main(["wavefunction", "--R", "-1:1:3", "--y", "0:1:2",
                 "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())
    assert main(["wavefunction", "--R", "bad", "--y", "0:1:2",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args", [
    ["--R", "nan:-1:2", "--y", "0:1:2"],
    ["--R=-inf:-inf:1", "--y", "0:1:2"],
    ["--R", "-2:-1:2", "--y", "0:1:2", "--tol", "0"],
    ["--R", "-2:-1:2", "--y", "0:1:2", "--a", "nan"],
    ["--R", "-2:-1:2", "--y", "0:1:2", "--eps", "1e-3"],
    ["--R", "-2:-1:2", "--y", "0:1:2", "--method", "far32"],
    ["--R", "-3:-3:1", "--y", "0:0:1", "--method", "regional-noleg"],
], ids=["R-nan", "R-inf", "tol-zero", "a-nan", "eps", "method-far32",
        "method-regional-noleg"])
def test_wavefunction_rejects_invalid_input(tmp_path, args):
    # argparse reports an unknown option or choice by SystemExit(2)
    try:
        rc = main(["wavefunction", *args, "--out", str(tmp_path)])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2


@pytest.mark.parametrize("argv, match", [
    (["wavefunction", "--a", "0", "--k0", "2", "--R", "-1:1:2", "--y", "0:1:2",
      "--method", "unified", "--tol", "1e-4"], "cannot separate the pole K"),
    (["wavefunction", "--a", "1e-8", "--k0", "0.5", "--R", "-1:1:2", "--y",
      "0:1:2", "--method", "unified", "--tol", "1e-4"],
     "cannot separate the pole K"),
    (["wavefunction", "--R", "3e5:3e5:1", "--y", "0.5:0.5:1", "--method",
      "unified", "--tol", "1e-4"], "beyond the unified line's reach"),
    (["wavefunction", "--R", "-1:-1:1", "--y", "1e6:1e6:1", "--method",
      "unified", "--tol", "1e-4"], "|y| = 1e+06 is beyond the unified line's "
     "reach"),
    (["factor", "--a", "0", "--k0", "0", "--at-K"], "K = 0"),
    (["wavefunction", "--a", "0", "--k0", "0", "--R", "-1:1:2", "--y",
      "0:1:2"], "K = 0"),
], ids=["unified-a-zero", "unified-weak", "unified-far", "unified-far-y",
        "factor-no-wave", "wavefunction-no-wave"])
def test_parameters_without_a_route_are_usage_errors(tmp_path, capsys, argv,
                                                      match):
    # a typed error before any output, not NaN rows or a division by zero
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert match in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_wavefunction_unified_method(tmp_path):
    # the eps ladder's err_est (5.9e-5 and 4.6e-5 here) exceeds the
    # default tol 1e-6, so no sample is converged and the run exits 3
    rc = main(["wavefunction", "--R", "-3:-3:1", "--y", "0:1:2",
               "--method", "unified", "--out", str(tmp_path)])
    assert rc == 3
    _, rows = read_csv(tmp_path / "wavefunction.csv")
    assert rows[0][6] == "unified_a7"
    assert [r[7] for r in rows] == ["false", "false"]
    # agrees with the regional route
    rc = main(["wavefunction", "--R", "-3:-3:1", "--y", "0:1:2",
               "--method", "regional", "--format", "json",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "wavefunction.json").read_text())
    uni = complex(float(rows[0][2]), float(rows[0][3]))
    reg = complex(doc["columns"]["re_psi"][0], doc["columns"]["im_psi"][0])
    assert abs(uni - reg) / abs(reg) < 1e-4
    rc = main(["wavefunction", "--R", "-3:-3:1", "--y", "0:1:2",
               "--method", "unified", "--tol", "1e-4", "--out",
               str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "wavefunction.csv")
    assert [r[7] for r in rows] == ["true", "true"]


def test_json_output_schema(tmp_path):
    rc = main(["factor", "--at-K", "--format", "json", "--out",
               str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "factor.json").read_text())
    shipped = pathlib.Path(__file__).resolve().parent.parent / "docs" / \
        "output_schema.json"
    jsonschema.validate(doc, json.loads(shipped.read_text()))
    assert doc["metadata"]["artifact_version"]
    assert doc["metadata"]["column_names"][0] == "re_k"


def test_byte_stability(tmp_path):
    # R < 0 only, and a mixed-sign window (leg, R > 0 bound pair, +-y)
    for k, (R, y) in enumerate([("-5:-1:5", "0:3:7"),
                                ("-3.5:4.5:9", "-1:2:7")]):
        a, b = tmp_path / f"a{k}", tmp_path / f"b{k}"
        for d in (a, b):
            rc = main(["wavefunction", "--R", R, "--y", y, "--out", str(d)])
            assert rc == 0
        assert (a / "wavefunction.csv").read_bytes() == \
            (b / "wavefunction.csv").read_bytes()


def test_asymptotics_far32(tmp_path):
    rc = main(["asymptotics", "--law", "far32", "--R", "-200:-50:4",
               "--y", "0:1:2", "--out", str(tmp_path)])
    assert rc == 0
    names, rows = read_csv(tmp_path / "asymptotics_far32.csv")
    # |psi| * |R| equals the far-field constant for every row
    for row in rows:
        R = float(row[0])
        mod = math.hypot(float(row[2]), float(row[3]))
        assert mod * abs(R) == pytest.approx(0.015465667428, abs=1e-9)


def test_asymptotics_sd35(tmp_path):
    rc = main(["asymptotics", "--law", "sd35", "--R", "25:100:4",
               "--y", "3:12:4", "--out", str(tmp_path)])
    assert rc == 0


def test_asymptotics_domain_error(tmp_path):
    assert main(["asymptotics", "--law", "far32", "--R", "10:20:2",
                 "--y", "0:1:2", "--out", str(tmp_path)]) == 2


def test_figures_fig3_fig4(tmp_path):
    rc = main(["figures", "fig3", "fig4", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "fig3.csv")
    a2 = np.array([float(r[1]) for r in rows])
    idx = [i for i in range(1, len(a2) - 1)
           if a2[i] >= a2[i - 1] and a2[i] > a2[i + 1]]
    assert len(idx) >= 5
    peaks = a2[idx]
    assert peaks[0] > peaks[-1]  # decaying envelope
    _, rows4 = read_csv(tmp_path / "fig4.csv")
    c0 = np.array([float(r[1]) for r in rows4])
    c5 = np.array([float(r[2]) for r in rows4])
    first_max = next(i for i in range(1, len(c0) - 1)
                     if c0[i] >= c0[i - 1] and c0[i] > c0[i + 1])
    assert c0[first_max] > c5[first_max]


@pytest.mark.parametrize("args, stems", [
    (["wavefunction", "--R", "-3:-1:3", "--y", "-1:2:4"], ["wavefunction"]),
    (["wavefunction", "--R", "0.5:4.5:5", "--y", "-1:2:4"], ["wavefunction"]),
    (["factor", "--at-K", "--k-grid", "im:0.1:5:5"], ["factor"]),
    (["figures", "fig3", "fig4"], ["fig3", "fig4"]),
    (["asymptotics", "--law", "far32", "--R", "-200:-50:4", "--y", "0:1:2"],
     ["asymptotics_far32"]),
    (["asymptotics", "--law", "sd35", "--R", "25:100:4", "--y", "3:12:4"],
     ["asymptotics_sd35"]),
], ids=["wavefunction-R<0", "wavefunction-R>0", "factor", "figures",
        "far32", "sd35"])
def test_csv_and_json_carry_the_same_columns(tmp_path, args, stems):
    for fmt in ("csv", "json"):
        assert main([*args, "--format", fmt, "--out", str(tmp_path)]) == 0
    for stem in stems:
        names, rows = read_csv(tmp_path / f"{stem}.csv")
        doc = json.loads((tmp_path / f"{stem}.json").read_text())
        assert names == doc["metadata"]["column_names"]
        assert sorted(names) == sorted(doc["columns"])
        assert (tmp_path / f"{stem}.csv").read_bytes() == \
            csv_module_bytes(names, doc["columns"])
        for n, col in zip(names, zip(*rows)):
            want = doc["columns"][n]
            assert len(col) == len(want)
            for text, v in zip(col, want):
                if isinstance(v, bool):
                    assert text == ("true" if v else "false")
                elif isinstance(v, float):
                    assert float(text) == v
                else:
                    assert text == v
        if "abs2" in names and "re_psi" in names:
            # abs(p) ** 2 per value: a vectorized np.abs(p) ** 2 differs
            # from it in the last bit on about a third of all values
            c = doc["columns"]
            for re_, im_, a2 in zip(c["re_psi"], c["im_psi"], c["abs2"]):
                assert a2 == abs(complex(re_, im_)) ** 2


def test_csv_writer_matches_csv_module_on_edge_values(tmp_path):
    # every string the CLI writes: Method values, closed_form, law names
    from wavecut.cli import _LAWS
    from wavecut.wavefunction import Method
    words = [m.value for m in Method] + ["closed_form", *_LAWS]
    floats = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]
    table = {"re_psi": floats, "converged": [True, False] * 3 + [True],
             "method": words}
    assert len(words) == len(floats)
    write_table(tmp_path / "t.csv", "csv", table, {})
    assert (tmp_path / "t.csv").read_bytes() == \
        csv_module_bytes(list(table), table)
    assert (tmp_path / "t.csv").read_bytes().splitlines()[1] == \
        b"nan,true,regional"


def test_csv_templates_match_fmt(tmp_path):
    # one %-template per table gives each field the text fmt gives it:
    # float columns, bool columns ('%.17g' % True is '1'), strings, ints
    # past 17 digits ('%.17g' would round them) and a mixed column
    table = {
        "f": [-0.0, math.nan, math.inf, -math.inf, 0.1, 5e-324, 1e22],
        "b": [True, False, True, True, False, False, True],
        "s": ["regional", "closed_form", "far32", "x", "", "true", "1"],
        "i": [10 ** 20, -(2 ** 70), 0, 1, -7, 12345678901234567890, 2],
        "mixed": [1, 2.5, True, "w", -0.0, 10 ** 18, math.nan],
    }
    write_table(tmp_path / "t.csv", "csv", table, {})
    want = "f,b,s,i,mixed\r\n" + "".join(
        ",".join(map(fmt, row)) + "\r\n" for row in zip(*table.values()))
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
    assert want.splitlines()[1] == "-0,true,regional,100000000000000000000,1"


def test_csv_formats_repeated_values_like_fmt(tmp_path):
    # columns formatted once per distinct value: repeated floats holding
    # both zeros (0.0 == -0.0 as keys, but they print as 0 and -0; each
    # column meets its zeros in the other order), a constant string and a
    # bool column; the JSON bytes keep their layout
    table = {
        "R": [-0.0, -0.0, 0.0, 0.0, 2.5, 2.5],
        "y": [0.0, 0.1, -0.0, 0.0, 0.1, -0.0],
        "method": ["regional"] * 6,
        "converged": [True, False, True, True, False, True],
    }
    write_table(tmp_path / "t.csv", "csv", table, {})
    want = "R,y,method,converged\r\n" + "".join(
        ",".join(map(fmt, row)) + "\r\n" for row in zip(*table.values()))
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
    assert want.splitlines()[3] == "0,-0,regional,true"
    write_table(tmp_path / "t.json", "json", table, {"tol": 1e-6})
    doc = {"metadata": {"tol": 1e-6, "column_names": list(table)},
           "columns": table}
    assert (tmp_path / "t.json").read_text() == \
        json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 2.0, "k0": 3.0}))
    rc = main(["factor", "--at-K", "--config", str(cfg), "--k0", "4",
               "--format", "json", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "factor.json").read_text())
    assert doc["metadata"]["a"] == 2.0      # from config file
    assert doc["metadata"]["k0"] == 4.0     # flag overrides config


def test_config_file_takes_numbers_and_a_format(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 2, "k0": 3, "hbar": 1, "tol": 1e-6,
                               "format": "json"}))
    assert main(["factor", "--at-K", "--config", str(cfg),
                 "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "factor.json").read_text())
    assert (doc["metadata"]["a"], doc["metadata"]["k0"]) == (2.0, 3.0)


@pytest.mark.parametrize("text, phys", [
    ("[1, 2]", False), ("3", False), ('"x"', False), ("null", False),
    ('{"tol": null}', False), ('{"a": null}', False), ('{"a": "2"}', False),
    ('{"k0": true}', False), ('{"tol": [1e-6]}', False),
    ('{"format": "xml"}', False), ('{"format": 1}', False),
    ('{"eps": 0.1}', False), ('{"hbar": "z"}', True),
])
def test_malformed_config_file_is_a_usage_error(tmp_path, capsys, text,
                                                phys):
    # rejected before any computation: no output directory is made
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(text)
    args = ["wavefunction", "--R", "-2:-1:2", "--y", "0:1:2",
            "--config", str(cfg), "--out", str(out)]
    if phys:
        args += ["--M", "2", "--mu", "0.5", "--lam", "1", "--E", "1"]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"error: config file {cfg}: ")
    assert not out.exists()


def test_physical_params_input(tmp_path):
    rc = main(["factor", "--at-K", "--M", "2", "--mu", "0.5", "--lam", "1",
               "--E", "1", "--format", "json", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "factor.json").read_text())
    assert doc["metadata"]["a"] == pytest.approx(1.0)
    assert doc["metadata"]["k0"] == pytest.approx(2.0)


def test_validate_fast(capsys):
    rc = main(["validate", "--only", "quadrature"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_validate_negative_control(capsys):
    # flipping the branch side must be detected by route equivalence
    rc = main(["validate", "--only", "wavefunction", "--flip-branch"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_validate_takes_no_common_options():
    # validate reads no parameter, tolerance or output option
    try:
        rc = main(["validate", "--a", "2"])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2


def test_json_metadata_names_the_method_used(tmp_path):
    # fig1-fig3 come from the one-sided segment, fig4 from the full wrap
    for args in (["figures", "fig1", "fig3", "fig4"], ["factor", "--at-K"],
                 ["asymptotics", "--law", "far32", "--R", "-200:-50:2",
                  "--y", "0:1:2"]):
        assert main([*args, "--format", "json", "--out", str(tmp_path)]) == 0
    want = {"fig1": "approx_31", "fig3": "approx_31",
            "fig4": "regional_with_vertical_leg", "factor": "closed_form",
            "asymptotics_far32": "far32"}
    for stem, method in want.items():
        doc = json.loads((tmp_path / f"{stem}.json").read_text())
        assert doc["metadata"]["method"] == method, stem


def test_entry_point_installed():
    res = subprocess.run([sys.executable, "-m", "wavecut.cli", "--version"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0


def test_shared_parser_carries_no_state(tmp_path):
    # the grammar is built once per process; no option of one call may
    # leak into the next
    a, b, c, fresh = (tmp_path / d for d in ("a", "b", "c", "fresh"))
    assert main(["factor", "--at-K", "--k-grid", "im:1:2:2", "--check-oracle",
                 "--format", "json", "--out", str(a)]) == 0
    assert main(["factor", "--k-grid", "im:1:2:2", "--out", str(b)]) == 0
    assert main(["wavefunction", "--R", "-2:-1:2", "--y", "0:1:2",
                 "--out", str(c)]) == 0
    names, rows = read_csv(b / "factor.csv")
    assert len(rows) == 2
    assert all(r[names.index("err_est")] == "0" for r in rows)
    assert sorted(p.name for p in b.iterdir()) == ["factor.csv"]
    subprocess.run([sys.executable, "-m", "wavecut.cli", "factor",
                    "--k-grid", "im:1:2:2", "--out", str(fresh)],
                   capture_output=True, env=child_env(), check=True)
    assert (b / "factor.csv").read_bytes() == \
        (fresh / "factor.csv").read_bytes()
    assert build_parser() is build_parser()
