"""End-to-end runs of every subcommand through cli.main."""

import numpy as np
import pytest

from renewalthin import (
    TimeGrid, Density, grid_for_mean, detected_density, Exponential, AntibunchShaped,
)
from renewalthin.cli import main
from renewalthin.fileio import (
    write_density_csv,
    read_density_csv,
    read_spectrum_csv,
    read_clicks_csv,
    read_json,
)


@pytest.fixture
def exp_csv(tmp_path):
    """Exponential source density with horizon headroom down to p = 0.3."""
    g = grid_for_mean(1.0 / 0.3, n=4096)
    path = tmp_path / "f.csv"
    write_density_csv(path, Exponential(1.0).density(g))
    return path


def test_forward_writes_density_and_spectra(tmp_path, exp_csv):
    out = tmp_path / "fw"
    assert main(["forward", "--in", str(exp_csv), "--p", "0.3", "--out", str(out)]) == 0
    F = read_density_csv(out / "detected_density.csv")
    assert F.mass == pytest.approx(1.0, abs=1e-9)
    Phi = read_spectrum_csv(out / "detected_spectrum.csv")
    phi = read_spectrum_csv(out / "emission_spectrum.csv")
    assert Phi.grid == F.grid == phi.grid
    assert phi.values[0] == pytest.approx(1.0, abs=1e-9)


def test_forward_p_one_is_identity(tmp_path, exp_csv):
    out = tmp_path / "fw1"
    assert main(["forward", "--in", str(exp_csv), "--p", "1.0", "--out", str(out)]) == 0
    f_in = read_density_csv(exp_csv)
    F = read_density_csv(out / "detected_density.csv")
    assert np.max(np.abs(F.values - f_in.values)) < 1e-12


def test_forward_then_classify_is_classical(tmp_path, exp_csv):
    fw = tmp_path / "fw"
    main(["forward", "--in", str(exp_csv), "--p", "0.3", "--out", str(fw)])
    cl = tmp_path / "cl"
    rc = main(["classify", "--in", str(fw / "detected_density.csv"),
               "--p", "0.3", "--out", str(cl)])
    assert rc == 0
    verdict = read_json(cl / "verdict.json")
    assert verdict["kind"] == "classical"
    assert verdict["negativity_mass"] < 1e-6
    assert verdict["region_violations"] == []
    assert verdict["p"] == 0.3


@pytest.mark.parametrize("scale", [1.0 - 5e-7, 1.0 + 5e-7])
def test_mass_within_norm_tolerance_runs(tmp_path, scale):
    g = TimeGrid(4096, 0.04)
    path = tmp_path / "f.csv"
    write_density_csv(path, Density(g, Exponential(1.0).density(g).values * scale))
    out = tmp_path / "out"
    assert main(["forward", "--in", str(path), "--p", "0.3", "--out", str(out)]) == 0
    assert main(["classify", "--in", str(path), "--p", "0.3", "--out", str(out)]) == 0
    verdict = read_json(out / "verdict.json")
    assert verdict["kind"] == "classical"
    assert verdict["region_violations"] == []


def test_classify_nonclassical_is_a_successful_run(tmp_path):
    g = TimeGrid(4096, 0.01)
    path = tmp_path / "ab.csv"
    write_density_csv(path, AntibunchShaped(5.0, 1.0).density(g))
    out = tmp_path / "cl"
    rc = main(["classify", "--in", str(path), "--p", "0.05", "--out", str(out)])
    assert rc == 0  # a nonclassical verdict is a result, not an error
    verdict = read_json(out / "verdict.json")
    assert verdict["kind"] == "nonclassical"
    assert verdict["negativity_mass"] > 1e-3
    assert len(verdict["region_violations"]) > 0


def test_classify_threshold_flags(tmp_path):
    # two point masses tuned near the inversion pole for p = 0.3; at p = 0.9
    # the verdict rests on negativity alone, so raising tau-neg flips it
    g = TimeGrid(1024, 0.01)
    w = 1.0 / (2.0 * 0.7) - 1e-9
    masses = np.zeros(g.n)
    masses[64] = w
    masses[128] = 1.0 - w
    path = tmp_path / "atoms.csv"
    write_density_csv(path, Density(g, masses / g.dt))

    out1 = tmp_path / "default"
    main(["classify", "--in", str(path), "--p", "0.9", "--out", str(out1)])
    assert read_json(out1 / "verdict.json")["kind"] == "nonclassical"

    out2 = tmp_path / "loose"
    main(["classify", "--in", str(path), "--p", "0.9", "--tau-neg", "0.1",
          "--out", str(out2)])
    assert read_json(out2 / "verdict.json")["kind"] == "classical"

    out3 = tmp_path / "pole"
    main(["classify", "--in", str(path), "--p", "0.3", "--out", str(out3)])
    assert read_json(out3 / "verdict.json")["kind"] == "indeterminate"


def test_series_report(tmp_path, exp_csv):
    out = tmp_path / "se"
    rc = main(["series", "--in", str(exp_csv), "--p", "0.3", "--k", "20",
               "--out", str(out)])
    assert rc == 0
    report = read_json(out / "series_report.json")
    assert set(report) == {"K", "mass", "l1_gap_vs_closed_form", "tail_bound"}
    assert report["K"] == 20
    assert report["tail_bound"] == pytest.approx(0.7 ** 21)
    assert report["l1_gap_vs_closed_form"] <= report["tail_bound"] + 1e-6
    assert report["mass"] == pytest.approx(1.0 - 0.7 ** 21, abs=1e-6)
    FK = read_density_csv(out / "series_density.csv")
    assert FK.mass == pytest.approx(report["mass"])


def test_invert_recovers_source(tmp_path, exp_csv):
    fw = tmp_path / "fw"
    main(["forward", "--in", str(exp_csv), "--p", "0.3", "--out", str(fw)])
    iv = tmp_path / "iv"
    rc = main(["invert", "--in", str(fw / "detected_density.csv"), "--p", "0.3",
               "--out", str(iv)])
    assert rc == 0
    f_in = read_density_csv(exp_csv)
    rec = read_density_csv(iv / "recovered_density.csv")
    assert np.max(np.abs(rec.values - f_in.values)) < 1e-9
    report = read_json(iv / "inversion_report.json")
    assert report["p"] == 0.3
    assert report["pole_proximity"] > 0.1


def test_region_outputs(tmp_path):
    out = tmp_path / "rg"
    rc = main(["region", "--p", "0.5", "--count", "90", "--out", str(out)])
    assert rc == 0
    meta = read_json(out / "region_meta.json")
    assert meta["p"] == 0.5
    assert meta["center"] == pytest.approx(1 / 3, abs=1e-12)
    assert meta["radius"] == pytest.approx(2 / 3, abs=1e-12)
    lines = (out / "region_boundary.csv").read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 91
    pts = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    dist = np.hypot(pts[:, 0] - meta["center"], pts[:, 1])
    assert np.max(np.abs(dist - meta["radius"])) < 1e-12


def test_simulate_outputs(tmp_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--law", "exponential:1.0", "--p", "0.3",
               "--emissions", "200000", "--seed", "7", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.rstrip().endswith(" PASS")
    meta = read_json(out / "clicks_meta.json")
    assert meta["law"] == "exponential"
    assert meta["params"] == {"rate": 1.0}
    assert meta["p"] == 0.3
    assert meta["n_emitted"] == 200000
    assert meta["seed"] == 7
    assert meta["shards"] == 1
    clicks = read_clicks_csv(out / "clicks.csv")
    assert clicks.size > 50000
    report = read_json(out / "compare_report.json")
    assert set(report) == {"l1", "linf", "ks", "ks_critical_1pct", "ks_pass",
                           "n_intervals", "overflow_fraction"}
    assert report["ks"] < report["ks_critical_1pct"]
    assert report["ks_pass"] is True
    assert report["n_intervals"] == clicks.size - 1
    emp = read_density_csv(out / "empirical_density.csv")
    assert emp.grid.n == 4096  # default grid, dt sized from the thinned mean


def test_simulate_reports_failed_ks_and_still_exits_0(tmp_path, capsys):
    """The periodic lattice misses the default grid (an open defect): the
    report says so, and the exit code stays 0, as for any chance miss."""
    out = tmp_path / "sim"
    rc = main(["simulate", "--law", "periodic:1.0", "--p", "0.3",
               "--emissions", "1000000", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.rstrip().endswith(" FAIL")
    report = read_json(out / "compare_report.json")
    assert report["ks_pass"] is False
    assert report["ks"] >= report["ks_critical_1pct"]


def test_simulate_explicit_grid(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--law", "uniform:0.5,1.5", "--p", "0.5",
               "--emissions", "50000", "--seed", "1", "--n", "2048",
               "--dt", "0.05", "--out", str(out)])
    assert rc == 0
    emp = read_density_csv(out / "empirical_density.csv")
    assert emp.grid == TimeGrid(2048, 0.05)


def test_rerun_is_byte_identical(tmp_path, exp_csv):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        main(["forward", "--in", str(exp_csv), "--p", "0.5", "--out", str(out)])
    for name in ("detected_density.csv", "detected_spectrum.csv",
                 "emission_spectrum.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as ei:
        main(["bogus"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_validation_errors_exit_3(tmp_path, exp_csv, capsys):
    assert main(["forward", "--in", str(tmp_path / "missing.csv"), "--p", "0.5",
                 "--out", str(tmp_path / "x")]) == 3
    assert main(["forward", "--in", str(exp_csv), "--p", "1.5",
                 "--out", str(tmp_path / "x")]) == 3
    assert "efficiency" in capsys.readouterr().err
    assert main(["simulate", "--law", "nosuchlaw:1", "--p", "0.5",
                 "--out", str(tmp_path / "x")]) == 3
    # the library, not the CLI, rejects these values
    assert main(["series", "--in", str(exp_csv), "--p", "0.5", "--k", "-1",
                 "--out", str(tmp_path / "x")]) == 3
    assert main(["simulate", "--law", "exponential:1", "--p", "0.5",
                 "--emissions", "0", "--out", str(tmp_path / "x")]) == 3
    assert main(["region", "--p", "0.5", "--count", "2",
                 "--out", str(tmp_path / "x")]) == 3


def test_classify_of_ragged_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "ragged.csv"
    path.write_text("t,value\n0.0,1.0\n0.1\n0.2,1.0\n")
    assert main(["classify", "--in", str(path), "--p", "0.5",
                 "--out", str(tmp_path / "x")]) == 3
    assert "malformed data row" in capsys.readouterr().err


def test_numeric_failures_exit_4(tmp_path, capsys):
    # horizon far too short once the mean stretches by 1/p
    g = TimeGrid(2048, 0.02)
    path = tmp_path / "f.csv"
    write_density_csv(path, Exponential(1.0).density(g))
    rc = main(["forward", "--in", str(path), "--p", "0.05",
               "--out", str(tmp_path / "x")])
    assert rc == 4
    assert "HorizonTooShort" in capsys.readouterr().err


def test_nan_sample_exits_3(tmp_path, capsys):
    # NaN fails no `value > limit` test, so one NaN sample used to pass
    # validation: classify and invert exited 0, forward 4 (HorizonTooShort).
    F = detected_density(Exponential(1.0).density(grid_for_mean(1.0 / 0.3, n=4096)), 0.3)
    v = F.values.copy()
    v[100] = np.nan
    path = tmp_path / "nan.csv"
    write_density_csv(path, Density(F.grid, v))
    for command in ("classify", "invert", "forward"):
        out = tmp_path / command
        assert main([command, "--in", str(path), "--p", "0.3", "--out", str(out)]) == 3
        assert "negativity: nan" in capsys.readouterr().err
    assert not (tmp_path / "classify" / "verdict.json").exists()
