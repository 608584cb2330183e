"""CSV/JSON round trips and reader validation."""

import warnings

import numpy as np
import pytest

from renewalthin import (
    TimeGrid,
    Density,
    Spectrum,
    forward_transform,
    classify,
    classical_region,
    region_boundary_samples,
    Exponential,
    AntibunchShaped,
    simulate,
)
from renewalthin.errors import ValidationError
from renewalthin.fileio import (
    write_density_csv,
    read_density_csv,
    write_spectrum_csv,
    read_spectrum_csv,
    write_clicks_csv,
    read_clicks_csv,
    write_json,
    read_json,
    verdict_to_dict,
    write_region_csv,
    region_meta_dict,
)


def test_density_round_trip_is_exact(tmp_path):
    g = TimeGrid(2048, 0.02)
    f = Exponential(1.0).density(g)
    path = tmp_path / "f.csv"
    write_density_csv(path, f)
    back = read_density_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_signed_density_round_trip(tmp_path):
    # recovered densities can carry negative lobes; the reader must not care
    g = TimeGrid(64, 0.1)
    v = np.sin(np.arange(64.0))
    path = tmp_path / "signed.csv"
    write_density_csv(path, Density(g, v))
    assert np.array_equal(read_density_csv(path).values, v)


def test_spectrum_round_trip_is_exact(tmp_path):
    g = TimeGrid(512, 0.05)
    s = forward_transform(Exponential(1.0).density(g))
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, s)
    back = read_spectrum_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, s.values)


def test_clicks_round_trip(tmp_path):
    clicks = simulate(Exponential(1.0), 0.5, 1000, seed=3)
    path = tmp_path / "clicks.csv"
    write_clicks_csv(path, clicks.timestamps)
    assert np.array_equal(read_clicks_csv(path), clicks.timestamps)


def test_json_round_trip(tmp_path):
    payload = {"p": 0.3, "nested": {"a": [1, 2, 3]}, "s": "text"}
    path = tmp_path / "r.json"
    write_json(path, payload)
    assert read_json(path) == payload


def test_density_reader_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,val\n0.0,1.0\n")
    with pytest.raises(ValidationError):
        read_density_csv(path)


def test_density_reader_rejects_jitter(tmp_path):
    g = TimeGrid(128, 0.05)
    f = Exponential(1.0).density(g)
    path = tmp_path / "f.csv"
    write_density_csv(path, f)
    lines = path.read_text().splitlines()
    t, v = lines[40].split(",")
    lines[40] = f"{float(t) + 1e-4},{v}"
    jittered = tmp_path / "jitter.csv"
    jittered.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as ei:
        read_density_csv(jittered)
    assert "uniform" in str(ei.value)


def test_density_reader_requires_zero_origin(tmp_path):
    path = tmp_path / "shift.csv"
    rows = "\n".join(f"{0.5 + 0.1 * k},{1.0}" for k in range(32))
    path.write_text("t,value\n" + rows + "\n")
    with pytest.raises(ValidationError):
        read_density_csv(path)


def test_density_reader_rejects_short_file(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t,value\n0.0,1.0\n")
    with pytest.raises(ValidationError):
        read_density_csv(path)


def test_verdict_dict_schema():
    g = TimeGrid(4096, 0.01)
    F = AntibunchShaped(5.0, 1.0).density(g)
    v = classify(F, 0.05)
    d = verdict_to_dict(v, 0.05, g)
    assert set(d) == {
        "kind", "negativity_mass", "pole_proximity",
        "region_violations", "p", "grid",
    }
    assert d["kind"] == "nonclassical"
    assert d["p"] == 0.05
    assert d["grid"] == {"n": 4096, "dt": 0.01}
    assert len(d["region_violations"]) == len(v.region_violations)
    first = d["region_violations"][0]
    assert set(first) == {"omega", "phi_re", "phi_im", "excess"}
    assert first["excess"] > 0


def test_region_csv_and_meta(tmp_path):
    pts = region_boundary_samples(0.5, 8)
    path = tmp_path / "region.csv"
    write_region_csv(path, pts)
    lines = path.read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 9
    re0, im0 = map(float, lines[1].split(","))
    assert (re0, im0) == (1.0, 0.0)
    meta = region_meta_dict(classical_region(0.5))
    assert meta["p"] == 0.5
    assert meta["center"] == pytest.approx(1 / 3)
    assert meta["radius"] == pytest.approx(2 / 3)


# Values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, the smallest normal, the largest finite, non-terminating
# binary fractions, and the non-finite values.
ADVERSARIAL = np.array([-0.0, 5e-324, 2.2250738585072014e-308,
                        1.7976931348623157e308, 0.1, 1 / 3, np.nan, np.inf,
                        -np.inf, 0.0, -5e-324, 1e16, 123456789.12345678])


def _complex(re, im):
    """Complex array with exactly these parts (re + 1j * im mixes inf into nan)."""
    z = np.empty(len(re), dtype=np.complex128)
    z.real, z.imag = re, im
    return z


def _reference_csv(header, *columns):
    """The per-element ``format(float(x), ".17g")`` layout of the writers."""
    rows = [",".join(format(float(x), ".17g") for x in row) for row in zip(*columns)]
    return "\n".join([header, *rows]) + "\n"


def test_density_writer_golden_bytes(tmp_path):
    dt = 0.1
    g = TimeGrid(ADVERSARIAL.size, dt)
    path = tmp_path / "f.csv"
    write_density_csv(path, Density(g, ADVERSARIAL))
    times = [k * dt for k in range(g.n)]
    assert path.read_text() == _reference_csv("t,value", times, ADVERSARIAL)


def test_spectrum_writer_golden_bytes(tmp_path):
    g = TimeGrid(ADVERSARIAL.size, 0.1)
    v = _complex(ADVERSARIAL, ADVERSARIAL[::-1])
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, Spectrum(g, v))
    assert path.read_text() == _reference_csv("omega,re,im", g.omegas(), v.real, v.imag)


def test_clicks_writer_golden_bytes(tmp_path):
    path = tmp_path / "c.csv"
    write_clicks_csv(path, ADVERSARIAL)
    assert path.read_text() == _reference_csv("timestamp", ADVERSARIAL)
    write_clicks_csv(path, np.array([]))
    assert path.read_text() == "timestamp\n"


def test_region_writer_golden_bytes(tmp_path):
    z = _complex(ADVERSARIAL[::-1], ADVERSARIAL)
    path = tmp_path / "r.csv"
    write_region_csv(path, z)
    assert path.read_text() == _reference_csv("re,im", z.real, z.imag)


def test_clicks_round_trip_is_bit_exact_for_random_doubles(tmp_path):
    bits = np.random.default_rng(0).integers(0, 2**64, size=400_000, dtype=np.uint64)
    x = bits.view(np.float64)
    x = np.concatenate([x[np.isfinite(x)], [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308]])
    path = tmp_path / "c.csv"
    write_clicks_csv(path, x)
    assert read_clicks_csv(path).tobytes() == x.tobytes()


READERS = {
    "t,value": read_density_csv,
    "omega,re,im": read_spectrum_csv,
    "timestamp": read_clicks_csv,
}


@pytest.mark.parametrize("header", list(READERS))
@pytest.mark.parametrize("body", ["", "\n", "\n   \n\r\n"])
def test_reader_rejects_header_only_file(tmp_path, header, body):
    path = tmp_path / "h.csv"
    path.write_text(header + "\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="no data rows"):
            READERS[header](path)


@pytest.mark.parametrize("bad_row", [
    "0.2",              # ragged: one cell short
    "0.2,1.0,3.0",      # ragged: one cell over
    "0.2,1.0,",         # trailing comma
    "0.2,one",          # non-numeric cell
    "0.2,1_0",          # underscores: float() takes them, the reader does not
    "# 0.2,1.0",        # comments are not part of the format
])
def test_density_reader_rejects_malformed_rows(tmp_path, bad_row):
    rows = ["t,value", "0.0,1.0", "0.1,1.0", bad_row, "0.3,1.0"]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValidationError):
        read_density_csv(path)


def test_density_reader_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("t,value\n0.0,1.0,2.0\n0.1,1.0,2.0\n")
    with pytest.raises(ValidationError, match="2 columns"):
        read_density_csv(path)


def test_readers_accept_blank_lines_and_crlf(tmp_path):
    g = TimeGrid(16, 0.25)
    f = Exponential(1.0).density(g)
    path = tmp_path / "f.csv"
    write_density_csv(path, f)
    lines = path.read_text().splitlines()
    lines[3:3] = ["", ""]
    messy = tmp_path / "messy.csv"
    messy.write_bytes(("\r\n".join(lines) + "\r\n\r\n").encode())
    back = read_density_csv(messy)
    assert back.grid == g
    assert back.values.tobytes() == f.values.tobytes()
