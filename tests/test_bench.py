import inspect
import sys

import numpy as np
import pytest

from phasorlisp import (
    BenchResult,
    Config,
    ConfigError,
    LispTypeError,
    Session,
    flatness_ratio,
    growth_exponent,
    list_add,
    list_decode,
    list_encode,
    run_benchmark,
    write_csv,
    write_plot_data,
)


@pytest.fixture(scope="module")
def shared():
    return Session()


def test_list_encode_decode_roundtrip(shared):
    for x in (0, 1, 4, 9):
        assert list_decode(shared, list_encode(shared, x)) == x


def test_list_encode_rejects_negative(shared):
    with pytest.raises(LispTypeError):
        list_encode(shared, -1)


def test_list_add_concatenates_lengths(shared):
    a = list_encode(shared, 3)
    b = list_encode(shared, 2)
    assert list_decode(shared, list_add(shared, a, b)) == 5


def test_list_add_zero_is_neutral(shared):
    a = list_encode(shared, 4)
    z = list_encode(shared, 0)
    assert list_decode(shared, list_add(shared, a, z)) == 4
    assert list_decode(shared, list_add(shared, z, a)) == 4


def test_list_add_takes_no_host_frame_per_unit():
    session = Session()
    a, b = list_encode(session, 1), list_encode(session, 150)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        total = list_add(session, a, b)
    finally:
        sys.setrecursionlimit(limit)
    assert list_decode(session, total) == 151


def test_run_benchmark_produces_both_encodings():
    results = run_benchmark(magnitudes=(2, 4), reps=5)
    kinds = {(r.encoding, r.magnitude) for r in results}
    assert kinds == {("rhc", 2), ("rhc", 4), ("list", 2), ("list", 4)}
    for r in results:
        assert r.median_ns > 0
        assert r.reps == 5
        assert r.dimension == 1000


def test_run_benchmark_rejects_too_few_reps():
    with pytest.raises(ConfigError):
        run_benchmark(magnitudes=(2, 4), reps=3)


@pytest.mark.parametrize(
    "magnitudes", [(0, 5), (-1, 5), (5,), (5, 5), ()], ids=str
)
def test_run_benchmark_rejects_magnitudes_no_exponent_can_be_fit_to(magnitudes):
    with pytest.raises(ConfigError):
        run_benchmark(magnitudes=magnitudes, reps=5)


def test_csv_layout(tmp_path):
    results = [
        BenchResult("rhc", 5, 123, 5, 1000),
        BenchResult("list", 5, 456, 5, 1000),
    ]
    out = tmp_path / "r.csv"
    write_csv(results, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "encoding,magnitude,median_ns,reps,dimension"
    assert lines[1] == "rhc,5,123,5,1000"
    assert lines[2] == "list,5,456,5,1000"


def test_plot_data_files(tmp_path):
    results = [
        BenchResult("rhc", 5, 100, 5, 1000),
        BenchResult("rhc", 10, 110, 5, 1000),
        BenchResult("list", 5, 200, 5, 1000),
        BenchResult("list", 10, 900, 5, 1000),
    ]
    write_plot_data(results, tmp_path / "bench")
    rhc = (tmp_path / "bench_rhc.dat").read_text().splitlines()
    lst = (tmp_path / "bench_list.dat").read_text().splitlines()
    assert rhc == ["5 100", "10 110"]
    assert lst == ["5 200", "10 900"]


def synth(encoding, pairs):
    return [BenchResult(encoding, m, ns, 5, 1000) for m, ns in pairs]


def test_growth_exponent_on_synthetic_series():
    mags = [5, 10, 20, 40]
    linear = synth("list", [(m, 50 * m) for m in mags])
    quadratic = synth("list", [(m, 3 * m * m) for m in mags])
    flat = synth("list", [(m, 100) for m in mags])
    assert growth_exponent(linear) == pytest.approx(1.0, abs=0.01)
    assert growth_exponent(quadratic) == pytest.approx(2.0, abs=0.01)
    assert abs(growth_exponent(flat)) < 0.05


def test_flatness_ratio_on_synthetic_series():
    rows = synth("rhc", [(5, 100), (10, 150), (20, 120)])
    assert flatness_ratio(rows) == pytest.approx(1.5)
    assert flatness_ratio(synth("rhc", [(5, 7)])) == pytest.approx(1.0)


def test_benchmark_respects_custom_config():
    cfg = Config(dim=256)
    results = run_benchmark(magnitudes=(2, 3), reps=5, config=cfg)
    assert all(r.dimension == 256 for r in results)
