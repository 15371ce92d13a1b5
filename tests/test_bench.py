import math

import pytest

from slabsum.bench import (BenchRow, bench_instance, fit_loglog_slope, run_bench,
                           scan_window, write_csv)
from slabsum.dp import family_window
from slabsum.instance import gen_random
from slabsum.quantize import QuantizationUnderflow, quantize


def test_fit_slope_on_synthetic_power_law():
    rows = [BenchRow(n, n * n, 2, 3.5 * n ** 4.5, 2 * n, n ** 3)
            for n in (16, 32, 64, 128)]
    assert math.isclose(fit_loglog_slope(rows), 4.5, abs_tol=1e-9)


def test_fit_slope_averages_repeats():
    rows = []
    for n in (16, 32):
        for bump in (0.9, 1.0, 1.1):
            rows.append(BenchRow(n, n * n, 2, bump * n ** 2, 2 * n, n))
    assert math.isclose(fit_loglog_slope(rows), 2.0, abs_tol=0.01)


def test_fit_slope_needs_two_sizes():
    rows = [BenchRow(16, 256, 2, ms, 32, 16) for ms in (1.0, 2.0)]
    with pytest.raises(ValueError, match="at least two distinct n values"):
        fit_loglog_slope(rows)


def test_bench_instance_moves_to_the_next_seed_on_underflow():
    # seed 2 at n = 4 with 4-bit weights rounds a weight to zero at N = 16
    with pytest.raises(QuantizationUnderflow):
        quantize(gen_random(4, 4, 2), c=2)
    inst, q = bench_instance(4, 4, 2, 2)
    assert inst.seed == 2 + 1_000_003 and min(q.u) >= 1


def test_bench_instance_skips_underflow_seeds():
    inst, q = bench_instance(16, 12, 0, 2)
    assert q.big_n == 256
    assert min(q.u) >= 1


def test_scan_window_counts_every_full_fill():
    # each window target costs one fill of n rows of tau+1 bits
    for n, bits, seed in ((16, 6, 0), (17, 8, 3), (24, 6, 1)):
        _, q = bench_instance(n, bits, seed, 2)
        window = family_window(q.total_u, q.n).window
        assert window[0] > 0
        assert scan_window(q) == (len(window), sum(n * (tau + 1) for tau in window))


def test_run_bench_rows_and_csv(tmp_path):
    rows = run_bench([16, 24], c=2, repeats=2, bits=6, seed=1)
    assert len(rows) == 4
    for row in rows:
        # a full scan visits every window target: 2n+1 or 2n depending on parity
        assert row.targets_scanned in (2 * row.n, 2 * row.n + 1)
        assert row.wall_ms >= 0
        assert row.table_cells > 0
    path = tmp_path / "b.csv"
    write_csv(rows, path)
    header, *body = path.read_text().strip().splitlines()
    assert header == "n,N,c,wall_ms,targets_scanned,table_cells"
    assert len(body) == 4
