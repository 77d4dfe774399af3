import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairmeasure as fm

from conftest import binomial_process


def gbm(n=1, d=1, drift=0.1, vol=0.3, corr=None, s0=1.0):
    M = n * d
    corr = np.eye(M) if corr is None else np.asarray(corr, dtype=float)
    return fm.GbmParams(n=n, d=d,
                        drift=np.full((n, d), drift),
                        vol=np.full((n, d), vol),
                        corr=corr,
                        s0=np.full((n, d), s0))


# -- parameter validation --------------------------------------------------------

def test_params_validation():
    with pytest.raises(fm.ParameterError):
        gbm(vol=-0.1)
    with pytest.raises(fm.ParameterError):
        gbm(s0=0.0)
    with pytest.raises(fm.ParameterError):
        gbm(n=2, corr=np.array([[1.0, 0.2], [0.3, 1.0]]))  # asymmetric
    with pytest.raises(fm.ParameterError):
        gbm(n=2, corr=np.array([[1.0, 1.5], [1.5, 1.0]]))  # not PSD
    with pytest.raises(fm.ParameterError):
        gbm(n=2, corr=np.array([[0.9, 0.0], [0.0, 1.0]]))  # diagonal


# -- simulation -------------------------------------------------------------------

def test_zero_vol_is_deterministic_exponential():
    lat = fm.build_lattice(2, 1)
    proc = fm.simulate_gbm(lat, gbm(drift=0.1, vol=0.0), seed=0)
    assert np.allclose(proc.values[1, :, 0], math.exp(0.1), atol=0, rtol=0)


def test_binary_branches_are_one_up_one_down():
    lat = fm.build_lattice(2, 1)
    a, sigma = 0.05, 0.4
    proc = fm.simulate_gbm(lat, gbm(drift=a, vol=sigma), seed=0)
    incr = np.sort(np.log(proc.values[1, :, 0]))
    expected = np.sort((a - sigma ** 2 / 2) + sigma * np.array([-1.0, 1.0]))
    assert np.allclose(incr, expected, atol=1e-15)


def test_perfect_correlation_collapses_exchanges():
    rho = np.array([[1.0, 1.0], [1.0, 1.0]])
    lat = fm.build_lattice(2, 3)
    proc = fm.simulate_gbm(lat, gbm(n=2, drift=0.1, vol=0.3, corr=rho), seed=4)
    assert np.array_equal(proc.values[:, :, 0], proc.values[:, :, 1])


def test_simulated_process_is_adapted_and_positive():
    rho = np.array([[1.0, 0.4], [0.4, 1.0]])
    lat = fm.build_lattice(3, 3)
    proc = fm.simulate_gbm(lat, gbm(n=2, drift=-0.2, vol=0.8, corr=rho, s0=2.0), seed=9)
    assert fm.lattice.find_adaptedness_violation(lat, proc.values) is None
    assert np.all(proc.values > 0.0)


def test_rank_too_high_for_branching():
    rho = np.array([[1.0, 0.4], [0.4, 1.0]])
    with pytest.raises(fm.ParameterError, match="rank"):
        fm.branch_innovations(2, rho)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.floats(-0.95, 0.95))
def test_innovation_moments_exact(b, rho12):
    if b == 2:
        corr = np.array([[1.0]])
    else:
        corr = np.array([[1.0, rho12], [rho12, 1.0]])
    Z = fm.branch_innovations(b, corr, seed=b)
    assert np.abs(Z.mean(axis=0)).max() <= 1e-12
    assert np.abs(Z.T @ Z / b - corr).max() <= 1e-10


def test_seed_permutes_but_preserves_the_set():
    corr = np.array([[1.0, 0.3], [0.3, 1.0]])
    Z0 = fm.branch_innovations(4, corr, seed=0)
    Z1 = fm.branch_innovations(4, corr, seed=1)
    assert sorted(map(tuple, Z0.round(14))) == sorted(map(tuple, Z1.round(14)))
    again = fm.branch_innovations(4, corr, seed=0)
    assert np.array_equal(Z0, again)


# -- risk-neutral oracle -------------------------------------------------------------

def test_risk_neutral_canonical(two_path):
    Q = fm.risk_neutral_binomial_measure(two_path)
    # solve q*2 + (1-q)*0.5 = 1  ->  q = 1/3 on the up path
    assert Q.weights[0] == pytest.approx(1 / 3, abs=1e-15)
    assert Q.weights[1] == pytest.approx(2 / 3, abs=1e-15)


def test_risk_neutral_symmetric_children():
    lat = fm.build_lattice(2, 1)
    proc = binomial_process(lat, 1.0, 1.25, 0.75)
    Q = fm.risk_neutral_binomial_measure(proc)
    assert np.allclose(Q.weights, 0.5, atol=1e-15)


def test_risk_neutral_two_step_product():
    lat = fm.build_lattice(2, 2)
    proc = binomial_process(lat, 1.0, 2.0, 0.5)
    Q = fm.risk_neutral_binomial_measure(proc)
    # per node q_up = 1/3; the up-up path has weight 1/9
    assert Q.weights[0] == pytest.approx(1 / 9, abs=1e-15)
    check = fm.is_martingale(Q, proc, 1e-12)
    assert check.ok


def test_risk_neutral_exact_martingale_deep():
    lat = fm.build_lattice(2, 5)
    proc = fm.simulate_gbm(lat, gbm(drift=0.4, vol=0.7), seed=2)
    Q = fm.risk_neutral_binomial_measure(proc)
    assert abs(Q.weights.sum() - 1.0) <= 1e-12
    assert fm.is_martingale(Q, proc, 1e-12).ok


def test_risk_neutral_errors():
    lat = fm.build_lattice(2, 1)
    flat = binomial_process(lat, 1.0, 1.1, 1.1)
    with pytest.raises(fm.NoMartingaleMeasureError):
        fm.risk_neutral_binomial_measure(flat)  # children coincide
    drifted = binomial_process(lat, 1.0, 1.5, 1.1)
    with pytest.raises(fm.NoMartingaleMeasureError):
        fm.risk_neutral_binomial_measure(drifted)  # value below both children
    pair = fm.simulate_gbm(lat, gbm(n=2, corr=np.array([[1.0, 1.0], [1.0, 1.0]])), seed=0)
    with pytest.raises(fm.ParameterError):
        fm.risk_neutral_binomial_measure(pair)


# -- calibration ------------------------------------------------------------------------

def test_calibrate_constant_series():
    ts = np.arange(8.0)
    series = fm.PriceSeries("x", ts, np.full(8, 5.0))
    with pytest.warns(UserWarning, match="degenerate"):
        params = fm.calibrate_from_prices([series])
    assert params.vol[0, 0] == 0.0
    assert params.drift[0, 0] == 0.0
    assert params.s0[0, 0] == 5.0


def test_calibrate_constant_series_beside_a_varying_one():
    """A constant series has vol 0 and correlation 0 with the others, and
    the calibration warns once, for it alone."""
    ts = np.arange(8.0)
    flat = fm.PriceSeries("flat", ts, np.full(8, 5.0))
    moving = fm.PriceSeries("moving", ts, np.exp(0.1 * np.sin(ts)))
    with pytest.warns(UserWarning) as caught:
        params = fm.calibrate_from_prices([flat, moving])
    assert [str(w.message) for w in caught] == [
        "series 'flat' is degenerate (constant log returns); vol set to 0"]
    assert params.vol[0, 0] == 0.0 and params.vol[1, 0] > 0.0
    assert params.corr[0, 1] == params.corr[1, 0] == 0.0


def test_calibrate_deterministic_exponential():
    ts = np.arange(6.0)
    r = 0.07
    series = fm.PriceSeries("x", ts, np.exp(r * ts))
    params = fm.calibrate_from_prices([series])
    assert params.vol[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert params.drift[0, 0] == pytest.approx(r, abs=1e-12)


def test_calibrate_identical_series_perfect_correlation():
    ts = np.arange(12.0)
    prices = np.exp(0.01 * ts + 0.2 * np.sin(ts))
    a = fm.PriceSeries("a", ts, prices)
    b = fm.PriceSeries("b", ts, prices.copy())
    params = fm.calibrate_from_prices([a, b])
    assert params.corr[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_calibrate_round_trip_two_point_increments():
    # Balanced walk over the exact two-point innovation set: the sample
    # standard deviation differs from sigma only by the ddof-1 factor.
    a_true, sigma_true, dt = 0.12, 0.5, 0.25
    L = 400
    z = np.tile(fm.branch_innovations(2, np.array([[1.0]]), seed=0)[:, 0], L // 2)
    inc = (a_true - sigma_true ** 2 / 2) * dt + sigma_true * math.sqrt(dt) * z
    prices = np.exp(np.concatenate([[0.0], np.cumsum(inc)]))
    series = fm.PriceSeries("x", np.arange(L + 1) * dt, prices)
    params = fm.calibrate_from_prices([series])
    ddof_factor = math.sqrt(L / (L - 1))
    assert params.vol[0, 0] == pytest.approx(sigma_true * ddof_factor, abs=1e-9)
    recovered_a = params.drift[0, 0] - params.vol[0, 0] ** 2 / 2 + sigma_true ** 2 / 2
    assert recovered_a == pytest.approx(a_true, abs=1e-9)


def test_calibrate_input_errors():
    ts = np.arange(4.0)
    with pytest.raises(fm.IngestionError):
        fm.PriceSeries("x", ts, np.array([1.0, 2.0, -1.0, 1.0]))
    with pytest.raises(fm.IngestionError):
        fm.PriceSeries("x", np.array([0.0, 1.0, 1.0, 2.0]), np.ones(4))
    short = fm.PriceSeries("x", np.array([0.0]), np.array([1.0]))
    with pytest.raises(fm.IngestionError):
        fm.calibrate_from_prices([short])
    jagged = fm.PriceSeries("x", np.array([0.0, 1.0, 3.0]), np.ones(3))
    with pytest.raises(fm.IngestionError):
        fm.calibrate_from_prices([jagged])
    a = fm.PriceSeries("a", np.arange(3.0), np.array([1.0, 2.0, 1.5]))
    b = fm.PriceSeries("b", np.arange(4.0), np.array([1.0, 2.0, 1.5, 1.2]))
    with pytest.raises(fm.IngestionError):
        fm.calibrate_from_prices([a, b])


def test_calibrate_needs_series_observed_at_the_same_timestamps():
    """Returns correlate step by step, so two series of equal length and
    interval but shifted in time are an error, not a correlation."""
    ts = np.arange(10.0)
    prices = np.exp(0.05 * np.sin(ts) + 0.01 * ts)
    a = fm.PriceSeries("a", ts, prices)
    b = fm.PriceSeries("b", ts + 1000.0, prices[::-1].copy())
    with pytest.raises(fm.IngestionError, match="series 'a' and 'b' are not observed at the "
                                                "same timestamps"):
        fm.calibrate_from_prices([a, b])
    params = fm.calibrate_from_prices([a, fm.PriceSeries("b", ts, b.prices)])
    assert params.n == 2 and -1.0 <= params.corr[0, 1] <= 1.0


def test_psd_projection():
    bad = np.array([[1.0, 0.9, -0.9],
                    [0.9, 1.0, 0.9],
                    [-0.9, 0.9, 1.0]])
    fixed = fm.project_correlation_psd(bad)
    evals = np.linalg.eigvalsh(fixed)
    assert evals.min() >= -1e-12
    assert np.allclose(np.diag(fixed), 1.0)
    good = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert np.allclose(fm.project_correlation_psd(good), good, atol=1e-12)


def test_simulate_calibrated_pair_round_trip():
    ts = np.arange(40.0)
    rng = np.random.default_rng(3)
    base = np.cumsum(rng.normal(0, 0.05, 40))
    a = fm.PriceSeries("a", ts, np.exp(base))
    b = fm.PriceSeries("b", ts, np.exp(0.8 * base + 0.02 * rng.normal(size=40)))
    params = fm.calibrate_from_prices([a, b])
    lat = fm.build_lattice(3, 2)
    proc = fm.simulate_gbm(lat, params, seed=0)
    assert np.all(proc.values > 0)
    assert proc.values[0, 0, 0] == pytest.approx(a.prices[-1])


# -- price CSV ingestion --------------------------------------------------------------

def test_read_price_csv(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "timestamp,exchange,price\n"
        "2024-01-01T00:00:00Z,alpha,100.0\n"
        "100,beta,50.0\n"
        "2024-01-01T00:01:00Z,alpha,101.0\n"
        "160,beta,51.0\n",
        encoding="utf-8")
    series = fm.read_price_csv(path)
    assert [s.exchange for s in series] == ["alpha", "beta"]
    assert series[0].prices.tolist() == [100.0, 101.0]
    assert series[1].timestamps.tolist() == [100.0, 160.0]


def test_a_naive_iso_timestamp_reads_as_utc(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("timestamp,exchange,price\n"
                    "2024-01-01T00:00:00,a,1.0\n"
                    "2024-01-01T00:01:00+00:00,a,1.1\n", encoding="utf-8")
    assert fm.read_price_csv(path)[0].timestamps.tolist() == [1704067200.0, 1704067260.0]


@pytest.mark.parametrize("body,msg", [
    ("time,exchange,price\n1,a,1.0\n", "header"),
    ("timestamp,exchange,price\n1,a\n", "fields"),
    ("timestamp,exchange,price\nnot-a-time,a,1.0\n", "timestamp"),
    ("timestamp,exchange,price\n1,a,zero\n", "price"),
    ("timestamp,exchange,price\n1,a,-2.0\n", "positive"),
    ("timestamp,exchange,price\n1,,2.0\n", "exchange"),
    ("timestamp,exchange,price\n1,a, 1_0\n", "bad price"),
    ("timestamp,exchange,price\n1,a,\uff11\uff12\n", "bad price"),
    ("timestamp,exchange,price\n1,a,2.5 \n", "bad price"),
    ("timestamp,exchange,price\n1,a,1_0\n", "bad price"),
    ("timestamp,exchange,price\n1,a,inf\n", "non-finite price"),
    ("timestamp,exchange,price\n1_000,a,2.0\n", "timestamp"),
    ("timestamp,exchange,price\n+5,a,2.0\n", "timestamp"),
    ("timestamp,exchange,price\n\uff11\uff12,a,2.0\n", "timestamp"),
    (" timestamp , exchange , price\n1,a,2.0\n", "header"),
    ("timestamp,exchange,price\n 100 ,a,2.0\n", "timestamp"),
    ("timestamp,exchange,price\n1, a ,2.0\n", "exchange"),
    pytest.param(b"timestamp,exchange,price\n1,a,2.0\n2,a,\xff\n", "not UTF-8: byte 0xff",
                 id="not-utf8"),
    pytest.param("timestamp,exchange,price\n1,a," + "1" * 131073 + "\n",
                 r"field larger than field limit \(131072\)", id="long-field"),
    pytest.param("timestamp,exchange\n1,a\n", "expected header 'timestamp,exchange,price'",
                 id="short-header"),
    pytest.param("timestamp,exchange,price\n" + "1" * 5000 + ",a,2.0\n",
                 r"bad timestamp '1{32}'\.\.\. \(5000 characters\): integer out of the float "
                 r"range$", id="long-timestamp"),
    pytest.param("timestamp,exchange,price\n" + "1" * 400 + ",a,2.0\n",
                 r"bad timestamp '1{32}'\.\.\. \(400 characters\): integer out of the float "
                 r"range$", id="timestamp-over-float"),
    pytest.param("timestamp,exchange,price\n1, " + "a" * 5000 + ",2.0\n",
                 r"bad exchange name ' a{31}'\.\.\. \(5001 characters\)$", id="long-exchange"),
    pytest.param("timestamp,exchange,price\n1,a,2" + "_0" * 3000 + "\n",
                 r"bad price '2(_0){15}_'\.\.\. \(6001 characters\)$", id="long-price"),
    pytest.param("timestamp,exchange,price\n1,A,1.0\n2,A,1.1\n2,A,1.2\n",
                 r"timestamps must be strictly increasing: '2' of exchange 'A' "
                 r"is not after line 3's$", id="repeated-timestamp"),
    pytest.param("timestamp,exchange,price\n2024-01-01T00:01:00,A,1.0\n"
                 "2024-01-01T00:00:30,B,1.0\n2024-01-01T00:00:00,A,1.1\n",
                 r"timestamps must be strictly increasing: '2024-01-01T00:00:00' "
                 r"of exchange 'A' is not after line 2's$", id="decreasing-iso-timestamp"),
])
def test_read_price_csv_rejects_malformed_rows(tmp_path, body, msg):
    """Every error names the file and the line, and no field is stripped."""
    path = tmp_path / "bad.csv"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    with pytest.raises(fm.IngestionError, match=rf"bad\.csv:\d+: .*{msg}"):
        fm.read_price_csv(path)


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
@pytest.mark.parametrize("quoted_break", [False, True], ids=["plain", "quoted-break"])
def test_a_byte_that_is_not_utf8_is_numbered_by_its_record(tmp_path, end, quoted_break):
    """The record that holds the byte, as field-count errors number records:
    a bare carriage return ends a record, and a quoted line break does not."""
    name = f'"a{end}b"' if quoted_break else "a"
    head = f"timestamp,exchange,price{end}1,{name},2.0{end}".encode()
    path = tmp_path / "bad.csv"
    path.write_bytes(head + b"2,a,\xff" + end.encode())
    with pytest.raises(fm.IngestionError, match=r"bad\.csv:3: not UTF-8: byte 0xff$"):
        fm.read_price_csv(path)
    path.write_bytes(head + b"2,a" + end.encode())
    with pytest.raises(fm.IngestionError, match=r"bad\.csv:3: expected 3 fields, got 2$"):
        fm.read_price_csv(path)


def test_a_price_csv_of_only_its_header_has_no_observations(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("timestamp,exchange,price\n", encoding="utf-8")
    with pytest.raises(fm.IngestionError, match=rf"^{re.escape(str(path))}: no observations$"):
        fm.read_price_csv(path)


def test_calibrate_needs_a_series():
    with pytest.raises(fm.IngestionError, match=r"^no series to calibrate$"):
        fm.calibrate_from_prices([])


@pytest.mark.parametrize("timestamps,prices,message", [
    (np.arange(3.0), np.ones(2), "timestamps and prices must align"),
    (np.arange(4.0).reshape(2, 2), np.ones((2, 2)), "timestamps and prices must align"),
    (np.array([]), np.array([]), "empty"),
], ids=["lengths", "two-dims", "empty"])
def test_price_series_refuses_misaligned_or_empty_arrays(timestamps, prices, message):
    with pytest.raises(fm.IngestionError, match=rf"^series 'x': {message}$"):
        fm.PriceSeries("x", timestamps, prices)
