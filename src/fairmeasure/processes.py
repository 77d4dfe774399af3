"""Price-process construction and calibration on the lattice.

The hypothesis class is correlated geometric Brownian motion with constant
multiplicative drift, discretized without Monte Carlo noise: the b branch
innovations at every node form one fixed set with exact sample mean 0 and
exact sample covariance equal to the target correlation matrix.  That makes
drift-removal and martingale-measure properties checkable to floating-point
accuracy instead of statistically.
"""
from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from statistics import NormalDist
from typing import Callable

import numpy as np

from .errors import IngestionError, NoMartingaleMeasureError, ParameterError, quoted
from .lattice import AdaptedLattice, LatticeProcess, Measure, _as_count

__all__ = [
    "GbmParams", "PriceSeries",
    "branch_innovations", "simulate_gbm", "risk_neutral_binomial_measure",
    "calibrate_from_prices", "project_correlation_psd", "read_price_csv",
]

_EIG_FLOOR = -1e-10      # tolerated eigenvalue noise below zero
_RANK_TOL = 1e-10        # eigenvalues below this count as zero rank


@dataclass(frozen=True, eq=False)
class GbmParams:
    """Per-component drift/vol (shape (n, d)), correlation of the stacked
    (n*d)-vector of log-innovations, and strictly positive start values.

    Drift is multiplicative per unit time: each component evolves as
    s * exp((a - sigma^2/2) dt + sigma sqrt(dt) z).
    """

    n: int
    d: int
    drift: np.ndarray
    vol: np.ndarray
    corr: np.ndarray
    s0: np.ndarray

    def __post_init__(self):
        for name in ("n", "d"):
            object.__setattr__(self, name, _as_count(name, getattr(self, name), 1))
        M = self.n * self.d
        for name in ("drift", "vol", "s0"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            if arr.shape != (self.n, self.d):
                raise ParameterError(f"{name} must have shape ({self.n}, {self.d}), got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.vol < 0.0):
            raise ParameterError("vol must be nonnegative")
        if np.any(self.s0 <= 0.0):
            raise ParameterError("s0 must be strictly positive")
        corr = np.asarray(self.corr, dtype=float).copy()
        if corr.shape != (M, M):
            raise ParameterError(f"corr must have shape ({M}, {M}), got {corr.shape}")
        if not np.allclose(corr, corr.T, atol=1e-12, rtol=0.0):
            raise ParameterError("corr must be symmetric")
        if not np.allclose(np.diag(corr), 1.0, atol=1e-12, rtol=0.0):
            raise ParameterError("corr must have unit diagonal")
        if float(np.linalg.eigvalsh(corr).min()) < _EIG_FLOOR:
            raise ParameterError("corr is not positive semidefinite")
        corr.setflags(write=False)
        object.__setattr__(self, "corr", corr)

    @property
    def n_components(self) -> int:
        return self.n * self.d


def _correlation_factor(corr: np.ndarray) -> np.ndarray:
    """(M, r) factor L with L L^T = corr, r = rank at tolerance."""
    evals, evecs = np.linalg.eigh(corr)
    if float(evals.min()) > _RANK_TOL:
        return np.linalg.cholesky(corr)
    keep = evals > _RANK_TOL
    return evecs[:, keep] * np.sqrt(evals[keep])


def _unit_base(b: int, r: int) -> np.ndarray:
    """b points in R^r with exact sample mean 0 and sample covariance I.

    Needs r <= b - 1 (the points sum to zero, so they span at most b - 1
    dimensions).  For b = 2^m with r <= m the points are the +-1 sign
    patterns; otherwise symmetrized standard-normal quantiles are extended
    by their powers and orthonormalized against the constant vector, which
    for r = 1 reduces to the rescaled symmetric quantile set.
    """
    if r > b - 1:
        raise ParameterError(
            f"branching {b} is too small to moment-match a correlation of rank {r}")
    m = b.bit_length() - 1
    if b == (1 << m) and r <= m:
        idx = np.arange(b)
        bits = (idx[:, None] >> np.arange(r)[None, :]) & 1
        return (2.0 * bits - 1.0).astype(float)
    nd = NormalDist()
    t = np.array([nd.inv_cdf((j + 0.5) / b) for j in range(b)])
    B = np.column_stack([t ** j for j in range(r + 1)])
    Qmat, _ = np.linalg.qr(B)
    U = math.sqrt(b) * Qmat[:, 1:r + 1]
    signs = np.where(U[-1] >= 0.0, 1.0, -1.0)  # pin QR sign ambiguity
    return U * signs


def branch_innovations(b: int, corr: np.ndarray, seed: int = 0) -> np.ndarray:
    """The fixed (b, M) innovation set shared by every node of the lattice.

    Sample mean is 0 and sample covariance (normalized by b) equals corr up
    to factorization accuracy.  The seed only permutes which innovation is
    assigned to which branch digit; the set itself is deterministic.
    """
    if b < 2:
        raise ParameterError(f"need at least 2 branches, got {b}")
    corr = np.asarray(corr, dtype=float)
    L = _correlation_factor(corr)
    U = _unit_base(b, L.shape[1])
    Z = U @ L.T
    perm = np.random.default_rng(seed).permutation(b)
    return Z[perm]


def simulate_gbm(lattice: AdaptedLattice, params: GbmParams, seed: int = 0) -> LatticeProcess:
    """Build the correlated GBM process on the lattice.

    Log-increments along branch digit beta are
    (a - sigma^2/2) dt + sigma sqrt(dt) z_beta with the moment-matched
    innovation set z; the same set is used at every node, so the build is
    deterministic given the seed.
    """
    Z = branch_innovations(lattice.branching, params.corr, seed)
    M = params.n_components
    a = params.drift.reshape(M)
    sig = params.vol.reshape(M)
    dt = lattice.dt
    incr = (a - 0.5 * sig ** 2) * dt + sig * math.sqrt(dt) * Z
    growth = np.exp(incr)
    P = lattice.n_paths
    vals = np.empty((lattice.depth + 1, P, M))
    vals[0] = np.broadcast_to(params.s0.reshape(M), (P, M))
    digits = lattice.digits
    for k in range(lattice.depth):
        vals[k + 1] = vals[k] * growth[digits[:, k]]
    if np.any(vals <= 0.0):
        raise ParameterError("simulated values underflowed to zero; parameters too extreme")
    return LatticeProcess(lattice, params.n, params.d, vals)


def risk_neutral_binomial_measure(process: LatticeProcess) -> Measure:
    """The unique per-node branch weighting making a scalar binomial price
    process an exact one-step martingale.

    At each node with value s and child values c0, c1 the digit-0 branch
    gets p0 = (s - c1) / (c0 - c1); path weights are products of branch
    probabilities, built top-down as node products.  Requires the node
    value strictly between distinct children.
    """
    lat = process.lattice
    if process.n != 1 or process.d != 1 or lat.branching != 2:
        raise ParameterError("risk-neutral measure needs n = 1, d = 1, b = 2")
    nodes = [process.values[k, ::2 ** (lat.depth - k), 0] for k in range(lat.depth + 1)]
    weights = np.ones(1)
    for k in range(lat.depth):
        s, c0, c1 = nodes[k], nodes[k + 1][0::2], nodes[k + 1][1::2]
        spread = c0 - c1
        if np.any(spread == 0.0):
            node = int(np.argmax(spread == 0.0))
            raise NoMartingaleMeasureError(
                f"children coincide at time {k}, node {node}; no branch weighting exists")
        p0 = (s - c1) / spread
        if np.any((p0 <= 0.0) | (p0 >= 1.0)):
            node = int(np.argmax((p0 <= 0.0) | (p0 >= 1.0)))
            raise NoMartingaleMeasureError(
                f"node value outside its children at time {k}, node {node}")
        weights = np.stack([weights * p0, weights * (1.0 - p0)], axis=1).reshape(-1)
    return Measure(lat, weights)


# -- market data ingestion and calibration ------------------------------------

@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Time-stamped positive prices for one exchange."""

    exchange: str
    timestamps: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=float).copy()
        p = np.asarray(self.prices, dtype=float).copy()
        if t.ndim != 1 or p.shape != t.shape:
            raise IngestionError(f"series {self.exchange!r}: timestamps and prices must align")
        if t.size < 1:
            raise IngestionError(f"series {self.exchange!r}: empty")
        if np.any(~np.isfinite(p)) or np.any(p <= 0.0):
            raise IngestionError(f"series {self.exchange!r}: prices must be finite and positive")
        if np.any(np.diff(t) <= 0.0):
            raise IngestionError(f"series {self.exchange!r}: timestamps must be strictly increasing")
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "prices", p)

    def __len__(self) -> int:
        return int(self.timestamps.size)


def parse_float_field(text: str) -> float:
    """The float of one CSV field, under the rule every CSV reader shares:
    ASCII only, no digit separators, no surrounding space, finite.  float()
    alone would also take "1_0", non-ASCII digits and surrounding spaces.
    Raises ValueError whose message, "bad" or "non-finite", the caller puts
    before the field's name."""
    if not (text.isascii() and "_" not in text and text == text.strip()):
        raise ValueError("bad")
    try:
        value = float(text)
    except ValueError:
        raise ValueError("bad") from None
    if not math.isfinite(value):
        raise ValueError("non-finite")
    return value


def _read_text(path, error: type[Exception],
               line: Callable[[str], int] = lambda text: text.count("\n") + 1) -> str:
    """The text of a UTF-8 file.  A byte that is not UTF-8 raises ``error``
    naming the file and the line that holds it, which ``line`` numbers
    from the text before the byte: by newlines, unless told otherwise."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = line(data[:exc.start].decode("utf-8"))
        raise error(f"{path}:{where}: not UTF-8: byte {data[exc.start]:#04x}") from None


def _csv_record(text: str) -> int:
    """The number of the CSV record that holds the end of ``text``, as
    ``_read_csv`` numbers records: a quoted field may span lines, and a
    bare carriage return ends a record as a newline does."""
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(io.StringIO(text + "x", newline="")))
    except csv.Error:
        return len(rows) + 1
    return len(rows)


def _read_csv(path, columns: list[str], error: type[Exception]) -> list[tuple[int, list[str]]]:
    """The one reader of the CSV formats: each record after the header
    ``columns`` as (line, fields), the header on line 1, each line a CSV
    record.  A file that is not UTF-8, a field over csv's size limit,
    another header or a record with another field count raises ``error``
    naming the file and the record."""
    rows: list[list[str]] = []
    try:   # extend keeps the records before a bad one, which gives its line
        rows.extend(csv.reader(io.StringIO(_read_text(path, error, _csv_record), newline="")))
    except csv.Error as exc:
        raise error(f"{path}:{len(rows) + 1}: {exc}") from None
    header = rows[0] if rows else None
    if header != columns:
        got = header if header is None else f"[{', '.join(map(quoted, header))}]"
        raise error(f"{path}:1: expected header {','.join(columns)!r}, got {got}")
    records = list(enumerate(rows[1:], start=2))
    for line, row in records:
        if len(row) != len(columns):
            raise error(f"{path}:{line}: expected {len(columns)} fields, got {len(row)}")
    return records


def _is_integer(text: str) -> bool:
    """The integer rule of the timestamp column and of ``--seed``: ASCII
    digits with an optional leading '-'.  int() alone would also take
    "1_000", "+5", surrounding space and non-ASCII digits."""
    return text.isascii() and text.removeprefix("-").isdigit()


def _parse_timestamp(text: str) -> float:
    """Epoch seconds of an integer or ISO-8601 field; raises ValueError.
    float() rounds an integer's digits as float(int()) does, with no limit
    on their number."""
    if _is_integer(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("integer out of the float range")
        return value
    stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def read_price_csv(path) -> list[PriceSeries]:
    """Read `timestamp,exchange,price` rows into one series per exchange.

    Timestamps are ISO-8601 or integer epoch seconds.  Any malformed row is
    an error, not a skip; per-exchange rows must already be in strictly
    increasing time order.  Series come back in order of first appearance.
    """
    order: list[str] = []
    data: dict[str, list[tuple[float, float]]] = {}
    last: dict[str, int] = {}   # the line of each exchange's last row
    for lineno, row in _read_csv(path, ["timestamp", "exchange", "price"], IngestionError):
        try:
            ts = _parse_timestamp(row[0])
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: bad timestamp {quoted(row[0])}: {exc}") from None
        name = row[1]
        if not name:
            raise IngestionError(f"{path}:{lineno}: empty exchange name")
        if name != name.strip():
            raise IngestionError(f"{path}:{lineno}: bad exchange name {quoted(name)}")
        try:
            price = parse_float_field(row[2])
        except ValueError as exc:
            raise IngestionError(f"{path}:{lineno}: {exc} price {quoted(row[2])}") from None
        if price <= 0.0:
            raise IngestionError(f"{path}:{lineno}: price must be positive")
        if name not in data:
            order.append(name)
            data[name] = []
        elif ts <= data[name][-1][0]:
            raise IngestionError(f"{path}:{lineno}: timestamps must be strictly increasing: "
                                 f"{quoted(row[0])} of exchange {quoted(name)} is not after "
                                 f"line {last[name]}'s")
        last[name] = lineno
        data[name].append((ts, price))
    if not order:
        raise IngestionError(f"{path}: no observations")
    out = []
    for name in order:
        rows = data[name]
        out.append(PriceSeries(name,
                               np.array([r[0] for r in rows]),
                               np.array([r[1] for r in rows])))
    return out


def project_correlation_psd(corr: np.ndarray) -> np.ndarray:
    """Nearest-by-clipping PSD correlation: clip negative eigenvalues at 0,
    then renormalize the diagonal back to 1."""
    corr = np.asarray(corr, dtype=float)
    evals, evecs = np.linalg.eigh((corr + corr.T) / 2.0)
    rebuilt = (evecs * np.maximum(evals, 0.0)) @ evecs.T
    scale = np.sqrt(np.diag(rebuilt))
    scale[scale == 0.0] = 1.0
    out = rebuilt / np.outer(scale, scale)
    np.fill_diagonal(out, 1.0)
    return out


def _uniform_interval(series: PriceSeries) -> float:
    if len(series) < 2:
        raise IngestionError(f"series {series.exchange!r}: need at least 2 observations")
    gaps = np.diff(series.timestamps)
    dt = float(gaps[0])
    if np.any(np.abs(gaps - dt) > 1e-9 * dt):
        raise IngestionError(f"series {series.exchange!r}: sampling interval is not uniform")
    return dt


def calibrate_from_prices(series: list[PriceSeries]) -> GbmParams:
    """Fit per-exchange drift/vol and the cross-exchange correlation.

    Per series: sigma = sd(log returns)/sqrt(dt) with the unbiased sample
    standard deviation, and a = mean(log returns)/dt + sigma^2/2, matching
    the multiplicative-drift convention of :func:`simulate_gbm`.  The
    correlation of log returns is projected to the nearest PSD matrix with
    unit diagonal.  A constant series gets sigma = 0 and zero off-diagonal
    correlation, with a warning.  Start values are the last observations.

    Series are scalar, so d = 1 and n = len(series); correlation pairs the
    returns of each time step, so when n >= 2 every series must be observed
    at the same timestamps.
    """
    if not series:
        raise IngestionError("no series to calibrate")
    n = len(series)
    for s in series:
        if not np.array_equal(s.timestamps, series[0].timestamps):
            raise IngestionError(f"series {series[0].exchange!r} and {s.exchange!r} are not "
                                 "observed at the same timestamps; correlation needs them to be")
    dt = _uniform_interval(series[0])

    returns = [np.diff(np.log(s.prices)) for s in series]
    drift = np.zeros((n, 1))
    vol = np.zeros((n, 1))
    s0 = np.zeros((n, 1))
    degenerate = np.zeros(n, dtype=bool)
    for i, (s, r) in enumerate(zip(series, returns)):
        mean = float(r.mean())
        sd = float(r.std(ddof=1)) if r.size >= 2 else 0.0
        if sd == 0.0:
            degenerate[i] = True
            warnings.warn(f"series {s.exchange!r} is degenerate (constant log returns); "
                          "vol set to 0", stacklevel=2)
        sigma = sd / math.sqrt(dt)
        vol[i, 0] = sigma
        drift[i, 0] = mean / dt + 0.5 * sigma ** 2
        s0[i, 0] = float(s.prices[-1])

    corr = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            if degenerate[i] or degenerate[j]:
                continue
            ri = returns[i] - returns[i].mean()
            rj = returns[j] - returns[j].mean()
            denom = math.sqrt(float(ri @ ri) * float(rj @ rj))
            corr[i, j] = corr[j, i] = float(ri @ rj) / denom
    corr = project_correlation_psd(corr)
    return GbmParams(n=n, d=1, drift=drift, vol=vol, corr=corr, s0=s0)
