"""Measured transmittance series: parsing, histograms, and model fitting.

Input files are plain UTF-8 text with one intensity-transmittance sample per
line; a leading byte-order mark is dropped.  Lines are those of `str.splitlines`
(LF, CRLF, CR, form feed, U+0085 and the other Unicode line boundaries),
stripped of whitespace; blank lines and lines that start with '#' are skipped.
A sample is any text Python's `float` accepts (underscores and non-ASCII digits
included) except nan and infinity, so a second column or a trailing comment is
an error.  An optional reference value divides the raw readings, so detector
voltages can be brought to the [0, 1] transmittance scale without external
calibration.  An error names the offending line: invalid UTF-8 anywhere in the
file comes first, then the first line whose sample is rejected.

Parsing reads a stream in pieces of about 64 Ki characters, or bytes, and
decodes, converts and checks one piece at a time.  A bytes piece of digits,
'.', 'e', 'E', '+', '-', CR and LF alone is plain.  A plain piece whose every
token is [-][digits].digits, of at most 19 significant digits and 22 after the
point (as `sample` writes every sample in [1e-4, 1)), is read by exact integer
arithmetic in numpy, to the doubles `float` gives; `float` takes dtoa's slow
path on more than 15 digits.  Any other plain piece is split as bytes, with no
filter but that of blank lines, and any other piece is split, stripped and
filtered as text; either is converted by `np.array(tokens, dtype=float)`,
which calls `float` on each token.  `parse_series` joins the samples of the
pieces, so it peaks at 16 bytes per sample; the CLI's `stats` and `fit` reduce
each piece as it is read, by `fading._empirical` and `_cdf_counts`, and hold
one piece at a time.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import BeamGeometry, _offset_cdf, _require, _store, _weibull

# values this far outside [0, 1] are treated as edge noise and clamped
EDGE_TOLERANCE = 0.01

# fit search rectangle: (sigma_b2, a_over_W)
FIT_BOUNDS = ((1e-3, 2.0), (0.2, 4.0))

# the coarse fit grid has this many log-spaced values per axis, 256
# candidates of 512 points each; the best few of them are refined
_FIT_GRID = 16
_FIT_CANDIDATES = 4

SMALL_SERIES_WARN = 1000

# a series is read and converted in pieces of about this many
# characters (bytes, from bytes), so only one piece is held as text at a time
_PIECE_CHARS = 1 << 16

# the bytes of a plain piece: no '#', whitespace, non-ASCII or line end but CR, LF
_PLAIN_BYTES = b"0123456789.eE+-\r\n"


class SeriesFormatError(ValueError):
    """Raised when a transmittance file cannot be parsed or validated."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True)
class TransmittanceSeries:
    """A validated sequence of intensity-transmittance samples.

    Attributes
    ----------
    samples : ndarray
        Transmittance values, each in [0, 1].
    source_label : str
        Free-text origin of the data (file name, generator settings).
    """

    samples: np.ndarray
    source_label: str = ""

    def __post_init__(self):
        samples = _require("samples", self.samples, lambda s: (s >= 0.0) & (s <= 1.0), "in [0, 1]")
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError(f"samples must be a non-empty 1-D array, got shape {samples.shape}")
        _store(self, samples=samples.copy())  # not the caller's array

    @property
    def count(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True)
class Histogram:
    """Uniform-width histogram of a transmittance series."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        if np.ndim(self.bin_edges) != 1 or np.size(self.bin_edges) < 3:
            raise ValueError("need at least two bins")
        edges = _require("bin_edges", self.bin_edges, lambda e: np.append(True, e[1:] > e[:-1]),
                         "strictly ascending")
        if np.shape(self.counts) != (edges.size - 1,):
            raise ValueError("counts length must be number of bins")
        # checked as floats: the cast to int would truncate 1.7 and -0.5 and wrap 2**63
        _require("counts", self.counts, lambda c: (c >= 0) & (c < 2.0**63) & (c == np.round(c)),
                 "an integer in [0, 2**63)")
        # copies, not the caller's arrays
        _store(self, bin_edges=edges.copy(), counts=np.asarray(self.counts).astype(int))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def parse_series(stream, reference=None, label="") -> TransmittanceSeries:
    """Read one transmittance sample per line from a text or byte stream.

    Parameters
    ----------
    stream : file-like or str or bytes
        The raw data.  File-like objects may yield str or bytes.
    reference : float, optional
        Positive normalization constant; raw values are divided by it.
    label : str, optional
        Stored as the series source label.

    Returns
    -------
    TransmittanceSeries

    Raises
    ------
    SeriesFormatError
        On an unparsable line, a value outside the [0, 1] tolerance band,
        or an empty stream; the message names the offending line.
    """
    if reference is not None:
        try:  # one number; a Python float, as `_first_fault` divides by it
            reference = _require("reference", reference, lambda r: r > 0, "positive", True)
        except ValueError:
            raise SeriesFormatError(f"reference must be positive, got {reference}") from None
    return TransmittanceSeries(np.concatenate(list(_series_pieces(stream, reference))),
                               source_label=label)


def _pieces(stream):
    """The text or bytes of `stream`, read _PIECE_CHARS at a time and cut just
    after the last line feed of each read.  A line feed ends a line, never
    starts a CR LF and never occurs inside a multi-byte UTF-8 sequence, so the
    pieces hold the text's lines and each decodes on its own.  Text with no
    line feed is one piece."""
    if hasattr(stream, "read"):
        reads = iter(lambda: stream.read(_PIECE_CHARS) or None, None)
    else:
        reads = (stream[i:i + _PIECE_CHARS] for i in range(0, len(stream), _PIECE_CHARS))
    held = []  # the reads since the last line feed
    for read in reads:
        head, lf, tail = read.rpartition(b"\n" if isinstance(read, bytes) else "\n")
        if lf:
            yield read[:0].join([*held, head, lf])
            held = []
        held.append(tail)
    if any(held):
        yield held[0][:0].join(held)


def _series_pieces(stream, reference):
    """The samples of each piece of `stream`, without a leading mark, divided by
    `reference`, band-checked and clipped to [0, 1].  A rejected line, or a
    stream with no samples, is raised only after the whole stream is decoded,
    as invalid UTF-8 further on comes first, so a consumer must run it to the
    end before writing any output."""
    # offset: the bytes before the piece, after a mark; count: the samples so far
    fault, before, offset, count = None, 0, 0, 0
    for i, piece in enumerate(_pieces(stream)):
        if not i:
            piece = piece.removeprefix(b"\xef\xbb\xbf" if isinstance(piece, bytes) else "\ufeff")
        try:
            text = piece.decode("utf-8") if isinstance(piece, bytes) else piece
        except UnicodeDecodeError as exc:
            # str(exc), but counting bytes from the text's start, not the piece's
            a, b = offset + exc.start, offset + exc.end - 1
            where = (f"byte 0x{piece[exc.start]:02x} in position {a}" if a == b
                     else f"bytes in position {a}-{b}")
            line = before + len((piece[:exc.start].decode("utf-8") + "x").splitlines())
            raise SeriesFormatError("input is not valid UTF-8: 'utf-8' codec can't "
                                    f"decode {where}: {exc.reason}", line) from None
        offset += len(piece)
        # a plain piece splits as its text does, into lines blank or of one token
        plain = isinstance(piece, bytes) and not piece.translate(None, _PLAIN_BYTES)
        read = plain and fault is None and _plain_values(piece)
        if read:
            values, n = read
        else:
            lines = (piece if plain else text).splitlines()
            n = len(lines)
            if fault is None:
                # float() strips less than str.strip() (not U+001F), so parse stripped text
                data = [*filter(None, lines)] if plain else [
                    line for line in map(str.strip, lines) if line[:1] not in ("", "#")]
                try:
                    values = np.array(data, dtype=float)
                except ValueError:
                    values = np.full(1, np.nan)  # fails the band check below
        if fault is None:
            with np.errstate(over="ignore"):  # an overflow to inf fails the band check
                values /= reference or 1.0
            # nan fails both comparisons, so this also rejects non-finite values
            if np.all((values >= -EDGE_TOLERANCE) & (values <= 1.0 + EDGE_TOLERANCE)):
                count += values.size
                yield np.clip(values, 0.0, 1.0, out=values)
            else:
                fault = _first_fault(text.splitlines(), before, reference)
        before += n
    if fault is not None or not count:
        raise fault or SeriesFormatError("no samples found")


def _plain_values(piece):
    """(float of each token, len(piece.splitlines())) for a plain bytes piece
    whose every token is [-][digits].digits, D the integer of its digits < 10^19
    and k <= 22 of them after the point; None for any other piece.

    The digits, read 8 at a time as little-endian words (SWAR), give D, and
    D / 10^k is one rounding of exact operands if D < 2^53.  Otherwise x = m 2^q
    = fl(fl(D) / 10^k) is within 2 ulp of v = D / 10^k, so r = D 2^(1-q-k) -
    2m 5^k = 2 (v / 2^q - m) 5^k, at most 4 5^k < 2^63, is exact in wrapping
    64-bit arithmetic, and m moves by round-half-even(r / (2 5^k)).  Rows
    outside that argument take float(): a move of 2 or more, which a shift
    1 - q - k < 0, taken as 0, also reads as (r ~ D / 2, k <= 3), or m at or
    below the lowest mantissa of its binade."""
    if b"e" in piece or b"E" in piece or b"+" in piece:
        return None
    b = np.frombuffer(piece, np.uint8)
    tok = b > 13  # neither CR nor LF
    edges = np.flatnonzero(np.diff(tok, prepend=False, append=False))
    starts, ends = edges[::2], edges[1::2]
    dots = np.flatnonzero(b == 46)
    if dots.size != starts.size:
        return None
    neg = b[starts] == 45
    k = ends - dots - 1
    # one '-', first, and one '.' in each token, with 1-22 digits after it
    if (np.count_nonzero(b == 45) != np.count_nonzero(neg)
            or not np.all((dots >= starts) & (k > 0) & (k <= 22))):
        return None
    # a line per CR or LF, but one per CR LF, and one for text after the last
    lines = (b.size - np.count_nonzero(tok) - np.count_nonzero((b[:-1] == 13) & (b[1:] == 10))
             + np.count_nonzero(tok[-1:]))
    # the 24 bytes up to each token's end, less its '.', as 3 words; the bytes
    # before its digits are masked off, and '0'-'9' & 15 is 0-9
    width = ends - starts - 1 - neg
    digits = b"0" * 24 + piece.translate(None, b".")
    rows = np.ndarray((len(digits) - 23,), "V24", digits, strides=(1,))
    keep = (np.arange(24) >= np.arange(25)[:, None]) * np.uint8(15)
    w = (rows[ends - np.arange(ends.size) - 1].view("<u8")
         & keep.view("V24")[np.maximum(24 - width, 0), 0].view("<u8"))
    w = w * 10 + (w >> 8)  # digit pairs, then quads, then the word's 8-digit value
    w = (((w & 0xFF000000FF) * (100 + (10**6 << 32))
          + ((w >> 16) & 0xFF000000FF) * (1 + (10**4 << 32))) >> 32)
    if np.any(w[::3] >= 1000):
        return None
    for i in np.flatnonzero(width > 24):  # digits before the 24 must be zeros
        if digits[24 + ends[i] - i - 1 - width[i]:ends[i] - i - 1].strip(b"0"):
            return None
    d = w[::3] * 10**16 + w[1::3] * 10**8 + w[2::3]
    p5 = 5 ** np.arange(23, dtype=np.uint64)
    f = p5[k]
    x = d.astype(float) / np.ldexp(p5.astype(float), np.arange(23))[k]
    big = d >= 2**53
    if big.any():  # else each row is one rounding
        mantissa, e = np.frexp(x)
        m, q = (mantissa * 2.0**53).astype(np.uint64), e - 53
        s = 1 - q - k
        r = ((d << np.maximum(s, 0).astype(np.uint64)) - 2 * m * f).view(np.int64)
        a = np.abs(r).view(np.uint64)
        step = (a > f) | (a == f) & (m & 1 == 1)
        m = m + (step & (r > 0)) - (step & (r < 0))
        x = np.where(big, np.ldexp(m.astype(float), q), x)
        for i in np.flatnonzero(big & ((a >= 3 * f) | (m <= 2**52))):
            x[i] = float(piece[starts[i] + neg[i]:ends[i]])
    return np.negative(x, out=x, where=neg), lines


def _first_fault(lines, before, reference) -> SeriesFormatError:
    """The error for the first line, numbered on from `before`, that `parse_series` rejects."""
    for number, text in enumerate(map(str.strip, lines), start=before + 1):
        if text[:1] in ("", "#"):
            continue
        try:
            value = float(text)
        except ValueError:
            return SeriesFormatError(f"cannot parse {text!r}", number)
        if not math.isfinite(value):
            return SeriesFormatError(f"non-finite value {text!r}", number)
        value /= reference or 1.0
        if not -EDGE_TOLERANCE <= value <= 1.0 + EDGE_TOLERANCE:
            return SeriesFormatError(
                f"value {value} outside [{-EDGE_TOLERANCE}, {1.0 + EDGE_TOLERANCE}]",
                number)


def histogram(series: TransmittanceSeries, bins: int, value_range=None) -> Histogram:
    """Bin a series into `bins` uniform-width bins.

    The default range is [0, max sample]; samples outside an explicit range
    are dropped from the counts.
    """
    _require("bins", bins, lambda b: isinstance(bins, numbers.Integral) and b >= 2,
             "an integer >= 2")
    if value_range is None:
        hi = float(series.samples.max())
        value_range = (0.0, hi if hi > 0.0 else 1.0)
    lo, hi = _require("value_range", value_range[:2], lambda r: [True, r[1] > r[0]], "ascending")
    counts, edges = np.histogram(series.samples, bins=bins, range=(lo, hi))
    return Histogram(bin_edges=edges, counts=counts)


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting the wandering-beam model to a measured series."""

    geometry: BeamGeometry
    gof: float
    boundary: bool = False


def fit_geometry(series: TransmittanceSeries) -> FitResult:
    """Fit (sigma_b2, a_over_W) to a series by empirical-CDF distance.

    The objective is the mean squared difference between the empirical CDF
    of T = sqrt(eta) and the model CDF, `pdt_cdf`'s kernel, on a grid of 512
    points; each evaluation matches the Weibull law over its whole array of
    a/W.  It is first evaluated on a coarse log-spaced grid over the search
    rectangle, in one broadcast; a compass search then refines the best few
    candidates in lockstep.  Each step probes every candidate one step up
    and down along each axis, clipped to the rectangle, moves it to its best
    probe that lowers the objective and halves its step otherwise, until the
    steps fall below 1e-9 relative.  Deterministic: identical samples give
    an identical result.  The result is flagged `boundary` when the optimum
    sits on the edge of the search rectangle.

    A constant series is degenerate: it pins sigma_b2 = 0 and inverts the
    maximum-transmittance formula for a_over_W.
    """
    return _fit(*_cdf_counts([series.samples]))


def _cdf_counts(pieces):
    """(n, counts, min, max) of the samples in `pieces`, arrays in [0, 1] with at
    least one sample in all; counts[k - 1] counts the T = sqrt(eta) <= k/512, k = 1..512."""
    n, hist, lo, hi = 0, 0, 1.0, 0.0
    for eta in pieces:
        n += eta.size
        lo, hi = min(lo, float(eta.min(initial=1.0))), max(hi, float(eta.max(initial=0.0)))
        # T <= k/512 exactly when ceil(512 T) <= k, as 512 T is exact
        hist = hist + np.bincount(np.ceil(np.sqrt(eta) * 512).astype(int), minlength=513)
    return n, np.cumsum(hist)[1:], lo, hi


def _fit(n, counts, lo, hi) -> FitResult:
    """`fit_geometry` on the facts `_cdf_counts` gathers of a series."""
    if n < SMALL_SERIES_WARN:
        warnings.warn(
            f"fitting {n} samples; at least {SMALL_SERIES_WARN} "
            "recommended for a stable fit", UserWarning, stacklevel=3)

    if hi - lo == 0.0:  # every sample equals hi
        if not 0.0 < hi < 1.0:
            raise ValueError(
                f"constant series at eta = {hi} has no finite geometry")
        a_over_W = math.sqrt(-math.log1p(-hi) / 2.0)
        return FitResult(BeamGeometry(a_over_W=a_over_W, sigma_b2=0.0), 0.0)

    t_grid = np.arange(1, 513) / 512  # the k/512 of `_cdf_counts`
    empirical = counts / n

    def objective(a_over_W, sigma_b2):
        # the model CDF of pdt_cdf, one grid row per geometry
        model = _offset_cdf(t_grid, *_weibull(a_over_W[..., None]), sigma_b2[..., None])[2]
        return np.mean((empirical - model) ** 2, axis=-1)

    (s_lo, s_hi), (a_lo, a_hi) = FIT_BOUNDS
    a, s = np.meshgrid(np.geomspace(a_lo, a_hi, _FIT_GRID),
                       np.geomspace(s_lo, s_hi, _FIT_GRID), indexing="ij")
    coarse = objective(a[:, :1], s)
    starts = np.argsort(coarse, axis=None, kind="stable")[:_FIT_CANDIDATES]
    a, s, f = a.flat[starts], s.flat[starts], coarse.flat[starts]
    # one log step for both axes, first the coarse grid's a/W spacing
    step = np.full(starts.size, math.log(a_hi / a_lo) / (_FIT_GRID - 1))
    live = np.arange(starts.size)
    while live.size:
        up, down = np.exp(step[live]), np.exp(-step[live])
        sl, al = s[live], a[live]
        probe_s = np.clip([sl * up, sl * down, sl, sl], s_lo, s_hi)
        probe_a = np.clip([al, al, al * up, al * down], a_lo, a_hi)
        probe_f = objective(probe_a, probe_s)
        pick = probe_f.argmin(axis=0), np.arange(live.size)
        lower = probe_f[pick] < f[live]
        moved = live[lower]
        s[moved], a[moved], f[moved] = (x[pick][lower] for x in (probe_s, probe_a, probe_f))
        step[live[~lower]] *= 0.5
        live = live[step[live] > 1e-9]
    best = int(f.argmin())
    geometry = BeamGeometry(a_over_W=a[best], sigma_b2=s[best])
    on_edge = any(abs(v - lo) < 1e-9 or abs(v - hi) < 1e-9
                  for v, (lo, hi) in zip((geometry.sigma_b2, geometry.a_over_W), FIT_BOUNDS))
    return FitResult(geometry, gof=float(f[best]), boundary=on_edge)
