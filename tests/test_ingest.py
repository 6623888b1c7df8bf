"""Series parsing, histograms, and geometry fitting on synthetic data."""

import io
import math
import re
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2 as chi2_dist

from beamfade import ingest
from beamfade.channel import (
    BeamGeometry,
    pdt_cdf,
    sample_transmittance,
    weibull_params,
)
from beamfade.ingest import (
    Histogram,
    SeriesFormatError,
    TransmittanceSeries,
    fit_geometry,
    histogram,
    parse_series,
)

from oracles import parse_series_loop

REF_GEOMETRY = BeamGeometry(1.0, 0.3)


def quiet_fit(series):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fit_geometry(series)


class TestParseSeries:

    def test_plain_lines(self):
        series = parse_series("0.5\n0.25\n0.75\n")
        assert np.array_equal(series.samples, [0.5, 0.25, 0.75])
        assert series.count == 3

    def test_bytes_and_file_objects(self):
        assert parse_series(b"0.5\n0.25\n").count == 2
        assert parse_series(io.StringIO("0.5\n0.25\n")).count == 2
        assert parse_series(io.BytesIO(b"0.5\n0.25\n")).count == 2

    def test_crlf_comments_and_blanks(self):
        text = "# header\r\n0.5\r\n\r\n  # note\r\n0.25\r\n"
        series = parse_series(text)
        assert np.array_equal(series.samples, [0.5, 0.25])

    def test_reference_normalization(self):
        series = parse_series("1.5\n3.0\n", reference=3.0)
        assert np.array_equal(series.samples, [0.5, 1.0])

    def test_edge_band_clamped(self):
        series = parse_series("-0.005\n1.004\n0.5\n")
        assert series.samples[0] == 0.0
        assert series.samples[1] == 1.0

    def test_rejects_value_outside_band(self):
        with pytest.raises(SeriesFormatError, match="line 2"):
            parse_series("0.5\n1.2\n")
        with pytest.raises(SeriesFormatError, match="line 1"):
            parse_series("-0.1\n0.5\n")

    def test_rejects_unparsable_line(self):
        with pytest.raises(SeriesFormatError, match="line 3"):
            parse_series("0.5\n0.25\nabc\n")

    def test_rejects_non_finite(self):
        with pytest.raises(SeriesFormatError, match="line 1"):
            parse_series("nan\n0.5\n")
        with pytest.raises(SeriesFormatError):
            parse_series("inf\n")

    def test_rejects_empty_input(self):
        with pytest.raises(SeriesFormatError, match="no samples"):
            parse_series("# only comments\n\n")

    def test_rejects_bad_reference(self):
        with pytest.raises(SeriesFormatError):
            parse_series("0.5\n", reference=0.0)

    @pytest.mark.parametrize("reference", [
        "2", b"2", np.array([2.0, 3.0]), np.array([2.0]), 2 + 0j, -1.0, math.nan, math.inf,
        10**400, Decimal("2")])
    def test_rejects_non_real_reference(self, reference):
        # numpy's own error for these would not name the field
        with pytest.raises(SeriesFormatError, match="^reference must be positive, got "):
            parse_series("0.5\n", reference=reference)

    @pytest.mark.parametrize("reference", [
        2.5, 5, np.float32(2.5), np.int64(5), Fraction(5, 2), 10**300, np.array(2.5)])
    def test_real_references_divide_as_floats(self, reference):
        got = parse_series(b"0.5\n1\n", reference=reference).samples
        assert got.tobytes() == (np.array([0.5, 1.0]) / float(reference)).tobytes()

    def test_rejects_bad_encoding(self):
        with pytest.raises(SeriesFormatError, match="UTF-8"):
            parse_series(b"\xff\xfe0.5\n")

    def test_label_stored(self):
        assert parse_series("0.5\n", label="run4").source_label == "run4"


class TestParseSeriesEdgeCases:
    """What counts as a line and as a number, and which line an error names."""

    @pytest.mark.parametrize("text, line", [
        ("0.5\n0.5 # note\n", 2),
        ("0.5 0.6", 1),
        ("0.5\n0.5,0.6\n", 2),
        ("0.25\n\n# c\nnan\n", 4),
        ("0.25\nNaN\n", 2),
        ("0.5\ninf\n", 2),
        ("0.5\n-Infinity\n", 2),
        ("0.5\n1e400\n", 2),
        # an out-of-band value before an unparsable line: file order decides
        ("0.5\n1.5\n0.25\nabc\n", 2),
        ("0.5\nabc\n0.25\n1.5\n", 2),
        # form feed and U+0085 end lines too
        ("0.5\x0c0.25\x85abc\n", 3),
    ])
    def test_rejected_with_line(self, text, line):
        with pytest.raises(SeriesFormatError, match=f"^line {line}: ") as exc:
            parse_series(text)
        assert exc.value.line_number == line
        with pytest.raises(ValueError) as oracle:
            parse_series_loop(text)
        assert str(exc.value) == str(oracle.value)

    @pytest.mark.parametrize("raw, line", [
        (b"\xff\xfe0.5\n", 1),
        (b"0.5\r\n0.25\n# \xe9t\xe9\n", 3),
        (b"0.5\x0c0.25\r\xc3", 3),
    ])
    def test_invalid_utf8_names_line(self, raw, line):
        with pytest.raises(SeriesFormatError, match=f"^line {line}: input is not valid UTF-8"):
            parse_series(raw)

    @pytest.mark.parametrize("raw", [b"0.5\r\n0.25\n", b"# head\n\n0.5", b"1\x0c0"])
    def test_leading_byte_order_mark_dropped(self, raw):
        got = parse_series(b"\xef\xbb\xbf" + raw).samples
        assert got.tobytes() == parse_series(raw).samples.tobytes()

    def test_byte_order_mark_inside_rejected(self):
        # only a mark at the start of the bytes is dropped
        with pytest.raises(SeriesFormatError, match=r"^line 2: cannot parse '\\ufeff0\.5'$"):
            parse_series(b"0.5\n\xef\xbb\xbf0.5\n")

    @pytest.mark.parametrize("raw", [b"0.5\r\n0.25\n", b"# head\n\n0.5", b"1\x0c0"])
    def test_leading_byte_order_mark_dropped_from_text(self, raw):
        # text from a stream opened as UTF-8, not utf-8-sig, still holds the mark
        want = parse_series(raw).samples.tobytes()
        text = "\ufeff" + raw.decode("utf-8")
        assert parse_series(text).samples.tobytes() == want
        assert parse_series(io.StringIO(text)).samples.tobytes() == want

    @pytest.mark.parametrize("raw, line", [
        ("\ufeff\ufeff0.5\n", 1), (b"\xef\xbb\xbf\xef\xbb\xbf0.5\n", 1), ("0.5\n\ufeff0.5\n", 2)])
    def test_second_byte_order_mark_rejected(self, raw, line):
        # one leading mark is dropped, from text as from bytes; any other is an error
        with pytest.raises(SeriesFormatError, match=rf"^line {line}: cannot parse '\\ufeff0\.5'$"):
            parse_series(raw)

    @pytest.mark.parametrize("raw, line", [
        (b"\xff0.5\n", 1),
        (b"0.5\n\xff", 2),
        (b"0.5\r\n0.25\n# \xe9t\xe9\n", 3),
    ])
    def test_invalid_utf8_after_byte_order_mark_names_line(self, raw, line):
        # the decoder counts its error offset from after the mark
        with pytest.raises(SeriesFormatError, match=f"^line {line}: input is not valid UTF-8"):
            parse_series(raw)
        with pytest.raises(SeriesFormatError, match=f"^line {line}: input is not valid UTF-8"):
            parse_series(b"\xef\xbb\xbf" + raw)

    @pytest.mark.parametrize("text, reference, samples", [
        ("1_0\n", 20.0, [0.5]),
        ("\u0660.\u0665\n\uff10.\uff12\uff15\n", None, [0.5, 0.25]),
        ("0.5\x0c0.25\x850.75\u20281\n", None, [0.5, 0.25, 0.75, 1.0]),
        # str.strip removes U+001F, U+00A0 and U+3000, which float alone would not all take
        ("\x1f0.5\x1f\n\xa00.25\u3000\n", None, [0.5, 0.25]),
        ("-0.0\n-0.005\n1.004\n", None, [-0.0, 0.0, 1.0]),
    ])
    def test_parsed_as_python_float(self, text, reference, samples):
        got = parse_series(text, reference=reference).samples
        assert got.tobytes() == np.array(samples).tobytes()
        assert got.tobytes() == np.array(parse_series_loop(text, reference)).tobytes()

    def test_reference_overflow_is_out_of_band(self):
        with pytest.raises(SeriesFormatError, match="^line 2: value inf outside"):
            parse_series("0.5e-300\n1e300\n", reference=1e-10)


# lines a measured file may hold, valid or not, with separators str.splitlines
# knows; the parser must agree with the per-line oracle on every file made of them
SAMPLE_LINES = st.one_of(
    st.floats(min_value=-0.02, max_value=1.02).map(repr),
    st.floats(min_value=-0.02, max_value=1.02).map(lambda x: f"{x:.9f}"),
    st.floats(min_value=0.0, max_value=3.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["", "   ", "\t", "# note", "  # x", "0.5 # note", "0.5 0.6",
                     "0.5,0.6", "nan", "-inf", "Infinity", "1e999", "abc", "1_0",
                     "0_.5", "\u0660.\u0665", "-0", "-0.01", "1.01", "0x1", "1e-320"]),
    st.text(max_size=6),
)
PADDING = st.sampled_from(["", " ", "\t", "\x1f", "\xa0", "\u3000"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])


@st.composite
def series_files(draw):
    parts = []
    for line in draw(st.lists(SAMPLE_LINES, max_size=12)):
        parts += [draw(PADDING), line, draw(PADDING), draw(LINE_ENDS)]
    if parts and draw(st.booleans()):
        parts.pop()  # no line end after the last line
    return "".join(parts)


def assert_agrees_with_loop(text, reference):
    try:
        expected = np.array(parse_series_loop(text, reference))
    except ValueError as exc:
        with pytest.raises(SeriesFormatError) as got:
            parse_series(text, reference=reference)
        assert str(got.value) == str(exc)
    else:
        got = parse_series(text, reference=reference).samples
        assert got.tobytes() == expected.tobytes()


class TestParseSeriesOracle:

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(text=series_files(),
           reference=st.one_of(st.none(), st.floats(min_value=0.5, max_value=4.0),
                               st.sampled_from([1e-300, 1e300])))
    @example(text="0.5\n1.5\n0.25\nabc\n", reference=None)
    @example(text="\x1f0.5\x1f\x850.25", reference=None)
    @example(text="1e300\n", reference=1e-300)
    def test_agrees_with_per_line_loop(self, text, reference):
        assert_agrees_with_loop(text, reference)


class TestParseSeriesPieces:
    """The text is converted in pieces; pieces of a few characters change nothing."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(text=series_files(), piece_chars=st.integers(min_value=1, max_value=12),
           reference=st.one_of(st.none(), st.sampled_from([0.5, 2.0])))
    # the search for a cut starts on the CR of a CR LF
    @example(text="0.5\r\n0.25\r\n0.75\r\n", piece_chars=4, reference=None)
    # no LF at all: one piece
    @example(text="0.5\r0.25\x850.75\u20280.125", piece_chars=2, reference=None)
    # a bad line, or one out of band, in a later piece
    @example(text="# c\n\n0.5\n0.25\n0.75\nabc\n", piece_chars=3, reference=None)
    @example(text="0.5\r\n\r\n# c\r\n0.25\n1.5\n", piece_chars=1, reference=None)
    def test_agrees_with_per_line_loop(self, text, piece_chars, reference):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_PIECE_CHARS", piece_chars)
            pieces = list(ingest._pieces(text))
            assert "".join(pieces) == text
            assert [line for piece in pieces for line in piece.splitlines()] \
                == text.splitlines()
            assert_agrees_with_loop(text, reference)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(text=series_files(), piece_chars=st.integers(min_value=1, max_value=12),
           reference=st.one_of(st.none(), st.sampled_from([0.5, 2.0])),
           mark=st.sampled_from([b"", b"\xef\xbb\xbf"]),
           bad=st.sampled_from([b"", b"\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80"]),
           where=st.floats(min_value=0.0, max_value=1.0))
    # a band fault, then invalid UTF-8, in later pieces: the decode of the
    # whole text meets the invalid byte first
    @example(text="0.5\n0.25\n1.5\n0.75\n0.5\n", piece_chars=3, reference=None,
             mark=b"\xef\xbb\xbf", bad=b"\xff", where=0.9)
    @example(text="0.5\n0.25\n0.75\n0.5\n1.5\n", piece_chars=2, reference=None,
             mark=b"", bad=b"\xe2\x82", where=0.5)
    def test_streams_agree_with_whole_text(self, text, piece_chars, reference, mark,
                                           bad, where):
        cut = int(where * len(text))
        raw = mark + text[:cut].encode() + bad + text[cut:].encode()

        def outcome(stream):
            try:
                return parse_series(stream, reference=reference).samples.tobytes()
            except SeriesFormatError as exc:
                return str(exc), exc.line_number

        whole = outcome(raw)
        try:
            decoded = raw.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            # the byte position counts from after the mark, as utf-8-sig's does
            assert whole[0].endswith(f": input is not valid UTF-8: {exc}")
            decoded = None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_PIECE_CHARS", piece_chars)
            assert outcome(io.BytesIO(raw)) == whole
            assert outcome(raw) == whole
            if decoded is not None:
                text = raw.decode("utf-8")  # the mark kept, as from a stream opened as UTF-8
                assert outcome(io.StringIO(text, newline="")) == whole
                assert outcome(text) == whole

    def test_memory_per_sample(self):
        # float64 pieces plus their concatenation are 16 B per sample; one
        # Python str per line would cost about 87 B
        n = 200_000
        text = "%.17g\n" * n % tuple(np.random.default_rng(0).random(n).tolist())
        tracemalloc.start()
        try:
            assert parse_series(text).count == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n + 2**20

    def test_memory_per_sample_from_byte_stream(self):
        # the bytes are read and decoded a piece at a time; the decoded text of
        # the whole stream would cost about 19 B per sample more
        n = 200_000
        text = "%.17g\n" * n % tuple(np.random.default_rng(0).random(n).tolist())
        stream = io.BytesIO(text.encode())
        tracemalloc.start()
        try:
            assert parse_series(stream).count == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * n + 2**21

    @pytest.mark.parametrize("n", [100_000, 400_000])
    def test_pieces_in_bounded_memory(self, n):
        # a consumer that keeps only a running count holds one piece at a time,
        # its text, lines and samples, whatever the length of the stream
        stream = io.BytesIO(b"0.123456789012345678\n" * n)
        tracemalloc.start()
        try:
            count = sum(piece.size for piece in ingest._series_pieces(stream, None))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == n
        assert peak <= 2**21


# lines of plain numeric bytes, which skip the strip and the blank and '#'
# filter: in-band samples and blank lines, then plain tokens that fail
PLAIN_LINES = st.one_of(
    st.floats(min_value=-0.01, max_value=1.01).map(lambda x: b"%.17g" % x),
    st.floats(min_value=-0.01, max_value=1.01).map(lambda x: b"%.9f" % x),
    st.sampled_from([b"", b"-0", b"1e-320", b"0", b"1"]),
)
BAD_PLAIN_LINES = st.one_of(
    st.floats(min_value=0.0, max_value=3.0).map(lambda x: b"%.17g" % x),
    st.sampled_from([b"1e400", b"-0.02", b"1.02", b"1e", b"+-1", b".", b"-", b"E5", b"1.2.3"]),
)
# lines that send their piece to the decoded text
NOT_PLAIN_LINES = st.sampled_from([b"#", b"# 0.5", b" ", b"\t", b" 0.5", b"0.5 ", b"\x0c",
                                   b"\x0b", b"1_0", b"nan", "\u0661".encode(), b"0.5 0.6"])


@st.composite
def plain_files(draw):
    parts = []
    for _ in range(draw(st.integers(min_value=0, max_value=16))):
        kind = draw(st.integers(min_value=0, max_value=15))
        lines = (NOT_PLAIN_LINES, BAD_PLAIN_LINES)[kind] if kind < 2 else PLAIN_LINES
        parts += [draw(lines), draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))]
    if parts and draw(st.booleans()):
        parts.pop()  # no line end after the last line
    return b"".join(parts)


def parse_outcome(stream, reference):
    try:
        return parse_series(stream, reference=reference).samples.tobytes()
    except SeriesFormatError as exc:
        return str(exc), exc.line_number


def loop_outcome(raw, reference):
    """`parse_outcome` of `raw` by the per-line oracle, on the decode of the whole file."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        return f"line {line}: input is not valid UTF-8: {exc}", line
    try:
        return np.array(parse_series_loop(text, reference)).tobytes()
    except ValueError as exc:
        number, colon, _ = str(exc).removeprefix("line ").partition(":")
        return str(exc), int(number) if colon else None


class TestParseSeriesPlainBytes:
    """Pieces of bytes that hold only digits, '.', 'e', 'E', '+', '-', CR and LF
    are split and converted as bytes; the outcome is that of the decoded text."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(raw=plain_files(),
           piece_chars=st.one_of(st.integers(min_value=1, max_value=12),
                                 st.just(ingest._PIECE_CHARS)),
           reference=st.sampled_from([None, 2.5, 1e-300]))
    # a blank line inside a plain piece is skipped, not a fault
    @example(raw=b"0.5\n\n0.25\r\n\r\n0.75\n", piece_chars=ingest._PIECE_CHARS,
             reference=None)
    # a '#' or a whitespace line makes the piece not plain; its samples stay
    @example(raw=b"0.5\n#\n0.25\n", piece_chars=ingest._PIECE_CHARS, reference=None)
    @example(raw=b"0.5\r\n \r\n0.25\r\n", piece_chars=ingest._PIECE_CHARS, reference=None)
    # a bad token in a plain piece after several plain pieces
    @example(raw=b"0.5\n0.25\r\n\n0.75\r0.5\n1e\n0.25\n", piece_chars=4, reference=None)
    # a band fault in a plain piece, then invalid UTF-8 later: the UTF-8 error wins
    @example(raw=b"0.5\n1.5\n0.25\n0.75\n0.\xff5\n", piece_chars=4, reference=None)
    # CR line ends only: no line feed, so one piece
    @example(raw=b"0.5\r0.25\r\r1e-320\r-0", piece_chars=3, reference=None)
    # under a tiny reference 1e-320 stays in band, and 1e400 is inf, not finite
    @example(raw=b"1e-320\n1e400\n", piece_chars=ingest._PIECE_CHARS, reference=1e-300)
    def test_agrees_with_per_line_loop(self, raw, piece_chars, reference):
        want = loop_outcome(raw, reference)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_PIECE_CHARS", piece_chars)
            assert parse_outcome(raw, reference) == want
            assert parse_outcome(io.BytesIO(raw), reference) == want
            if raw.isascii():
                # text is never plain, so every piece of it takes the decoded route
                assert parse_outcome(raw.decode(), reference) == want


def in_contract(token):
    """Whether `_plain_values` reads `token`: [-][digits].digits, with at most 19
    significant digits and at most 22 of them after the point."""
    match = re.fullmatch(rb"-?([0-9]*)\.([0-9]{1,22})", token)
    return bool(match) and len((match[1] + match[2]).lstrip(b"0")) <= 19


@st.composite
def digit_tokens(draw):
    """1-19 random digits, k of them after the point, behind 0-30 zeros."""
    digits = draw(st.text("0123456789", min_size=1, max_size=19))
    k = draw(st.integers(min_value=1, max_value=22))
    text = "0" * max(draw(st.integers(min_value=0, max_value=30)), k - len(digits)) + digits
    return f"{text[:-k]}.{text[-k:]}".encode()


def midpoint(m, q):
    """The exact decimal of (m + 1/2) 2^q, halfway between two doubles."""
    text = format(Decimal(2 * m + 1) * Decimal(2) ** (q - 1), "f")
    return (text if "." in text else text + ".0").encode()


PLAIN_TOKENS = st.one_of(
    st.tuples(st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=0, max_value=18),
              st.integers(min_value=1, max_value=22)).map(
        lambda t: b"%.*f" % (t[2], t[0] * 10 ** t[1])).filter(in_contract),
    st.tuples(st.floats(min_value=1e-4, max_value=1e15), st.integers(min_value=1, max_value=17)).map(
        lambda t: b"%.*g" % (t[1], t[0])).filter(in_contract),
    digit_tokens(),
    # exact ties between doubles, which round half to even
    st.builds(midpoint, st.integers(min_value=2**52, max_value=2**53 - 1),
              st.integers(min_value=-3, max_value=1)).filter(in_contract),
    # 2^p and its neighbours, to a few decimals: the binade edges
    st.tuples(st.integers(min_value=-20, max_value=62), st.sampled_from([-np.inf, 0.0, np.inf]),
              st.integers(min_value=1, max_value=22)).map(
        lambda t: b"%.*f" % (t[2], np.nextafter(2.0 ** t[0], t[1]) if t[1] else 2.0 ** t[0])
    ).filter(in_contract),
)


@st.composite
def plain_pieces(draw):
    """Tokens in contract, some negative, between runs of LF, CRLF and CR."""
    parts = []
    for token in draw(st.lists(PLAIN_TOKENS, max_size=30)):
        parts += [draw(st.sampled_from([b"", b"-"])) + token.removeprefix(b"-"),
                  *draw(st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=1, max_size=3))]
    if parts and draw(st.booleans()):
        parts.pop()  # no line end after the last line
    return b"".join(parts)


class TestPlainValues:
    """`_plain_values` reads a plain piece of [-][digits].digits tokens by integer
    arithmetic; its values and line count are those of float() and splitlines."""

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(piece=plain_pieces())
    @example(piece=b"")
    @example(piece=b"\r\n\n\r")
    # 1 - q - k < 0: the residual reads as a move of 2 or more, so float() reads the row
    @example(piece=b"9007199254740993.0\n-9071255582292515.106\n")
    # rounded to 2^p, a binade's lowest mantissa, so float() reads the row; the
    # first two round below 2^p
    @example(piece=b"0.99999999999999992\r\n-511.9999999999999502\r0.99999999999999999\r"
                   b"1.000000000000000001\n2251799813685248.25")
    # ties that round to even, and leading zeros beyond the 24 digits read
    @example(piece=b"4503599627370497.5\n4503599627370498.5\n2251799813685249.75\n"
                   b"000000000000000000000000000001.5\n0.0000000000000000000001\n")
    def test_reads_as_float(self, piece):
        values, lines = ingest._plain_values(piece)
        want = np.array([*filter(None, piece.splitlines())], dtype=float)
        assert values.tobytes() == want.tobytes()
        assert lines == len(piece.splitlines())

    @pytest.mark.parametrize("token", [
        b".", b"-", b"-.", b"1.2.3", b"--1.0", b"1-2.0", b"1.0-", b"1.0e", b"+1.0", b"5", b"1e5",
        b"12345678901234567890.5", b"1000000000000000000000000.5", b"0.12345678901234567890123",
        b"0.00000000000000000000001", b"1.2.3\n45"])
    @pytest.mark.parametrize("reference", [None, 1e20])
    def test_other_pieces_take_float(self, token, reference):
        raw = b"0.5\n" + token + b"\r\n0.25\n"
        assert ingest._plain_values(raw) is None
        # the outcome is the per-line reading's: values, or the error of line 2
        assert parse_outcome(raw, reference) == loop_outcome(raw, reference)


class TestTransmittanceSeries:

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TransmittanceSeries(np.array([]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TransmittanceSeries(np.array([0.5, 1.5]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TransmittanceSeries(np.array([0.5, math.nan]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            TransmittanceSeries(np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(2, 2), (0,), (), (1, 3)])
    def test_shape_message_names_the_shape(self, shape):
        with pytest.raises(ValueError, match=rf"^samples must be a non-empty 1-D array, "
                                             rf"got shape {re.escape(str(shape))}$"):
            TransmittanceSeries(np.zeros(shape))

    def test_keeps_no_view_of_the_callers_arrays(self):
        # a write to the caller's float64 array after the checks must not
        # reach the checked, frozen value
        eta, edges, counts = np.array([0.5, 0.25]), np.array([0.0, 0.5, 1.0]), np.array([1, 2])
        series = TransmittanceSeries(eta)
        hist = Histogram(bin_edges=edges, counts=counts)
        eta[0], edges[1], counts[0] = 5.0, 2.0, -7
        assert series.samples.tolist() == [0.5, 0.25]
        assert hist.bin_edges.tolist() == [0.0, 0.5, 1.0]
        assert hist.counts.tolist() == [1, 2]


class TestHistogram:

    def test_counts_and_edges(self):
        series = parse_series("0.1\n0.2\n0.3\n0.8\n")
        hist = histogram(series, bins=2, value_range=(0.0, 1.0))
        assert np.array_equal(hist.counts, [3, 1])
        assert np.allclose(hist.bin_edges, [0.0, 0.5, 1.0])
        assert hist.total == 4

    def test_default_range_tops_at_max(self):
        series = parse_series("0.1\n0.4\n")
        hist = histogram(series, bins=4)
        assert hist.bin_edges[0] == 0.0
        assert hist.bin_edges[-1] == pytest.approx(0.4)

    def test_all_zero_series_uses_unit_range(self):
        series = parse_series("0\n0\n")
        hist = histogram(series, bins=2)
        assert hist.bin_edges[-1] == 1.0
        assert hist.counts[0] == 2

    def test_explicit_range_drops_outsiders(self):
        series = parse_series("0.1\n0.5\n0.9\n")
        hist = histogram(series, bins=2, value_range=(0.4, 0.6))
        assert hist.total == 1

    def test_rejects_few_bins_or_empty_range(self):
        series = parse_series("0.5\n")
        with pytest.raises(ValueError):
            histogram(series, bins=1)
        with pytest.raises(ValueError):
            histogram(series, bins=4, value_range=(0.6, 0.6))

    @pytest.mark.parametrize("bins", [2.5, np.float64(3)])
    def test_rejects_non_integer_bins(self, bins):
        with pytest.raises(ValueError, match="^bins "):
            histogram(parse_series("0.5\n"), bins)

    def test_validates_fields(self):
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0, 1.0]), counts=np.array([1]))
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0, 0.5, 0.4]),
                      counts=np.array([1, 1]))
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0, 0.5, 1.0]),
                      counts=np.array([1, -2]))
        with pytest.raises(ValueError, match="^counts length"):
            Histogram(bin_edges=np.array([0.0, 0.5, 1.0]), counts=np.array([1]))
        with pytest.raises(ValueError, match="^counts length"):
            Histogram(bin_edges=np.array([0.0, 0.5, 1.0]), counts=np.array([[1, 1]]))

    @pytest.mark.parametrize("counts, got", [
        ([10**400, 1], str(10**400)), (["1", "1"], "'1'"), ([1, 1.5], "1.5"),
        ([2**63, 1], re.escape(repr(2.0**63))), ([2**64, 1], re.escape(repr(2.0**64)))])
    def test_counts_named(self, counts, got):
        # numpy has no rint for a Python int, nor a comparison of text with 0;
        # the cast to int would wrap 2**63 to a negative count and refuse 2**64
        with pytest.raises(ValueError, match=rf"^counts .*got {got}$"):
            Histogram(bin_edges=[0.0, 0.5, 1.0], counts=counts)

    def test_counts_beyond_float_precision_stay_exact(self):
        hist = Histogram(bin_edges=[0.0, 0.5, 1.0], counts=[2**60 + 1, 1])
        assert hist.counts.tolist() == [2**60 + 1, 1]
        assert hist.total == 2**60 + 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_rejects_non_finite_edge(self, bad, where):
        # a comparison with nan is false, so an ascending-order test alone lets it through
        edges = np.array([0.0, 0.5, 1.0])
        edges[where] = bad
        with pytest.raises(ValueError, match=rf"^bin_edges must be finite .*got {bad}$"):
            Histogram(bin_edges=edges, counts=np.array([1, 1]))

    def test_descending_edge_named(self):
        with pytest.raises(ValueError, match=r"^bin_edges .*strictly ascending, got 0\.4$"):
            Histogram(bin_edges=np.array([0.0, 0.5, 0.4]), counts=np.array([1, 1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1])
    def test_rejects_non_finite_value_range(self, bad, where):
        value_range = [0.0, 1.0]
        value_range[where] = bad
        with pytest.raises(ValueError, match=rf"^value_range must be finite .*got {bad}$"):
            histogram(parse_series("0.5\n"), 4, tuple(value_range))

    @pytest.mark.parametrize("value_range", [(0.6, 0.6), (0.6, 0.2)])
    def test_rejects_empty_value_range(self, value_range):
        with pytest.raises(ValueError, match=rf"^value_range .*ascending, got {value_range[1]}$"):
            histogram(parse_series("0.5\n"), 4, value_range)

    @pytest.mark.parametrize("bad", [0.5, -0.5, 1.7, math.nan])
    def test_rejects_fractional_or_negative_counts(self, bad):
        # counts are checked before the cast to int, which would make 1.7
        # into 1 and -0.5 into 0
        with pytest.raises(ValueError, match=rf"^counts .*got {bad}$"):
            Histogram(bin_edges=np.array([0.0, 0.5, 1.0]), counts=np.array([1.0, bad]))

    def test_integral_float_counts_become_ints(self):
        hist = Histogram(bin_edges=np.array([0.0, 0.5, 1.0]), counts=np.array([3.0, 0.0]))
        assert hist.counts.dtype.kind == "i" and hist.counts.tolist() == [3, 0]

    def test_binned_model_agreement(self):
        # histogram of 1e6 synthetic samples vs model bin probabilities,
        # scored by Pearson chi-square on well-filled bins
        eta = sample_transmittance(REF_GEOMETRY, seed=20260819, n=1_000_000)
        series = TransmittanceSeries(eta)
        hist = histogram(series, bins=100, value_range=(0.0, 1.0))
        params = weibull_params(1.0)
        probs = np.diff(pdt_cdf(np.sqrt(hist.bin_edges), params, 0.3))
        expected = probs * series.count
        mask = expected > 5.0
        stat = float(np.sum((hist.counts[mask] - expected[mask]) ** 2
                            / expected[mask]))
        dof = int(mask.sum()) - 1
        assert stat < chi2_dist.ppf(0.999, dof)


class TestFitGeometry:

    def test_round_trip_frozen(self):
        eta = sample_transmittance(REF_GEOMETRY, seed=7, n=100_000)
        result = fit_geometry(TransmittanceSeries(eta))
        assert result.geometry.sigma_b2 == pytest.approx(0.3, rel=0.05)
        assert result.geometry.a_over_W == pytest.approx(1.0, rel=0.05)
        assert result.gof < 1e-5
        assert not result.boundary

    def test_order_free(self):
        eta = sample_transmittance(REF_GEOMETRY, seed=7, n=20_000)
        direct = fit_geometry(TransmittanceSeries(eta))
        rng = np.random.default_rng(0)
        shuffled = fit_geometry(TransmittanceSeries(rng.permutation(eta)))
        assert direct.geometry == shuffled.geometry
        assert direct.gof == shuffled.gof

    def test_error_shrinks_with_sample_count(self):
        def rel_err(n):
            eta = sample_transmittance(REF_GEOMETRY, seed=7, n=n)
            got = quiet_fit(TransmittanceSeries(eta)).geometry
            return math.hypot(got.sigma_b2 / 0.3 - 1.0, got.a_over_W - 1.0)

        assert rel_err(100_000) < rel_err(10_000) / 2.0

    def test_reference_normalization_equivalent(self):
        # doubled raw values parsed against reference 2 give bit-identical
        # samples, hence an identical fit
        eta = sample_transmittance(REF_GEOMETRY, seed=5, n=20_000)
        plain = "\n".join(f"{x:.17g}" for x in eta)
        doubled = "\n".join(f"{2.0 * x:.17g}" for x in eta)
        a = fit_geometry(parse_series(plain))
        b = fit_geometry(parse_series(doubled, reference=2.0))
        assert a.geometry == b.geometry

    def test_exact_model_samples_still_recovered(self):
        eta = sample_transmittance(REF_GEOMETRY, seed=7, n=100_000,
                                   model="exact")
        result = fit_geometry(TransmittanceSeries(eta))
        assert result.geometry.sigma_b2 == pytest.approx(0.3, rel=0.05)
        assert result.geometry.a_over_W == pytest.approx(1.0, rel=0.05)

    def test_constant_series_pins_wandering_to_zero(self):
        eta0 = 1.0 - math.exp(-2.0)
        result = quiet_fit(TransmittanceSeries(np.full(64, eta0)))
        assert result.geometry.sigma_b2 == 0.0
        assert result.geometry.a_over_W == pytest.approx(1.0, abs=1e-12)
        assert result.gof == 0.0

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_degenerate_constant_rejected(self, value):
        with pytest.raises(ValueError, match="constant series"):
            quiet_fit(TransmittanceSeries(np.full(8, value)))

    def test_small_series_warns(self):
        eta = sample_transmittance(REF_GEOMETRY, seed=2, n=200)
        with pytest.warns(UserWarning, match="200 samples"):
            fit_geometry(TransmittanceSeries(eta))

    def test_boundary_flagged_for_out_of_domain_wandering(self):
        # sigma_b2 = 3 lies beyond the search rectangle; the fit must pin
        # the edge and say so
        eta = sample_transmittance(BeamGeometry(1.0, 3.0), seed=13, n=20_000)
        result = quiet_fit(TransmittanceSeries(eta))
        assert result.boundary
        assert result.geometry.sigma_b2 == 2.0

    # (sigma_b2, a_over_W, gof) that the former search, four scipy
    # Nelder-Mead starts with xatol 1e-6, found on the fixtures above; the
    # objective is unchanged, so the fit may only come closer to its minimum
    @pytest.mark.parametrize("geometry, seed, n, model, former", [
        (REF_GEOMETRY, 7, 100_000, "approx",
         (0.29924714046061174, 1.0003169340776925, 3.389007326636589e-07)),
        (REF_GEOMETRY, 7, 100_000, "exact",
         (0.2993583057477692, 0.9881470090770377, 5.669664171572408e-06)),
        (REF_GEOMETRY, 5, 20_000, "approx",
         (0.30004012019962156, 1.0006930935721186, 7.942250244807275e-07)),
        (BeamGeometry(1.0, 3.0), 13, 20_000, "approx",
         (2.0, 1.45012678005414, 0.004013687871694817)),
    ])
    def test_agrees_with_former_simplex_search(self, geometry, seed, n, model, former):
        eta = sample_transmittance(geometry, seed=seed, n=n, model=model)
        result = fit_geometry(TransmittanceSeries(eta))
        assert result.geometry.sigma_b2 == pytest.approx(former[0], abs=1e-5)
        assert result.geometry.a_over_W == pytest.approx(former[1], abs=1e-5)
        assert result.gof <= former[2]

    @pytest.mark.parametrize("aw, s2", [(0.6, 0.05), (1.0, 0.3), (1.6, 0.6), (2.2, 0.9),
                                        (3.0, 1.2)])
    def test_gof_is_distance_to_public_cdf(self, aw, s2):
        # the fit's model CDF is pdt_cdf: its gof is the mean squared distance
        # of the ECDF of sqrt(eta) from pdt_cdf at the returned geometry
        eta = sample_transmittance(BeamGeometry(aw, s2), seed=3, n=20_000)
        result = fit_geometry(TransmittanceSeries(eta))
        grid = np.linspace(0.0, 1.0, 513)[1:]
        ecdf = np.searchsorted(np.sort(np.sqrt(eta)), grid, side="right") / eta.size
        got = result.geometry
        model = pdt_cdf(grid, weibull_params(got.a_over_W), got.sigma_b2)
        assert result.gof == pytest.approx(np.mean((ecdf - model) ** 2), rel=1e-13)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cuts=st.lists(st.integers(0, 3000), max_size=6))
    def test_counts_fold_over_pieces(self, seed, cuts):
        # the T on the grid k/512, their neighbouring floats, 0 and subnormals
        # sit on the edges of the counts; any cut into pieces, empty ones
        # included, counts as the sorted search over the whole series does
        grid = np.linspace(0.0, 1.0, 513)[1:]
        t = np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid[:-1], 1.0),
                            [0.0, 5e-324, 1e-300]])
        eta = np.random.default_rng(seed).permutation(np.concatenate([
            t * t, sample_transmittance(REF_GEOMETRY, seed=seed, n=1000)]))
        n, counts, lo, hi = ingest._cdf_counts(np.split(eta, sorted(cuts)))
        root = np.sqrt(eta)
        assert np.array_equal(counts, np.searchsorted(np.sort(root), grid, side="right"))
        assert (n, lo, hi) == (eta.size, eta.min(), eta.max())

    def test_constant_after_empty_piece(self):
        # an empty first piece, as a comment-only piece of a file yields
        facts = ingest._cdf_counts([np.empty(0), np.full(3, 0.25), np.empty(0), np.full(2, 0.25)])
        assert facts[0] == 5 and facts[2:] == (0.25, 0.25)
        with pytest.warns(UserWarning, match="fitting 5 samples"):
            assert ingest._fit(*facts) == fit_geometry(TransmittanceSeries(np.full(5, 0.25)))

    # err * sqrt(n), err = hypot(sigma_b2 / 0.3 - 1, a_over_W - 1), was
    # measured over 200 seeds at each n in {1e3, 3e3, 1e4, 3e4, 1e5}: its
    # median was 0.70-0.88 and its maximum 3.0-3.3 at every n, so the error
    # falls as 1/sqrt(n) with a constant near 0.8
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1_000, 10_000, 100_000]))
    def test_error_falls_as_inverse_root_n(self, seed, n):
        eta = sample_transmittance(REF_GEOMETRY, seed=seed, n=n)
        got = fit_geometry(TransmittanceSeries(eta)).geometry
        err = math.hypot(got.sigma_b2 / 0.3 - 1.0, got.a_over_W - 1.0)
        assert err * math.sqrt(n) < 5.0
