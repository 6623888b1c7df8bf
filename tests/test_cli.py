"""End-to-end command-line checks, run in process through main()."""

import contextlib
import io
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beamfade
from beamfade import ingest, keyrate
from beamfade.channel import BeamGeometry, exact_eta_at_offset, sample_transmittance
from beamfade.cli import (
    _PASS_ROWS, _SWEEP_BLOCK, _csv, _sample_rows, _sample_text, _sweep, build_parser,
    cmd_sample, main)
from beamfade.fading import _moments, analytic_moments, empirical_moments
from beamfade.gaussian import CovMat2, apply_fading_channel, log_negativity, tmsv
from beamfade.keyrate import EPSILON_MAX, V_MAX, ProtocolParams, holevo_bound, mutual_information

from oracles import parse_series_loop, sample_whole


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fmt(x) -> str:
    """A CSV value's text, independently of `_csv`: an int whole, a float to 12 digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def rows_of(text):
    lines = text.strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestStats:

    def test_constant_series_row(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text("0.25\n0.25\n0.25\n0.25\n")
        code, out, _ = run(capsys, "stats", str(path))
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["eta_mean", "sqrt_eta_mean", "var_sqrt_eta",
                          "eta_max", "n"]
        assert rows == [["0.25", "0.5", "0", "0.25", "4"]]

    def test_reference_rescales(self, tmp_path, capsys):
        path = tmp_path / "volts.txt"
        path.write_text("1.0\n3.0\n")
        code, out, _ = run(capsys, "stats", str(path), "--reference", "4.0")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0][0] == "0.5"

    def test_out_flag_writes_file(self, tmp_path, capsys):
        src = tmp_path / "flat.txt"
        src.write_text("0.5\n")
        dst = tmp_path / "stats.csv"
        code, out, _ = run(capsys, "stats", str(src), "--out", str(dst))
        assert code == 0
        assert out == ""
        assert dst.read_text().startswith("eta_mean,")


def series_outcome(path, *argv):
    """(exit status, --out bytes or None, stderr) of a command on the file at `path`."""
    out = path.with_suffix(".csv")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, str(path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None, err.getvalue()


SERIES_FILES = {
    # the first pieces hold only comments, and so yield empty arrays
    "comment-pieces": b"# a log\n\n# of samples\n0.5\n0.25\n# one more\n\n0.75\n0.125\n",
    "bom": b"\xef\xbb\xbf0.25\r\n0.5\r\n0.75\r\n0.5\n",
    "constant": b"# flat\n" + b"0.25\n" * 6,
    "signed-zero": b"-0\n0.0\n-0.0\n",
    "empty": b"",
    "late-band": b"0.5\n" * 20 + b"1.5\n" + b"0.25\n" * 20,
    # the band fault comes first, the invalid UTF-8 after it is reported
    "late-band-then-utf8": b"0.5\n" * 20 + b"1.5\n" + b"0.25\n" * 20 + b"0.\xff5\n",
}


class TestSeriesPieces:
    """stats and fit fold over the parsed pieces; pieces of a few bytes change nothing."""

    @pytest.mark.parametrize("name", SERIES_FILES)
    def test_outcome_independent_of_piece_size(self, tmp_path, name):
        path = tmp_path / "series.txt"
        path.write_bytes(SERIES_FILES[name])
        for argv in (["stats"], ["fit"], ["stats", "--reference", "2"]):
            whole = series_outcome(path, *argv)
            for piece_chars in range(1, 13):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(ingest, "_PIECE_CHARS", piece_chars)
                    assert series_outcome(path, *argv) == whole, (argv, piece_chars)
            if name in ("empty", "late-band-then-utf8") or name == "late-band" and len(argv) == 1:
                assert whole[:2] == (2, None)
        if name in ("comment-pieces", "bom", "signed-zero"):
            # the one-piece statistics of the whole series
            text = SERIES_FILES[name].decode("utf-8-sig")
            values = parse_series_loop(text)
            stats = empirical_moments(values)
            row = (stats.eta_mean, stats.sqrt_eta_mean, stats.var_sqrt_eta, stats.eta_max,
                   len(values))
            assert series_outcome(path, "stats")[1].decode().splitlines()[1] \
                == ",".join(map(_fmt, row))

    def test_messages(self, tmp_path):
        path = tmp_path / "series.txt"
        messages = {}
        for name in ("empty", "late-band", "late-band-then-utf8", "constant", "signed-zero"):
            path.write_bytes(SERIES_FILES[name])
            messages[name] = series_outcome(path, "fit")[2]
        assert messages == {
            "empty": "error: no samples found\n",
            "late-band": "error: line 21: value 1.5 outside [-0.01, 1.01]\n",
            "late-band-then-utf8": "error: line 42: input is not valid UTF-8: 'utf-8' codec "
                                   "can't decode byte 0xff in position 186: invalid start byte\n",
            "constant": "warning: fitting 6 samples; at least 1000 recommended for a stable "
                        "fit\n",
            # the maximum starts at +0.0, so the sign of the first sample does not show
            "signed-zero": "error: constant series at eta = 0.0 has no finite geometry\n",
        }

    @pytest.mark.parametrize("n", [100_000, 400_000])
    def test_stats_and_fit_in_bounded_memory(self, tmp_path, n):
        # each piece is reduced as it is parsed, so the traced peak is that of
        # one piece, plus the search for fit: 1.0 and 2.3 MB at either n, where
        # the whole series took 6.2 and 8.4 MB at 4e5
        path = tmp_path / "series.txt"
        eta = np.random.default_rng(n).random(n)
        path.write_text("%.17g\n" * n % tuple(eta.tolist()))
        for argv, limit in ((["stats"], 2 * 2**20), (["fit"], 4 * 2**20)):
            tracemalloc.start()
            try:
                code = series_outcome(path, *argv)[0]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak <= limit, argv


class TestExitCodes:

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "stats", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error:" in err

    def test_unparsable_line_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\noops\n")
        code, _, err = run(capsys, "stats", str(path))
        assert code == 2
        assert "line 2" in err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_degenerate_fit_is_computation_error(self, tmp_path, capsys):
        path = tmp_path / "ones.txt"
        path.write_text("1.0\n" * 8)
        code, _, err = run(capsys, "fit", str(path))
        assert code == 1
        assert "constant series" in err

    def test_bad_flag_value_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--steps", "1"])
        assert exc.value.code == 2

    def test_variance_and_ln0_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ln-curve", "--variance", "7", "--ln0", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("kr-curve", "--variance", "1e150"),
        ("ln-curve", "--variance", "1e200"),
        ("ln-curve", "--ln0", "2000"),
        ("ln-curve", "--ln0", "400"),
    ])
    def test_variance_above_limit_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--steps", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "state variance (--variance) must be in [1, 1e+100] SNU" in err
        assert "overflow" not in err

    @pytest.mark.parametrize("argv", [
        ("kr-curve", "--variance", repr(V_MAX)),
        ("kr-curve", "--variance", repr(V_MAX), "--optimize"),
        ("ln-curve", "--variance", repr(V_MAX)),
        ("ln-curve", "--ln0", "333"),
    ])
    def test_variance_at_limit_is_finite(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--steps", "2", "--sigma-b2", "0.5")
        assert code == 0, err
        _, rows = rows_of(out)
        assert all(math.isfinite(float(x)) for row in rows for x in row)

    @pytest.mark.parametrize("command", ["kr-curve", "ln-curve"])
    @pytest.mark.parametrize("value", ["1e300", "-1", "nan"])
    def test_excess_noise_out_of_range_exits_two(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--excess-noise", value, "--steps", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "excess noise (--excess-noise) must be in [0, 1e+100] SNU" in err
        assert "overflow" not in err

    @pytest.mark.parametrize("argv", [
        ("kr-curve", "--variance", repr(V_MAX)),
        ("kr-curve", "--optimize"),
        ("ln-curve", "--variance", repr(V_MAX)),
    ])
    def test_excess_noise_at_limit_is_finite(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--excess-noise", repr(EPSILON_MAX),
                             "--steps", "2", "--sigma-b2", "0.5")
        assert code == 0, err
        _, rows = rows_of(out)
        assert all(math.isfinite(float(x)) for row in rows for x in row)

    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, named, status", [
        ((), None, 2), (("bogus",), None, 2), (("-h",), None, 0),
        (("curve", "--steps", "1"), "curve", 2), (("curve", "--bogus"), "curve", 2),
        *(((name, "--help"), name, 0)
          for name in ("stats", "curve", "ln-curve", "kr-curve", "fit", "sample")),
    ])
    def test_texts_are_the_full_parsers(self, capsys, monkeypatch, argv, named, status):
        # main builds a named command's parser alone, and the full parser
        # otherwise; either gives the full parser's usage, help and error texts
        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            return exc.value.code, capsys.readouterr()

        full, built = build_parser, []
        monkeypatch.setattr("beamfade.cli.build_parser",
                            lambda command=None: built.append(command) or full(command))
        want = outcome(full().parse_args)
        assert outcome(main) == want
        assert want[0] == status
        assert built == [named]

    def test_reversed_sweep_is_computation_error(self, capsys):
        code, out, err = run(capsys, "curve", "--aw-min", "2", "--aw-max", "1")
        assert code == 1
        assert out == ""
        assert "aw_max must exceed aw_min" in err

    def test_ratio_beyond_kernel_is_computation_error(self, capsys):
        # the Weibull matching holds until 4 (a/W)^2 overflows, near 6.7e153
        code, out, err = run(capsys, "sample", "--aw", "1e155", "--samples", "3")
        assert code == 1
        assert out == ""
        assert "a_over_W" in err

    @pytest.mark.parametrize("argv", [
        ("curve", "--aw-min", "1e300", "--aw-max", "2e300", "--steps", "2"),
        ("curve", "--model", "exact", "--aw-min", "1e300", "--aw-max", "2e300",
         "--steps", "2"),
        ("sample", "--model", "exact", "--aw", "1e300", "--samples", "3"),
        ("sample", "--model", "exact", "--aw", "1e300", "--samples", "3",
         "--sigma-b2", "0"),
    ])
    def test_ratio_beyond_float_square_names_ratio(self, capsys, argv):
        # (a/W)^2 overflows from about 1.3e154
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "a_over_W=1e+300" in err

    def test_exact_moments_far_beyond_rim_are_zero(self, capsys):
        # the rule's nodes all lie far beyond the rim; <eta>, in closed form,
        # is the aperture's share 1 / (2 sigma_b2) of the flat offset density
        code, out, _ = run(capsys, "curve", "--model", "exact", "--sigma-b2", "1e300",
                           "--steps", "2")
        assert code == 0
        _, rows = rows_of(out)
        assert [row[2:] for row in rows] == [["5e-301", "0", "5e-301"]] * 2

    def test_moment_beyond_kernel_is_computation_error(self, capsys):
        # the exact kernel holds until 4 (a/W)^2 overflows, near 6.7e153
        code, out, err = run(capsys, "curve", "--model", "exact", "--aw-min", "1e150",
                             "--aw-max", "1e155", "--steps", "2")
        assert code == 1
        assert out == ""
        assert "a_over_W=1e+155" in err


class TestCurve:

    def test_twelve_digit_values(self, capsys):
        code, out, _ = run(capsys, "curve", "--aw-min", "1.0",
                           "--aw-max", "2.0", "--steps", "2")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["a_over_W", "sigma_b2", "eta_mean",
                          "sqrt_eta_mean", "var_sqrt_eta"]
        assert rows[0][0] == "1"
        assert rows[0][1] == "0.3"
        assert rows[0][2] == "0.601647543676"

    def test_exact_model_flag(self, capsys):
        code, out, _ = run(capsys, "curve", "--aw-min", "1.0",
                           "--aw-max", "2.0", "--steps", "2",
                           "--model", "exact")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0][2] == "0.597109678471"

    def test_sigma_list_stacks_blocks(self, capsys):
        code, out, _ = run(capsys, "curve", "--steps", "3",
                           "--sigma-b2", "0.1", "--sigma-b2", "0.5")
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 6
        assert [r[1] for r in rows] == ["0.1"] * 3 + ["0.5"] * 3

    def test_byte_identical_reruns(self, capsys):
        argv = ("curve", "--steps", "4")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_constant_channel_has_zero_variance(self, capsys):
        # without wandering <eta> = t0 * t0 exactly; at a/W = 0.380776 libm's
        # t0**2 differs from that product
        code, out, _ = run(capsys, "curve", "--sigma-b2", "0", "--aw-min", "0.380776",
                           "--aw-max", "5", "--steps", "2")
        assert code == 0
        _, rows = rows_of(out)
        assert [row[4] for row in rows] == ["0", "0"]

    @pytest.mark.parametrize("model", ["approx", "exact"])
    def test_every_column_is_the_library_triple(self, capsys, model):
        # sigma_b2 = 0 takes the branch of the moment rule that returns t0;
        # at a/W = 0.063543 and 0.231259, t0**2 (libm pow) rounds above
        # t0 * t0, the product both sides use for Var(sqrt(eta)); at 1e-6
        # the variance is summed from centred terms, and FadingStats stores it
        code, out, _ = run(capsys, "curve", "--aw-min", "0.063543",
                           "--aw-max", "0.231259", "--steps", "2",
                           "--sigma-b2", "0", "--sigma-b2", "0.3",
                           "--sigma-b2", "1e-6", "--model", model)
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 6
        for row in rows:
            stats = analytic_moments(
                BeamGeometry(float(row[0]), float(row[1])), model=model)
            assert row[2:] == [_fmt(stats.eta_mean), _fmt(stats.sqrt_eta_mean),
                               _fmt(stats.var_sqrt_eta)]

    @pytest.mark.parametrize("model", ["approx", "exact"])
    @pytest.mark.parametrize("s2", [0.0, 0.05, 0.3, 2.0])
    def test_blocked_sweep_is_one_whole_rule_call(self, model, s2):
        # the rule runs on blocks of _SWEEP_BLOCK a/W values; its rows are
        # independent, so the blocks join into the bits of one whole call
        steps = 2 * _SWEEP_BLOCK + 3
        args = build_parser().parse_args([
            "curve", "--model", model, "--steps", str(steps), "--aw-min", "0.01",
            "--aw-max", "30", "--sigma-b2", repr(s2)])
        seen = []
        rows = sum(_sweep(args, lambda *moments: seen.append(moments) or [moments]), [])
        grid = np.linspace(0.01, 30.0, steps)
        m2, m1, var, _ = _moments(grid, s2, model)
        assert [tuple(x.tobytes() for x in block) for block in seen] == [
            (m2.tobytes(), m1.tobytes(), var.tobytes())]
        assert rows == np.column_stack([grid, np.full(steps, s2), m2, m1, var]).tolist()

    def test_long_exact_sweep_in_bounded_memory(self, capsys):
        # one whole rule call over 1000 a/W values peaks at about 122 MB
        tracemalloc.start()
        try:
            code = main(["curve", "--model", "exact", "--steps", "1000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1001
        assert peak <= 40e6

    def test_long_optimized_sweep_in_bounded_memory(self, capsys):
        # a pass holds whole sigma_b2 groups of at most _PASS_ROWS a/W values,
        # so each 1000-value group of the first sweep is a pass of its own
        # (about 10 MB; one pass over all four peaks at about 25 MB); the
        # second sweep's longer group is one pass, searched _PASS_ROWS channels
        # at a time (about 12 MB; one search over all 20000 peaks at about 126 MB)
        for steps, sigmas in ((1000, ("0.1", "0.2", "0.3", "0.4")), (20000, ("0.3",))):
            tracemalloc.start()
            try:
                code = main(["kr-curve", "--optimize", "--steps", str(steps),
                             *(a for s2 in sigmas for a in ("--sigma-b2", s2))])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert len(capsys.readouterr().out.splitlines()) == steps * len(sigmas) + 1
            assert peak <= 16e6, steps


class TestLnCurve:

    def test_matches_library(self, capsys):
        code, out, _ = run(capsys, "ln-curve", "--aw-min", "1.0",
                           "--aw-max", "1.5", "--steps", "2",
                           "--variance", "7")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["a_over_W", "sigma_b2", "V", "LN"]
        for aw_text, row in zip(("1", "1.5"), rows):
            assert row[0] == aw_text
            stats = analytic_moments(BeamGeometry(float(aw_text), 0.3))
            want = log_negativity(apply_fading_channel(tmsv(7.0), stats, 0.01))
            assert float(row[3]) == pytest.approx(want, rel=1e-11)

    def test_moments_computed_once_per_geometry(self, capsys, monkeypatch):
        calls = []

        def counted(a_over_W, sigma_b2, model):
            calls.append((tuple(a_over_W), sigma_b2, model))
            return _moments(a_over_W, sigma_b2, model)

        passes = []

        def counted_ln(v, *rest):
            passes.append(np.shape(v))
            return keyrate._log_negativity(v, *rest)

        monkeypatch.setattr("beamfade.cli._moments", counted)
        monkeypatch.setattr("beamfade.cli._log_negativity", counted_ln)
        code, out, _ = run(capsys, "ln-curve", "--steps", "4",
                           "--sigma-b2", "0.2", "--sigma-b2", "0.4",
                           "--variance", "2", "--variance", "7",
                           "--variance", "12")
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 2 * 3 * 4
        # one call per sigma_b2 block, each with the 4 distinct a/W values
        assert [(s2, model) for _, s2, model in calls] == [(0.2, "approx"),
                                                           (0.4, "approx")]
        assert all(len(set(aws)) == 4 for aws, _, _ in calls)
        # one kernel pass, with the three V as a column against the 8 pairs
        assert passes == [(3, 1)]
        # rows run over sigma_b2, then V, then a/W
        assert [(r[1], r[2]) for r in rows[::4]] == [
            (s2, v) for s2 in ("0.2", "0.4") for v in ("2", "7", "12")]

    def test_lossless_channel_preserves_requested_ln(self, capsys):
        # wide aperture, no wandering, no excess noise: entanglement
        # passes through untouched
        code, out, _ = run(capsys, "ln-curve", "--aw-min", "5", "--aw-max", "6",
                           "--steps", "2", "--sigma-b2", "0",
                           "--excess-noise", "0", "--ln0", "3.8")
        assert code == 0
        _, rows = rows_of(out)
        for row in rows:
            assert float(row[3]) == pytest.approx(3.8, abs=1e-9)


    def test_pure_state_keeps_its_entanglement_exactly(self, capsys):
        code, out, _ = run(capsys, "ln-curve", "--ln0", "20", "--sigma-b2", "0",
                           "--excess-noise", "0", "--aw-min", "10",
                           "--aw-max", "11", "--steps", "2")
        assert code == 0
        _, rows = rows_of(out)
        assert [row[3] for row in rows] == ["20", "20"]

    def test_large_variance_is_finite(self, capsys):
        code, out, err = run(capsys, "ln-curve", "--variance", "1e8",
                             "--steps", "3")
        assert code == 0, err
        _, rows = rows_of(out)
        assert len(rows) == 3
        assert all(math.isfinite(float(x)) for row in rows for x in row)

    @pytest.mark.parametrize("state", [("--variance", "1"), ("--ln0", "0")])
    def test_no_negative_zero(self, capsys, state):
        # the vacuum has LN 0 on several rows, printed without a sign
        code, out, err = run(capsys, "ln-curve", *state)
        assert code == 0, err
        _, rows = rows_of(out)
        ln = [row[3] for row in rows]
        assert "0" in ln
        assert not any(x.startswith("-") for x in ln)


class TestKrCurve:

    def test_lossless_anchor_at_unit_beta(self, capsys):
        code, out, _ = run(capsys, "kr-curve", "--aw-min", "5", "--aw-max", "6",
                           "--steps", "2", "--sigma-b2", "0",
                           "--excess-noise", "0", "--beta", "1.0")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["a_over_W", "sigma_b2", "V_used", "I_AB",
                          "chi_BE", "KR", "KR_clamped"]
        want = 0.5 * math.log2(7.0)
        for row in rows:
            assert float(row[5]) == pytest.approx(want, abs=1e-6)
            assert float(row[4]) == pytest.approx(0.0, abs=1e-9)

    def test_default_rows_match_library(self, capsys):
        code, out, _ = run(capsys, "kr-curve", "--aw-min", "1.0",
                           "--aw-max", "1.0001", "--steps", "2")
        assert code == 0
        _, rows = rows_of(out)
        stats = analytic_moments(BeamGeometry(1.0, 0.3))
        protocol = ProtocolParams(v=7.0, epsilon=0.01, beta=0.97)
        i_ab = mutual_information(protocol, stats)
        chi = holevo_bound(protocol, stats)
        assert float(rows[0][3]) == pytest.approx(i_ab, rel=1e-11)
        assert float(rows[0][4]) == pytest.approx(chi, rel=1e-11)
        assert float(rows[0][5]) == pytest.approx(0.97 * i_ab - chi, rel=1e-9)

    def test_clamp_flag_floors_and_drops_column(self, capsys):
        argv = ("kr-curve", "--aw-min", "0.3", "--aw-max", "0.5",
                "--steps", "3", "--excess-noise", "0.2")
        _, plain, _ = run(capsys, *argv)
        _, clamped, _ = run(capsys, *argv, "--clamp")
        plain_header, plain_rows = rows_of(plain)
        clamp_header, clamp_rows = rows_of(clamped)
        assert plain_header[-1] == "KR_clamped"
        assert clamp_header[-1] == "KR"
        assert len(clamp_header) == len(plain_header) - 1
        saw_negative = False
        for p_row, c_row in zip(plain_rows, clamp_rows):
            kr = float(p_row[5])
            saw_negative = saw_negative or kr < 0
            assert float(p_row[6]) == max(0.0, kr)
            assert float(c_row[5]) == max(0.0, kr)
        # the chosen noisy window must actually exercise the clamp
        assert saw_negative

    def test_optimize_is_deterministic(self, capsys):
        argv = ("kr-curve", "--aw-min", "0.9", "--aw-max", "1.1",
                "--steps", "2", "--optimize")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        _, rows = rows_of(first)
        # optimized variance should move away from the 7 SNU default
        assert float(rows[0][2]) != 7.0


    def test_one_kernel_pass(self, capsys, monkeypatch):
        moments, passes = [], []

        def counted(a_over_W, sigma_b2, model):
            moments.append(sigma_b2)
            return _moments(a_over_W, sigma_b2, model)

        def counted_optimize(*args):
            passes.append(args[0].shape)
            return keyrate._optimize(*args)

        monkeypatch.setattr("beamfade.cli._moments", counted)
        monkeypatch.setattr("beamfade.cli._optimize", counted_optimize)
        code, out, _ = run(capsys, "kr-curve", "--optimize", "--steps", "31",
                           "--sigma-b2", "0.1", "--sigma-b2", "0.2", "--sigma-b2", "0.3")
        assert code == 0
        assert len(rows_of(out)[1]) == 3 * 31
        # the rule once per sigma_b2 block, the optimizer once over all 93 points
        assert moments == [0.1, 0.2, 0.3]
        assert passes == [(3 * 31,)]

    def test_large_variance_is_finite_and_bounded(self, capsys):
        code, out, err = run(capsys, "kr-curve", "--variance", "1e8",
                             "--steps", "3")
        assert code == 0, err
        _, rows = rows_of(out)
        assert len(rows) == 3
        for row in rows:
            values = [float(x) for x in row]
            assert all(math.isfinite(x) for x in values)
            i_ab, kr = values[3], values[5]
            assert kr <= 0.97 * i_ab + 1e-9


class TestKernelPath:

    def test_curves_build_no_covariance_matrix(self, capsys, monkeypatch):
        built = []
        validate = CovMat2.__post_init__

        def counted(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(CovMat2, "__post_init__", counted)
        sweep = ("--steps", "3", "--sigma-b2", "0.2", "--sigma-b2", "0.4")
        for argv in (("kr-curve", "--optimize", *sweep),
                     ("ln-curve", *sweep, "--variance", "2", "--variance", "7")):
            code, _, _ = run(capsys, *argv)
            assert code == 0
        assert built == []
        # the counter does see a construction
        tmsv(2.0)
        assert len(built) == 1


class TestJointSweep:
    """A sweep over several sigma_b2 prints the rows of each one alone."""

    STEPS = 2 * _SWEEP_BLOCK + 3

    @pytest.mark.parametrize("command", [
        ("curve", "--model", "exact"),
        ("ln-curve", "--variance", "1", "--variance", "2", "--variance", "7"),
        ("ln-curve", "--ln0", "1", "--ln0", "3"),
        ("kr-curve", "--optimize"),
        ("kr-curve", "--clamp"),
    ], ids=" ".join)
    # three groups share one kernel pass; the last case's groups need two
    @pytest.mark.parametrize("groups", [3, _PASS_ROWS // STEPS + 1])
    def test_joint_sweep_is_split_sweeps(self, capsys, command, groups):
        assert (groups * self.STEPS > _PASS_ROWS) == (groups > 3)
        sweep = (*command, "--steps", str(self.STEPS), "--aw-min", "0.01", "--aw-max", "30")
        sigmas = [repr(0.05 * k * k) for k in range(groups)]
        code, joint, _ = run(capsys, *sweep, *(a for s2 in sigmas for a in ("--sigma-b2", s2)))
        assert code == 0
        split = [run(capsys, *sweep, "--sigma-b2", s2)[1] for s2 in sigmas]
        assert joint == split[0] + "".join(out.split("\n", 1)[1] for out in split[1:])


class TestCsv:

    @given(st.integers(1, 6).flatmap(lambda width: st.lists(
        st.lists(st.floats(), min_size=width, max_size=width), min_size=1, max_size=4)))
    @example([[math.nan, math.inf, -math.inf, -0.0, 0.0]])
    @example([[5e-324, -2.2250738585072014e-308, 1e-308 / 3]])
    # %g turns to an exponent below 1e-4 and, at 12 digits, from 1e12 up
    @example([[1e-4, 9.99999999999949e-05, 9.9999999999995e-05, 1e-5, -1e-5]])
    @example([[1e12, 999999999999.4, 999999999999.5, 1e12 - 1, -1e12]])
    def test_row_template_is_fmt(self, rows):
        text = "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
        assert _csv(("h",), [rows]) == ("h\n" + text,)

    def test_integer_count_prints_whole(self, capsys, monkeypatch):
        # "%.12g" % 10**12 would print 1e+12
        monkeypatch.setattr("beamfade.cli._empirical",
                            lambda pieces: (10**12, empirical_moments([0.25, 0.5])))
        code, out, _ = run(capsys, "stats", os.devnull)
        assert code == 0
        assert out.splitlines()[1].endswith(",0.5,1000000000000")


class TestSample:

    def test_deterministic_per_seed(self, capsys):
        argv = ("sample", "--aw", "1.0", "--samples", "50", "--seed", "3")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        _, other, _ = run(capsys, "sample", "--aw", "1.0", "--samples", "50",
                          "--seed", "4")
        assert other != first

    def test_header_and_constant_output_without_wandering(self, capsys):
        code, out, _ = run(capsys, "sample", "--aw", "1.0", "--sigma-b2", "0",
                           "--samples", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("# transmittance samples a_over_W=1 sigma_b2=0 "
                            "n=5 seed=1 model=approx")
        eta_max = exact_eta_at_offset(0.0, 1.0)
        assert len(lines) == 6
        for line in lines[1:]:
            assert float(line) == pytest.approx(eta_max, rel=1e-12)

    @pytest.mark.parametrize("model", ["approx", "exact"])
    # the samples are written in blocks of 65536
    @pytest.mark.parametrize("n", [1, 1000, 65536, 65537])
    def test_text_is_shortest_repr_per_sample(self, capsys, model, n):
        code, out, _ = run(capsys, "sample", "--aw", "1.5", "--sigma-b2", "0.2",
                           "--samples", str(n), "--seed", "11", "--model", model)
        assert code == 0
        eta = sample_transmittance(BeamGeometry(1.5, 0.2), seed=11, n=n, model=model)
        header = (f"# transmittance samples a_over_W=1.5 sigma_b2=0.2 n={n} "
                  f"seed=11 model={model}")
        assert out == "\n".join([header, *(f"{x:.17g}" for x in eta)]) + "\n"

    @pytest.mark.parametrize("model", ["approx", "exact"])
    @pytest.mark.parametrize("seed", [1, 7, 20260819])
    @pytest.mark.parametrize("n", [1, 65535, 65536, 65537, 200001])
    def test_text_is_whole_draw(self, capsys, n, seed, model):
        # the samples are drawn, mapped and written in blocks; their text is
        # that of one draw of all of x, then all of y
        code, out, _ = run(capsys, "sample", "--aw", "1.3", "--sigma-b2", "0.4",
                           "--samples", str(n), "--seed", str(seed), "--model", model)
        assert code == 0
        eta = sample_whole(BeamGeometry(1.3, 0.4), seed, n, model)
        assert out.partition("\n")[2] == "%.17g\n" * n % tuple(eta.tolist())

    @pytest.mark.parametrize("n", [100_000, 2_000_000])
    def test_text_in_bounded_memory(self, n):
        # each block of 65536 samples is drawn and formatted as it is written,
        # so the pieces of any count peak at about 5 MB
        args = build_parser().parse_args(["sample", "--aw", "1", "--samples", str(n)])
        tracemalloc.start()
        try:
            lines = sum(piece.count("\n") for piece in cmd_sample(args))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines == n + 1
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("n", [1, 65536, 65537])
    def test_out_file_holds_stdout_text(self, tmp_path, capsys, n):
        argv = ("sample", "--aw", "1.5", "--samples", str(n), "--seed", "11")
        _, text, _ = run(capsys, *argv)
        dst = tmp_path / "samples.txt"
        code, out, _ = run(capsys, *argv, "--out", str(dst))
        assert (code, out) == (0, "")
        assert dst.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("seed", ["-1", "-0x1", "1.5"])
    def test_bad_seed_exits_two(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--aw", "1", "--seed", seed])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed:" in captured.err
        assert "Traceback" not in captured.err

    def test_large_ratio_is_quiet(self, capsys):
        # the Weibull exponent overflows beyond the rim; the sample there is 0
        code, out, err = run(capsys, "sample", "--aw", "5e4", "--sigma-b2", "1",
                             "--samples", "1000")
        assert code == 0
        assert err == ""
        assert "nan" not in out

    def test_out_file(self, tmp_path, capsys):
        dst = tmp_path / "samples.txt"
        code, out, _ = run(capsys, "sample", "--aw", "1.0", "--samples", "10",
                           "--out", str(dst))
        assert code == 0
        assert out == ""
        assert dst.read_text().startswith("# transmittance samples")


def percent_text(x):
    """The text that `sample` wrote with one % per block."""
    return "%.17g\n" * x.size % tuple(x.tolist())


def sample_text(x):
    """The text that `sample` writes now, of x as one block."""
    return "".join(_sample_text([x]))


def assert_percent_text(x):
    # lines, whose first difference pytest reports without a diff of the whole text
    assert sample_text(x).split("\n") == percent_text(x).split("\n")


def ulps_around(x, count):
    """x > 0 and the `count` floats on each side of it, whose bits are the
    neighbouring integers."""
    return (np.float64(x).view(np.int64) + np.arange(-count, count + 1)).view(np.float64)


def sub_block_edges():
    """Samples whose values outside [1e-4, 1) take the first and the last slot
    of each of `_sample_text`'s sub-blocks of 8192."""
    x = np.random.default_rng(5).uniform(1e-4, 1.0, 3 * 8192 + 5)
    ends = [0, 8191, 8192, 16383, 16384, x.size - 1]
    x[ends] = [0.0, 1.0, 3e-7, 5e-324, 9.999999999999999e-05, 1.0]
    return x


def half_in_range(extra):
    """Two sub-blocks whose samples alternate between [1e-4, 1) and 1, 0, the
    exponent form and subnormals, with `extra` more samples in [1e-4, 1)."""
    rng = np.random.default_rng(6)
    x = rng.uniform(1e-4, 1.0, 2 * 8192)
    tail = np.flatnonzero(np.arange(x.size) % 2)[extra:]
    x[tail] = rng.choice([1.0, 0.0, 5e-324, 1e-310, 3e-7, 9.999999999999999e-05], tail.size)
    return x


EDGE_VALUES = {
    # every tie at the 18th significant digit, which rounds half to even
    "ties": np.arange(1, 2**18, 2) / 2.0**18,
    # log10 gives the decimal exponent off by 1 next to each 10^-k
    **{f"1e-{k}": ulps_around(10.0**-k, 2000) for k in range(1, 6)},
    # %g turns to the exponent form below 1e-4
    "1e-4": ulps_around(1e-4, 3),
    "special": np.array([0.0, 5e-324, 1.0, np.nextafter(1.0, 0.0)]),
    "trailing-zeros": np.array([0.5, 0.25, 0.1, 0.125, 0.0625, 0.75]),
    "sub-block-edges": sub_block_edges(),
    # half the block outside [1e-4, 1) takes one %, one sample fewer the rows
    "half-in-range": half_in_range(0),
    "half-in-range-and-one": half_in_range(1),
}


class TestSampleText:
    """`_sample_text` against the % route, value by value."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_any_values_in_unit_interval(self, values):
        assert_percent_text(np.array(values))

    @pytest.mark.parametrize("name", EDGE_VALUES)
    def test_edge_values(self, name):
        assert_percent_text(EDGE_VALUES[name])

    @pytest.mark.parametrize("extra, sub_blocks", [(0, 0), (1, 2)])
    def test_block_mostly_outside_range_takes_percent(self, monkeypatch, extra, sub_blocks):
        # % writes 0, 1 and the exponent form faster than the rows, which splice them
        calls = []

        def counted(x, digits):
            calls.append(x.size)
            return _sample_rows(x, digits)

        monkeypatch.setattr("beamfade.cli._sample_rows", counted)
        assert_percent_text(half_in_range(extra))
        assert calls == [8192] * sub_blocks

    def test_block_in_less_memory_than_percent(self):
        # one block of 65536 samples: 2.9 MB traced against 4.0 MB for one %
        eta = sample_transmittance(BeamGeometry(1.0, 0.3), seed=1, n=65536)
        peaks = []
        for text in (percent_text, sample_text):
            tracemalloc.start()
            try:
                text(eta)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("series") / "run.txt"
    eta = sample_transmittance(BeamGeometry(1.0, 0.3), seed=5, n=5000)
    path.write_text("".join(f"{x!r}\n" for x in eta.tolist()))
    return str(path)


class TestOutFile:
    """Every command's text goes once to --out, or to stdout without it."""

    @pytest.mark.parametrize("argv", [
        ("curve", "--model", "exact", "--steps", str(_SWEEP_BLOCK + 2)),
        ("curve", "--sigma-b2", "0", "--sigma-b2", "0.3"),
        ("ln-curve", "--ln0", "1", "--ln0", "3"),
        ("kr-curve", "--optimize"),
        ("kr-curve", "--clamp"),
        ("stats", "SERIES"),
        ("stats", "SERIES", "--reference", "2"),
        ("fit", "SERIES"),
        ("sample", "--aw", "1.5", "--model", "exact", "--samples", "1000"),
    ])
    def test_out_file_holds_stdout_text(self, tmp_path, capsys, series_path, argv):
        argv = [series_path if a == "SERIES" else a for a in argv]
        code, text, err = run(capsys, *argv)
        assert code == 0 and text
        dst = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(dst)) == (0, "", err)
        assert dst.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("argv, status", [
        (("curve", "--model", "exact", "--aw-min", "1e150", "--aw-max", "1e155",
          "--steps", "2"), 1),
        (("sample", "--aw", "1e155", "--model", "exact"), 1),
        (("stats", "BAD"), 2),
        (("sample", "--aw", "1e155"), 1),
    ])
    def test_failed_command_writes_no_out_file(self, tmp_path, capsys, argv, status):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5\noops\n")
        argv = [str(bad) if a == "BAD" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (status, "") and err.startswith("error: ")
        # main opens --out only once the command has checked its inputs and
        # returned its text, so the file is neither created nor truncated
        absent, kept = tmp_path / "absent.csv", tmp_path / "kept.csv"
        kept.write_text("kept\n")
        assert run(capsys, *argv, "--out", str(absent)) == (status, "", err)
        assert run(capsys, *argv, "--out", str(kept)) == (status, "", err)
        assert not absent.exists()
        assert kept.read_text() == "kept\n"


class TestPipeline:

    def test_sample_stats_fit_round_trip(self, tmp_path, capsys):
        data = tmp_path / "run.txt"
        code, _, _ = run(capsys, "sample", "--aw", "1.0", "--sigma-b2", "0.3",
                         "--samples", "20000", "--seed", "7",
                         "--out", str(data))
        assert code == 0

        code, out, _ = run(capsys, "stats", str(data))
        assert code == 0
        _, rows = rows_of(out)
        stats = analytic_moments(BeamGeometry(1.0, 0.3))
        assert rows[0][4] == "20000"
        assert float(rows[0][0]) == pytest.approx(stats.eta_mean, abs=0.01)

        code, out, _ = run(capsys, "fit", str(data))
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["sigma_b2", "a_over_W", "gof", "n"]
        assert float(rows[0][0]) == pytest.approx(0.3, rel=0.05)
        assert float(rows[0][1]) == pytest.approx(1.0, rel=0.05)

    def test_fit_on_the_boundary_warns(self, tmp_path, capsys):
        # sigma_b2 = 3 lies beyond the search domain, whose edge is 2
        data = tmp_path / "wide.txt"
        code, _, _ = run(capsys, "sample", "--aw", "1", "--sigma-b2", "3",
                         "--samples", "20000", "--seed", "13",
                         "--out", str(data))
        assert code == 0
        code, out, err = run(capsys, "fit", str(data))
        assert code == 0
        assert "warning: fit stopped on the search-domain boundary" in err
        _, rows = rows_of(out)
        assert rows[0][0] == "2"

    def test_small_fit_warns_in_cli_format(self, tmp_path, capsys):
        data = tmp_path / "short.txt"
        code, _, _ = run(capsys, "sample", "--aw", "1", "--samples", "50",
                         "--seed", "3", "--out", str(data))
        assert code == 0
        # the fit's own warning is printed as a note, not left to Python
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "fit", str(data))
        assert code == 0
        assert err == ("warning: fitting 50 samples; at least 1000 recommended "
                       "for a stable fit\n")
        assert "UserWarning" not in err and ".py:" not in err
        assert rows_of(out)[1][0][3] == "50"


def scipy_modules_after(*argvs):
    """Names of the scipy modules a fresh interpreter holds after running `argvs`."""
    src = os.path.dirname(os.path.dirname(beamfade.__file__))
    probe = ("import contextlib, io, sys\n"
             "from beamfade.cli import main\n"
             f"for argv in {[list(a) for a in argvs]!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert main(argv) == 0, argv\n"
             "print(*(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    return result.stdout.split()


class TestStartUp:
    # module presence is checked instead of a flaky start-up time

    def test_import_loads_no_integrate_or_optimize(self):
        # no command needs scipy.integrate or scipy.optimize any more
        assert not [m for m in scipy_modules_after()
                    if m.startswith(("scipy.integrate", "scipy.optimize"))]

    def test_approx_commands_load_no_scipy(self, tmp_path):
        # the Weibull matching sums its rim values in closed form and the fit
        # searches a numpy grid
        data = str(tmp_path / "s.txt")
        assert scipy_modules_after(
            ("curve", "--steps", "3"), ("ln-curve", "--steps", "3"),
            ("kr-curve", "--optimize", "--steps", "3"),
            ("sample", "--aw", "1", "--samples", "100", "--out", data),
            ("stats", data), ("fit", data)) == []

    def test_exact_model_loads_no_scipy(self, tmp_path):
        # the exact kernel sums its own series and expansion on numpy
        data = str(tmp_path / "s.txt")
        assert scipy_modules_after(
            ("curve", "--model", "exact", "--steps", "3"),
            ("ln-curve", "--model", "exact", "--steps", "3"),
            ("kr-curve", "--model", "exact", "--steps", "3"),
            ("sample", "--model", "exact", "--aw", "1", "--samples", "100",
             "--out", data)) == []


# values every numeric flag is fuzzed with: finite floats (half of them in
# the range the commands accept), integers, the IEEE specials, the edges of
# the double range and text that is no number at all
FLAG_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=10.0).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-10, max_value=100).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300",
                     "-1e-300", "0", "-0", "", "abc", "1,5", "0x10", "1e999"]),
)
SWEEP_FLAGS = ("--aw-min", "--aw-max", "--sigma-b2")
FLAGS = {
    "curve": SWEEP_FLAGS,
    "ln-curve": SWEEP_FLAGS + ("--variance", "--ln0", "--excess-noise"),
    "kr-curve": SWEEP_FLAGS + ("--variance", "--excess-noise", "--beta"),
    "sample": ("--aw", "--sigma-b2", "--seed"),
}
SWITCHES = {
    "curve": ("--model=exact",),
    "ln-curve": ("--model=exact",),
    "kr-curve": ("--model=exact", "--optimize", "--clamp"),
    "sample": ("--model=exact",),
}
# every example sets its size, from a small range, so that it runs quickly
SIZES = st.integers(min_value=-3, max_value=6)


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=4)):
        argv.append(f"{flag}={draw(FLAG_VALUES)}")
    argv += draw(st.lists(st.sampled_from(SWITCHES[command]), max_size=2, unique=True))
    size_flag = "--samples" if command == "sample" else "--steps"
    argv.append(f"{size_flag}={draw(SIZES)}")
    return argv


class TestFuzzedArguments:

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(argv=fuzzed_argv())
    @example(argv=["sample", "--aw", "1e6", "--samples", "3"])
    def test_exit_status_and_output(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert "nan" not in out.getvalue()


# the lines of fuzzed series files: mostly samples, comments and blanks, and
# a few faults among them: any float, the IEEE specials, a second column, a
# byte-order mark off the file start and bytes that are no UTF-8
GOOD_LINES = st.one_of(
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.sampled_from(["1.005", "-0.005", "0", "1", "", "   ", "#"]),
    st.text(max_size=4).map("# {}".format),
).map(str.encode)
BAD_LINES = st.one_of(
    st.floats().map(repr).map(str.encode),
    st.sampled_from([b"nan", b"-inf", b"1e400", b"-1e308", b"0.5 0.6", b"0x1",
                     b"\xff", b"\xc3", b"0.\xe95", b"\xef\xbb\xbf0.5"]),
)
LINE_ENDS = st.sampled_from([b"\n", b"\r\n", b"\r", b"\x0c", "\x85".encode(), "\u2028".encode()])


@st.composite
def series_file(draw):
    lines = draw(st.lists(GOOD_LINES, max_size=20))
    for fault in draw(st.lists(BAD_LINES, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), fault)
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + b"".join(line + draw(LINE_ENDS) for line in lines)


class TestFuzzedSeriesFiles:

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("fuzz") / "series.txt")

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(data=series_file(), reference=st.sampled_from(
        ["1", "2", "0.5", "1e-300", "1e300", "0", "-1", "nan"]))
    @example(data=b"\xef\xbb\xbf0.25\r\n0.5\r\n", reference="1")
    def test_exit_status_and_output(self, path, data, reference):
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in (["stats", path], ["fit", path]):
            for extra in ([], ["--reference", reference]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(argv + extra)
                    except SystemExit as exc:
                        code = exc.code
                assert code in (0, 1, 2)
                assert "Traceback" not in err.getvalue()
                if code == 0:
                    assert "nan" not in out.getvalue()
