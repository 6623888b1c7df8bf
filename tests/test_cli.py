"""End-to-end command-line checks, run in process through main()."""

import contextlib
import io
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamfade.channel import BeamGeometry, exact_eta_at_offset
from beamfade.cli import main
from beamfade.fading import analytic_moments
from beamfade.gaussian import apply_fading_channel, log_negativity, tmsv
from beamfade.keyrate import ProtocolParams, holevo_bound, mutual_information


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_command_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_reversed_sweep_is_computation_error(self, capsys):
        code, out, err = run(capsys, "curve", "--aw-min", "2", "--aw-max", "1")
        assert code == 1
        assert out == ""
        assert "aw_max must exceed aw_min" in err

    def test_ratio_beyond_kernel_is_computation_error(self, capsys):
        code, out, err = run(capsys, "sample", "--aw", "1e6", "--samples", "3")
        assert code == 1
        assert out == ""
        assert "a_over_W" in err

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_moment_beyond_kernel_is_computation_error(self, capsys):
        code, out, err = run(capsys, "curve", "--model", "exact", "--aw-min", "1e5",
                             "--aw-max", "2e5", "--steps", "2")
        assert code == 1
        assert out == ""
        assert "a_over_W" in err


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

        def counted(geometry, model="approx"):
            calls.append((geometry, model))
            return analytic_moments(geometry, model=model)

        monkeypatch.setattr("beamfade.cli.analytic_moments", counted)
        code, out, _ = run(capsys, "ln-curve", "--steps", "4",
                           "--sigma-b2", "0.2", "--sigma-b2", "0.4",
                           "--variance", "2", "--variance", "7",
                           "--variance", "12")
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 2 * 3 * 4
        assert len(calls) == 2 * 4
        assert len(set(calls)) == len(calls)
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
