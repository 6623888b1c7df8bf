"""Command-line interface: channel curves, key rates, fitting, sampling.

Every subcommand returns its output as text pieces, CSV with a single header
row and 12 significant digits per value (or the plain-text sample format),
and `main` writes them once, to stdout or to --out.  Every command checks its
inputs before it returns, so a failed command writes nothing: `sample` then
draws and formats its samples block by block as they are written, and the
others have computed their whole output.  Each sample's line is the text of
"%.17g": numpy writes every sample in [1e-4, 1) from its 17 digits, formed by
exact integer arithmetic; the others (0, 1, the exponent form) take % one by
one, or in one % for a block where they are half or more.  Exit status is 0
on success, 1 on a computation error, and 2 on an input or I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from itertools import chain

import numpy as np

from .channel import BeamGeometry, _sample_blocks
from .fading import _empirical, _moments
from .ingest import SeriesFormatError, _cdf_counts, _fit, _series_pieces
from .keyrate import EPSILON_MAX, V_MAX, _log_negativity, _optimize, _rates

# a/W values per moment-rule call, so a sweep of any length holds one block's nodes
_SWEEP_BLOCK = 128
# a/W values per kernel pass of whole sigma_b2 groups, and channels per modulation search
_PASS_ROWS = 1024


def _csv(header, blocks):
    """The CSV text of `header` and of `blocks`, lists of rows, as one text piece.

    A block takes one % of a row template, "%.12g" per float and "%d" per int
    ("%.12g" % 10**12 is 1e+12)."""
    def text(rows):
        row = ",".join("%d" if isinstance(x, int) else "%.12g" for x in rows[0]) + "\n"
        return row * len(rows) % tuple(chain.from_iterable(rows))
    return ("".join(chain([",".join(header) + "\n"], map(text, blocks))),)


def _checked(convert, ok, rule):
    """An argparse type: `convert` the text, then require `ok(value)`."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid ... value"
    return parse


_positive = _checked(float, lambda x: math.isfinite(x) and x > 0, "must be > 0")
_non_negative = _checked(float, lambda x: math.isfinite(x) and x >= 0, "must be >= 0")
_variance = _checked(float, lambda v: 1 <= v <= V_MAX,
                     f"state variance (--variance) must be in [1, {V_MAX:g}] SNU")
_excess_noise = _checked(
    float, lambda e: 0 <= e <= EPSILON_MAX,
    f"excess noise (--excess-noise) must be in [0, {EPSILON_MAX:g}] SNU")
_beta = _checked(float, lambda b: 0 < b <= 1, "beta must be in (0, 1]")
_count = _checked(int, lambda n: n >= 1, "must be >= 1")
_steps = _checked(int, lambda n: n >= 2, "steps must be >= 2")
_seed = _checked(int, lambda n: n >= 0, "seed must be >= 0")


def _ln0(text):
    """LN0 as the variance V = cosh(LN0 ln 2) of the TMSV with that entanglement."""
    # the cap keeps math.cosh below overflow; cosh(710) is far above V_MAX
    v = math.cosh(min(_non_negative(text) * math.log(2.0), 710.0))
    return _variance(repr(v))


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone, with the same texts."""
    parser = argparse.ArgumentParser(
        prog="beamfade",
        description="Free-space fading channel curves, key rates, and fitting.")
    # the usage line, which an unrecognized argument prints, names every command
    commands = parser.add_subparsers(dest="command", required=True, metavar=None if (
        command is None) else "{" + ",".join(_COMMANDS) + "}")
    for name, (text, run) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = commands.add_parser(name, help=text)
        p.set_defaults(run=run)
        if name in ("stats", "fit"):
            p.add_argument("input", help="transmittance text file")
            p.add_argument("--reference", type=_positive,
                           help="divide raw values by this reference")
        elif name == "sample":
            p.add_argument("--aw", type=_positive, required=True,
                           help="aperture-to-beam ratio")
            p.add_argument("--sigma-b2", type=_non_negative, default=0.3,
                           help="beam-center variance (default 0.3)")
            p.add_argument("--samples", type=_count, default=100000,
                           help="number of samples (default 100000)")
            p.add_argument("--seed", type=_seed, default=1,
                           help="random seed (default 1)")
            p.add_argument("--model", choices=("approx", "exact"), default="approx",
                           help="transmittance model (default approx)")
        else:
            p.add_argument("--aw-min", type=_positive, default=0.5,
                           help="smallest aperture-to-beam ratio (default 0.5)")
            p.add_argument("--aw-max", type=_positive, default=2.0,
                           help="largest aperture-to-beam ratio (default 2.0)")
            p.add_argument("--steps", type=_steps, default=31,
                           help="number of grid points (default 31)")
            p.add_argument("--sigma-b2", type=_non_negative, action="append",
                           help="beam-center variance, repeatable (default 0.3)")
            p.add_argument("--model", choices=("approx", "exact"), default="approx",
                           help="transmittance model for the moments")
        if name == "ln-curve":
            state = p.add_mutually_exclusive_group()
            state.add_argument("--variance", type=_variance, action="append",
                               help="state variance in SNU, repeatable (default 7)")
            state.add_argument("--ln0", type=_ln0, action="append",
                               help="initial entanglement instead of variance, repeatable")
            p.add_argument("--excess-noise", type=_excess_noise, default=0.01,
                           help="channel excess noise in SNU (default 0.01)")
        elif name == "kr-curve":
            p.add_argument("--variance", type=_variance, default=7.0,
                           help="modulation state variance in SNU (default 7)")
            p.add_argument("--excess-noise", type=_excess_noise, default=0.01,
                           help="channel excess noise in SNU (default 0.01)")
            p.add_argument("--beta", type=_beta, default=0.97,
                           help="post-processing efficiency (default 0.97)")
            p.add_argument("--optimize", action="store_true",
                           help="optimize the modulation variance per grid point")
            p.add_argument("--clamp", action="store_true",
                           help="emit only the key rate clamped at zero")
        p.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def _sweep(args, columns):
    """Yield the rows (a/W, sigma_b2, *columns) of a sweep, one list per kernel pass.

    The moment rule runs once per sigma_b2 and block of _SWEEP_BLOCK a/W
    values.  Whole sigma_b2 groups of up to _PASS_ROWS a/W values in all then
    make one pass: `columns` maps their <eta>, <sqrt(eta)> and
    Var(sqrt(eta)) >= 0 to blocks of columns, arrays over the pass or
    scalars.  The rows run over sigma_b2, then block of columns, then a/W.
    """
    if not args.aw_max > args.aw_min:
        raise ValueError("aw_max must exceed aw_min")
    grid = np.linspace(args.aw_min, args.aw_max, args.steps)
    sigmas, per_pass = args.sigma_b2 or (0.3,), max(_PASS_ROWS // grid.size, 1)
    for s2 in (sigmas[i:i + per_pass] for i in range(0, len(sigmas), per_pass)):
        moments = (_moments(grid[i:i + _SWEEP_BLOCK], s, args.model)[:3]
                   for s in s2 for i in range(0, grid.size, _SWEEP_BLOCK))
        keys = np.tile(grid, len(s2)), np.repeat(s2, grid.size)
        blocks = [np.column_stack(np.broadcast_arrays(*keys, *block))
                  for block in columns(*map(np.concatenate, zip(*moments)))]
        yield np.vstack([b[i:i + grid.size] for i in range(0, keys[0].size, grid.size)
                         for b in blocks]).tolist()


def cmd_stats(args):
    # each piece is reduced as it is read, so one piece is held at a time
    with open(args.input, "rb") as fh:
        n, stats = _empirical(_series_pieces(fh, args.reference))
    header = ("eta_mean", "sqrt_eta_mean", "var_sqrt_eta", "eta_max", "n")
    return _csv(header, [[(stats.eta_mean, stats.sqrt_eta_mean, stats.var_sqrt_eta,
                           stats.eta_max, n)]])


def cmd_curve(args):
    header = ("a_over_W", "sigma_b2", "eta_mean", "sqrt_eta_mean", "var_sqrt_eta")
    return _csv(header, _sweep(args, lambda *moments: [moments]))


def cmd_ln_curve(args):
    header = ("a_over_W", "sigma_b2", "V", "LN")
    v = np.array(args.ln0 or args.variance or (7.0,))[:, None]
    return _csv(header, _sweep(args, lambda *moments: zip(
        v, _log_negativity(v, *moments, args.excess_noise))))


def cmd_kr_curve(args):
    header = ("a_over_W", "sigma_b2", "V_used", "I_AB", "chi_BE", "KR",
              *(() if args.clamp else ("KR_clamped",)))

    def columns(*moments):
        v = np.full(moments[0].shape, args.variance)
        if args.optimize:  # at most _PASS_ROWS channels per search, however long the group
            v = np.concatenate([_optimize(*(m[i:i + _PASS_ROWS] for m in moments),
                                          args.excess_noise, args.beta)[0]
                                for i in range(0, v.size, _PASS_ROWS)])
        i_ab, chi, kr = _rates(v, *moments, args.excess_noise, args.beta)
        clamped = np.where(kr > 0.0, kr, 0.0)  # max(0, KR), 0 for -0 and nan
        return [(v, i_ab, chi, *((clamped,) if args.clamp else (kr, clamped)))]
    return _csv(header, _sweep(args, columns))


def cmd_fit(args):
    with open(args.input, "rb") as fh:
        facts = _cdf_counts(_series_pieces(fh, args.reference))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        result = _fit(*facts)
    sys.stderr.writelines(f"warning: {w.message}\n" for w in caught)
    if result.boundary:
        print("warning: fit stopped on the search-domain boundary", file=sys.stderr)
    header = ("sigma_b2", "a_over_W", "gof", "n")
    return _csv(header, [[(result.geometry.sigma_b2, result.geometry.a_over_W,
                           result.gof, facts[0])]])


def _scaled(m, e, p):
    """round-half-even(m 2^e 10^p), exact, for int arrays m < 2^53 and p <= 22
    and a shift s = -(e + p) in [1, 63] that leaves less than 2^64: m 5^p <
    2^105 is formed from 32-bit limbs as high 2^64 + low, then shifted right."""
    f = (5 ** np.arange(23, dtype=np.uint64))[p]
    mh, ml, fh, fl = m >> 32, m & 0xFFFFFFFF, f >> 32, f & 0xFFFFFFFF
    part, mid = ml * fl, mh * fl + ml * fh
    low = part + (mid << 32)  # modulo 2^64
    high, s = mh * fh + (mid >> 32) + (low < part), (-(e + p)).astype(np.uint64)
    q, rest, half = (high << 64 - s) | (low >> s), low & (1 << s) - 1, 1 << s - 1
    return q + ((rest > half) | (rest == half) & ((q & 1) == 1))


def _sample_rows(x, digits):
    """The text "%.17g\\n" % v of each v of `x`, from `_sample_text`'s table.

    %g writes each v in [1e-4, 1) as "0.", -E - 1 zeros and its 17 significant
    digits D = round(v 10^(16 - E)) less their trailing zeros, for the decimal
    exponent E.  log10 gives E but next to each 10^-k, where a D outside
    [10^16, 10^17) corrects it by 1.  The other values (0, 1, the exponent form
    and subnormals) take % one by one.  The rows of text are padded, with NUL
    bytes and those of % with spaces, and both pads are deleted at the end.
    """
    fast = (x >= 1e-4) & (x < 1.0)
    v = np.where(fast, x, 0.5)
    mantissa, e = np.frexp(v)
    m, e = (mantissa * 2.0**53).astype(np.uint64), e - 53
    exp10 = np.floor(np.log10(v)).astype(np.intp)
    d = _scaled(m, e, 16 - exp10)
    fix = np.flatnonzero((d < 10**16) | (d >= 10**17))
    exp10[fix] += np.where(d[fix] < 10**16, -1, 1)
    d[fix] = _scaled(m[fix], e[fix], 16 - exp10[fix])
    high, low = np.divmod(d, 10**8)
    lead, high = np.divmod(high, 10**8)
    groups = (*np.divmod(high, 10**4), *np.divmod(low, 10**4))
    # a row: NUL NUL "0.", -E - 1 zeros and the lead digit, 4 groups of digits, "\n"
    rows = np.empty((x.size, 7), "<u4")  # little-endian words, whatever the machine
    rows[:, 0] = int.from_bytes(b"\0\0" b"0.", "little")
    rows[:, 1] = (0x303030 >> 8 * (exp10 + 4)) + (lead.astype(np.intp) + 48 << 24)
    for k, group in enumerate(groups[:3]):
        rows[:, 2 + k] = digits[0, group]
    rows[:, 5] = digits[1, groups[3]]
    ends = np.flatnonzero(groups[3] == 0)  # rows whose digits end before their last group
    for k in (2, 1, 0):
        rows[ends, 2 + k] = digits[1, groups[k][ends]]
        ends = ends[groups[k][ends] == 0]
    rows[:, 6] = ord("\n")
    slow = np.flatnonzero(~fast)
    text = ("%-24.17g" * slow.size % tuple(x[slow].tolist())).encode()
    rows.view(np.uint8)[slow, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    return rows.tobytes().translate(None, b"\0 ").decode()


def _sample_text(blocks):
    """The text "%.17g\\n" % x of each sample x, as one str per block of
    `blocks`.  A block with more than half its samples in [1e-4, 1) is made by
    `_sample_rows` 8192 samples at a time, which holds less memory than one %
    of the block; any other block takes one %, which is then the faster.  The
    table holds in row 0 the 4 ASCII digits of each group 0000-9999 as one
    little-endian word, and in row 1 the same with trailing zeros as NUL bytes."""
    digits = None
    for eta in blocks:
        if digits is None:  # built before the first draw, it raised its peak 0.4 MB
            group = np.arange(10000, dtype=np.uint16)[:, None]
            digit = group // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48
            kept = group % np.array([10000, 1000, 100, 10], np.uint16) > 0  # not a trailing 0
            digits = np.stack([digit, digit * kept]).astype(np.uint8).view("<u4")[..., 0]
        if 2 * np.count_nonzero((eta >= 1e-4) & (eta < 1.0)) <= eta.size:
            yield "%.17g\n" * eta.size % tuple(eta.tolist())
        else:
            yield "".join(_sample_rows(x, digits) for x in np.split(
                eta, range(8192, eta.size, 8192)))


def cmd_sample(args):
    # the checks run here, so a failing sample raises before main opens --out;
    # the samples are then drawn block by block as main writes them
    blocks = _sample_blocks(BeamGeometry(a_over_W=args.aw, sigma_b2=args.sigma_b2),
                            args.seed, args.samples, args.model)
    header = (f"# transmittance samples a_over_W={args.aw:.12g} "
              f"sigma_b2={args.sigma_b2:.12g} n={args.samples} "
              f"seed={args.seed} model={args.model}\n")
    # each block's text is "%.17g\n" % x per sample x, made by exact integer arithmetic
    # at about 100 ns per sample in [1e-4, 1), against 415 for % (2-CPU Intel Xeon)
    return chain([header], _sample_text(blocks))


# each command's help and function, in the order that the usage lists them
_COMMANDS = {"stats": ("moments of a measured series", cmd_stats),
             "curve": ("channel moments over an a/W sweep", cmd_curve),
             "ln-curve": ("log-negativity over an a/W sweep", cmd_ln_curve),
             "kr-curve": ("key-rate bound over an a/W sweep", cmd_kr_curve),
             "fit": ("fit channel parameters to a series", cmd_fit),
             "sample": ("generate synthetic samples", cmd_sample)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only a named command's parser is built; the full one lists and checks them
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        pieces = args.run(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (SeriesFormatError, OSError)) else 1
    return 0


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
