"""The three benchmark workloads: seeded inputs and the command lines they run.

Every workload is a closed loop with one caller: each ``beamfade`` command
starts when the previous one has returned, all in one process.  The seed
picks the sweeps' sigma_b2 values, the ``sample --seed`` and the noise of the
raw-voltage series; nothing else varies between seeds.  See README.md in this
directory for why each workload exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# aperture-to-beam sweep shared by the three sweep commands
AW_MIN, AW_MAX = 0.3, 3.0
# two sweep variances, one drawn from each half of [0.05, 0.5], so that every
# seed covers weak and strong wandering
SIGMA_B2_HALVES = ((0.05, 0.275), (0.275, 0.5))
LN_VARIANCES = (2.0, 4.0, 7.0, 12.0, 20.0)
# geometry of the sampled series, which `fit` must recover
SAMPLE_AW, SAMPLE_SIGMA_B2 = 1.0, 0.3
# raw-voltage copy read by `stats --reference`: volts = eta * REFERENCE_V plus
# uniform noise of at most NOISE_V, small enough to stay inside the parser's
# 0.01 edge-tolerance band after division
REFERENCE_V = 2.5
NOISE_V = 1e-3
# the optimiser is run at the CLI defaults
EXCESS_NOISE, BETA = 0.01, 0.97

# setup_reps is how many fresh interpreters a run times for setup_s
SIZES = {
    "full": {"kr_steps": 31, "curve_steps": 31, "ln_steps": 31,
             "exact_samples": 50_000, "series_samples": 500_000, "setup_reps": 5},
    "tiny": {"kr_steps": 3, "curve_steps": 3, "ln_steps": 3,
             "exact_samples": 2_000, "series_samples": 20_000, "setup_reps": 1},
}

NAMES = ("kr-optimize", "moment-sweep", "series-roundtrip")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its argv, the file it writes and the work it does."""

    name: str
    argv: tuple
    out: str
    units: int
    unit: str


@dataclass(frozen=True)
class Inputs:
    """Everything the seed decides."""

    sigma_b2: tuple
    sample_seed: int
    noise_seed: int

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        rng = np.random.default_rng(seed)
        sigma_b2 = tuple(round(float(rng.uniform(lo, hi)), 4)
                         for lo, hi in SIGMA_B2_HALVES)
        return cls(sigma_b2=sigma_b2,
                   sample_seed=int(rng.integers(1, 2**31 - 1)),
                   noise_seed=int(rng.integers(1, 2**31 - 1)))


def _sweep(steps, sigma_b2):
    argv = ["--aw-min", str(AW_MIN), "--aw-max", str(AW_MAX), "--steps", str(steps)]
    for s2 in sigma_b2:
        argv += ["--sigma-b2", repr(s2)]
    return argv


def commands(name: str, inputs: Inputs, size: str, workdir: str) -> list[Command]:
    """The command lines of workload `name`, writing into `workdir`."""
    n = SIZES[size]

    def path(name):
        return os.path.join(workdir, name)

    n_sigma = len(inputs.sigma_b2)
    sample = ["sample", "--aw", repr(SAMPLE_AW), "--sigma-b2", repr(SAMPLE_SIGMA_B2),
              "--seed", str(inputs.sample_seed)]
    if name == "kr-optimize":
        return [Command("kr-curve",
                        ("kr-curve", "--optimize", *_sweep(n["kr_steps"], inputs.sigma_b2),
                         "--out", path("kr.csv")),
                        "kr.csv", n["kr_steps"] * n_sigma, "rows")]
    if name == "moment-sweep":
        variances = [a for v in LN_VARIANCES for a in ("--variance", repr(v))]
        return [
            Command("curve",
                    ("curve", "--model", "exact", *_sweep(n["curve_steps"], inputs.sigma_b2),
                     "--out", path("curve.csv")),
                    "curve.csv", n["curve_steps"] * n_sigma, "rows"),
            Command("ln-curve",
                    ("ln-curve", *_sweep(n["ln_steps"], inputs.sigma_b2), *variances,
                     "--out", path("ln.csv")),
                    "ln.csv", n["ln_steps"] * n_sigma * len(LN_VARIANCES), "rows"),
            Command("sample",
                    (*sample, "--samples", str(n["exact_samples"]), "--model", "exact",
                     "--out", path("exact.txt")),
                    "exact.txt", n["exact_samples"], "samples"),
        ]
    if name == "series-roundtrip":
        m = n["series_samples"]
        return [
            Command("sample", (*sample, "--samples", str(m), "--out", path("series.txt")),
                    "series.txt", m, "samples"),
            Command("stats", ("stats", path("raw.txt"), "--reference", repr(REFERENCE_V),
                              "--out", path("stats.csv")),
                    "stats.csv", m, "samples"),
            Command("fit", ("fit", path("series.txt"), "--out", path("fit.csv")),
                    "fit.csv", m, "samples"),
        ]
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(name: str, inputs: Inputs, size: str, workdir: str, channel) -> None:
    """Write the files a workload reads before its first command runs.

    Only `series-roundtrip` reads a file it did not write itself: the
    raw-voltage copy of its sample series, with `#` comments, a blank line and
    CRLF line endings, as a detector log might have.
    """
    if name != "series-roundtrip":
        return
    m = SIZES[size]["series_samples"]
    geometry = channel.BeamGeometry(a_over_W=SAMPLE_AW, sigma_b2=SAMPLE_SIGMA_B2)
    eta = channel.sample_transmittance(geometry, seed=inputs.sample_seed, n=m)
    noise = np.random.default_rng(inputs.noise_seed).uniform(-NOISE_V, NOISE_V, m)
    volts = eta * REFERENCE_V + noise
    half = m // 2
    lines = [f"# raw detector voltage, reference {REFERENCE_V} V",
             f"# noise seed {inputs.noise_seed}", ""]
    lines += [f"{v:.9f}" for v in volts[:half]]
    lines += ["# detector re-armed", ""]
    lines += [f"{v:.9f}" for v in volts[half:]]
    with open(os.path.join(workdir, "raw.txt"), "w", encoding="utf-8", newline="\r\n") as fh:
        fh.write("\n".join(lines) + "\n")
