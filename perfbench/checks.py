"""Correctness checks of each command's output, run outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  Library values that a check needs as input (the moments of a
geometry) come from beamfade, but every quantity under test is recomputed by
a different route: the scalar Holevo formula and the dense iΩγ spectrum of
``tests/oracles.py``, a brute-force disc integral, numpy on the raw file, or
the statistics of the sample itself.

Tolerances, and why:

- ``CSV_REL = 1e-9``: the CLI prints 12 significant digits, so a printed
  value is off by up to 5e-12 relative; the scalar Holevo and dense-spectrum
  routes agree with the library to 1e-11 (measured worst case 9.4e-12 over
  a/W 0.3-3, sigma_b2 0.05-0.5, V 1-1000).  1e-9 leaves a factor of 100.
- ``ORACLE_MOMENT_ABS = 1e-6``: the accuracy the test suite demands of the
  disc-integral oracle.  A 60-node Gauss-Laguerre rule over that oracle was
  measured within 4.5e-8 of the exact moments at the worst corner of the
  sweep (a/W = 3, sigma_b2 = 0.5) and within 1e-12 elsewhere.
- ``SAMPLE_Z = 5``: sample moments must lie within 5 standard errors of the
  analytic moments; a correct sampler fails this with probability 6e-7 per
  comparison.
- ``STATS_REL = 1e-11``: stats and numpy average the same parsed array, so
  only the 12-digit printing separates them.
- ``FIT_ABS = 0.02`` in sigma_b2 and a/W: the fit's error over eight seeds was
  at most 0.005 at 2e4 samples and 0.001 at 5e5; 0.02 is far outside that
  and still far inside the distance to any other geometry of interest.
- ``FIT_GOF_MAX = 1e-4``: the CDF distance of a good fit was at most 3.6e-6 at
  2e4 samples.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from workloads import (AW_MAX, AW_MIN, BETA, EXCESS_NOISE, LN_VARIANCES,
                       REFERENCE_V, SAMPLE_AW, SAMPLE_SIGMA_B2)

CSV_REL = 1e-9
ORACLE_MOMENT_ABS = 1e-6
LAGUERRE_NODES = 60
SAMPLE_Z = 5.0
STATS_REL = 1e-11
FIT_ABS = 0.02
FIT_GOF_MAX = 1e-4
PICKED_ROWS = 6

# partial transpose: flips the sign of mode 2's p quadrature
_PT = np.diag([1.0, 1.0, 1.0, -1.0])


def _read_csv(path, header):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != tuple(header):
        raise ValueError(f"header {rows[:1]} != {list(header)}")
    values = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("non-finite value in output")
    return values


def _close(got, want, rel, floor=1.0):
    return abs(got - want) <= rel * max(floor, abs(want))


def _sweep_grid(values, steps, sigma_b2, repeat=1):
    """Problems with the (a/W, sigma_b2) columns of a sweep's rows."""
    want = steps * len(sigma_b2) * repeat
    if len(values) != want:
        return [f"{len(values)} rows, expected {want}"]
    grid = np.linspace(AW_MIN, AW_MAX, steps)
    aw = np.tile(grid, len(sigma_b2) * repeat)
    s2 = np.repeat(sigma_b2, steps * repeat)
    if not (np.allclose(values[:, 0], aw, rtol=1e-11) and np.allclose(values[:, 1], s2, rtol=1e-11)):
        return ["a/W or sigma_b2 columns do not follow the requested grid"]
    return []


def _moments(lib, aw, s2, model="approx"):
    return lib.fading.analytic_moments(lib.channel.BeamGeometry(a_over_W=aw, sigma_b2=s2),
                                       model=model)


def check_kr_curve(lib, oracles, path, steps, sigma_b2, rng):
    values = _read_csv(path, ("a_over_W", "sigma_b2", "V_used", "I_AB", "chi_BE",
                              "KR", "KR_clamped"))
    problems = _sweep_grid(values, steps, sigma_b2)
    if problems:
        return problems
    for i, (aw, s2, v, i_ab, chi, kr, kr_clamped) in enumerate(values):
        if kr > BETA * i_ab + CSV_REL * max(1.0, abs(i_ab)):
            problems.append(f"row {i}: KR {kr} > beta*I_AB {BETA * i_ab}")
        if not _close(kr, BETA * i_ab - chi, CSV_REL):
            problems.append(f"row {i}: KR {kr} != beta*I_AB - chi_BE")
        if kr_clamped != max(0.0, kr):
            problems.append(f"row {i}: KR_clamped {kr_clamped} != max(0, {kr})")
    for i in rng.choice(len(values), size=min(PICKED_ROWS, len(values)), replace=False):
        aw, s2, v, _, chi, _, _ = values[i]
        stats = _moments(lib, aw, s2)
        want = oracles.holevo_scalar(v, EXCESS_NOISE, stats.eta_mean, stats.sqrt_eta_mean)
        if not _close(chi, want, CSV_REL):
            problems.append(f"row {i}: chi_BE {chi} != scalar oracle {want}")
    return problems


def check_ln_curve(lib, oracles, path, steps, sigma_b2, rng):
    values = _read_csv(path, ("a_over_W", "sigma_b2", "V", "LN"))
    problems = _sweep_grid(values, steps, sigma_b2, repeat=len(LN_VARIANCES))
    if problems:
        return problems
    if not np.array_equal(values[:, 2], np.tile(np.repeat(LN_VARIANCES, steps), len(sigma_b2))):
        problems.append("V column does not follow the requested variances")
    for i in rng.choice(len(values), size=min(PICKED_ROWS, len(values)), replace=False):
        aw, s2, v, ln = values[i]
        stats = _moments(lib, aw, s2)
        b = 1.0 + stats.eta_mean * (v - 1.0) + stats.sqrt_eta_mean**2 * EXCESS_NOISE
        c = stats.sqrt_eta_mean * math.sqrt(v * v - 1.0)
        gamma = np.array([[v, 0, c, 0], [0, v, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
        _, nu_tilde = oracles.symplectic_eigs_iomega(_PT @ gamma @ _PT)
        want = max(0.0, -math.log2(nu_tilde))
        if not _close(ln, want, CSV_REL):
            problems.append(f"row {i}: LN {ln} != dense-spectrum oracle {want}")
    return problems


def check_curve(lib, oracles, path, steps, sigma_b2, rng):
    values = _read_csv(path, ("a_over_W", "sigma_b2", "eta_mean", "sqrt_eta_mean",
                              "var_sqrt_eta"))
    problems = _sweep_grid(values, steps, sigma_b2)
    if problems:
        return problems
    for i, (_, _, m2, m1, var) in enumerate(values):
        if not (0.0 <= m1 and 0.0 <= m2 <= 1.0 and abs(var - (m2 - m1 * m1)) <= 1e-9):
            problems.append(f"row {i}: inconsistent moments {m2}, {m1}, {var}")
    # <T^n> = integral_0^inf e^-u eta(r(u))^(n/2) du with r = sqrt(2 sigma_b2 u)
    i = int(rng.integers(len(values)))
    aw, s2, m2, m1, _ = values[i]
    u, w = np.polynomial.laguerre.laggauss(LAGUERRE_NODES)
    eta = np.array([oracles.eta_disc_2d(math.sqrt(2.0 * s2 * x), aw) for x in u])
    for label, got, want in (("sqrt_eta_mean", m1, float(w @ np.sqrt(eta))),
                             ("eta_mean", m2, float(w @ eta))):
        if abs(got - want) > ORACLE_MOMENT_ABS:
            problems.append(f"row {i}: {label} {got} != disc-integral oracle {want}")
    return problems


def check_sample(lib, path, n, model):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        eta = np.loadtxt(fh, dtype=float)
    problems = []
    if not header.startswith("# transmittance samples") or f"model={model}" not in header:
        problems.append(f"unexpected header {header.strip()!r}")
    if eta.shape != (n,):
        return problems + [f"{eta.size} samples, expected {n}"]
    if not np.all((eta >= 0.0) & (eta <= 1.0)):
        problems.append("sample outside [0, 1]")
    want = _moments(lib, SAMPLE_AW, SAMPLE_SIGMA_B2, model)
    for label, x, mean in (("eta", eta, want.eta_mean),
                           ("sqrt(eta)", np.sqrt(eta), want.sqrt_eta_mean)):
        se = float(x.std(ddof=1)) / math.sqrt(n)
        if abs(float(x.mean()) - mean) > SAMPLE_Z * se:
            problems.append(f"<{label}> {x.mean()} is more than {SAMPLE_Z} standard "
                            f"errors ({se:.3g}) from the analytic {mean}")
    return problems


def check_stats(path, raw_path, n):
    (values,) = _read_csv(path, ("eta_mean", "sqrt_eta_mean", "var_sqrt_eta", "eta_max", "n"))
    eta = np.clip(np.loadtxt(raw_path, comments="#", dtype=float) / REFERENCE_V, 0.0, 1.0)
    m1 = float(np.sqrt(eta).mean())
    m2 = float(eta.mean())
    want = (m2, m1, m2 - m1 * m1, float(eta.max()), eta.size)
    if eta.size != n:
        return [f"raw file holds {eta.size} values, expected {n}"]
    labels = ("eta_mean", "sqrt_eta_mean", "var_sqrt_eta", "eta_max", "n")
    return [f"{label} {got} != numpy {ref}"
            for label, got, ref in zip(labels, values, want)
            if not _close(got, ref, STATS_REL, floor=1e-3)]


def check_fit(path, n):
    (values,) = _read_csv(path, ("sigma_b2", "a_over_W", "gof", "n"))
    s2, aw, gof, count = values
    problems = []
    if abs(s2 - SAMPLE_SIGMA_B2) > FIT_ABS or abs(aw - SAMPLE_AW) > FIT_ABS:
        problems.append(f"fit ({s2}, {aw}) misses the generating geometry "
                        f"({SAMPLE_SIGMA_B2}, {SAMPLE_AW}) by more than {FIT_ABS}")
    if not 0.0 <= gof <= FIT_GOF_MAX:
        problems.append(f"gof {gof} outside [0, {FIT_GOF_MAX}]")
    if count != n:
        problems.append(f"n {count} != {n}")
    return problems


def check(lib, oracles, command, workdir, inputs, rng):
    """Problems with one command's output file; [] when it is correct."""
    path = os.path.join(workdir, command.out)
    sigma_b2 = np.array(inputs.sigma_b2)
    n_sigma = len(inputs.sigma_b2)
    try:
        if command.name == "kr-curve":
            return check_kr_curve(lib, oracles, path, command.units // n_sigma, sigma_b2, rng)
        if command.name == "ln-curve":
            steps = command.units // (n_sigma * len(LN_VARIANCES))
            return check_ln_curve(lib, oracles, path, steps, sigma_b2, rng)
        if command.name == "curve":
            return check_curve(lib, oracles, path, command.units // n_sigma, sigma_b2, rng)
        if command.name == "sample":
            model = "exact" if "exact" in command.argv else "approx"
            return check_sample(lib, path, command.units, model)
        if command.name == "stats":
            return check_stats(path, os.path.join(workdir, "raw.txt"), command.units)
        if command.name == "fit":
            return check_fit(path, command.units)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    raise ValueError(f"no check for command {command.name!r}")
