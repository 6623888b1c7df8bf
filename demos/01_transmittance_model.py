"""Exact aperture-clipping transmittance vs the log-negative Weibull fit.

The approximation is built to match the exact curve at the aperture rim
(value and log-slope at r = 1), so the interesting question is how far it
drifts away from there.
"""

import numpy as np

from beamfade.channel import eta_approx, exact_eta_at_offset, weibull_params

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

offsets = np.linspace(0.0, 2.0, 81)

print("a/W   t0^2        lambda      scale       worst |exact-approx|")
curves = {}
for aw in (0.5, 1.0, 1.5, 2.0):
    params = weibull_params(aw)
    exact = exact_eta_at_offset(offsets, aw)
    approx = eta_approx(offsets, params)
    curves[aw] = (exact, approx)
    print(f"{aw:3.1f}   {params.t0 ** 2:.6f}   {params.lam:.6f}   "
          f"{params.scale:.6f}   {np.abs(exact - approx).max():.2e}")

r1 = 1.0
print("\nmatching point r = 1:")
for aw in (0.5, 1.0, 1.5, 2.0):
    params = weibull_params(aw)
    print(f"  a/W={aw}: exact {exact_eta_at_offset(r1, aw):.9f}  "
          f"approx {eta_approx(r1, params):.9f}")

if plt is not None:
    fig, ax = plt.subplots(figsize=(6.0, 4.0))
    for aw, (exact, approx) in curves.items():
        line, = ax.plot(offsets, exact, label=f"a/W = {aw}")
        ax.plot(offsets, approx, "--", color=line.get_color())
    ax.set_xlabel("beam-center offset r (aperture radii)")
    ax.set_ylabel("transmittance")
    ax.legend(title="solid exact, dashed model")
    fig.tight_layout()
    fig.savefig("transmittance_model.png", dpi=150)
    print("\nwrote transmittance_model.png")
