"""Benchmark of the beamfade command line, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload kr-optimize --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it reports the per-layer metrics from a traced run, next to an
untraced one.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a readable report that starts with the run's provenance.

The package is imported from ``src/`` of the checkout and nothing else: the
benchmark exits with status 1, printing no result, where that tree is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SUBPROCESS_TIMEOUT_S = 150
# Every time reported is in reference seconds: measured seconds times
# CALIBRATION_REF_S over the time `calibrate` took just before.  The machine
# this was written on runs some minutes up to 1.8x slower than others, and the
# calibration ratio cancels that; CALIBRATION_REF_S is the calibration's
# median there, so a reference second is about a second on that machine.
CALIBRATION_REF_S = 0.085


def load_library():
    """The beamfade modules of this checkout and the test oracles."""
    oracle_file = ROOT / "tests" / "oracles.py"
    if not (SRC / "beamfade" / "__init__.py").is_file() or not oracle_file.is_file():
        raise SystemExit(f"perfbench: {ROOT} holds no beamfade source tree "
                         "(src/beamfade and tests/oracles.py)")
    sys.path.insert(0, str(SRC))
    lib = types.SimpleNamespace(**{
        layer: importlib.import_module(f"beamfade.{layer}") for layer in tracing.LAYERS})
    if Path(lib.cli.__file__).resolve().parent != SRC / "beamfade":
        raise SystemExit(f"perfbench: imported beamfade from {lib.cli.__file__}, "
                         f"not from {SRC}")
    spec = importlib.util.spec_from_file_location("beamfade_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return lib, oracles


def blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            blas = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(blas, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args):
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "beamfade").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def invoke(cli, command):
    """Run one command in-process; its exit status as the shell would see it."""
    try:
        return cli.main(list(command.argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed invocation, not a failed run
        traceback.print_exc()
        return 1


def run_once(cli, commands, workdir):
    """One workload run: (status, seconds, speed factor) per command.

    The machine's speed is calibrated just before each command, untimed.
    """
    for command in commands:
        try:
            os.remove(os.path.join(workdir, command.out))
        except FileNotFoundError:
            pass
    results = []
    for command in commands:
        factor = speed_factor()
        t0 = time.perf_counter()
        status = invoke(cli, command)
        results.append((status, time.perf_counter() - t0, factor))
    return results


def wall(results):
    """(seconds, speed factor) of a whole run, the factor weighted by command time."""
    seconds = sum(t for _, t, _ in results)
    return seconds, sum(t * f for _, t, f in results) / seconds


def digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


class Outcomes:
    """Counts invocations and failures; a failure is a nonzero exit or an
    output that is wrong or differs from the output checked first."""

    def __init__(self, lib, oracles, commands, workdir, inputs, seed):
        self.lib, self.oracles = lib, oracles
        self.commands, self.workdir, self.inputs = commands, workdir, inputs
        self.rng = np.random.default_rng([seed, 1])
        self.expected = None
        self.attempted = self.failed = 0
        self.problems = []

    def record(self, results, extra=None):
        """Count one workload run; ``extra`` holds more problems per command."""
        digests = [digest(os.path.join(self.workdir, c.out)) for c in self.commands]
        for i, (command, (status, _, _)) in enumerate(zip(self.commands, results)):
            self.attempted += 1
            problems = [f"exit status {status}"] if status != 0 else []
            if not problems and self.expected is None:
                problems = checks.check(self.lib, self.oracles, command, self.workdir,
                                        self.inputs, self.rng)
            elif not problems and digests[i] != self.expected[i]:
                problems = ["output differs from the checked first run"]
            if extra:
                problems += extra[i]
            if problems:
                self.failed += 1
                self.problems += [f"{command.name}: {p}" for p in problems]
        if self.expected is None:
            self.expected = digests

    def add(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def calibrate():
    """Seconds taken by a fixed mix of work that does not touch beamfade.

    Interpreter arithmetic, small-matrix calls, vector arithmetic and float
    text conversion, in about equal parts: the kinds of work the workloads do.
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i % 7
    eye = np.eye(4)
    for _ in range(3_000):
        np.linalg.det(eye)
    v = np.linspace(0.0, 1.0, 1 << 20)
    for _ in range(2):
        float(np.exp(-v).sum())
    sum(map(float, "\n".join(f"{u:.17g}" for u in v[:10_000]).split()))
    return time.perf_counter() - start


def speed_factor():
    """Reference seconds per measured second, from a calibration run just now."""
    return CALIBRATION_REF_S / calibrate()


def measure_setup(reps):
    """(seconds, speed factor) of a fresh interpreter's `import beamfade.cli`."""
    out = []
    for _ in range(reps):
        factor = speed_factor()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import beamfade.cli"], env=child_env(),
                       check=True, timeout=SUBPROCESS_TIMEOUT_S, cwd=str(ROOT))
        out.append((time.perf_counter() - t0, factor))
    return out


def measure_peak_rss(args, workdir):
    """Peak resident memory of one workload run in a process of its own."""
    done = subprocess.run(
        [sys.executable, str(HERE / "rss_probe.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--size", args.size, "--workdir", workdir],
        env=child_env(), capture_output=True, text=True, check=True,
        timeout=SUBPROCESS_TIMEOUT_S, cwd=str(ROOT))
    return json.loads(done.stdout.strip().splitlines()[-1])


def median(pairs):
    """Median in reference seconds of (seconds, factor) pairs, and of the raw seconds."""
    return (statistics.median(t * f for t, f in pairs),
            statistics.median(t for t, _ in pairs))


def describe(pairs):
    ref, raw = median(pairs)
    factors = [f for _, f in pairs]
    return (f"median of {len(pairs)}; raw {raw:.4g} s, speed factor "
            f"{statistics.median(factors):.3f} ({min(factors):.3f}-{max(factors):.3f}); "
            "runs (raw s @ factor) " + " ".join(f"{t:.4f}@{f:.4f}" for t, f in pairs))


def end_to_end(args, lib, commands, outcomes, workdir):
    setup = measure_setup(workloads.SIZES[args.size]["setup_reps"])
    rss = measure_peak_rss(args, workdir)
    outcomes.add(rss["attempted"], rss["failed"],
                 [f"fresh process: {p}" for p in rss["problems"]])
    outcomes.record(run_once(lib.cli, commands, workdir))  # warm-up, checked
    walls, per_command = [], [[] for _ in commands]
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        results = run_once(lib.cli, commands, workdir)
        outcomes.record(results)
        walls.append(wall(results))
        for times, (_, seconds, factor) in zip(per_command, results):
            times.append((seconds, factor))
    metrics = {
        "setup_s": median(setup)[0],
        "wall_s": median(walls)[0],
        "peak_rss_mb": rss["peak_rss_mb"],
    }
    notes = {"setup_s": describe(setup), "wall_s": describe(walls),
             "peak_rss_mb": "one workload run in a fresh process"}
    report = []
    for command, times in zip(commands, per_command):
        name = f"{command.name}.{command.unit}_per_s"
        unit = f"{command.unit}/s"
        report.append(f"  {name:40s} {command.units / median(times)[0]:14.6g} {unit:9s} "
                      f"{command.units} {command.unit}; {describe(times)}")
    return metrics, notes, report


def per_layer(args, lib, commands, outcomes, workdir):
    tracer = tracing.Tracer(vars(lib))
    outcomes.record(run_once(lib.cli, commands, workdir))  # warm-up, checked
    plain, traced, layers, self_sums, span_problems = [], [], [], [], 0
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        results = run_once(lib.cli, commands, workdir)
        outcomes.record(results)
        plain.append(wall(results))
        tracer.reset()
        with tracer:
            results = run_once(lib.cli, commands, workdir)
        problems = tracer.problems([seconds for _, seconds, _ in results])
        span_problems += sum(map(len, problems))
        outcomes.record(results, problems)
        traced.append(wall(results))
        factor = traced[-1][1]
        sample = {name: value * factor if name.endswith("_s") else value
                  for name, value in tracer.layer_metrics().items()}
        sample["cli.bytes_written"] = sum(
            os.path.getsize(os.path.join(workdir, c.out)) for c in commands)
        layers.append(sample)
        self_sums.append({k: v * factor for k, v in tracer.layer_self_seconds().items()})
    metrics = {name: statistics.median(s[name] for s in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = median(traced)[0] - median(plain)[0]
    by_layer = ", ".join(f"{layer} {statistics.median(s[layer] for s in self_sums):.4f}"
                         for layer in tracing.LAYERS)
    report = [
        f"  layer self times (s): {by_layer}",
        f"  traced wall_s {median(traced)[0]:.4f} s, untraced {median(plain)[0]:.4f} s; "
        f"{span_problems} span problems in {len(traced)} traced runs",
        f"  {describe(traced)}",
    ]
    return metrics, {}, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed runs last, after set-up and warm-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own test")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lib, oracles = load_library()
    print("# provenance " + json.dumps(provenance(args), sort_keys=True))

    os.makedirs(ROOT / ".perfbench-work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench-work")
    try:
        inputs = workloads.Inputs.from_seed(args.seed)
        commands = workloads.commands(args.workload, inputs, args.size, workdir)
        workloads.write_inputs(args.workload, inputs, args.size, workdir, lib.channel)
        print(f"# inputs sigma_b2={list(inputs.sigma_b2)} sample_seed={inputs.sample_seed} "
              f"noise_seed={inputs.noise_seed}")
        for command in commands:
            print("# command beamfade " + " ".join(
                os.path.relpath(a, workdir) if a.startswith(workdir) else a
                for a in command.argv))
        outcomes = Outcomes(lib, oracles, commands, workdir, inputs, args.seed)
        measure = per_layer if args.trace else end_to_end
        values, notes, report = measure(args, lib, commands, outcomes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(ROOT / ".perfbench-work")
        except OSError:
            pass

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, size {args.size}; "
          "times in reference seconds")
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:14.6g} {entry['unit']:9s} {notes.get(name, '')}")
    print("\n".join(report))
    error_rate = outcomes.failed / outcomes.attempted
    print(f"  {'error_rate':40s} {error_rate:14.6g} {'share':9s} "
          f"{outcomes.failed} of {outcomes.attempted} invocations failed")
    for problem in outcomes.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": outcomes.failed == 0, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
