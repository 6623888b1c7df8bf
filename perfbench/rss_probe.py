"""Peak resident memory of one workload run, in a process of its own.

Started by run.py in a work directory that already holds the workload's
input files; prints one JSON line with ``peak_rss_mb`` and the outcome of the
run's commands.  Importing beamfade is part of the measured process,
as it is for a user of the command line.
"""

from __future__ import annotations

import argparse
import json

import workloads


def peak_rss_kib():
    """High-water resident set of this process's own address space.

    VmHWM, not ru_maxrss: Linux carries ru_maxrss across exec, so a child
    started from a large parent would report the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    from beamfade import cli

    inputs = workloads.Inputs.from_seed(args.seed)
    commands = workloads.commands(args.workload, inputs, args.size, args.workdir)
    problems = []
    for command in commands:
        status = cli.main(list(command.argv))
        if status != 0:
            problems.append(f"{command.name}: exit status {status}")
    print(json.dumps({"peak_rss_mb": peak_rss_kib() / 1024.0, "attempted": len(commands),
                      "failed": len(problems), "problems": problems}))


if __name__ == "__main__":
    main()
