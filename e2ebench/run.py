#!/usr/bin/env python3
"""Build and run ringent's end-to-end benchmark (see e2ebench/README.md).

Run from the root of a checkout:

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --selftest      # the benchmark's own tests
  python3 e2ebench/run.py --make-pins     # regenerate e2ebench/pins.json

The first call configures and builds the library and the benchmark under
$CARGO_TARGET_DIR (default .bench_build); later calls only rebuild what
changed. Build output goes to stderr; the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["campaign_sim", "campaign_store", "service_stream"]
PIN_SEEDS = [1, 2]  # the default seed and one held-out seed
PINS = os.path.join(HERE, "pins.json")


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "e2ebench")


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, target)


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    out = build_dir()
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(out, "work-%s-%d" % (workload,
                                                          os.getpid()))]
    cmd += list(extra)
    return subprocess.run(cmd).returncode


def make_pins(binary):
    doc = {"schema": "e2ebench.pins/1"}
    frag = os.path.join(build_dir(), "pin-fragment.json")
    for workload in WORKLOADS:
        for seed in PIN_SEEDS:
            code = run_bench(binary, workload, seed, 1, 0,
                             ["--pin-out", frag])
            if code != 0:
                return code
            with open(frag) as f:
                part = json.load(f)
            doc.setdefault(workload, {}).update(part[workload])
            doc["counters"] = part["counters"]
    # One line per pinned cell or stream keeps diffs of the file readable.
    lines = ['{"schema": "e2ebench.pins/1",',
             ' "counters": %s,' % json.dumps(doc["counters"])]
    for i, workload in enumerate(WORKLOADS):
        lines.append(' "%s": {' % workload)
        seeds = sorted(doc[workload], key=int)
        for j, seed in enumerate(seeds):
            lines.append('  "%s": {' % seed)
            items = sorted(doc[workload][seed].items())
            for k, (key, value) in enumerate(items):
                comma = "," if k + 1 < len(items) else ""
                lines.append('   "%s": %s%s' % (key, json.dumps(value), comma))
            lines.append('  }' + ("," if j + 1 < len(seeds) else ""))
        lines.append(' }' + ("," if i + 1 < len(WORKLOADS) else ""))
    lines.append("}")
    with open(PINS, "w") as f:
        f.write("\n".join(lines) + "\n")
    print("wrote", PINS, file=sys.stderr)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--make-pins", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            binary = build("e2ebench_selftest")
            # Keep the tests' scratch files inside the build directory.
            tmp = os.path.abspath(os.path.join(build_dir(), "tmp"))
            os.makedirs(tmp, exist_ok=True)
            env = dict(os.environ, TMPDIR=tmp)
            return subprocess.run([binary], env=env).returncode
        binary = build("e2ebench")
    except (subprocess.CalledProcessError, OSError) as error:
        print("e2ebench: build failed: %s" % error, file=sys.stderr)
        return 1
    if args.make_pins:
        return make_pins(binary)
    if args.workload is None:
        parser.error("--workload is required")
    extra = ["--pins", PINS]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        extra += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    return run_bench(binary, args.workload, args.seed, args.seconds,
                     args.trace, extra)


if __name__ == "__main__":
    sys.exit(main())
