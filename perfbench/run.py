#!/usr/bin/env python3
"""Build the checker benchmark from source and run one workload.

    python3 perfbench/run.py --workload <bank|scale|service|fuzz> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a package of its own
(perfbench/Cargo.toml) built in release mode into $CARGO_TARGET_DIR
(default: .bench_build). The last line of standard output is the run's
JSON result; build output goes to standard error. Exits non-zero when
the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    # The program under test must not be steered by its own knobs: the
    # benchmark pins workers and reductions, and these variables would
    # otherwise change defaults it does not spell out.
    for key in list(env):
        if key.startswith(("CONCUR_", "FUZZ_", "CONFORMANCE_")):
            del env[key]
    # One malloc arena: otherwise peak RSS and throughput depend on which
    # arena each short-lived client or coroutine thread lands in, and the
    # arena count on the machine's core count.
    env["MALLOC_ARENA_MAX"] = "1"
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, target, "release", "perfbench")
    # One vCPU for the run: handing a strictly alternating coroutine or a
    # contended lock to another vCPU cost anywhere from 1x to 4x on a
    # shared 2-vCPU machine from one minute to the next.
    cpu = min(os.sched_getaffinity(0))
    run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                         preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
