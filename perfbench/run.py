#!/usr/bin/env python3
"""Build and run the ideobf benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (and with it the program, from the sources beside it) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
perfbench_e2e (--trace 0: end-to-end metrics) or perfbench_trace (--trace 1:
per-layer metrics). The last line of standard output is the JSON result.
Build output goes to standard error. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["novel_ps", "campaign_ps", "serve_mixed", "hostile_governed"]
RUN_TIMEOUT_S = 175


def build(root: Path, build_dir: Path) -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configured on every run (quick once configured), so that a configure
    # that failed part-way is retried rather than built from.
    cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench_e2e", "perfbench_trace"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="feed every correctness check a corrupted output")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    try:
        build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # Paths relative to the repository root keep the daemon's Unix socket
    # path short.
    work_dir = build_root / "run"
    work_dir.mkdir(parents=True, exist_ok=True)
    rel = lambda p: os.path.relpath(p, root)
    binary = build_dir / ("perfbench_trace" if args.trace else "perfbench_e2e")
    cmd = [str(binary)]
    if args.self_test:
        cmd += ["--self-test"]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--ideobf", rel(build_dir / "ideobf"),
                "--data", "data", "--work", rel(work_dir)]
    # Own process group: whatever the run leaves behind (the serve daemon, if
    # the benchmark died) is killed with it.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
