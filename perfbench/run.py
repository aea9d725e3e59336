#!/usr/bin/env python3
"""Builds the repo benchmark from source (Release) and runs one workload.

    python3 perfbench/run.py --workload paper_figs|map_large|service_mixed \
        --seed N --seconds S --trace 0|1 [more perfbench flags]

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and is reused by later runs. The last line
of standard output is the JSON result; build output goes to a log file in
the build directory. See perfbench/README.md.
"""
import fcntl
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}; run from a repo checkout")
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(out / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per build dir
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
                         + generator)
        steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(step)} (log: {log_path})")
    return out / "perfbench"


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main(argv):
    out = build_dir()
    binary = build(out)
    args = list(argv)
    flags = dict(zip(args[::2], args[1::2]))
    cmd = [str(binary), *args, "--reference", str(HERE / "reference"), "--commit", commit()]
    if flags.get("--trace") == "1" and "--trace-out" not in flags:
        name = f"trace-{flags.get('--workload', 'x')}-{flags.get('--seed', 'x')}.json"
        cmd += ["--trace-out", str(out / name)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
