#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <paper-sweep|utility-scale> \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `perfbench` package (its own
Cargo workspace, path-dependent on the repository's crates) in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), prints the box the run is on,
then runs the workload in its own process. The last line of standard output
is the JSON result; spans of a traced run land under `.bench_out/`.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
PACKAGE = pathlib.Path(__file__).resolve().parent
SOURCE_DIRS = ("crates", "src", "vendor", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")


def command_output(argv):
    try:
        return subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that are
    not git repositories."""
    digest = hashlib.sha256()
    paths = [ROOT / f for f in SOURCE_FILES if (ROOT / f).is_file()]
    for d in SOURCE_DIRS:
        for p in (ROOT / d).rglob("*"):
            if p.is_file() and "target" not in p.relative_to(ROOT).parts:
                paths.append(p)
    for p in sorted(paths):
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(PACKAGE / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    rev = command_output(["git", "rev-parse", "HEAD"]) or "not a git checkout"
    print(
        f"box: nproc={len(os.sched_getaffinity(0))} cpu={cpu_model()!r} "
        f"rustc={command_output(['rustc', '--version'])!r} git_rev={rev} "
        f"source_sha256={source_digest()}",
        flush=True,
    )
    run = subprocess.run(
        [str(target / "release" / "perfbench"), *sys.argv[1:]],
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
