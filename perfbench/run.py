#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <replay|trickle|mixed|all> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (release) against the layer crates under `crates/`, with
Cargo's target directory taken from CARGO_TARGET_DIR (default
`.bench_build`), stamps the provenance the binary cannot see for itself (git
revision and dirty flag when the checkout is a git repository, rustc
version), and runs it. The binary's last line of standard output is the
result object. Exits non-zero, without a result, if the build fails — as it
does in a directory that holds only the benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def capture(cmd, env=None):
    """Output of `cmd` run at the root, or None if it cannot run."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance_env():
    env = dict(os.environ)
    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"]) or "unknown"
    rev, dirty = "unknown (not a git checkout)", "unknown"
    if (ROOT / ".git").exists():
        # Pin git to this checkout so it never searches parent directories.
        git_env = dict(os.environ, GIT_DIR=str(ROOT / ".git"),
                       GIT_WORK_TREE=str(ROOT),
                       GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = capture(["git", "rev-parse", "HEAD"], git_env) or rev
        status = capture(["git", "status", "--porcelain"], git_env)
        if status is not None:
            dirty = "true" if status else "false"
    env["PERFBENCH_GIT_REV"] = rev
    env["PERFBENCH_GIT_DIRTY"] = dirty
    return env


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if not MANIFEST.exists():
        print("perfbench: missing perfbench/Cargo.toml", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = target / "release" / "perfbench"
    env = provenance_env()
    env.setdefault("PERFBENCH_OUT", str(ROOT / ".bench_out"))
    run = subprocess.run([str(binary), *sys.argv[1:]], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
