#!/usr/bin/env python3
"""Build the ESL-EV benchmark from source and run one workload.

    python3 perfbench/run.py --rates e1_dedup=250000,... \
        --workload e1_dedup --seed 1 --seconds 20 --trace 0

Builds `perfbench/` (a Cargo package of its own, depending on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it. Build output goes to standard
error; the benchmark's standard output is passed through, and its last
line is the JSON result. With `--trace 1` the spans of the traced run are
written to `.bench_out/spans-<workload>-<seed>.jsonl`.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        base = ROOT / top
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".rs", ".toml", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-" + h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rates", required=True, help="open-loop rate per workload: name=tuples/s,...")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", choices=["full", "smoke"], default="full")
    args = ap.parse_args()

    rates = dict(kv.split("=", 1) for kv in args.rates.split(","))
    if args.workload not in rates:
        sys.exit(f"no rate for workload {args.workload!r} in --rates")

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = HERE / "Cargo.toml"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"build failed with code {build.returncode}")

    cmd = [
        str(target / "release" / "eslev-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--rate", rates[args.workload],
        "--scale", args.scale,
        "--rustc", rustc_version(),
        "--git-rev", source_rev(),
    ]
    if args.trace == "1":
        cmd += ["--spans", str(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
