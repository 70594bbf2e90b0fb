#!/usr/bin/env python3
"""Build and run the D-SEQ / D-CAND benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of the repository. The first call builds the miner and the
benchmark from source with sbt (offline) and caches the classpath under
perfbench/target; later calls reuse it until a source file changes. Without
--workload every workload runs in turn. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["t3-nyt", "n5-nyt"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Files whose contents decide whether the cached build is still current.
SOURCES = [ROOT / "build.sbt", ROOT / "project", ROOT / "src" / "main", ROOT / "jobs",
           BENCH / "build.sbt", BENCH / "project", BENCH / "src", BENCH / "jvm-options.txt"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha1()
    for top in SOURCES:
        files = [top] if top.is_file() else sorted(
            p for p in top.rglob("*") if p.is_file() and "target" not in p.relative_to(top).parts)
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    # Never let sbt or coursier reach for a remote repository.
    env["COURSIER_MODE"] = "offline"
    opts = env.get("SBT_OPTS", "")
    for flag in ("-Dsbt.offline=true", "-Dsbt.override.build.repos=true"):
        if flag not in opts:
            opts += " " + flag
    env["SBT_OPTS"] = opts.strip()
    return env


def classpath():
    """Classpath of the built benchmark; builds it first if sources changed."""
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"no miner sources next to {BENCH.name}/ (expected build.sbt and src/main/scala/repro)", 3)
    cache = BENCH / "target" / "perfbench-classpath.txt"
    stamp = source_stamp()
    if cache.is_file():
        cached_stamp, _, cp = cache.read_text().partition("\n")
        if cached_stamp == stamp:
            return cp.strip()
    print("perfbench: building with sbt ...", file=sys.stderr)
    try:
        proc = subprocess.run(
            ["sbt", "--batch", "-no-colors", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
            cwd=BENCH, env=sbt_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    lines = [l.strip() for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(proc.stdout)
        fail(f"build failed (sbt exit code {proc.returncode})")
    cp = lines[-1]
    cache.parent.mkdir(parents=True, exist_ok=True)
    cache.write_text(stamp + "\n" + cp + "\n")
    return cp


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_one(cp, workload, seed, seconds, trace):
    out_dir = BENCH / "out"
    tmp = out_dir / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    jvm_opts = (BENCH / "jvm-options.txt").read_text().split()
    cmd = [str(java), *jvm_opts, f"-Djava.io.tmpdir={tmp}", f"-Dperfbench.commit={commit()}",
           "-cp", cp, "perfbench.Main", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out_dir)]
    env = dict(os.environ)
    env.pop("SPARK_LOCAL_DIRS", None)  # keep Spark's scratch files under out/tmp
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"{workload}: benchmark exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result has keys {sorted(result)}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    cp = classpath()
    for w in [args.workload] if args.workload else WORKLOADS:
        run_one(cp, w, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
