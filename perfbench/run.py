#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload agg-mix --seed 1 --seconds 10 --trace 0

It builds the Go program in perfbench/ (a module of its own that uses
the repository's packages through a replace directive) into
.bench_build/, with the Go build cache there too, so nothing is written
outside the checkout, and runs it with the given arguments. The last
line of standard output is the result; with --trace 1 the traced spans
go to .bench_build/spans-<workload>.json. A failed build exits
non-zero without printing a result.
"""
import os
import re
import subprocess
import sys


def arg(name, default=""):
    args = sys.argv[1:]
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a[len(name) + 1:]
    return default


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOENV="off",
        GOTELEMETRY="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + build.stdout)
        return 1
    args = sys.argv[1:]
    spans = "spans-%s.json" % arg("--workload")
    if arg("--trace") == "1" and re.fullmatch(r"[A-Za-z0-9_.-]+", spans):
        args += ["--spans", os.path.join(out, spans)]
    return subprocess.run([binary] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
