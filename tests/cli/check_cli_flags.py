#!/usr/bin/env python3
"""Command-line contract of stpq_cli: each command's flag table.

Checks, against a small generated dataset:

  * a mistyped flag, a value that does not parse and a value outside its
    set are usage errors: exit 2 with the flag named on stderr;
  * generate, build, query, workload and validate with valid flags exit 0;
  * each command's --help lists exactly the flags that command reads.

Exit code 0 = all checks passed.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

ENGINE = ["data", "index", "kind", "page-size", "pool", "fill",
          "signature-bits", "signature-hashes"]
QUERY = ["k", "r", "lambda", "variant", "algo"]
BATCH = ["queries", "io-ms"]
ADMIN = ["serve-admin", "metrics-interval", "linger-ms"]

# The flags each command reads.
FLAGS = {
    "generate": ["out", "kind", "scale", "seed"],
    "info": ["data"],
    "build": ENGINE + ["external", "memory-budget", "temp-dir"],
    "load": ["index", "verify"],
    "query": ENGINE + QUERY + ["keywords", "explain"],
    "bench": ENGINE + QUERY + BATCH + ADMIN + ["slow-ms"],
    "workload": ENGINE + QUERY + BATCH + ADMIN +
                ["threads", "metrics", "trace-out", "slow-ms"],
    "profile": ENGINE + QUERY + BATCH + ADMIN +
               ["metrics", "trace-out", "slow-ms"],
    "trace": ENGINE + QUERY + BATCH + ADMIN +
             ["threads", "trace-out", "slow-ms"],
    "validate": ENGINE,
}

HELP_FLAG_RE = re.compile(r"^\s+--([a-z][a-z0-9-]*)", re.M)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", required=True, help="path to stpq_cli")
    args = parser.parse_args()

    failures = []

    def check(ok, message):
        print("%s %s" % ("ok  " if ok else "FAIL", message))
        if not ok:
            failures.append(message)

    def run(*argv):
        return subprocess.run([args.cli] + list(argv), capture_output=True,
                              text=True, timeout=60)

    def expect_ok(*argv):
        proc = run(*argv)
        check(proc.returncode == 0,
              "%s exits 0 (got %d: %s)" % (" ".join(argv), proc.returncode,
                                          proc.stderr.strip()))

    def expect_usage_error(flag, *argv):
        proc = run(*argv)
        check(proc.returncode == 2 and ("--" + flag) in proc.stderr,
              "%s exits 2 naming --%s (got %d, stderr %r)"
              % (" ".join(argv), flag, proc.returncode, proc.stderr.strip()))

    with tempfile.TemporaryDirectory(prefix="stpq_cli_flags.") as tmp:
        data = os.path.join(tmp, "x.stpq")
        index = os.path.join(tmp, "x.stpqx")

        expect_usage_error("bogus-flag", "generate", "--out", data,
                           "--scale", "0.01", "--bogus-flag", "7")
        check(not os.path.exists(data), "a rejected generate writes nothing")

        expect_ok("generate", "--out", data, "--scale", "0.01", "--seed", "3")
        expect_ok("build", "--data", data, "--index", index, "--kind", "ir2")
        expect_ok("query", "--index", index, "--keywords", "kw001;kw002",
                  "--k", "3", "--explain")
        expect_ok("query", "--data", data, "--keywords=kw001;kw002",
                  "--variant", "nn", "--algo", "stds", "--lambda", "0.3")
        expect_ok("workload", "--data", data, "--queries", "10",
                  "--threads", "1,2")
        expect_ok("validate", "--data", data, "--kind", "ir2")
        expect_ok("validate", "--index", index)

        expect_usage_error("queries", "workload", "--data", data,
                           "--queries", "abc")
        expect_usage_error("variant", "query", "--data", data,
                           "--keywords", "kw001;kw002", "--variant", "bogus")
        expect_usage_error("algo", "query", "--data", data,
                           "--keywords", "kw001;kw002", "--algo", "bogus")
        expect_usage_error("kind", "validate", "--data", data,
                           "--kind", "bogus")
        expect_usage_error("kind", "generate", "--out", data,
                           "--kind", "bogus")
        expect_usage_error("r", "query", "--data", data,
                           "--keywords", "kw001;kw002", "--r", "0.1x")
        expect_usage_error("kk", "query", "--data", data,
                           "--keywords", "kw001;kw002", "--kk", "3")
        expect_usage_error("index", "load", "--index")
        expect_usage_error("serve-admin", "bench", "--data", data,
                           "--serve-admin", "70000")

    for command, flags in sorted(FLAGS.items()):
        proc = run(command, "--help")
        listed = HELP_FLAG_RE.findall(proc.stdout)
        check(proc.returncode == 0 and sorted(listed) == sorted(flags),
              "%s --help lists exactly its flags (missing %s, extra %s)"
              % (command, sorted(set(flags) - set(listed)),
                 sorted(set(listed) - set(flags))))

    if failures:
        print("%d check(s) failed" % len(failures))
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
