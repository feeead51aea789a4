#!/usr/bin/env python3
"""Golden-pin checker for bench binaries' output.

Runs a binary under a pinned environment and diffs part of its stdout
verbatim against a checked-in golden file. With --tag it keeps the
lines whose JSON payload starts with the tag (lines beginning
'{"<tag>'); without it, the whole output minus the one nondeterministic
line, the batch summary that reports "wall_s".

Regenerate a golden after an intentional change with --update (or
CMM_UPDATE_GOLDEN=1 in the environment) and review the diff.

Exit codes: 0 match/updated, 1 mismatch, 2 usage or run failure.
"""
import argparse
import difflib
import os
import subprocess
import sys


def extract(stdout: str, tag: str | None) -> str:
    if tag is None:
        lines = [line for line in stdout.splitlines() if '"wall_s"' not in line]
    else:
        prefix = '{"' + tag
        lines = [line for line in stdout.splitlines() if line.startswith(prefix)]
    return "\n".join(lines) + ("\n" if lines else "")


def self_test() -> int:
    out = 'noise\n{"fig05":{"a":1}}\nother\n{"fig05":{"b":2}}\n{"jobs":3}\n'
    got = extract(out, "fig05")
    want = '{"fig05":{"a":1}}\n{"fig05":{"b":2}}\n'
    if got != want:
        print("self-test FAILED (tagged)", file=sys.stderr)
        return 1
    out = '== Fig 7 ==\n\na  1\n\n{"jobs":3,"threads":2,"wall_s":0.5}\n'
    got = extract(out, None)
    want = '== Fig 7 ==\n\na  1\n\n'
    if got != want:
        print("self-test FAILED (whole output)", file=sys.stderr)
        return 1
    print("self-test OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", help="bench binary to run")
    parser.add_argument("--golden", help="checked-in golden file to diff against")
    parser.add_argument("--tag", help="JSON tag selecting output lines "
                        "(default: the whole output minus the \"wall_s\" line)")
    parser.add_argument("--env", action="append", default=[], metavar="K=V",
                        help="environment overrides for the run (repeatable)")
    parser.add_argument("--update", action="store_true", help="rewrite the golden file")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.binary or not args.golden:
        parser.error("--binary and --golden are required unless --self-test")

    env = dict(os.environ)
    for kv in args.env:
        key, _, value = kv.partition("=")
        env[key] = value

    try:
        proc = subprocess.run([args.binary], env=env, capture_output=True, text=True,
                              timeout=1800)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"failed to run {args.binary}: {exc}", file=sys.stderr)
        return 2
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        print(f"{args.binary} exited {proc.returncode}", file=sys.stderr)
        return 2

    actual = extract(proc.stdout, args.tag)
    if not actual:
        what = f"'{{\"{args.tag}' lines" if args.tag else "output"
        print(f"no {what} in {args.binary} output", file=sys.stderr)
        return 2

    if args.update or os.environ.get("CMM_UPDATE_GOLDEN"):
        with open(args.golden, "w") as f:
            f.write(actual)
        print(f"updated {args.golden}")
        return 0

    try:
        with open(args.golden) as f:
            expected = f.read()
    except OSError:
        print(f"missing golden {args.golden} (regenerate with --update)", file=sys.stderr)
        return 1

    if actual == expected:
        print(f"golden match: {args.golden}")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True),
        fromfile=args.golden, tofile="current run"))
    print("golden mismatch (regenerate with --update if intentional)", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
