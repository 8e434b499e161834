"""A battery of command-line invocations whose outputs two versions of
lcmswarm should share byte for byte.

An RNG seeded with 0 draws `run` and `sweep` command lines over every algorithm
name x every inner name (none, each algorithm name, an unknown one) x
`--draws` draws of the other flags, valid and invalid values alike, and of
`--config` files the battery writes in WORKDIR first.  After
each `run` that writes its trace, every problem checker and monitor runs on
that trace.  Each invocation goes through `lcmswarm.cli.main` in this
process, with WORKDIR as the working directory, and prints one JSON line:
its argv, exit code, stdout, stderr, and the sha256 of the `--out` file it
left behind (null if none).

The vocabulary is fixed here rather than read from the package, so two
versions run the same command lines and their outputs compare line by line:

    python3 tools/cli_parity.py /tmp/a --src ../parent/src > parent.jsonl
    python3 tools/cli_parity.py /tmp/b > change.jsonl
    diff parent.jsonl change.jsonl

With no `--src`, it imports lcmswarm from this checkout's `src`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys

from split import REPO_SRC, import_from

ALGOS = ["flag-scheme", "move-east", "sro", "stay", "tricolor", "cyclic-cycles",
         "sim-rs-by-s", "sim-lumi-by-fcom", "bogus"]
INNERS = [None, *ALGOS]
CHECKS = [("--problem", name) for name in ("rdv", "sro", "cyc", "cge")] + [
    ("--monitor", name) for name in ("p-props", "step-lemmas", "induced")]
# Each optional flag: how often a draw gives it, and the values it draws from,
# valid ones weighted above the invalid ones that end each list.
FLAGS = {
    "--scheduler": (0.7, ["fsynch", "ssynch", "ssynch", "rsynch", "rsynch", "round-robin",
                          "energy-restricted-ssynch", "bogus"]),
    "--blocks": (0.3, ["0|1", "0 1|2", "0|1 2|3", "0|1|2|3", "0|x"]),
    "--n": (0.85, ["2", "3", "3", "4", "4", "1", "0", "x"]),
    "--rounds": (0.7, ["3", "20", "60", "120", "0", "-1"]),
    "--seed": (0.5, ["0", "1", "7", "-3"]),
    "--delta": (0.15, ["0.5", "0", "-1"]),
    "--no-chirality": (0.15, None),
    "--positions": (0.2, ["0,0 1,1", "0,0 5,0 9,9", "0,0 5,0 9,9 0,7", "x"]),
    "--radius": (0.3, ["2", "0.5", "1", "0", "nan"]),
    "--d-rel": (0.4, ["0.3", "0.5", "0.9", "0.3", "0", "5", "nan"]),
    "--config": (0.3, ["good.cfg", "good.cfg", "override.cfg", "int.cfg", "bool.cfg", "key.cfg",
                       "absent.cfg"]),
}
# The --config files: good values, then a bad integer, a bad switch and an
# unknown key.  Every argv gives --algo and --out, which override
# override.cfg's algo and out; a drawn flag overrides any other key.
CONFIGS = {
    "good.cfg": "# a comment\nscheduler = rsynch\nrounds = 7\nseed=3\nchirality = no\nradius = 2\n",
    "override.cfg": "algo = stay\nn = 4\nd-rel = 0.4\nout = other.trace\n",
    "int.cfg": "n = 3\nrounds = 2.5\n",
    "bool.cfg": "chirality=maybe\n",
    "key.cfg": "rounds = 5\ncolour = red\n",
}
OUT = "t.trace"


def draw_argvs(rng: random.Random, draws: int):
    """The battery's `run` and `sweep` command lines, in a fixed order."""
    for algo in ALGOS:
        for inner in INNERS:
            for _ in range(draws):
                command = rng.choice(["run", "run", "sweep"])
                argv = [command, "--algo", algo] + (["--inner", inner] if inner else [])
                for flag, (p, values) in FLAGS.items():
                    if rng.random() < p:
                        argv += [flag] if values is None else [flag, rng.choice(values)]
                if command == "sweep":
                    argv += ["--seeds", rng.choice(["0:1", "2:3", "5"]),
                             "--check", rng.choice(CHECKS)[1]]
                yield argv + ["--out", OUT]


def invoke(main, argv: list[str]) -> dict:
    """One invocation's record.  The `--out` file is removed first, so its
    digest is of what this invocation wrote."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(OUT)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    digest = None
    if os.path.isfile(OUT):
        with open(OUT, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "out_sha256": digest}


def battery(main, draws: int):
    """Every record of the battery, in order, after writing its config files:
    each `run` or `sweep`, then, after a `run` that wrote its trace, each
    check of that trace."""
    for name, text in CONFIGS.items():
        with open(name, "w") as fh:
            fh.write(text)
    rng = random.Random(0)
    for argv in draw_argvs(rng, draws):
        record = invoke(main, argv)
        yield record
        if record["out_sha256"] is not None:
            keep = OUT + ".kept"
            os.replace(OUT, keep)
            for flag, name in CHECKS:
                yield invoke(main, ["check", flag, name, "--trace", keep])
            os.remove(keep)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workdir", help="scratch directory the invocations run in")
    ap.add_argument("--src", default=REPO_SRC, help="source directory to import lcmswarm from")
    ap.add_argument("--draws", type=int, default=100, help="flag draws per algorithm and inner name")
    args = ap.parse_args(argv)
    import_from(os.path.abspath(args.src))
    from lcmswarm import cli

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    for record in battery(cli.main, args.draws):
        print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
