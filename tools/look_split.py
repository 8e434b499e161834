"""What one Look costs, by swarm size and observers per configuration.

Each measurement is one fresh interpreter that imports lcmswarm from the
given source directory.  Per shape, given as LOCATIONSxOBSERVERS, it builds
random configurations of that many distinct locations (coordinates uniform
in [-100, 100], tricolor's palette, seeded per shape) and times `--repeats`
blocks after one untimed one.  In a block, robots 0..OBSERVERS-1 of each
configuration in turn Look at it, as the robots activated in one round do:
`core.snapshot` under LUMI and strong multiplicity, each through its
identity frame at its own position, each filling a fresh geometry list.
Per shape and block it prints the mean microseconds per Look
(`us_per_look`) over about `--looks` Looks; `median_us` is each shape's
median over a side's blocks.

Sides are measured in turn, one interpreter each, `--pairs` times over:

    python3 tools/look_split.py --side parent=../parent/src --side change=src

prints one JSON object with each side's blocks.  With no `--side`, it
measures this checkout's `src`; with no `--shape`, the six default shapes.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from warm_split import alternate, import_from, side_parser, sides_of

SHAPES = ("2x2", "3x3", "5x5", "8x2", "8x8", "64x64")
EXTENT = 100.0


def measure(shapes: list[str], looks: int, repeats: int) -> dict[str, list[float]]:
    """Mean microseconds per Look of each shape, one figure per block."""
    import random

    from lcmswarm import core

    out = {}
    for shape in shapes:
        locations, observers = map(int, shape.split("x"))
        rng = random.Random(f"look_split:{shape}")
        configs = []
        for _ in range(max(1, looks // observers)):
            points = [core.Point(rng.uniform(-EXTENT, EXTENT), rng.uniform(-EXTENT, EXTENT))
                      for _ in range(locations)]
            lights = [core.LightTuple((rng.randrange(3),), (3,)) for _ in points]
            config = core.make_configuration(points, lights, (3,))
            configs.append((config, [core.LocalFrame(p) for p in points[:observers]]))
        snapshot, lumi, strong = core.snapshot, core.ModelKind.LUMI, core.Multiplicity.STRONG
        blocks = []
        for _ in range(repeats + 1):
            t0 = time.perf_counter()
            for config, frames in configs:
                for rid, frame in enumerate(frames):
                    snapshot(lumi, config, rid, frame, strong, [])
            elapsed = time.perf_counter() - t0
            blocks.append(round(1e6 * elapsed / (len(configs) * observers), 3))
        out[shape] = blocks[1:]  # the first block warms the interpreter up
    return out


def main(argv: list[str] | None = None) -> int:
    ap = side_parser(__doc__)
    ap.add_argument("--shape", action="append", metavar="LOCATIONSxOBSERVERS",
                    help="a swarm shape to time (repeatable; default " + ", ".join(SHAPES) + ")")
    ap.add_argument("--looks", type=int, default=20000, help="Looks per shape and block, about")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    shapes = args.shape or list(SHAPES)
    for shape in shapes:
        parts = shape.split("x")
        if len(parts) != 2 or not all(p.isdigit() for p in parts) or not 1 <= int(parts[1]) <= int(parts[0]):
            ap.error(f"--shape takes LOCATIONSxOBSERVERS with 1 <= OBSERVERS <= LOCATIONS, got {shape}")
    if args.child:
        import_from(args.child)
        print(json.dumps(measure(shapes, args.looks, args.repeats)))
        return 0
    sides = sides_of(ap, args)
    out: dict = {
        "instrument": (
            f"one interpreter per line: per shape LOCATIONSxOBSERVERS, random configurations of distinct "
            f"locations in [-{EXTENT:g}, {EXTENT:g}]^2, robots 0..OBSERVERS-1 of each Look at it in turn "
            f"(core.snapshot, LUMI, strong multiplicity, identity frame at the robot, a fresh geometry "
            f"list each); {args.repeats} blocks of about {args.looks} Looks, mean us per Look; sides "
            "alternate " + ", ".join(name for name, _ in sides)
        ),
    }
    child_args = ["--looks", str(args.looks), "--repeats", str(args.repeats)]
    for shape in shapes:
        child_args += ["--shape", shape]
    for name, children in alternate(__file__, sides, args.pairs, child_args).items():
        blocks = {shape: [b for child in children for b in child[shape]] for shape in shapes}
        out[name] = {"us_per_look": blocks,
                     "median_us": {shape: round(statistics.median(b), 3) for shape, b in blocks.items()}}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
