"""Seeded corpus of staircover instance files and CLI op lists.

Every instance is built here, apart from the program, with its verdict known
by construction:

* A lattice family (the diagonal lattice (1,0),(c,c) with c = 1/(2k+1), or
  the grid (1/m)Z^2) covers every point exactly as often
  as its closed-form multiplicity: k for the diagonal lattice, m(m-1)/2 for
  the grid. Any window of side >= 1 holds a fundamental domain, so that is
  also the minimum depth over the window.
* A family that covers k-fold with the triangle shrunk by s, shifted corner
  by corner by e with e_x, e_y <= 0 and |e_x| + |e_y| <= s, still covers
  k-fold with the full triangle: if p - mu lies in (1-s)T, then p - mu - e
  lies in T. The shrunk covering is the lattice family scaled by 1 - s.
* Removing from a covering every triangle but k - 1 of those that contain a
  chosen point leaves that point (the hole) covered k - 1 times: a
  non-covering whose depth at the hole is known.

Run `python3 perfbench/corpus.py --workload NAME --seed N --out DIR` to
regenerate a workload's corpus; it writes the instance files and `ops.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction
from math import ceil, floor

from checks import depth_at

WORKLOADS = ("audit-corpus", "generic-verify", "bulk-verify")

GENERIC_DEN = 9973
BIGNUM_DEN = (1 << 61) - 1  # prime; forces the arrangement's object-dtype path


def rstr(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def diag_basis(k: int):
    c = Fraction(1, 2 * k + 1)
    return (Fraction(1), Fraction(0)), (c, c)


def grid_basis(m: int):
    return (Fraction(1, m), Fraction(0)), (Fraction(0), Fraction(1, m))


def family_multiplicity(family) -> int:
    kind, n = family
    return n if kind == "diag" else n * (n - 1) // 2


def family_basis(family):
    kind, n = family
    return diag_basis(n) if kind == "diag" else grid_basis(n)


def meets_window(x: Fraction, y: Fraction, l: Fraction) -> bool:
    """Whether the closed triangle with corner (x, y) meets [0, l)^2."""
    return x < l and y < l and max(x, 0) + max(y, 0) <= x + y + 1


def lattice_points(u, v, lo: Fraction, hi: Fraction):
    """All points i u + j v with both coordinates in [lo, hi)."""
    (ux, uy), (vx, vy) = u, v
    det = ux * vy - uy * vx
    i_vals, j_vals = [], []
    for x in (lo, hi):
        for y in (lo, hi):
            i_vals.append((x * vy - y * vx) / det)
            j_vals.append((y * ux - x * uy) / det)
    out = []
    for i in range(floor(min(i_vals)) - 1, ceil(max(i_vals)) + 2):
        for j in range(floor(min(j_vals)) - 1, ceil(max(j_vals)) + 2):
            x = i * ux + j * vx
            y = i * uy + j * vy
            if lo <= x < hi and lo <= y < hi:
                out.append((x, y))
    return out


def family_corners(family, l: Fraction, scale=Fraction(1)):
    """Corners of the (scaled) lattice whose triangles meet the window."""
    u, v = family_basis(family)
    u = (u[0] * scale, u[1] * scale)
    v = (v[0] * scale, v[1] * scale)
    pts = lattice_points(u, v, Fraction(-1), l)
    return [(x, y) for x, y in pts if meets_window(x, y, l)]


def shifted(corners, l: Fraction, rng: random.Random, den: int, reach: Fraction):
    """Shift each corner down-left by less than `reach` per coordinate onto
    the 1/den grid, keeping the triangles that still meet the window."""
    top = floor(reach * den) - 1
    out = []
    for x, y in corners:
        nx = Fraction(floor(x * den) - rng.randint(0, top), den)
        ny = Fraction(floor(y * den) - rng.randint(0, top), den)
        if meets_window(nx, ny, l):
            out.append((nx, ny))
    return out


def carve_hole(corners, k: int, l: Fraction, rng: random.Random):
    """Drop triangles at a seeded point until it is covered k - 1 times."""
    q = 997
    side = int(l * q)
    hole = (Fraction(rng.randint(1, side - 1), q), Fraction(rng.randint(1, side - 1), q))
    containing = [i for i, c in enumerate(corners) if depth_at([c], hole)]
    drop = set(rng.sample(containing, len(containing) - (k - 1)))
    return [c for i, c in enumerate(corners) if i not in drop], hole


class Corpus:
    """Writes instance files under `root` and collects the op list."""

    def __init__(self, root: str):
        self.root = root
        self.inst_dir = os.path.join(root, "inst")
        self.out_dir = os.path.join(root, "out")
        os.makedirs(self.inst_dir, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        self.instances = {}
        self.ops = []

    def instance(self, name, k, l, corners, rng, **facts):
        corners = list(corners)
        rng.shuffle(corners)
        path = os.path.join(self.inst_dir, f"{name}.json")
        data = {
            "k": k,
            "l": rstr(l),
            "name": name,
            "translates": [[rstr(x), rstr(y)] for x, y in corners],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        facts.update(name=name, path=path, k=k, l=rstr(l), n=len(corners))
        if "hole" in facts:
            facts["hole"] = [rstr(facts["hole"][0]), rstr(facts["hole"][1])]
        self.instances[name] = facts
        return name

    def op(self, command, name=None, extra=(), tag=None, **expect):
        tag = tag or command
        label = f"{name or 'k' + str(expect.get('k'))}.{tag}"
        report = os.path.join(self.out_dir, f"{label}.json")
        argv = [command]
        if name is not None:
            argv.append(self.instances[name]["path"])
        argv += list(extra) + ["--out", report]
        op = {"label": label, "command": command, "instance": name,
              "argv": argv, "report": report, "expect": expect}
        if "--svg" in extra:
            op["svg"] = extra[list(extra).index("--svg") + 1]
        self.ops.append(op)

    def dump(self):
        with open(os.path.join(self.root, "ops.json"), "w", encoding="utf-8") as fh:
            json.dump({"instances": self.instances, "ops": self.ops}, fh, indent=1)


def build_audit_corpus(c: Corpus, rng: random.Random):
    lattices = [  # (family, l, k): N from about 25 to about 80
        (("diag", 1), Fraction(2), 1),
        (("diag", 2), Fraction(2), 2),
        (("diag", 2), Fraction(3), 1),
        (("diag", 3), Fraction(1), 3),
        (("grid", 2), Fraction(3), 1),
        (("grid", 3), Fraction(2), 2),
    ]
    names = []
    for idx, (family, l, k) in enumerate(lattices):
        corners = family_corners(family, l)
        names.append(c.instance(
            f"lat{idx}-{family[0]}{family[1]}", k, l, corners, rng,
            covers=True, multiplicity=family_multiplicity(family)))
    shrink = Fraction(1, 16)
    perturbed = [  # (family, l, k): N from about 30 to about 45
        (("diag", 1), Fraction(2), 1),
        (("diag", 1), Fraction(5, 2), 1),
        (("diag", 2), Fraction(3, 2), 2),
        (("diag", 3), Fraction(1), 3),
        (("grid", 3), Fraction(1), 3),
    ]
    for idx, (family, l, k) in enumerate(perturbed):
        base = family_corners(family, l + 1, scale=1 - shrink)
        corners = shifted(base, l, rng, 64, shrink / 2)
        names.append(c.instance(
            f"pert{idx}-{family[0]}{family[1]}", k, l, corners, rng, covers=True))
    for name in names:
        k = c.instances[name]["k"]
        c.op("audit", name, k=k, exit=0)
        c.op("bounds", name, k=k, exit=0)
        svg = os.path.join(c.out_dir, f"{name}.svg")
        c.op("decompose", name, extra=("--svg", svg), k=k, exit=0)
    for name, mode in zip((names[0], names[3], names[-1]),
                          ("dup-cell", "drop-cell", "shrink-cell")):
        c.op("audit", name, extra=("--corrupt", mode), tag=f"audit-{mode}",
             k=c.instances[name]["k"], exit=1, corrupt=mode)


def build_generic_verify(c: Corpus, rng: random.Random):
    shrink = Fraction(1, 8)
    sizes = [  # (k, l, kinds): N from about 35 to about 75
        (1, Fraction(9, 4), ("cov", "hole")),
        (1, Fraction(3), ("cov",)),
        (2, Fraction(2), ("cov", "hole")),
        (2, Fraction(5, 2), ("hole",)),
    ]
    names = []
    for idx, (k, l, kinds) in enumerate(sizes):
        base = family_corners(("diag", k), l + 1, 1 - shrink)
        for kind in kinds:
            corners = shifted(base, l, rng, GENERIC_DEN, shrink / 2)
            name = f"gen{idx}-k{k}-{kind}"
            if kind == "cov":
                names.append(c.instance(name, k, l, corners, rng, covers=True))
            else:
                holed, hole = carve_hole(corners, k, l, rng)
                names.append(c.instance(name, k, l, holed, rng, covers=False, hole=hole))
    for idx, l in enumerate((Fraction(1), Fraction(3, 2))):
        base = family_corners(("diag", 1), l + 1, 1 - shrink)
        corners = shifted(base, l, rng, BIGNUM_DEN, shrink / 2)
        names.append(c.instance(f"big{idx}-k1-cov", 1, l, corners, rng, covers=True))
    for name in names:
        facts = c.instances[name]
        code = 0 if facts["covers"] else 1
        c.op("verify", name, k=facts["k"], exit=code)
        c.op("decompose", name, k=facts["k"], exit=code)
    # the lattice layer's only op: 400 feasibility checks, each an early-exit
    # depth scan; a full-budget search varied too much between runs to keep
    c.op("optimize", extra=("--k", "1", "--budget", "400"), k=1, exit=0)


def build_bulk_verify(c: Corpus, rng: random.Random):
    # N of about 1,000 each, so that the three ops cost about the same and a
    # pass is short enough for several to fit in one run
    families = [
        (("diag", 1), Fraction(17), 2),
        (("grid", 2), Fraction(15), 1),
        (("grid", 3), Fraction(10), 3),
    ]
    for idx, (family, l, k) in enumerate(families):
        mult = family_multiplicity(family)
        name = c.instance(
            f"bulk{idx}-{family[0]}{family[1]}-k{k}", k, l,
            family_corners(family, l), rng, covers=k <= mult, multiplicity=mult)
        c.op("verify", name, k=k, exit=0 if k <= mult else 1)


GENERATORS = {
    "audit-corpus": build_audit_corpus,
    "generic-verify": build_generic_verify,
    "bulk-verify": build_bulk_verify,
}


def build(workload: str, seed: int, root: str) -> dict:
    """Generate the workload's corpus for `seed` under `root`; returns ops.json."""
    c = Corpus(root)
    GENERATORS[workload](c, random.Random(f"{workload}/{seed}"))
    c.dump()
    return {"instances": c.instances, "ops": c.ops}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write the corpus to")
    args = ap.parse_args(argv)
    data = build(args.workload, args.seed, args.out)
    print(f"{len(data['instances'])} instances, {len(data['ops'])} ops in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
