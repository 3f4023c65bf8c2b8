import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from staircover import (
    CoveringInstance, Lattice, Rect, coverage_certificate, decompose, perturb_instance, rat,
)
from staircover import arrangement, decomposition
from staircover.lattice import lattice_instance


@pytest.fixture
def quarters() -> CoveringInstance:
    """Exact 1-fold covering of the unit window by four quarter anchors."""
    return CoveringInstance.of(
        1, 1, [(0, 0), (0, "1/2"), ("1/2", 0), ("1/2", "1/2")]
    )


def cells_by_index(inst: CoveringInstance) -> dict:
    """The nonempty cells of `decompose(inst)`, stair or not, by triangle
    index; `.get(i)` is None for an empty cell."""
    result = decompose(inst)
    return dict(result.cells + result.non_stair)


def frame_dtypes(inst: CoveringInstance) -> tuple[set, set]:
    """The dtypes of the frames that `decompose(inst)` and
    `coverage_certificate(inst)` scan, seen from inside: `decompose`'s
    blocks of cutter rows and the depth scan."""
    blocks, scan = decomposition._apex_blocks, arrangement.Frame.min_depth
    seen = set(), set()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(decomposition, "_apex_blocks",
                  lambda frame: seen[0].add(frame.cx.dtype) or blocks(frame))
        m.setattr(arrangement.Frame, "min_depth",
                  lambda frame, **kw: seen[1].add(frame.cx.dtype) or scan(frame, **kw))
        decompose(inst)
        coverage_certificate(inst)
    return seen


def rect_of(x0, x1, y0, y1) -> Rect:
    """A Rect from any exact rational representation, as `pt` is for points."""
    return Rect(rat(x0), rat(x1), rat(y0), rat(y1))


def corner_frame(corners) -> arrangement.Frame:
    """The integer frame of `Point` corners over the unit window, from
    which `audit_boundary_cut` reads them."""
    return arrangement.Frame.of(corners, rect_of(0, 1, 0, 1))


def rect_area(rect: Rect) -> Fraction:
    return (rect.x1 - rect.x0) * (rect.y1 - rect.y0)


def verdict_of(report, check: str):
    """The first verdict named `check` in an `AuditReport`."""
    for v in report.verdicts:
        if v.check == check:
            return v
    raise KeyError(check)


def diag_lattice(k: int) -> Lattice:
    """u = (1, 0), v = (c, c) with c = 1/(2k+1); verified k-fold in tests."""
    c = Fraction(1, 2 * k + 1)
    return Lattice.of(1, 0, c, c)


def grid_lattice(m: int) -> Lattice:
    return Lattice.of(Fraction(1, m), 0, 0, Fraction(1, m))


@pytest.fixture(scope="session")
def corpus():
    """>= 50 deterministic verified covering instances, k <= 3, N <= 40."""
    bases = [
        (diag_lattice(1), Fraction(1), 1),
        (diag_lattice(1), Fraction(3, 2), 1),
        (diag_lattice(1), Fraction(2), 1),
        (diag_lattice(1), Fraction(5, 2), 1),
        (diag_lattice(2), Fraction(1), 2),
        (diag_lattice(2), Fraction(3, 2), 2),
        (diag_lattice(2), Fraction(1), 1),
        (diag_lattice(2), Fraction(3, 2), 1),
        (diag_lattice(3), Fraction(1), 3),
        (diag_lattice(3), Fraction(1), 2),
        (diag_lattice(3), Fraction(1), 1),
        (grid_lattice(2), Fraction(1), 1),
        (grid_lattice(2), Fraction(3, 2), 1),
        (grid_lattice(2), Fraction(2), 1),
        (grid_lattice(3), Fraction(1), 2),
        (grid_lattice(3), Fraction(1), 3),
        (grid_lattice(3), Fraction(1), 1),
    ]
    instances = []
    for lat, l, k in bases:
        inst = lattice_instance(lat, l, k)
        assert inst.size <= 40, f"base instance too large: {inst.size}"
        assert coverage_certificate(inst).covers
        instances.append(inst)
    # families with genuine coverage slack; tight ones (the half grid at
    # k = 1, the diagonal family at its own fold) reject almost every draw
    slack = [
        (grid_lattice(3), Fraction(1), 2, range(8)),
        (grid_lattice(3), Fraction(1), 1, range(6)),
        (diag_lattice(2), Fraction(1), 1, range(7)),
        (diag_lattice(2), Fraction(3, 2), 1, range(6)),
        (diag_lattice(3), Fraction(1), 2, range(7)),
        (diag_lattice(3), Fraction(1), 1, range(5)),
    ]
    for lat, l, k, seeds in slack:
        base = lattice_instance(lat, l, k)
        for seed in seeds:
            try:
                inst = perturb_instance(base, Fraction(1, 64), seed=seed)
            except ValueError:
                continue  # rejection sampling exhausted for this seed
            assert inst.size <= 40
            instances.append(inst)
    assert len(instances) >= 50, f"only {len(instances)} corpus instances"
    return instances
