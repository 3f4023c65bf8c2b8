import json
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from staircover import CoveringInstance, Lattice, pt
from staircover.cli import main
from staircover.fileio import (
    InstanceFormatError,
    instance_to_json,
    load_results_store,
    parse_instance,
    save_results_store,
)


def write_instance(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


QUARTERS = {
    "k": 1,
    "l": "1",
    "translates": [["0", "0"], ["0", "1/2"], ["1/2", "0"], ["1/2", "1/2"]],
}

COORD = st.fractions(-4, 4, max_denominator=97)


@pytest.fixture
def quarters_file(tmp_path):
    return write_instance(tmp_path / "quarters.json", QUARTERS)


class TestInstanceFiles:
    def test_round_trip(self, quarters):
        data = instance_to_json(quarters, {"name": "quarters"})
        parsed, meta = parse_instance(data)
        assert parsed == quarters
        assert meta["name"] == "quarters"

    @given(
        k=st.integers(1, 6),
        l=st.fractions(min_value=Fraction(1, 97), max_value=4, max_denominator=97),
        corners=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=8, unique=True),
    )
    def test_round_trip_gives_back_any_instance(self, k, l, corners):
        inst = CoveringInstance.of(k, l, corners)
        assert parse_instance(instance_to_json(inst)) == (inst, {})

    def test_duplicate_translates_rejected(self):
        data = dict(QUARTERS, translates=[["0", "0"], ["0", "0"]])
        with pytest.raises(InstanceFormatError, match="distinct"):
            parse_instance(data)

    def test_malformed_rational_has_field_context(self):
        data = dict(QUARTERS, translates=[["0", "0"], ["zzz", "0"]])
        with pytest.raises(InstanceFormatError, match=r"translates\[1\]\[0\]"):
            parse_instance(data)

    def test_float_coordinates_rejected(self):
        data = dict(QUARTERS, translates=[["0", "0"], [0.5, "0"]])
        with pytest.raises(InstanceFormatError, match="exact rational"):
            parse_instance(data)

    @pytest.mark.parametrize("k", ["one", 0, -3, True, False, 1.0, None, [1]])
    def test_bad_fold_rejected(self, k):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(dict(QUARTERS, k=k))
        assert str(err.value) == f"k: positive integer required, got {k!r}"

    def test_triangle_header_normalizes(self):
        # the same covering described with a doubled triangle: T' = 2T, so
        # translates are doubled too and normalization must divide them back
        data = {
            "k": 1,
            "l": "1",
            "triangle": [["0", "0"], ["2", "0"], ["0", "2"]],
            "translates": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
        }
        inst, meta = parse_instance(data)
        assert set(inst.corners) == {
            pt(0, 0), pt(0, "1/2"), pt("1/2", 0), pt("1/2", "1/2")
        }
        assert meta["transform"]["linear_map"] == [["1/2", "0"], ["0", "1/2"]]

    def test_collinear_triangle_rejected(self):
        data = dict(QUARTERS, triangle=[["0", "0"], ["1", "1"], ["2", "2"]])
        with pytest.raises(InstanceFormatError, match="collinear"):
            parse_instance(data)


class TestCommands:
    def test_verify_pass_and_fail(self, tmp_path, quarters_file, capsys):
        assert main(["verify", quarters_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["covers"] is True and report["min_depth"] == 1
        single = write_instance(
            tmp_path / "single.json", {"k": 1, "l": "1", "translates": [["0", "0"]]}
        )
        assert main(["verify", single]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["covers"] is False

    def test_missing_file_exits_2(self, capsys):
        assert main(["verify", "no-such-file.json"]) == 2
        assert capsys.readouterr().err == "error: instance file not found: no-such-file.json\n"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = write_instance(tmp_path / "bad.json", dict(QUARTERS, l="0"))
        assert main(["verify", bad]) == 2
        assert capsys.readouterr().err == "error: l: window side must be positive, got 0\n"

    @pytest.mark.parametrize("field, data", [
        ("translates[1][0]", dict(QUARTERS, translates=[["0", "0"], ["1e-5000", "0"]])),
        ("l", dict(QUARTERS, l="1e5000")),
        ("l", dict(QUARTERS, l="1E100000000")),
    ])
    def test_exponent_notation_exits_2_and_names_the_field(self, tmp_path, capsys, field, data):
        bad = write_instance(tmp_path / "bad.json", data)
        assert main(["verify", bad]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: malformed rational literal")

    def test_overlong_json_integer_exits_2_and_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(QUARTERS).replace('"k": 1', '"k": ' + "1" * 5000))
        assert main(["verify", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: invalid JSON (")

    def test_huge_literal_is_echoed_in_brief(self, tmp_path, capsys):
        bad = write_instance(tmp_path / "bad.json", dict(QUARTERS, l="1" * 5000))
        assert main(["verify", bad]) == 2
        err = capsys.readouterr().err
        assert err == f"error: l: malformed rational literal {'1' * 40!r}... (5000 characters)\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("literal", ["zzz", "x" * 40])
    def test_short_literal_is_echoed_whole(self, tmp_path, capsys, literal):
        bad = write_instance(tmp_path / "bad.json", dict(QUARTERS, l=literal))
        assert main(["verify", bad]) == 2
        assert capsys.readouterr().err == f"error: l: malformed rational literal {literal!r}\n"

    def test_huge_pair_is_echoed_in_brief(self, tmp_path, capsys):
        pair = ["0"] * 2000
        bad = write_instance(tmp_path / "bad.json", dict(QUARTERS, translates=[pair]))
        assert main(["verify", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: translates[0]: expected a pair [x, y], got ")
        assert err.endswith(f"... ({len(repr(pair))} characters)\n") and len(err) < 200

    def test_decompose_report_and_svg(self, tmp_path, quarters_file, capsys):
        svg_path = tmp_path / "cells.svg"
        out_path = tmp_path / "report.json"
        code = main(
            ["decompose", quarters_file, "--out", str(out_path), "--svg", str(svg_path)]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert len(report["cells"]) == 4
        assert report["sum_stairs"] == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and "stroke-dasharray" in svg
        assert svg.count("<circle") == 4  # four anchors, no inner corners

    @pytest.mark.parametrize("l", [
        "1/1" + "0" * 400,  # float 0.0
        "1" + "0" * 400,  # beyond float
        "1/1" + "0" * 310,  # subnormal float: infinite scale
    ], ids=["underflow", "overflow", "subnormal"])
    def test_decompose_svg_refuses_a_window_outside_float_range(self, tmp_path, capsys, l):
        inst = write_instance(tmp_path / "s.json", {"k": 1, "l": l, "translates": [["0", "0"]]})
        svg_path, out_path = tmp_path / "cells.svg", tmp_path / "report.json"
        code = main(["decompose", inst, "--out", str(out_path), "--svg", str(svg_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: l: ")
        assert not svg_path.exists() and not out_path.exists()

    def test_decompose_flags_non_covering(self, tmp_path, capsys):
        single = write_instance(
            tmp_path / "s.json", {"k": 1, "l": "1", "translates": [["0", "0"]]}
        )
        assert main(["decompose", single]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["covers"] is False
        assert report["non_stair_cells"]

    def test_audit_passes_on_quarters(self, quarters_file, capsys):
        assert main(["audit", quarters_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        checks = {v["check"]: v["status"] for v in report["verdicts"]}
        assert checks["exact_tiling"] == "pass"

    @pytest.mark.parametrize(
        "mode,broken",
        [
            ("dup-cell", "multiplicity_upper"),
            ("drop-cell", "multiplicity_lower"),
            ("shrink-cell", "multiplicity_lower"),
        ],
    )
    def test_audit_corrupt_modes_fail(self, quarters_file, capsys, mode, broken):
        assert main(["audit", quarters_file, "--corrupt", mode]) == 1
        report = json.loads(capsys.readouterr().out)
        checks = {v["check"]: v["status"] for v in report["verdicts"]}
        assert checks[broken] == "fail"
        failing = [v for v in report["verdicts"] if v["status"] == "fail"]
        assert all("witness" in v for v in failing if v["check"].startswith("multiplicity"))

    def test_audit_corrupt_without_stair_cells_exits_2(self, tmp_path, capsys):
        far = write_instance(
            tmp_path / "far.json", {"k": 1, "l": "1", "translates": [["5", "5"]]}
        )
        assert main(["audit", far, "--corrupt", "dup-cell"]) == 2
        assert capsys.readouterr().err == "error: --corrupt needs at least one stair cell\n"

    def test_bounds_chain_on_quarters(self, quarters_file, capsys):
        assert main(["bounds", quarters_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        labels = [link["label"] for link in report["links"]]
        assert labels == [
            "window_area",
            "cell_area_total",
            "per_cell_bound",
            "jensen_bound",
            "stair_budget_bound",
            "instance_bound",
        ]
        values = {l["label"]: l["value"] for l in report["links"]}
        assert values["stair_budget_bound"] == "4/3"

    def test_gen_lattice_then_verify(self, tmp_path, capsys):
        inst_path = tmp_path / "lat.json"
        code = main(
            ["gen-lattice", "--k", "1", "--l", "2", "--basis", "1,0;1/3,1/3",
             "--out", str(inst_path)]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["verify", str(inst_path)]) == 0
        assert main(["audit", str(inst_path)]) == 0
        capsys.readouterr()

    def test_gen_lattice_requires_source(self, capsys):
        assert main(["gen-lattice", "--k", "1", "--l", "1"]) == 2
        assert capsys.readouterr().err == "error: need --basis or --results\n"

    @pytest.mark.parametrize("basis, message", [
        ("1,0;0", "expected ux,uy;vx,vy"),
        ("x,0;0,1", "malformed rational literal 'x'"),
        ("1,0;2,0", "lattice basis must have positive determinant"),
    ])
    def test_gen_lattice_bad_basis_exits_2(self, capsys, basis, message):
        assert main(["gen-lattice", "--k", "1", "--l", "1", "--basis", basis]) == 2
        assert capsys.readouterr().err == f"error: --basis {message}\n"

    def test_gen_lattice_missing_results_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert main(["gen-lattice", "--k", "1", "--l", "1", "--results", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: results file not found: {missing}\n"

    def test_gen_lattice_unstored_fold_exits_2(self, tmp_path, capsys):
        store = tmp_path / "store.json"
        save_results_store(store, {1: (Lattice.of(1, 0, "1/3", "1/3"), 1)})
        assert main(["gen-lattice", "--k", "2", "--l", "1", "--results", str(store)]) == 2
        assert capsys.readouterr().err == "error: no stored lattice for k=2\n"

    @pytest.mark.parametrize("source, bound", [
        (["--l", "600", "--basis", "1,0;0,1"], 361201),
        (["--l", "1", "--basis", "1000000,0;0,1/1000000"], 2000000),
        (["--l", "1", "--basis", "10000000,0;0,1/10000000"], 20000000),
        (["--l", "1", "--results"], 20000000),
    ])
    def test_gen_lattice_refuses_a_huge_instance_fast(self, tmp_path, capsys, source, bound):
        # before the cap, 600 wrote 361,200 translates in 10.7 s and the
        # 10^6-flat basis 2,000,000 in 90 s; det = 1 in both flat cases
        if source[-1] == "--results":
            store = tmp_path / "store.json"
            save_results_store(store, {1: (Lattice.of(10**7, 0, 0, Fraction(1, 10**7)), 1)})
            source = source + [str(store)]
        out = tmp_path / "inst.json"
        start = time.process_time()
        assert main(["gen-lattice", "--k", "1", *source, "--out", str(out)]) == 2
        assert time.process_time() - start < 1
        assert capsys.readouterr().err == (
            f"error: l: the window meets up to {bound} translates of this lattice, "
            "more than 100000\n"
        )
        assert not out.exists()

    def test_gen_lattice_perturbed_fixture_is_seeded_and_verified(self, tmp_path, capsys):
        args = ["gen-lattice", "--k", "2", "--l", "1", "--basis", "1/3,0;0,1/3",
                "--perturb", "1/64", "--seed", "11"]
        p1, p2, p3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert main(["gen-lattice", "--k", "2", "--l", "1", "--basis", "1/3,0;0,1/3",
                     "--perturb", "1/64", "--seed", "12", "--out", str(p3)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()  # same seed, same fixture
        assert p1.read_bytes() != p3.read_bytes()  # different seed differs
        assert json.loads(p1.read_text())["seed"] == 11
        assert main(["verify", str(p1)]) == 0  # perturbation kept the covering
        capsys.readouterr()

    def test_gen_lattice_malformed_results_exits_2(self, tmp_path, capsys):
        store = write_instance(tmp_path / "store.json", {"best": {"1": {"u": ["1", "0"]}}})
        assert main(["gen-lattice", "--k", "1", "--l", "1", "--results", store]) == 2
        assert capsys.readouterr().err.startswith("error: best.1.v: ")

    def test_optimize_malformed_resume_exits_2(self, tmp_path, capsys):
        store = write_instance(tmp_path / "store.json", [1, 2])
        assert main(["optimize", "--k", "1", "--resume", store]) == 2
        assert capsys.readouterr().err == "error: results file must be a JSON object\n"

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["optimize", "--k", "1", "--resume"],
        ["gen-lattice", "--k", "1", "--l", "1", "--results"],
    ])
    @pytest.mark.parametrize("content", [b"not json", b"\xff\xfe"])
    def test_non_json_file_exits_2_and_names_it(self, tmp_path, capsys, command, content):
        store = tmp_path / "store.json"
        store.write_bytes(content)
        assert main(command + [str(store)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {store}: invalid JSON (")

    @pytest.mark.parametrize("command", [
        ["verify"],
        ["audit"],
        ["optimize", "--k", "1", "--resume"],
        ["gen-lattice", "--k", "1", "--l", "1", "--results"],
    ])
    def test_directory_as_input_file_exits_2_and_names_it(self, tmp_path, capsys, command):
        assert main(command + [str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_optimize_seed_grid_below_1_exits_2(self, capsys, grid):
        assert main(["optimize", "--k", "1", "--seed-grid", grid]) == 2
        assert capsys.readouterr().err == f"error: seed grid must be at least 1, got {grid}\n"

    def test_optimize_refuses_a_flat_stored_lattice_fast(self, tmp_path, capsys):
        # the shape (1/3 + 1/70000, 1/10000) took 19 s to scan before the row cap
        store = write_instance(tmp_path / "store.json", {"best": {"1": {
            "u": ["1", "0"], "v": ["70003/210000", "1/10000"], "multiplicity": 1}}})
        before = (tmp_path / "store.json").read_bytes()
        start = time.process_time()
        assert main(["optimize", "--k", "1", "--resume", store]) == 2
        assert time.process_time() - start < 1
        assert capsys.readouterr().err == (
            "error: best.1: lattice too flat: its critical size needs more than 1000 rows\n"
        )
        assert (tmp_path / "store.json").read_bytes() == before

    def test_optimize_refuses_a_fold_above_the_cap_fast(self, capsys):
        # a 50-check search took 193 s at k = 20,000 before the fold cap
        start = time.process_time()
        assert main(["optimize", "--k", "20000", "--budget", "50"]) == 2
        assert time.process_time() - start < 1
        assert capsys.readouterr().err == "error: fold must be at most 64, got 20000\n"

    def test_optimize_tiny_budget_reports_infeasible(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        code = main(["optimize", "--k", "1", "--budget", "1", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["feasible"] is False
        assert report["message"] == "infeasible within budget"

    def test_optimize_persists_and_warm_starts(self, tmp_path, capsys):
        results = tmp_path / "lattices.json"
        code = main(
            ["optimize", "--k", "1", "--budget", "700", "--seed-grid", "4",
             "--resume", str(results)]
        )
        assert code == 0
        store = load_results_store(results)
        assert 1 in store and store[1][1] >= 1
        capsys.readouterr()
        # reuse stored lattice for generation
        inst_path = tmp_path / "from-store.json"
        assert main(
            ["gen-lattice", "--k", "1", "--l", "2", "--results", str(results),
             "--out", str(inst_path)]
        ) == 0
        capsys.readouterr()
        assert main(["verify", str(inst_path)]) == 0

    def test_byte_identical_reports(self, tmp_path, quarters_file):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        svg1, svg2 = tmp_path / "v1.svg", tmp_path / "v2.svg"
        main(["decompose", quarters_file, "--out", str(out1), "--svg", str(svg1)])
        main(["decompose", quarters_file, "--out", str(out2), "--svg", str(svg2)])
        assert out1.read_bytes() == out2.read_bytes()
        assert svg1.read_bytes() == svg2.read_bytes()


class TestResultsStore:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "store.json"
        lat = Lattice.of(1, 0, "1/3", "1/3")
        save_results_store(path, {1: (lat, 1)})
        loaded = load_results_store(path)
        assert loaded[1][0] == lat and loaded[1][1] == 1

    @pytest.mark.parametrize("data, field", [
        ({"best": [1]}, "best"),
        ({"best": {"one": {}}}, "best.one"),
        ({"best": {"1": "lattice"}}, "best.1"),
        ({"best": {"1": {"u": ["1", "zzz"], "v": ["0", "1"], "multiplicity": 1}}},
         r"best\.1\.u\[1\]"),
        ({"best": {"1": {"u": ["1", "0"], "v": ["0", "1"]}}}, "best.1.multiplicity"),
        ({"best": {"1": {"u": ["1", "0"], "v": ["0", "1"], "multiplicity": "1/2"}}},
         "best.1.multiplicity"),
        ({"best": {"1": {"u": ["1", "0"], "v": ["0", "-1"], "multiplicity": 1}}},
         "best.1: lattice basis"),
    ])
    def test_malformed_entries_name_the_field(self, tmp_path, data, field):
        path = tmp_path / "store.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(InstanceFormatError, match=f"^{field}"):
            load_results_store(path)
