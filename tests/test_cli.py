import hashlib
import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from staircover import arrangement
from staircover import (
    CoveringInstance, Lattice, coverage_certificate, decompose, density_chain, fileio, pt, rat,
    run_audits,
)
from staircover.cli import main
from staircover.fileio import (
    InstanceFormatError,
    _plain_literal,
    dump_report,
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
        parsed = parse_instance(instance_to_json(inst))
        assert parsed == (inst, {})
        assert hash(parsed[0]) == hash(inst)

    def test_triangle_header_path_equals_the_plain_path(self):
        # the canonical triangle maps every corner to itself
        plain, _ = parse_instance(QUARTERS)
        canonical = [["0", "0"], ["1", "0"], ["0", "1"]]
        mapped, meta = parse_instance(dict(QUARTERS, triangle=canonical))
        assert "transform" in meta
        assert mapped == plain and hash(mapped) == hash(plain)

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

    @given(
        vertices=st.tuples(COORD, COORD, COORD, COORD, COORD, COORD),
        corners=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_triangle_header_maps_as_its_linear_map(self, vertices, corners):
        ax, ay, bx, by, cx, cy = vertices
        assume((bx - ax) * (cy - ay) != (cx - ax) * (by - ay))
        data = {
            "k": 1, "l": "1",
            "triangle": [[str(ax), str(ay)], [str(bx), str(by)], [str(cx), str(cy)]],
            "translates": [[str(x), str(y)] for x, y in corners],
        }
        inst, meta = parse_instance(data)
        (m00, m01), (m10, m11) = ((rat(v) for v in row) for row in meta["transform"]["linear_map"])
        assert inst.corners == tuple(pt(m00 * x + m01 * y, m10 * x + m11 * y) for x, y in corners)

    def test_collinear_triangle_rejected(self):
        data = dict(QUARTERS, triangle=[["0", "0"], ["1", "1"], ["2", "2"]])
        with pytest.raises(InstanceFormatError, match="collinear"):
            parse_instance(data)


PLAIN = re.compile(r"-?[0-9]+(/[0-9]+)?")
# digit strings, with the int() limit of 4,300 digits on both sides
DIGITS = st.text("0123456789", min_size=1, max_size=30) | st.sampled_from(
    [4299, 4300, 4301, 5000]
).map(lambda n: "7" * n)
PLAIN_LITERALS = st.builds(
    lambda sign, zeros, num, den: sign + "0" * zeros + num + ("" if den is None else "/" + den),
    st.sampled_from(["", "-"]), st.integers(0, 3), DIGITS, st.none() | DIGITS,
)
# forms that only `rat` accepts, and forms that it refuses
OTHER_LITERALS = st.sampled_from([
    "1.5", "+3", "1_000", " 3 ", "3\n", "\u0663", "-\u0663/2", "\u00b2", "1/0", "0/0",
    "-0/0", "1e9", "1E9", "", "-", "/2", "1/", "1/2/3", "--1", "1/-2", " 1/2", "0x10",
    "1" * 5000, "-" + "1" * 4301,
]) | st.floats() | st.booleans() | st.integers() | st.none() | st.lists(st.just("1"))


class TestPlainLiteralPath:
    """The parser reads plain literals -?[0-9]+(/[0-9]+)? straight into
    ints, and any other literal by itself through `rat`, which names its
    field; the rest of the file stays on the plain path."""

    @given(PLAIN_LITERALS | OTHER_LITERALS)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_fast_path_agrees_with_rat(self, literal):
        fast = _plain_literal(literal)
        try:
            exact = rat(literal)
        except (TypeError, ValueError):
            assert fast is None  # refused here too, so `rat` names the field
            return
        if isinstance(literal, str) and PLAIN.fullmatch(literal):
            assert fast == (exact.numerator, exact.denominator)
        else:
            assert fast is None

    @pytest.mark.parametrize("bad", [
        "zzz", "1/0", "1e9", "1" * 5000, 0.5, True, None, ["1"], "1.5", "+3", " 3 ", 7,
    ])
    @pytest.mark.parametrize("i, j", [(0, 0), (3, 1), (7, 0)])
    @pytest.mark.parametrize("header", [{}, {"triangle": [["0", "0"], ["1", "0"], ["0", "1"]]}])
    def test_one_bad_literal_among_plain_ones(self, bad, i, j, header):
        # the file's message is the one `rat` gives for that field, and
        # the forms `rat` accepts parse to the same values
        translates = [[f"{n}/3", f"-{n}"] for n in range(8)]
        translates[i][j] = bad
        data = {"k": 1, "l": "1", "translates": translates, **header}
        try:
            value = rat(bad)
        except (TypeError, ValueError) as exc:
            with pytest.raises(InstanceFormatError) as err:
                parse_instance(data)
            assert str(err.value) == f"translates[{i}][{j}]: {exc}"
            return
        translates[i][j] = str(value)
        assert parse_instance(data)[0] == parse_instance(dict(data, translates=translates))[0]

    @pytest.mark.parametrize("one", [1, "1"])
    @pytest.mark.parametrize("bad, message", [
        (True, "cannot interpret True as an exact rational"),
        (1.0, "exact rational required, got float: 1.0"),
    ])
    @pytest.mark.parametrize("i, j", [(2, 0), (3, 1)])
    def test_a_literal_equal_to_one_already_read_is_refused(self, one, bad, message, i, j):
        # true and 1.0 equal 1 as dict keys: no memo of read literals may
        # stand for them
        translates = [[one, "0"], ["0", one], ["1/2", one], [one, "1/2"]]
        translates[i][j] = bad
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(dict(QUARTERS, translates=translates))
        assert str(err.value) == f"translates[{i}][{j}]: {message}"

    def test_a_pair_that_is_not_a_pair(self):
        data = dict(QUARTERS, translates=[["0", "0"], ["0", "1", "2"]])
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(data)
        assert str(err.value) == "translates[1]: expected a pair [x, y], got ['0', '1', '2']"

    def test_equal_values_in_other_terms_are_a_repeat(self):
        data = dict(QUARTERS, translates=[["0", "0"], ["1/2", "0"], ["2/4", "-0"]])
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(data)
        assert str(err.value) == (
            "translates: corners must be pairwise distinct; repeated (1/2, 0)"
        )

    def test_parsed_corners_are_made_on_first_read(self):
        inst, _ = parse_instance(QUARTERS)
        assert instance_to_json(inst)["translates"] == QUARTERS["translates"]
        assert "corners" not in vars(inst)  # a round trip makes no Point
        assert inst.corners == (pt(0, 0), pt(0, "1/2"), pt("1/2", 0), pt("1/2", "1/2"))
        assert inst.corners is inst.corners


def _as_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# report-shaped data: every record kind, and lists that start like one kind
# and hold another; strings that need escapes, non-ASCII text, big ints
TEXTS = st.text(max_size=6) | st.sampled_from(
    ["", "1/2", "-7", "é", "日本", "\\", '"', "\n\t\x00\x1f", "\ud800", "\U0001f600"])
INTS = st.integers(-10**6, 10**6) | st.sampled_from([2**70, -(2**64)])
SCALARS = st.none() | st.booleans() | INTS | TEXTS | st.floats()
ROWS = st.fixed_dictionaries({"index": INTS, "stairs": INTS, "area": TEXTS})
BREAKS = st.lists(TEXTS, max_size=3) | st.tuples(TEXTS, TEXTS)
CELLS = st.fixed_dictionaries(
    {"index": INTS, "stairs": INTS, "area": TEXTS, "x_breaks": BREAKS, "y_breaks": BREAKS})
PAIRS = st.lists(TEXTS, min_size=2, max_size=2) | st.tuples(TEXTS, TEXTS)
VERDICTS = st.fixed_dictionaries(
    {"check": TEXTS, "status": st.sampled_from(["pass", "fail", "skip"]), "detail": TEXTS},
    optional={"witness": st.dictionaries(TEXTS, PAIRS | INTS | TEXTS, max_size=3)})
MISFITS = st.one_of(  # items that no template takes
    SCALARS, st.lists(TEXTS, max_size=3), st.lists(INTS, min_size=2, max_size=2),
    ROWS.map(lambda r: {**r, "x": 1}), ROWS.map(lambda r: {**r, "index": True}),
    ROWS.map(lambda r: {**r, "stairs": 1.0}), ROWS.map(lambda r: {**r, "area": 3}),
    CELLS.map(lambda c: {**c, "x_breaks": "ab"}), CELLS.map(lambda c: {**c, "y_breaks": [1]}),
    ROWS.map(lambda r: {k: v for k, v in r.items() if k != "area"}),
)
RECORDS = st.one_of(*(
    st.lists(kind, max_size=4) | st.lists(kind | MISFITS, min_size=1, max_size=4)
    for kind in (ROWS, CELLS, PAIRS, VERDICTS)))
JSON = st.recursive(
    SCALARS | RECORDS,
    lambda inner: (st.lists(inner, max_size=3) | st.dictionaries(TEXTS, inner, max_size=4)
                   | st.dictionaries(INTS, inner, max_size=2)),
    max_leaves=16)


class _Text(str):
    pass


class TestDumpReport:
    """`dump_report` writes the bytes of `json.dumps(indent=2,
    sort_keys=True)`: repeated records from one template per kind, the
    rest by a walker, and any type that it does not write by `json.dumps`."""

    @given(st.dictionaries(TEXTS, JSON, max_size=6))
    @settings(max_examples=200, deadline=None, derandomize=True)
    @example({})
    @example({"cells": [], "stats": {"cells": [], "anchor_counts": {}}, "x": [[]], "y": [{}]})
    @example({"t": [["1", "2"], ["1", "2", "3"]], "u": [("a", "b"), ["c", 4]],
              "v": [["a", _Text("b")]]})
    @example({"cells": [{"index": 0, "stairs": 0, "area": _Text("1/2")}, {"index": 1}]})
    @example({"t": [["a", "b"], "cd"], "cells": [
        {"index": 0, "stairs": 0, "area": "1", "x_breaks": ["0", "1"], "y_breaks": ("1", "0")},
        {"index": 1, "stairs": 0, "area": "1", "x_breaks": "ab", "y_breaks": ["1", "0"]}]})
    @example({"n": -0.0, "m": float("nan"), "i": float("inf"),
              "d": {3: "a", 1: "b"}, "e": {2.5: "c"}})
    def test_equals_json_dumps(self, data):
        assert dump_report(data) == _as_json(data)

    @pytest.mark.parametrize("template, record", [
        (fileio._row, {"stairs": 2, "index": 7, "area": "3/8"}),
        (fileio._cell, {"y_breaks": ["1", "0"], "x_breaks": ["0", "1/2"], "area": "1/2",
                        "index": 3, "stairs": 0}),
    ])
    def test_each_template_writes_its_keys_in_sorted_order(self, template, record):
        text = template(record, "\n  ", "\n    ")
        keys = [key for key, _ in json.loads(text, object_pairs_hook=list)]
        assert keys == sorted(keys) == sorted(record)
        assert text == json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n  ")
        with pytest.raises(TypeError):
            template({**record, "index": False}, "\n", "\n  ")

    def test_every_report_writes_its_records_from_templates(self, corpus):
        inst = corpus[3]
        result = decompose(inst)
        audit = fileio.report_audit(inst, run_audits(inst, result))
        reports = {
            "decompose": fileio.report_decompose(inst, result, coverage_certificate(inst, result)),
            "audit": audit,
            "bounds": fileio.report_bounds(inst, density_chain(result)),
            "instance": instance_to_json(inst, {"name": "x"}),
        }
        records = [reports["decompose"]["cells"], audit["stats"]["cells"],
                   reports["bounds"]["cells"], reports["instance"]["translates"]]
        for items in records:
            assert items and fileio._records(items, "\n  ", "\n    ") is not None
        for report in reports.values():
            assert dump_report(report) == _as_json(report)


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

    @pytest.mark.parametrize("option, message", [
        (["--l", "abc"], "--l malformed rational literal 'abc'"),
        (["--l", "0"], "--l window side must be positive, got 0"),
        (["--l=-1/2"], "--l window side must be positive, got -1/2"),
        (["--l", "1", "--perturb", "x"], "--perturb malformed rational literal 'x'"),
        (["--l", "1", "--perturb=-1"], "--perturb magnitude must be nonnegative"),
        (["--l", "1", "--perturb="], "--perturb malformed rational literal ''"),
        (["--l", "1", "--k", "0"], "--k fold must be a positive integer, got 0"),
    ])
    def test_gen_lattice_bad_option_exits_2_and_names_it(self, tmp_path, capsys, option, message):
        out = tmp_path / "inst.json"
        args = ["gen-lattice", "--k", "1", "--basis", "1/3,0;0,1/3", *option, "--out", str(out)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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
        (["--l", "600", "--results"], 3250809),
    ])
    def test_gen_lattice_refuses_a_huge_instance_fast(self, tmp_path, capsys, source, bound):
        # before the cap, 600 wrote 361,200 translates in 10.7 s and the
        # 10^6-flat basis 2,000,000 in 90 s; det = 1 in both flat cases
        if source[-1] == "--results":  # a stored 3-fold covering, so it is read
            store = tmp_path / "store.json"
            save_results_store(store, {1: (Lattice.of("1/3", 0, "1/9", "1/3"), 3)})
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

    @pytest.mark.parametrize("k, lat, message", [
        # density 1/2, below Sriamorn's 3/2: it would write 8 translates
        # that leave most of the window uncovered
        (1, Lattice.of(1, 0, 0, 1), "not a 1-fold lattice covering"),
        (4, Lattice.of("1/3", 0, 0, "1/3"), "not a 4-fold lattice covering"),
        (1, Lattice.of(10**7, 0, 0, Fraction(1, 10**7)),
         "lattice too flat: its critical size needs more than 1000 rows"),
        (65, Lattice.of("1/3", 0, 0, "1/3"), "fold must be at most 64, got 65"),
    ])
    def test_gen_lattice_refuses_a_stored_lattice_that_does_not_cover(
        self, tmp_path, capsys, k, lat, message
    ):
        store, out = tmp_path / "store.json", tmp_path / "inst.json"
        save_results_store(store, {k: (lat, k)})
        start = time.process_time()
        assert main(["gen-lattice", "--k", str(k), "--l", "1", "--results", str(store),
                     "--out", str(out)]) == 2
        assert time.process_time() - start < 1
        assert capsys.readouterr().err == f"error: best.{k}: {message}\n"
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

    def test_perturb_above_the_crossings_cap_exits_2_at_once(self, tmp_path, capsys,
                                                             monkeypatch):
        # at N = 91,201 (grid basis "1/2,0;0,1/2", l = 150) the first draw's
        # depth scan asked for 58,788 x 35,290 crossings and ended in a numpy
        # traceback; a low cap stands in for that here
        monkeypatch.setattr(arrangement, "_MAX_CROSSINGS", 100)
        out = tmp_path / "inst.json"
        start = time.process_time()
        assert main(["gen-lattice", "--k", "2", "--l", "1", "--basis", "1/3,0;0,1/3",
                     "--perturb", "1/64", "--seed", "11", "--out", str(out)]) == 2
        assert time.process_time() - start < 1
        assert re.fullmatch(
            r"error: --perturb translates: the depth scan would make [\d,]+ crossings of "
            r"[\d,]+ hypotenuses and [\d,]+ horizontal lines, more than its cap of 100\n",
            capsys.readouterr().err,
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "decompose", "audit"])
    def test_crossings_above_the_cap_exit_2_and_name_the_translates(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # QUARTERS: hypotenuse offsets 1, 3/2 and 2; y-lines 0, 1/2 and 1
        monkeypatch.setattr(arrangement, "_MAX_CROSSINGS", 8)
        path = write_instance(tmp_path / "quarters.json", QUARTERS)
        out = tmp_path / "report.json"
        assert main([command, path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: translates: the depth scan would make 9 crossings of 3 hypotenuses "
            "and 3 horizontal lines, more than its cap of 8\n"
        )
        assert not out.exists()

    def test_gen_lattice_provenance_writes_the_magnitude_canonically(self, tmp_path, capsys):
        args = ["gen-lattice", "--k", "2", "--l", "1", "--basis", "1/3,0;0,1/3", "--seed", "11"]
        spaced, plain = tmp_path / "spaced.json", tmp_path / "plain.json"
        assert main(args + ["--perturb", " 2/128", "--out", str(spaced)]) == 0
        assert main(args + ["--perturb", "1/64", "--out", str(plain)]) == 0
        capsys.readouterr()
        assert json.loads(spaced.read_text())["provenance"] == (
            "lattice u=1/3,0 v=0,1/3 perturbed by 1/64 (seed 11)")
        assert spaced.read_bytes() == plain.read_bytes()

    def test_gen_lattice_file_at_scale_is_pinned(self, tmp_path, capsys):
        # 91,201 translates; the digest is that of the file written when the
        # translates were enumerated in Fractions
        out = tmp_path / "grid.json"
        assert main(["gen-lattice", "--k", "1", "--l", "150", "--basis", "1/2,0;0,1/2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "908ba5cf336f6d103a96bc2397f1b48c0afbb8b723b0fd9fb86d60365050d0ac")

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

    def test_optimize_names_a_seed_grid_too_fine(self, capsys):
        # at k = 1 the grid's first shape (0, 1/N) needs more than 1000
        # lattice rows for its critical size from N = 736 on
        assert main(["optimize", "--k", "1", "--budget", "1", "--seed-grid", "735"]) == 1
        capsys.readouterr()
        start = time.process_time()
        assert main(["optimize", "--k", "1", "--seed-grid", "900"]) == 2
        assert time.process_time() - start < 1
        assert capsys.readouterr().err == (
            "error: --seed-grid 900: lattice too flat: its critical size needs more than "
            "1000 rows\n"
        )

    def test_optimize_refuses_a_flat_stored_lattice_fast(self, tmp_path, capsys):
        # the shape (1/3 + 1/70000, 1/10000) took 19 s to scan before the row
        # cap; at k = 64 the shape (3001/10007, 1/5000) took 10-15 s before
        # the scan for a bound stopped at its first cell above the bound
        for k, v in ((1, ["70003/210000", "1/10000"]), (64, ["3001/10007", "1/5000"])):
            store = write_instance(tmp_path / f"store{k}.json", {"best": {str(k): {
                "u": ["1", "0"], "v": v, "multiplicity": k}}})
            before = (tmp_path / f"store{k}.json").read_bytes()
            start = time.process_time()
            assert main(["optimize", "--k", str(k), "--resume", store]) == 2
            assert time.process_time() - start < 1
            assert capsys.readouterr().err == (
                f"error: best.{k}: lattice too flat: its critical size needs more than 1000 rows\n"
            )
            assert (tmp_path / f"store{k}.json").read_bytes() == before

    def test_optimize_refuses_a_stored_lattice_that_does_not_cover(self, tmp_path, capsys):
        # (1,0),(0,1) has density 1/2, below Sriamorn's 3/2, so it covers
        # nowhere near 1-fold; kept, its det 1 would outrank the density-3/2
        # lattice the search finds, and gen-lattice would write a non-covering
        store = write_instance(tmp_path / "store.json", {"best": {"1": {
            "u": ["1", "0"], "v": ["0", "1"], "multiplicity": 1}}})
        before = (tmp_path / "store.json").read_bytes()
        assert main(["optimize", "--k", "1", "--budget", "400", "--resume", store]) == 2
        assert capsys.readouterr().err == (
            "error: best.1: not a 1-fold lattice covering\n"
        )
        assert (tmp_path / "store.json").read_bytes() == before

    @pytest.mark.parametrize("keys", [("1", "01"), ("01",)])
    def test_optimize_refuses_a_fold_key_not_in_plain_decimal(self, tmp_path, capsys, keys):
        # "01" next to "1" used to replace it silently, and --resume then
        # rewrote the file with one entry
        entry = {"u": ["1", "0"], "v": ["1/3", "1/3"], "multiplicity": 1}
        store = write_instance(tmp_path / "store.json", {"best": {key: entry for key in keys}})
        before = (tmp_path / "store.json").read_bytes()
        assert main(["optimize", "--k", "1", "--budget", "400", "--resume", store]) == 2
        assert capsys.readouterr().err == "error: best.01: the key must be a fold k >= 1\n"
        assert (tmp_path / "store.json").read_bytes() == before

    @pytest.mark.parametrize("command", [
        ["optimize", "--k", "1", "--budget", "400", "--resume"],
        ["gen-lattice", "--k", "1", "--l", "1", "--results"],
    ])
    def test_a_huge_fold_key_exits_2_and_names_the_field(self, tmp_path, capsys, command):
        # int() refuses a key of more than 4,300 digits with no field named
        entry = {"u": ["1", "0"], "v": ["1/3", "1/3"], "multiplicity": 1}
        store = write_instance(tmp_path / "store.json", {"best": {"7" * 4301: entry}})
        assert main(command + [store]) == 2
        assert capsys.readouterr().err == (
            f"error: best.{'7' * 40!r}... (4301 characters): the key must be a fold k >= 1\n"
        )

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
        ({"best": {"7" * 4301: {}}}, re.escape(f"best.{'7' * 40!r}... (4301 characters): ")),
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
