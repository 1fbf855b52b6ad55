"""Command-line interface: output formats, exit codes, golden determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import table_element, toy_pair
from gluesurf.cli import main, report_to_dict
from gluesurf.fourlines import build_four_lines, enumerate_orbits
from gluesurf.gluing import gluing_to_dict

# stdout of ``classify-four-lines --format json``, kept by the benchmark
GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden" / "classify-four-lines.json"


@pytest.fixture
def runner():
    return CliRunner()


def write_gluing(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(gluing_to_dict(data), indent=2, sort_keys=True))
    return str(path)


@pytest.fixture
def x01_file(tmp_path):
    return write_gluing(tmp_path, "x01.json", build_four_lines(table_element("X0.1")))


@pytest.fixture
def x02_file(tmp_path):
    return write_gluing(tmp_path, "x02.json", build_four_lines(table_element("X0.2")))


class TestClassify:
    def test_text_table(self, runner):
        result = runner.invoke(main, ["classify-four-lines"])
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l.strip()]
        assert len(lines) == 12  # header + 11 rows
        q_one = [l for l in lines[1:] if l.split()[3] == "1"]
        assert len(q_one) == 2

    def test_json_census(self, runner):
        result = runner.invoke(main, ["classify-four-lines", "--format", "json"])
        assert result.exit_code == 0
        docs = json.loads(result.output)
        assert len(docs) == 11
        assert sum(d["orbit_size"] for d in docs) == 36

    def test_json_round_trip_matches_records(self, runner):
        result = runner.invoke(main, ["classify-four-lines", "--format", "json"])
        docs = json.loads(result.output)
        records = enumerate_orbits()
        for doc, record in zip(docs, records):
            assert doc["label"] == record.table_label
            assert doc["orbit_size"] == record.orbit_size
            assert doc["stabilizer_order"] == len(record.stabilizer)
            assert doc["report"] == report_to_dict(record.report)

    def test_text_and_json_agree(self, runner):
        text = runner.invoke(main, ["classify-four-lines"]).output
        docs = json.loads(
            runner.invoke(main, ["classify-four-lines", "--format", "json"]).output
        )
        rows = [l.split() for l in text.splitlines()[1:] if l.strip()]
        for row, doc in zip(rows, docs):
            assert row[0] == doc["label"]
            assert int(row[1]) == doc["orbit_size"]
            assert int(row[2]) == doc["report"]["chi"]
            assert int(row[3]) == doc["report"]["q"]

    def test_byte_identical_output(self, runner):
        first = runner.invoke(main, ["classify-four-lines", "--format", "json"]).output
        second = runner.invoke(main, ["classify-four-lines", "--format", "json"]).output
        assert first == second

    def test_json_matches_golden_file(self, runner):
        result = runner.invoke(main, ["classify-four-lines", "--format", "json"])
        assert result.exit_code == 0
        assert result.stdout_bytes == GOLDEN.read_bytes()


class TestInvariants:
    def test_irregular_surface_report(self, runner, x01_file):
        result = runner.invoke(main, ["invariants", x01_file, "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert (doc["chi"], doc["q"], doc["pg"], doc["k2"]) == (0, 1, 0, 1)
        assert doc["homology"] == [
            {"rank": 1, "torsion": []},
            {"rank": 1, "torsion": []},
            {"rank": 1, "torsion": []},
            {"rank": 2, "torsion": []},
            {"rank": 1, "torsion": []},
        ]
        assert len(doc["cusps"]) == 1 and len(doc["cusps"][0]) == 6

    def test_regular_surface_report(self, runner, tmp_path):
        path = write_gluing(tmp_path, "x22.json",
                            build_four_lines(table_element("X2.2")))
        result = runner.invoke(main, ["invariants", path, "--format", "json"])
        doc = json.loads(result.output)
        assert (doc["chi"], doc["q"]) == (2, 0)

    def test_malformed_json_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["invariants", str(path)])
        assert result.exit_code == 2
        assert "line 1" in result.output

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["invariants", str(tmp_path / "nope.json")])
        assert result.exit_code == 2

    def test_unsupported_configuration_exits_4(self, runner, tmp_path, x01_file):
        doc = json.loads(open(x01_file).read())
        doc["normalization"][0]["simply_connected"] = False
        path = tmp_path / "nsc.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["invariants", str(path)])
        assert result.exit_code == 4

    def test_fingerprint_flag(self, runner, x01_file):
        result = runner.invoke(main, [
            "invariants", x01_file, "--format", "json",
            "--fingerprint", "--catalog", "C2,A4",
        ])
        doc = json.loads(result.output)
        assert doc["pi1"]["fingerprint"]["A4"][1] >= 1


class TestDistinguish:
    def test_the_two_irregular_surfaces(self, runner, x01_file, x02_file):
        result = runner.invoke(main, [
            "distinguish", x01_file, x02_file, "--catalog", "C2,C3,A4",
        ])
        assert result.exit_code == 0
        assert "DISTINGUISHED at A4" in result.output

    def test_self_comparison_is_inconclusive(self, runner, x01_file):
        result = runner.invoke(main, ["distinguish", x01_file, x01_file,
                                      "--catalog", "C2,C3,A4"])
        assert result.exit_code == 0
        assert "INCONCLUSIVE" in result.output

    def test_torsion_two_versus_three(self, runner, tmp_path):
        p2 = write_gluing(tmp_path, "z2.json", toy_pair(2, 1))
        p3 = write_gluing(tmp_path, "z3.json", toy_pair(3, 1))
        result = runner.invoke(main, ["distinguish", p2, p3,
                                      "--catalog", "C2,C3"])
        assert "DISTINGUISHED at C2" in result.output

    def test_json_verdict(self, runner, x01_file, x02_file):
        result = runner.invoke(main, [
            "distinguish", x01_file, x02_file, "--format", "json",
            "--catalog", "A4",
        ])
        doc = json.loads(result.output)
        assert doc["verdict"] == "DISTINGUISHED"
        assert doc["witness"] == "A4"


class TestHomcountAndPi1:
    def test_homcount(self, runner, tmp_path):
        path = tmp_path / "pres.json"
        path.write_text(json.dumps(
            {"generators": ["a"], "relators": ["a^2"]}
        ))
        result = runner.invoke(main, ["homcount", str(path),
                                      "--group", "C2", "--group", "C3",
                                      "--format", "json"])
        assert json.loads(result.output) == {"C2": [2, 1], "C3": [1, 0]}

    def test_homcount_budget_exit_3(self, runner, tmp_path):
        path = tmp_path / "pres.json"
        path.write_text(json.dumps(
            {"generators": ["a", "b", "c", "d", "e"], "relators": []}
        ))
        result = runner.invoke(main, ["homcount", str(path),
                                      "--group", "A5", "--budget", "1000"])
        assert result.exit_code == 3

    def test_pi1_output(self, runner, x02_file):
        result = runner.invoke(main, ["pi1", x02_file, "--format", "json"])
        doc = json.loads(result.output)
        assert len(doc["presentation"]["generators"]) == 4
        assert len(doc["simplified"]["generators"]) == 2
        assert doc["abelianization"] == {"rank": 1, "torsion": []}

    def test_homology_command(self, runner, x01_file):
        result = runner.invoke(main, ["homology", x01_file])
        assert result.exit_code == 0
        assert "H3 = Z^2" in result.output

    def test_disconnected_surface(self, runner, tmp_path, x01_file):
        # X0.1 plus an isolated plane: homology is defined, pi1 of X is not
        doc = json.loads(open(x01_file).read())
        doc["normalization"].append(dict(doc["normalization"][0], id="isolated"))
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        homology = runner.invoke(main, ["homology", str(path)])
        assert homology.exit_code == 0
        assert "H0 = Z^2" in homology.output
        pi1 = runner.invoke(main, ["pi1", str(path)])
        assert pi1.exit_code == 4
        assert "components" in pi1.output


@pytest.mark.parametrize("where, value", [
    (("node_pairing",), [1, 2]),
    (("normalization",), 5),
    (("curve_components",), None),
    (("involution", "components"), [1]),
], ids=["node_pairing", "normalization", "curve_components", "involution.components"])
def test_malformed_shape_exits_2(runner, tmp_path, x01_file, where, value):
    doc = json.loads(open(x01_file).read())
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["invariants", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error: ") and where[-1] in result.output
