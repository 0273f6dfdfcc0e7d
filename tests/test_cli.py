import json

import numpy as np
import pytest

from varma_causal import (
    IvQuery,
    TimedNode,
    endo,
    graph_from_json,
    node_from_json,
    node_label,
    parse_node_ref,
    spec_to_json,
)
from varma_causal.cli import main


@pytest.fixture()
def model_path(tmp_path, varma_lagged_spec):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec_to_json(varma_lagged_spec)))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNodeGrammar:
    def test_round_trip_with_names(self, varma_lagged_spec):
        node = parse_node_ref("Y@-2", varma_lagged_spec)
        assert node == endo(1, -2)
        assert node_label(node, varma_lagged_spec.names) == "Y@-2"

    def test_round_trip_with_indices(self):
        node = parse_node_ref("1@-3")
        assert node == endo(1, -3)
        assert node_label(node) == "1@-3"

    def test_bad_references(self, varma_lagged_spec):
        from varma_causal import ModelError
        with pytest.raises(ModelError, match="name@lag"):
            parse_node_ref("Y", varma_lagged_spec)
        with pytest.raises(ModelError, match="unknown component"):
            parse_node_ref("Z@0", varma_lagged_spec)
        with pytest.raises(ModelError, match="outside"):
            parse_node_ref("7@0", varma_lagged_spec)


class TestValidateCommand:
    def test_valid_model(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "validate", "-m", model_path)
        assert code == 0 and "overall:               pass" in out

    def test_unit_root_fails_with_radius_message(self, capsys, tmp_path):
        path = tmp_path / "unit.json"
        path.write_text(json.dumps({"A": [[[0.0]], [[1.0]]], "gamma": [1.0]}))
        code, out, _ = run_cli(capsys, "validate", "-m", str(path))
        assert code == 1
        assert "spectral radius" in out

    def test_missing_file_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "validate", "-m", "/nonexistent.json")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("text, matrix", [
        ('{"A": [[[0,0],[0,0]], [[NaN,0],[0,0.5]]], "gamma": [1,1]}', "A1"),
        ('{"A": [[[0,0],[0,0]], [[0.5,0],[0,0.5]]], "gamma": [1,NaN]}', "gamma"),
        ('{"A": [[[0]], [[0.5]]], "B": [[[Infinity]]], "gamma": [1]}', "B1"),
    ])
    def test_non_finite_entries_are_domain_errors(self, capsys, tmp_path, text, matrix):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", "-m", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {matrix} has non-finite entries\n"

    @pytest.mark.parametrize("text", [
        '{"A": [[[0, "x"], [0, 0]]]}',
        '{"A": [[[0, 0], [0]]]}',
        '{"A": [[[0, 0], [0, 0]]], "d": "two"}',
    ], ids=["non-numeric-entry", "ragged-matrix", "non-integer-d"])
    def test_malformed_model_is_domain_error(self, capsys, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "validate", "-m", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed model JSON: ") and "Traceback" not in err


    @pytest.mark.parametrize("names, message", [
        (["X", "X"], "names must be distinct"),
        (["X", "e(X)"], "read as innovations"),
        ([1, 0], "names must be strings"),
    ])
    def test_ambiguous_names_are_domain_errors(self, capsys, tmp_path, names, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"A": [[[0, 0], [0, 0]]], "names": names}))
        code, out, err = run_cli(capsys, "validate", "-m", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and message in err and "Traceback" not in err


class TestGraphCommand:
    def test_dot_output(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "graph", "-m", model_path,
                               "--window=-2:0", "--marginalize")
        assert code == 0
        assert '"Y@-1" -> "X@0" [dir=both];' in out

    def test_json_output(self, tmp_path, capsys, model_path):
        target = tmp_path / "graph.json"
        code, _, _ = run_cli(capsys, "graph", "-m", model_path,
                             "--window=-1:0", "-o", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert {"nodes", "directed", "bidirected"} <= set(data)


class TestSeparateCommand:
    def test_separated_verdict(self, capsys, model_path):
        code, out, _ = run_cli(
            capsys, "separate", "-m", model_path,
            "--a", "X@0", "--c", "Y@0", "--b", "X@-1", "Y@-1")
        assert code == 0 and out.startswith("separated")

    def test_connected_verdict_with_witness(self, capsys, model_path):
        code, out, _ = run_cli(
            capsys, "separate", "-m", model_path, "--a", "X@-1", "--c", "Y@0")
        assert code == 0
        assert out.startswith("connected")
        assert "witness: X@-1 - Y@0" in out


class TestEffectCommand:
    def test_varma_lagged_beta(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "effect", "-m", model_path,
                               "--y", "Y@0", "--x", "X@-1", "Y@-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["beta"] == pytest.approx([1 / 3, 1 / 2])
        # printed numbers round-trip at full double precision
        assert json.loads(json.dumps(payload))["beta"][0] == payload["beta"][0]


class TestIvCommand:
    def test_population_mode(self, capsys, model_path):
        code, out, _ = run_cli(
            capsys, "iv", "-m", model_path, "--y", "Y@0",
            "--x", "X@-1", "Y@-1", "--i", "X@-2", "Y@-2")
        assert code == 0
        payload = json.loads(out)
        assert payload["beta"] == pytest.approx([1 / 3, 1 / 2])
        assert payload["sample_size"] == "population"
        assert payload["conditions"]["all_hold"] is True

    def test_output_layout(self, capsys, model_path):
        # X@-2 -> Y@-1 -> Y@0 leaves the instrument connected: a witness is printed
        code, out, _ = run_cli(capsys, "iv", "-m", model_path, "--y", "Y@0",
                               "--x", "X@-1", "--i", "X@-2")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["beta", "moment_residual", "conditions", "sample_size"]
        assert list(payload["conditions"]) == [
            "instrument_separated", "confounding_free", "rank", "rank_ok",
            "under_identified", "all_hold", "window_used", "stabilized", "witness"]
        assert payload["conditions"]["witness"] == [
            {"component": 0, "time": -2, "kind": "endogenous"},
            {"component": 1, "time": -1, "kind": "endogenous"},
            {"component": 1, "time": 0, "kind": "endogenous"}]
        code, out, _ = run_cli(capsys, "iv", "-m", model_path, "--y", "Y@0",
                               "--x", "X@-1", "--i", "X@-2", "--no-conditions")
        assert code == 0 and json.loads(out)["conditions"] is None

    def test_data_mode(self, capsys, tmp_path, model_path):
        sim_path = tmp_path / "series.csv"
        code, _, _ = run_cli(capsys, "simulate", "-m", model_path,
                             "-n", "20000", "--seed", "5", "-o", str(sim_path))
        assert code == 0
        code, out, _ = run_cli(
            capsys, "iv", "--data", str(sim_path), "--y", "Y@0",
            "--x", "X@-1", "Y@-1", "--i", "X@-2", "Y@-2")
        assert code == 0
        payload = json.loads(out)
        assert payload["sample_size"] == 20000 - 2
        assert np.max(np.abs(np.array(payload["beta"]) - [1 / 3, 1 / 2])) < 0.1

    def test_ragged_csv_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("X,Y\n0.1,0.2\n0.3\n0.5,0.6\n")
        code, out, err = run_cli(capsys, "iv", "--data", str(path), "--y", "Y@0",
                                 "--x", "X@-1", "--i", "X@-2")
        assert code == 1 and out == ""
        assert err.startswith(f"error: malformed CSV {path}: ") and "Traceback" not in err

    def test_header_only_csv_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("X,Y\n")
        code, out, err = run_cli(capsys, "iv", "--data", str(path), "--y", "Y@0",
                                 "--x", "X@-1", "--i", "X@-2")
        assert code == 1 and out == ""
        assert err == f"error: CSV {path} has no data rows\n"

    def test_duplicate_header_names_are_domain_error(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("X,X\n0.1,0.2\n0.3,0.4\n0.5,0.6\n0.7,0.8\n")
        code, out, err = run_cli(capsys, "iv", "--data", str(path), "--y", "X@0",
                                 "--x", "X@-1", "--i", "X@-2")
        assert code == 1 and out == ""
        assert err.startswith("error: names must be distinct") and "Traceback" not in err

    def test_requires_model_or_data(self, capsys):
        code, _, err = run_cli(capsys, "iv", "--y", "Y@0", "--x", "X@-1",
                               "--i", "X@-2")
        assert code == 1 and "error:" in err

    def test_under_identified_domain_error(self, capsys, model_path):
        code, _, err = run_cli(
            capsys, "iv", "-m", model_path, "--y", "Y@0",
            "--x", "X@-1", "Y@-1", "--i", "X@-2")
        assert code == 1
        assert "under-identified" in err


class TestSimulateCommand:
    def test_csv_header_and_shape(self, capsys, tmp_path, model_path):
        target = tmp_path / "sim.csv"
        code, out, _ = run_cli(capsys, "simulate", "-m", model_path,
                               "-n", "100", "--seed", "1", "-o", str(target))
        assert code == 0 and "wrote 100 rows" in out
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "X,Y"
        assert len(lines) == 101

    def test_negative_burn_in_is_domain_error(self, capsys, tmp_path, model_path):
        target = tmp_path / "sim.csv"
        code, _, err = run_cli(capsys, "simulate", "-m", model_path, "-n", "100",
                               "--seed", "1", "--burn-in", "-5", "-o", str(target))
        assert code == 1 and err == "error: need burn_in >= 0\n"
        assert not target.exists()


class TestExperimentCommand:
    @pytest.mark.parametrize("option", [("--d", "0"), ("--p", "-1"), ("--q", "-1"),
                                        ("--sparsity", "1.5")])
    def test_bad_sampler_settings_are_domain_errors(self, capsys, option):
        code, out, err = run_cli(capsys, "experiment", "gmp", "--trials", "1", *option)
        assert code == 1 and out == ""
        assert err.startswith("error: sampler needs d >= 1") and "Traceback" not in err

    @pytest.mark.parametrize("options, window, d", [(("--window", "-1"), -1, 2),
                                                    (("--d", "1", "--window", "0"), 0, 1)])
    def test_query_pool_below_two_nodes_is_domain_error(self, capsys, options, window, d):
        code, out, err = run_cli(capsys, "experiment", "gmp", "--trials", "1", *options)
        assert code == 1 and out == ""
        assert err == (f"error: separation queries need (window + 1)·d >= 2 nodes to draw "
                       f"from; got window={window}, d={d}\n")

    def test_gmp_run_with_report(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "experiment", "gmp", "--trials", "3",
            "--queries-per-trial", "3", "--seed", "2", "-o", str(report_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["violations"] == 0
        data = json.loads(report_path.read_text())
        assert data["kind"] == "gmp" and len(data["records"]) == 9


    def test_report_and_csv_layout(self, capsys, tmp_path):
        report_path, csv_path = tmp_path / "report.json", tmp_path / "records.csv"
        code, _, _ = run_cli(
            capsys, "experiment", "faithfulness", "--mode", "empirical", "--trials", "1",
            "--queries-per-trial", "2", "--seed", "4",
            "-o", str(report_path), "--csv", str(csv_path))
        assert code == 0
        data = json.loads(report_path.read_text())
        assert list(data) == ["kind", "seed", "trials", "queries_per_trial", "window",
                              "tol", "mode", "summary", "records"]
        record = data["records"][0]
        assert list(record) == ["trial", "a", "b", "c", "separated", "stabilized",
                                "magnitude", "degenerate", "violation", "p_value"]
        assert all(list(node) == ["component", "time", "kind"]
                   for node in record["a"] + record["b"] + record["c"])
        assert isinstance(record["p_value"], float)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial,a,b,c,separated,stabilized,magnitude,degenerate,violation,p_value"
        assert len(lines) == 3


class TestEarlierOutputs:
    """Outputs written before every node went through the ``graphs`` codec,
    kept literally: each decodes to the nodes that the current output of the
    same command holds. The README model is ``model_path``."""

    # iv -m model.json --y Y@0 --x X@-1 --i X@-2: conditions.witness
    WITNESS = [[0, -2, "endogenous"], [1, -1, "endogenous"], [1, 0, "endogenous"]]
    # experiment gmp --trials 2 --queries-per-trial 3 --seed 3: the a, b, c of
    # each record with -o, and the a,b,c columns with --csv
    EXPERIMENT = ["gmp", "--trials", "2", "--queries-per-trial", "3", "--seed", "3"]
    RECORDS = [([[1, -5], [0, -1]], [], [[0, -5], [0, 0]]),
               ([[0, -2]], [[0, -3]], [[0, -1], [0, 0]]),
               ([[1, -4]], [[0, -2], [0, 0]], [[0, -4]]),
               ([[1, -2]], [[0, -3], [1, -1]], [[0, -1]]),
               ([[1, -5], [0, 0]], [], [[0, -5]]),
               ([[1, -5]], [], [[0, -1]])]
    CSV_ROWS = ["1@-5;0@-1,,0@-5;0@0", "0@-2,0@-3,0@-1;0@0", "1@-4,0@-2;0@0,0@-4",
                "1@-2,0@-3;1@-1,0@-1", "1@-5;0@0,,0@-5", "1@-5,,0@-1"]
    # IvQuery(Y@0, (X@-1, Y@-1), (X@-2, Y@-2), (Y@-3,), weight=2 I).to_dict()
    IV_QUERY = {"y": {"component": 1, "lag": 0},
                "x": [{"component": 0, "lag": -1}, {"component": 1, "lag": -1}],
                "i": [{"component": 0, "lag": -2}, {"component": 1, "lag": -2}],
                "b": [{"component": 1, "lag": -3}], "weight": [[2.0, 0.0], [0.0, 2.0]]}
    # graph --window=-1:0 --innovations on the README model without names
    DOT = """digraph G {
  "S0@-1";
  "e(S0)@-1";
  "S1@-1";
  "e(S1)@-1";
  "S0@0";
  "e(S0)@0";
  "S1@0";
  "e(S1)@0";
  "S0@-1" -> "S0@0" [label="0.5"];
  "S0@-1" -> "S1@0" [label="0.333333"];
  "e(S0)@-1" -> "S0@-1" [label="1"];
  "S1@-1" -> "S1@0" [label="0.5"];
  "e(S1)@-1" -> "S1@-1" [label="1"];
  "e(S1)@-1" -> "S0@0" [label="0.25"];
  "e(S0)@0" -> "S0@0" [label="1"];
  "e(S1)@0" -> "S1@0" [label="1"];
}"""
    # graph --window=-1:0 --marginalize -o graph.json
    GRAPH = {
        "nodes": [{"component": 0, "time": -1, "kind": "endogenous"},
                  {"component": 1, "time": -1, "kind": "endogenous"},
                  {"component": 0, "time": 0, "kind": "endogenous"},
                  {"component": 1, "time": 0, "kind": "endogenous"}],
        "directed": [
            {"tail": {"component": 0, "time": -1, "kind": "endogenous"},
             "head": {"component": 0, "time": 0, "kind": "endogenous"}, "coefficient": 0.5},
            {"tail": {"component": 0, "time": -1, "kind": "endogenous"},
             "head": {"component": 1, "time": 0, "kind": "endogenous"},
             "coefficient": 0.3333333333333333},
            {"tail": {"component": 1, "time": -1, "kind": "endogenous"},
             "head": {"component": 1, "time": 0, "kind": "endogenous"}, "coefficient": 0.5}],
        "bidirected": [[{"component": 1, "time": -1, "kind": "endogenous"},
                        {"component": 0, "time": 0, "kind": "endogenous"}]],
    }

    def test_iv_witness(self, capsys, model_path):
        code, out, _ = run_cli(capsys, "iv", "-m", model_path, "--y", "Y@0",
                               "--x", "X@-1", "--i", "X@-2")
        assert code == 0
        witness = json.loads(out)["conditions"]["witness"]
        assert [node_from_json(v) for v in witness] == [TimedNode(*v) for v in self.WITNESS]

    def test_experiment_records_and_csv_rows(self, capsys, tmp_path):
        report, rows = tmp_path / "report.json", tmp_path / "records.csv"
        code, _, _ = run_cli(capsys, "experiment", *self.EXPERIMENT,
                             "-o", str(report), "--csv", str(rows))
        assert code == 0
        records = [[[node_from_json(v) for v in rec[key]] for key in "abc"]
                   for rec in json.loads(report.read_text())["records"]]
        assert records == [[[endo(*v) for v in nodes] for nodes in rec] for rec in self.RECORDS]
        cells = lambda row: [[parse_node_ref(ref) for ref in cell.split(";") if ref]
                             for cell in row.split(",")[1:4]]
        new_rows = rows.read_text().splitlines()[1:]
        assert [cells(row) for row in new_rows] == [cells("0," + row) for row in self.CSV_ROWS]
        assert [cells(row) for row in new_rows] == records

    def test_iv_query_dict(self):
        old = IvQuery.from_dict(self.IV_QUERY)
        new = IvQuery.from_dict(old.to_dict())
        assert (new.y, new.x_set, new.i_set, new.b_set) == (old.y, old.x_set, old.i_set, old.b_set)
        assert old.y == endo(1, 0) and old.b_set == (endo(1, -3),)
        assert np.array_equal(new.weight, old.weight)

    def test_dot_labels(self, capsys, tmp_path, varma_lagged_spec):
        unnamed = {k: v for k, v in spec_to_json(varma_lagged_spec).items() if k != "names"}
        path = tmp_path / "unnamed.json"
        path.write_text(json.dumps(unnamed))
        code, out, _ = run_cli(capsys, "graph", "-m", str(path), "--window=-1:0", "--innovations")
        assert code == 0

        def decoded(dot, names):
            # every quoted node label decoded, all other text kept
            return [[parse_node_ref(part, names=names) if i % 2 and "@" in part else part
                     for i, part in enumerate(line.split('"'))] for line in dot.splitlines()]
        old = decoded(self.DOT, ["S0", "S1"])
        assert decoded(out.strip(), None) == old
        assert sum(isinstance(part, TimedNode) for line in old for part in line) == 24

    def test_graph_json(self, capsys, tmp_path, model_path):
        target = tmp_path / "graph.json"
        code, _, _ = run_cli(capsys, "graph", "-m", model_path, "--window=-1:0",
                             "--marginalize", "-o", str(target))
        assert code == 0
        old, new = graph_from_json(self.GRAPH), graph_from_json(json.loads(target.read_text()))
        assert (old.nodes, old.directed, old.bidirected) == (new.nodes, new.directed, new.bidirected)


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self, capsys, model_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["separate", "-m", model_path, "--a", "X@0"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
