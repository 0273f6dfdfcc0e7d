import json

import numpy as np
import pytest

from varma_causal import spec_to_json, endo
from varma_causal.cli import format_node_ref, main, parse_node_ref


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
        assert format_node_ref(node, varma_lagged_spec.names) == "Y@-2"

    def test_round_trip_with_indices(self):
        node = parse_node_ref("1@-3")
        assert node == endo(1, -3)
        assert format_node_ref(node) == "1@-3"

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
            [0, -2, "endogenous"], [1, -1, "endogenous"], [1, 0, "endogenous"]]
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
        assert all(len(node) == 2 for node in record["a"] + record["b"] + record["c"])
        assert isinstance(record["p_value"], float)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "trial,a,b,c,separated,stabilized,magnitude,degenerate,violation,p_value"
        assert len(lines) == 3


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self, capsys, model_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["separate", "-m", model_path, "--a", "X@0"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
