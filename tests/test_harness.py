import json

import pytest

from ddelyap.cli import main
from ddelyap.config import ConfigError, config_hash, load_config, parse_config

OMEGA = 0.5671432904097838


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return path


def trivial_compare_doc():
    return {
        "experiment": "compare",
        "driver": {
            "kind": "constant",
            "dimension": 2,
            "seed": 5,
            "A0": [[0, 0], [0, 0]],
            "B0": [[0, 0], [0, 0]],
        },
        "grid": {"M": 16},
        "spectrum": {"k": 3, "horizon": 30, "transient": 5, "push_steps": 8, "filtration_steps": 6},
    }


class TestValidate:
    def test_well_formed_ok(self, tmp_path):
        path = write_config(tmp_path, trivial_compare_doc())
        cfg = load_config(path)
        assert cfg.experiment == "compare"
        assert main(["validate", "--config", str(path)]) == 0

    def test_negative_m_names_field(self, tmp_path):
        doc = trivial_compare_doc()
        doc["grid"]["M"] = -3
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="grid.M"):
            load_config(path)
        assert main(["validate", "--config", str(path)]) == 1

    def test_bad_generator_names_field(self):
        doc = {
            "experiment": "spectrum",
            "driver": {
                "kind": "telegraph",
                "dimension": 2,
                "states": [
                    {"A": [[0, 0], [0, 0]], "B": [[0, 0], [0, 0]]},
                    {"A": [[1, 0], [0, 1]], "B": [[0, 0], [0, 0]]},
                ],
                "generator": [[0.5, 0.5], [1.0, -1.0]],
            },
            "grid": {"M": 16},
            "spectrum": {"k": 2, "horizon": 30},
        }
        with pytest.raises(ConfigError, match="generator"):
            parse_config(doc)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": "compare",\n  "driver": }\n')
        with pytest.raises(ConfigError, match=r":2:"):
            load_config(path)

    def test_unknown_experiment(self):
        doc = trivial_compare_doc()
        doc["experiment"] = "meditate"
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(doc)


class TestRunCompare:
    def test_trivial_all_pass_and_exit_zero(self, tmp_path):
        path = write_config(tmp_path, trivial_compare_doc())
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--strict"]) == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert comparison["all_pass"]
        assert max(comparison["exponent_gaps"]) <= 1e-8
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "compare"
        assert manifest["stages"]

    def test_reports_embed_config_hash(self, tmp_path):
        doc = trivial_compare_doc()
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        main(["run", "--config", str(path), "--out", str(out)])
        cfg = load_config(path)
        for name in ("comparison.json", "spectrum_continuous.json", "spectrum_lp.json"):
            assert json.loads((out / name).read_text())["config_hash"] == cfg.hash

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, trivial_compare_doc())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", str(path), "--out", str(out1)])
        main(["run", "--config", str(path), "--out", str(out2)])
        for name in (
            "comparison.json",
            "spectrum_continuous.json",
            "spectrum_lp.json",
            "spectrum_continuous_series.csv",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_hash(self, tmp_path):
        path = write_config(tmp_path, trivial_compare_doc())
        a = load_config(path)
        b = load_config(path, seed_override=99)
        assert a.hash != b.hash
        assert b.driver.seed == 99

    def test_strict_failure_exits_three(self, tmp_path):
        doc = {
            "experiment": "compare",
            "driver": {
                "kind": "telegraph",
                "dimension": 2,
                "seed": 3,
                "states": [
                    {"A": [[0.2, 0.4], [-0.3, -0.4]], "B": [[0.5, -0.2], [0.1, 0.4]]},
                    {"A": [[-0.5, 0.1], [0.2, 0.3]], "B": [[-0.3, 0.4], [0.5, -0.1]]},
                ],
                "generator": [[-1.0, 1.0], [1.0, -1.0]],
            },
            "grid": {"M": 16},
            "spectrum": {"k": 2, "horizon": 40, "transient": 8, "push_steps": 10, "filtration_steps": 8},
            "compare": {"tolerances": {"exponent_gap": 1e-15}},
        }
        path = write_config(tmp_path, doc)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out"), "--strict"])
        assert code == 3

    def test_invalid_config_exits_one(self, tmp_path):
        doc = trivial_compare_doc()
        doc["spectrum"]["k"] = 0
        path = write_config(tmp_path, doc)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_numerical_failure_exits_two_with_flagged_manifest(self, tmp_path):
        # passes validation but the probe cannot fit in the fiber at runtime
        doc = trivial_compare_doc()
        doc["spectrum"]["k"] = 500
        doc["spectrum"]["transient"] = 5
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert any("numerical failure" in flag for flag in manifest["flags"])


class TestOtherExperiments:
    def test_oracle_constant_row(self, tmp_path):
        doc = {
            "experiment": "oracle",
            "driver": {
                "kind": "constant",
                "dimension": 2,
                "seed": 5,
                "A0": [[0, 0], [0, 0]],
                "B0": [[1, 0], [0, 1]],
            },
            "grid": {"M": 48},
            "spectrum": {"k": 2, "horizon": 100, "transient": 20, "push_steps": 10, "filtration_steps": 8},
            "oracle": {"count": 2, "tolerance": 1e-3},
        }
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--strict"]) == 0
        oracle = json.loads((out / "oracle.json").read_text())
        assert oracle["oracle_kind"] == "characteristic_roots"
        row = oracle["rows"][0]
        assert row["oracle"] == pytest.approx(OMEGA, abs=1e-9)
        assert row["gap"] <= 1e-3

    def test_converge_shows_integrator_order(self, tmp_path):
        # the long transient keeps the orbit-averaging residual far below the
        # discretization differences the study is meant to expose
        doc = {
            "experiment": "converge",
            "driver": {
                "kind": "constant",
                "dimension": 2,
                "seed": 2,
                "A0": [[-0.8, 0.0], [0.0, -1.7]],
                "B0": [[0.0, 0.3], [0.0, 0.0]],
            },
            "grid": {"M": 8},
            "spectrum": {"k": 1, "horizon": 80, "transient": 30, "push_steps": 8, "filtration_steps": 6},
            "converge": {"factors": [1, 2, 4]},
        }
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        conv = json.loads((out / "converge.json").read_text())
        assert [r["M"] for r in conv["rows"]] == [8, 16, 32]
        g1, g2 = conv["gaps"][0]["max_gap"], conv["gaps"][1]["max_gap"]
        assert g2 < g1
        assert conv["observed_orders"][0] > 2.5  # classical Runge-Kutta: expect about 4

    def test_bounds_experiment(self, tmp_path):
        doc = {
            "experiment": "bounds",
            "driver": {
                "kind": "telegraph",
                "dimension": 2,
                "seed": 8,
                "states": [
                    {"A": [[0.2, 0.4], [-0.3, -0.4]], "B": [[0.5, -0.2], [0.1, 0.4]]},
                    {"A": [[-0.5, 0.1], [0.2, 0.3]], "B": [[-0.3, 0.4], [0.5, -0.1]]},
                ],
                "generator": [[-1.0, 1.0], [1.0, -1.0]],
            },
            "grid": {"M": 16},
            "spectrum": {"k": 2, "horizon": 30},
            "bounds": {"horizon": 60, "samples": 10, "slope_tol": 5e-2},
        }
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        bounds = json.loads((out / "bounds.json").read_text())
        assert bounds["audit"]["violations"] == 0
        assert bounds["slopes_within_tolerance"]

    def test_spectrum_experiment_files(self, tmp_path):
        doc = trivial_compare_doc()
        doc["experiment"] = "spectrum"
        doc["fiber"] = "lp"
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "spectrum_report.json").read_text())
        assert rep["fiber_kind"] == "lp"
        series = (out / "spectrum_report_series.csv").read_text().splitlines()
        assert series[0].startswith("step,lambda_1")


class TestCLI:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.count(".") == 2

    def test_hash_stable_under_reserialization(self):
        doc = trivial_compare_doc()
        reparsed = json.loads(json.dumps(doc))
        assert config_hash(doc) == config_hash(reparsed)
