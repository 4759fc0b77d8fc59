"""End-to-end CLI tests."""

import json

import numpy as np
import pytest

from irtlab.cli import (
    _parse_tau_grid,
    config_digest,
    load_experiment,
    main,
)
from irtlab.errors import ParseError, ValidationError


def write_fixture(tmp_path, z=(1, 0, 0), y=("0.5", "1.5", "-0.5"), contrast=(0, 1),
                  seed=42, imputer=None):
    (tmp_path / "clusters.csv").write_text("unit,cluster\n0,0\n1,0\n2,1\n")
    (tmp_path / "z.csv").write_text(
        "unit,z\n" + "".join(f"{i},{v}\n" for i, v in enumerate(z))
    )
    (tmp_path / "y.csv").write_text(
        "unit,y\n" + "".join(f"{i},{v}\n" for i, v in enumerate(y))
    )
    config = {
        "n": 3,
        "network": {"kind": "clusters", "path": "clusters.csv"},
        "design": {"kind": "two_stage", "clusters": "clusters.csv"},
        "contrast": list(contrast),
        "assignment": "z.csv",
        "outcomes": "y.csv",
        "imputer": imputer or {"kind": "empirical"},
        "k": 200,
        "seed": seed,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return path


class TestLoadExperiment:
    def test_round_trip(self, tmp_path):
        config_path = write_fixture(tmp_path)
        config, network, design, emap, z_obs, y_obs, (a, b), partial = load_experiment(
            config_path
        )
        assert network.n == 3 and network.edges() == [(0, 1)]
        assert design.n_clusters == 2
        assert z_obs.tolist() == [1, 0, 0]
        assert (a, b) == (0, 1)
        assert partial.observed.tolist() == [False, True, True]

    def test_contrast_outside_exposure_set(self, tmp_path):
        config_path = write_fixture(tmp_path, contrast=(0, 9))
        with pytest.raises(ValidationError):
            load_experiment(config_path)

    def test_na_focal_outcome_rejected(self, tmp_path):
        # units 1 and 2 are focal under z=(1,0,0); an NA there is an error
        config_path = write_fixture(tmp_path, y=("0.5", "NA", "-0.5"))
        with pytest.raises(ValidationError):
            load_experiment(config_path)

    def test_na_nonfocal_outcome_allowed(self, tmp_path):
        config_path = write_fixture(tmp_path, y=("NA", "1.5", "-0.5"))
        load_experiment(config_path)

    def test_missing_config(self, tmp_path):
        with pytest.raises(ParseError):
            load_experiment(tmp_path / "nope.json")


class TestTestCommand:
    def test_json_payload_schema(self, tmp_path, capsys):
        config_path = write_fixture(tmp_path)
        out = tmp_path / "result.json"
        code = main(["test", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "p_hat", "k", "extreme_count", "undefined_resamples", "seed", "n",
            "contrast", "exposure_counts", "missing_rate", "config_digest",
            "version",
        }
        assert payload["p_hat"] == payload["extreme_count"] / payload["k"]
        assert payload["seed"] == 42
        assert payload["missing_rate"] == pytest.approx(1 / 3)

    def test_same_seed_byte_identical(self, tmp_path):
        config_path = write_fixture(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["test", "--config", str(config_path), "--out", str(out1)]) == 0
        assert main(["test", "--config", str(config_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        config_path = write_fixture(tmp_path, seed=1)
        out = tmp_path / "r.json"
        main(["test", "--config", str(config_path), "--seed", "9", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 9

    def test_env_seed_overrides_all(self, tmp_path, monkeypatch):
        config_path = write_fixture(tmp_path, seed=1)
        out = tmp_path / "r.json"
        monkeypatch.setenv("IRT_SEED", "77")
        main(["test", "--config", str(config_path), "--seed", "9", "--out", str(out)])
        assert json.loads(out.read_text())["seed"] == 77

    def test_missing_seed_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.delenv("IRT_SEED", raising=False)
        config_path = write_fixture(tmp_path)
        config = json.loads(config_path.read_text())
        del config["seed"]
        config_path.write_text(json.dumps(config))
        assert main(["test", "--config", str(config_path)]) == 2

    def test_validation_error_exit_2(self, tmp_path):
        config_path = write_fixture(tmp_path, contrast=(0, 9))
        assert main(["test", "--config", str(config_path)]) == 2

    def test_invalid_bernoulli_probability_exit_2(self, tmp_path, capsys):
        config_path = write_fixture(tmp_path)
        config = json.loads(config_path.read_text())
        config["design"] = {"kind": "bernoulli", "p": 1.5}
        config_path.write_text(json.dumps(config))
        assert main(["test", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "1.5" in err and "Traceback" not in err

    def test_budget_error_exit_3(self, tmp_path):
        # a Bernoulli(1) design always treats everyone: every resampled
        # assignment leaves one focal group empty
        config_path = write_fixture(tmp_path, z=(1, 0, 0), contrast=(1, 2))
        config = json.loads(config_path.read_text())
        config["design"] = {"kind": "bernoulli", "p": 1.0}
        config_path.write_text(json.dumps(config))
        assert main(["test", "--config", str(config_path)]) == 3


class TestSimulateCommand:
    def test_small_run_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "simulate", "--scenario", "clustered", "--K", "5", "--N", "20",
            "--tau-grid", "0,1", "--methods", "empirical", "--datasets", "1",
            "--experiments", "5", "--k", "100", "--seed", "3",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one method x two tau values

    def test_unknown_method_exit_2(self, tmp_path):
        code = main([
            "simulate", "--scenario", "clustered", "--K", "5", "--N", "20",
            "--tau-grid", "0", "--methods", "psychic", "--datasets", "1",
            "--experiments", "2", "--seed", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_fast_caps_sizes(self, tmp_path):
        out = tmp_path / "fast.csv"
        code = main([
            "simulate", "--scenario", "clustered", "--K", "5", "--N", "20",
            "--tau-grid", "0", "--methods", "empirical", "--datasets", "50",
            "--experiments", "5000", "--k", "50", "--fast", "--seed", "2",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",")[-1] == "1000"  # 5 datasets x 200 experiments


class TestVerifyCommand:
    def test_small_run_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = [
            "verify", "--scenario", "empirical_binomial", "--rates", "0.5",
            "--n-grid", "100", "--reps", "5", "--seed", "4",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestHelpers:
    def test_parse_tau_grid_range(self):
        assert _parse_tau_grid("0:1:0.5") == [0.0, 0.5, 1.0]
        assert len(_parse_tau_grid("0:1:0.1")) == 11

    def test_parse_tau_grid_list(self):
        assert _parse_tau_grid("0,0.25,2") == [0.0, 0.25, 2.0]

    def test_config_digest_stable_and_order_free(self):
        a = config_digest({"x": 1, "y": [1, 2]})
        b = config_digest({"y": [1, 2], "x": 1})
        assert a == b and len(a) == 64
        assert a != config_digest({"x": 2, "y": [1, 2]})
