import importlib
import json
import math
from pathlib import Path

import pytest

from fockdm import cli, evolution
from fockdm.acceptance import CRITERIA
from fockdm.cli import (
    CheckResult,
    ConfigError,
    ExperimentConfig,
    SuiteResult,
    emit_report,
    main,
)


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


DISC_CONFIG = {
    "hamiltonian": "0.5*pi1^2 + 0.5*m*phi1^2",
    "bindings": {"m": 1.0},
    "observables": ["phi1*pi1"],
    "state": {"phi": [1.0], "pi": [0.0]},
    "sweep": {"m": [0.5, 1.0, 2.0]},
    "seed": 11,
    "cutoff": 32,
}


class TestConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="wibble"):
            ExperimentConfig.from_json({"experiment": "verify", "wibble": 3,
                                        "seed": 1})

    def test_seed_required_for_randomized(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_json({"experiment": "verify"})

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigError, match="dt"):
            ExperimentConfig.from_json({"experiment": "evolve", "dt": -0.1})

    def test_bad_generator_rejected(self):
        with pytest.raises(ConfigError, match="generator"):
            ExperimentConfig.from_json({"experiment": "evolve",
                                        "generator": "euler"})

    def test_hash_is_stable(self):
        a = ExperimentConfig.from_json({"experiment": "iee"})
        b = ExperimentConfig.from_json({"experiment": "iee"})
        assert a.sha256() == b.sha256()
        assert len(a.sha256()) == 64


class TestExitCodes:
    def test_malformed_hamiltonian_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json",
                           {"hamiltonian": "0.5*pi1^2 +* phi1", "bindings": {},
                            "seed": 1})
        code = main(["discrepancy", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "position" in capsys.readouterr().err

    def test_check_failure_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "iee.json", {
            "hamiltonian": "0.5*pi1^2 + 0.5*phi1^2", "bindings": {},
            "observables": ["phi1^2"],
            "ensemble": {"members": [
                {"phi": [0.9], "pi": [0.1], "w": 0.5},
                {"phi": [0.2], "pi": [-0.5], "w": 0.5}]},
            "cutoff": 16,
        })
        code = main(["iee", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1

    def test_amplitude_overflow_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "evo.json", {
            "hamiltonian": "0.5*pi1^2 + 0.5*phi1^2", "bindings": {},
            "observables": ["phi1"],
            "state": {"phi": [9.0], "pi": [0.0]},
            "cutoff": 8, "t": 0.01, "dt": 0.001,
        })
        code = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_empty_observables_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, "iee.json", {
            "hamiltonian": "0.5*pi1^2", "bindings": {}, "observables": [],
        })
        assert main(["iee", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("experiment, name, value", [
        ("evolve", "t", "1"),
        ("project", "deltas", 5),
        ("project", "deltas", []),
        ("project", "bindings", {"m": "x"}),
        ("discrepancy", "sweep", {"m": [0.5, 2.0], "k": [1.0]}),
        ("reify", "cutoffs", 5),
        ("iee", "observables", 5),
        ("iee", "observables", ["phi1", 3]),
        ("evolve", "cutoff", 1),
        ("iee", "cutoff", 1),
        ("evolve", "snapshot_every", "x"),
        ("evolve", "snapshot_every", True),
        ("evolve", "snapshot_every", 2.5),
        ("evolve", "snapshot_every", 0),
        ("project", "snapshot_every", "x"),
        ("evolve", "hamiltonian", 5),
        ("project", "hamiltonian", 5),
        ("reify", "hamiltonian", 5),
        ("iee", "hamiltonian", 5),
        # the alpha grid must end strictly inside (0, pi/4)
        ("reify", "alpha_margin", 2),
        ("reify", "alpha_margin", math.pi / 4),
        ("reify", "alpha_margin", 1e-20),
    ], ids=["t-text", "deltas-scalar", "deltas-empty", "bindings-text",
            "sweep-two-keys", "cutoffs-scalar", "observables-scalar",
            "observables-number-entry", "evolve-cutoff-one", "iee-cutoff-one",
            "snapshot-text", "snapshot-bool", "snapshot-fraction",
            "snapshot-zero", "project-snapshot-text",
            "evolve-hamiltonian-number", "project-hamiltonian-number",
            "reify-hamiltonian-number", "iee-hamiltonian-number",
            "alpha-margin-past-zero", "alpha-margin-at-zero",
            "alpha-margin-below-rounding"])
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, experiment,
                                         name, value):
        cfg = write_config(tmp_path, "bad.json", {name: value, "seed": 1})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {name}:")

    @pytest.mark.parametrize("key, value", [
        ("radius", "x"), ("radius", -1.0), ("points", 2.5), ("modes", 2.5),
        ("points", True)])
    def test_bad_phase_circle_exits_2_naming_it(self, tmp_path, capsys, key,
                                                value):
        cfg = write_config(tmp_path, "bad.json", {
            "ensemble": {"kind": "phase_circle", key: value}})
        code = main(["iee", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"config error: ensemble.{key}:")

    @pytest.mark.parametrize("experiment, data, name", [
        ("iee", {"observables": ["phi2"]}, "observables"),
        ("evolve", {"hamiltonian": "phi1^2 + pi2^2", "bindings": {}},
         "hamiltonian"),
        ("project", {"hamiltonian": "phi1^2 + pi2^2", "bindings": {}},
         "hamiltonian"),
    ], ids=["iee-observable", "evolve-hamiltonian", "project-hamiltonian"])
    def test_more_modes_than_the_state_exits_2(self, tmp_path, capsys,
                                               experiment, data, name):
        cfg = write_config(tmp_path, "modes.json", {**data, "cutoff": 8})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {name}:")

    # a single point is no equilibrium, so iee fails its check (exit 1)
    @pytest.mark.parametrize("experiment, code", [
        ("evolve", 0), ("project", 0), ("iee", 1)])
    def test_one_mode_hamiltonian_is_promoted_to_a_two_mode_state(
            self, tmp_path, experiment, code):
        cfg = write_config(tmp_path, "modes.json", {
            "state": {"phi": [0.6, 0.3], "pi": [0.0, 0.4]},
            "observables": ["phi1*pi1 + phi2^2"],
            "cutoff": 8, "t": 0.02, "dt": 0.01})
        out = tmp_path / "out"
        assert main([experiment, "--config", str(cfg),
                     "--out", str(out)]) == code
        assert (out / "results.csv").exists()

    def test_alpha_grid_on_the_pole_exits_3(self, tmp_path, capsys):
        # the grid ends inside (0, pi/4), but too close for flow_coeffs
        cfg = write_config(tmp_path, "pole.json", {
            "alpha_margin": 1e-12, "alpha_points": 2, "cutoffs": [16]})
        code = main(["reify", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError

        monkeypatch.setitem(cli._RUNNERS, "project", exhausted)
        assert main(["project", "--out", str(tmp_path / "out")]) == 3
        assert "out of memory" in capsys.readouterr().err


class TestDiscrepancySweep:
    def test_mass_sweep_matches_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", DISC_CONFIG)
        out = tmp_path / "out"
        assert main(["discrepancy", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["m", "observable", "g_hat_re", "g_hat_im", "g_dot",
                          "direct_re", "direct_im", "closed_re", "closed_im",
                          "residual", "applicable"]
        for line in lines[1:]:
            cells = line.split(",")
            m = float(cells[0])
            direct = float(cells[5])
            assert abs(direct - (-(m - 1) / 2)) <= 1e-8
            assert cells[10] == "true"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", DISC_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["discrepancy", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["discrepancy", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == \
            (out2 / "results.csv").read_bytes()


class TestEvolveSuite:
    def test_trajectory_and_snapshots(self, tmp_path):
        cfg = write_config(tmp_path, "e.json", {
            "hamiltonian": "0.5*pi1^2 + 0.5*phi1^2", "bindings": {},
            "observables": ["phi1"],
            "state": {"phi": [1.0], "pi": [0.0]},
            "cutoff": 12, "t": 0.2, "dt": 0.001,
            "sample_every": 100, "snapshot_every": 200,
        })
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "t,trace_re,trace_im,<phi1>"
        last = lines[-1].split(",")
        assert abs(float(last[3]) - math.cos(0.2)) <= 1e-5
        snap = out / "snapshot_00000200.json"
        assert snap.exists()
        payload = json.loads(snap.read_text())
        assert payload["cutoff"] == 12 and payload["modes"] == 1


    def test_generator_is_built_once_per_run(self, tmp_path, monkeypatch):
        builds = []
        init = evolution.MasterTerms.__init__

        def counted(self, hamiltonian):
            builds.append(hamiltonian)
            init(self, hamiltonian)

        monkeypatch.setattr(evolution.MasterTerms, "__init__", counted)
        cfg = write_config(tmp_path, "e.json", {
            "observables": ["phi1"], "cutoff": 8, "t": 0.06, "dt": 0.01,
            "sample_every": 2})
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "results.csv").read_text().splitlines()) == 1 + 4
        assert len(builds) == 1


class TestManifest:
    def test_contents(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {
            "hamiltonian": "0.5*pi1^2 + 0.5*phi1^2", "bindings": {},
            "state": {"phi": [1.0], "pi": [0.0]},
            "deltas": [50.0, 100.0, 200.0], "cutoff": 24,
        })
        out = tmp_path / "out"
        assert main(["project", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["passed"] is True
        assert manifest["experiment"] == "project"
        assert len(manifest["config_sha256"]) == 64
        assert manifest["checks"][0]["tag"] == "projection-offdiagonal-decay"
        assert manifest["row_count"] == 3


class TestEmitReport:
    def test_empty_results_rejected(self, tmp_path):
        cfg = ExperimentConfig.from_json({"experiment": "iee"})
        with pytest.raises(ValueError, match="nothing to report"):
            emit_report(SuiteResult(columns=[], rows=[], checks=[]), cfg,
                        tmp_path / "out")

    def test_float_formatting_round_trips(self, tmp_path):
        cfg = ExperimentConfig.from_json({"experiment": "iee"})
        value = 0.1234567890123456789
        result = SuiteResult(columns=["x"], rows=[(value,)],
                             checks=[CheckResult("t", 0.0, 1.0, True)])
        emit_report(result, cfg, tmp_path / "out")
        text = (tmp_path / "out" / "results.csv").read_text().splitlines()[1]
        assert float(text) == value


class TestReifySuite:
    def test_columns_and_checks(self, tmp_path):
        cfg = write_config(tmp_path, "r.json", {
            "state": {"phi": [0.0], "pi": [1.0]},
            "cutoffs": [16, 32], "alpha_points": 8,
        })
        out = tmp_path / "out"
        assert main(["reify", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "alpha,norm,cutoff,residual_a7,residual_a8,c,d"
        assert len(lines) == 1 + 2 * 8


class TestVerifySuite:
    # tolerance column of the 13 verify rows, in row order
    TOLERANCES = [1e-8, 1e-8, 1e-10, 1.9, 0.0, 1e-8, 1e-8, 1e-8, 4.0, 1e-12,
                  1e6, 0.10, 1e-7]

    def test_rows_follow_the_registry_and_reruns_are_byte_identical(
            self, tmp_path, monkeypatch):
        # the benchmark's verify oracle pins the row order
        monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1]
                                    / "perfbench")
        workloads = importlib.import_module("workloads")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--seed", "11", "--out", str(out1)]) == 0
        assert main(["verify", "--seed", "11", "--out", str(out2)]) == 0
        lines = (out1 / "results.csv").read_text().splitlines()
        assert lines[0] == "check,value,tolerance,passed"
        rows = [line.split(",") for line in lines[1:]]
        tags = [r[0] for r in rows]
        assert tags == [c.tag for c in CRITERIA]
        assert tuple(tags) == workloads.VERIFY_CHECKS
        assert [float(r[2]) for r in rows] == self.TOLERANCES
        assert (out1 / "results.csv").read_bytes() == \
            (out2 / "results.csv").read_bytes()
