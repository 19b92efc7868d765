import importlib
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fockdm import cli, discrepancy, evolution
from fockdm.acceptance import CRITERIA, CheckResult
from fockdm.cli import (
    ConfigError,
    ExperimentConfig,
    SuiteResult,
    emit_report,
    main,
)
from fockdm.algebra import poly_to_normal_form
from fockdm.fock import DIM_CAP, FockMatrix, realize_matrix
from fockdm.poly import PolyExpr, parse_poly
from fockdm.states import ClassicalState, Ensemble, ensemble_density


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

    def test_removed_order_cap_exits_2_naming_it(self, tmp_path, capsys):
        # the closed form is summed in full; the old cap is an unknown field
        cfg = write_config(tmp_path, "cap.json", {"order_cap": 3})
        assert main(["discrepancy", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'order_cap'" in err
        assert not (tmp_path / "out").exists()

    def test_seed_required_for_randomized(self):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_json({"experiment": "verify"})

    def test_discrepancy_needs_no_seed(self, tmp_path):
        assert ExperimentConfig.from_json(
            {"experiment": "discrepancy"}).seed is None
        cfg = write_config(tmp_path, "disc.json", {
            k: v for k, v in DISC_CONFIG.items() if k != "seed"})
        out = tmp_path / "out"
        assert main(["discrepancy", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] is None

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


    def test_suite_inputs_apply_only_without_state_or_ensemble(self):
        iee = ExperimentConfig.from_json({"experiment": "iee"})
        assert iee.ensemble == cli.SUITE_INPUTS["iee"]["ensemble"]
        reify = ExperimentConfig.from_json({"experiment": "reify"})
        assert reify.state == cli.SUITE_INPUTS["reify"]["state"]
        # the default is copied, never shared between configs
        reify.state["phi"].append(1)
        assert cli.SUITE_INPUTS["reify"]["state"] == {"phi": [0], "pi": [2]}
        state = {"phi": [0.5], "pi": [0.1]}
        for experiment in ("iee", "reify"):
            cfg = ExperimentConfig.from_json({"experiment": experiment,
                                              "state": state})
            assert cfg.state == state and cfg.ensemble is None
        members = {"members": [{"phi": [0.5], "pi": [0.1], "w": 1.0}]}
        cfg = ExperimentConfig.from_json({"experiment": "iee",
                                          "ensemble": members})
        assert cfg.ensemble == members
        assert ExperimentConfig.from_json(
            {"experiment": "evolve"}).state == {"phi": [1.0], "pi": [0.0]}


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
        # a check that would compare nothing is refused at load time
        ("reify", "cutoffs", []),
        ("reify", "cutoffs", [16]),
        ("reify", "cutoffs", [16, 16]),
        ("project", "deltas", [50]),
        ("project", "deltas", [50, 50]),
        ("project", "deltas", [50, math.inf]),
        ("discrepancy", "sweep", {"m": []}),
        ("reify", "alpha_points", 1),
        # evolve's step count (its ceiling has its own test below)
        ("evolve", "t", 0.0015),
        ("evolve", "t", math.nan),
        ("evolve", "dt", math.inf),
        # a state needs at least one mode
        ("evolve", "state", {"phi": [], "pi": []}),
        ("iee", "ensemble", {"members": [{"phi": [], "pi": [], "w": 1.0}]}),
        # a delta whose quadrature step count overflows, and deltas whose
        # step delta/1000 is zero or subnormal
        ("project", "deltas", [50, 1e308]),
        ("project", "deltas", [5e-324, 1]),
        ("project", "deltas", [1e-306, 1]),
        # a variable index past the parser's mode ceiling, and one past
        # Python's 4300-digit limit on int()
        ("project", "hamiltonian", "phi3000000*pi1"),
        ("project", "hamiltonian", "phi" + "9" * 5000 + "*pi1"),
        # a boolean is no number, also among numbers
        ("project", "state", {"phi": [1.0, 0.0], "pi": [0.0, False]}),
        ("iee", "ensemble", {"members": [
            {"phi": [1.0], "pi": [0.0], "w": True}]}),
        ("iee", "ensemble", {"members": [
            {"phi": [[1.0], [True]], "pi": [0.0], "w": 1.0}]}),
        # phi and pi are lists, even of one mode
        ("project", "state", {"phi": 0.5, "pi": [0.0]}),
        # every suite reads state, ensemble and the t/dt grid at load,
        # including those that run on none of them
        ("verify", "state", {"phi": "bad"}),
        ("verify", "ensemble", {"members": [
            {"phi": [1.0], "pi": [0.0], "w": "1"}]}),
        ("project", "t", 0.0015),
    ], ids=["t-text", "deltas-scalar", "deltas-empty", "bindings-text",
            "sweep-two-keys", "cutoffs-scalar", "observables-scalar",
            "observables-number-entry", "evolve-cutoff-one", "iee-cutoff-one",
            "snapshot-text", "snapshot-bool", "snapshot-fraction",
            "snapshot-zero", "project-snapshot-text",
            "evolve-hamiltonian-number", "project-hamiltonian-number",
            "reify-hamiltonian-number", "iee-hamiltonian-number",
            "alpha-margin-past-zero", "alpha-margin-at-zero",
            "alpha-margin-below-rounding", "cutoffs-empty", "cutoffs-single",
            "cutoffs-repeated", "deltas-single", "deltas-repeated",
            "deltas-infinite",
            "sweep-empty-list", "alpha-points-one", "t-not-a-multiple",
            "t-nan", "dt-infinite", "state-empty", "ensemble-empty-member",
            "deltas-overflowing", "deltas-zero-step", "deltas-subnormal-step",
            "hamiltonian-index-past-the-mode-ceiling",
            "hamiltonian-index-past-the-int-digit-limit",
            "state-boolean-among-numbers",
            "member-boolean-weight", "member-nested-boolean",
            "state-bare-number", "verify-state", "verify-members",
            "project-t-not-a-multiple"])
    def test_bad_field_exits_2_naming_it(self, tmp_path, capsys, experiment,
                                         name, value):
        cfg = write_config(tmp_path, "bad.json", {name: value, "seed": 1})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {name}:")

    # np.random.SeedSequence takes only integers >= 0
    @pytest.mark.parametrize("value", ["x", 1e308, math.nan, {}, [0.0, -1.0],
                                       -1, True],
                             ids=["text", "huge-float", "nan", "object",
                                  "list", "negative", "bool"])
    def test_bad_seed_exits_2_naming_it(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, "seed.json", {"seed": value})
        code = main(["verify", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: seed:")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_2_naming_it(self, tmp_path, capsys):
        code = main(["verify", "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: seed:")

    def test_seed_zero_is_accepted(self):
        assert ExperimentConfig.from_json({"experiment": "verify",
                                           "seed": 0}).seed == 0

    @pytest.mark.parametrize("experiment", ["evolve", "project", "iee",
                                            "reify", "discrepancy"])
    @pytest.mark.parametrize("state", [{"phi": [{}], "pi": [0]},
                                       {"phi": [0], "pi": {}}],
                             ids=["holds-object", "is-object"])
    def test_state_with_an_object_exits_2_naming_it(self, tmp_path, capsys,
                                                    experiment, state):
        cfg = write_config(tmp_path, "state.json", {"state": state})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: state:")

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
            "alpha_margin": 1e-12, "alpha_points": 2, "cutoffs": [16, 32]})
        code = main(["reify", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [{"t": 1e300}, {"dt": 1e-300}],
                             ids=["huge-t", "tiny-dt"])
    def test_step_ceiling_exits_2_before_building(self, tmp_path, capsys,
                                                  monkeypatch, data):
        def built(*args):
            raise AssertionError("evolve built a density past the ceiling")

        monkeypatch.setattr(cli, "density_samples", built)
        cfg = write_config(tmp_path, "steps.json", data)
        code = main(["evolve", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: t:")
        assert str(cli.MAX_STEPS) in err

    def test_points_ceiling_exits_2_before_building(self, tmp_path, capsys,
                                                    monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("iee built an ensemble past the ceiling")

        monkeypatch.setattr(Ensemble, "phase_circle", built)
        cfg = write_config(tmp_path, "points.json", {
            "ensemble": {"kind": "phase_circle",
                         "points": cli.MAX_POINTS + 1}})
        code = main(["iee", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ensemble.points:")
        assert str(cli.MAX_POINTS) in err

    def test_alpha_points_ceiling_exits_2_before_building(self, tmp_path,
                                                          capsys, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("reify built a grid past the ceiling")

        monkeypatch.setattr(np, "linspace", built)
        cfg = write_config(tmp_path, "alphas.json",
                           {"alpha_points": cli.MAX_ALPHA_POINTS + 1})
        code = main(["reify", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: alpha_points:")
        assert str(cli.MAX_ALPHA_POINTS) in err

    # the default deltas take 5000 to 20000 steps; 10^7 takes the ceiling
    @pytest.mark.parametrize("delta, code", [(1e7, 0), (1e7 * (1 + 1e-9), 2)],
                             ids=["at-the-ceiling", "past-the-ceiling"])
    def test_quadrature_ceiling_exits_2_at_load(self, tmp_path, capsys,
                                                monkeypatch, delta, code):
        monkeypatch.setitem(cli._RUNNERS, "project", lambda config: SuiteResult(
            ["delta"], [(d,) for d in config.deltas], []))
        cfg = write_config(tmp_path, "deltas.json", {"deltas": [50.0, delta]})
        assert main(["project", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == code
        if code == 2:
            err = capsys.readouterr().err
            assert err.startswith("config error: deltas:")
            assert str(cli.MAX_QUADRATURE_STEPS) in err

    # the smallest deltas whose step delta/1000 is a normal float still run:
    # the band they measure is finite, and the check judges it
    @pytest.mark.parametrize("delta", [3e-305, 1e-300])
    def test_delta_with_a_normal_step_runs(self, tmp_path, delta):
        cfg = write_config(tmp_path, "tiny.json", {"deltas": [delta, 1.0]})
        out = tmp_path / "out"
        assert main(["project", "--config", str(cfg), "--out", str(out)]) == 1
        [check] = json.loads((out / "manifest.json").read_text())["checks"]
        assert math.isfinite(float(check["value"]))

    def test_reify_state_with_two_modes_exits_2_before_building(
            self, tmp_path, capsys, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("reify built a recoding of a two-mode state")

        monkeypatch.setattr(cli, "rho_z_trace", built)
        cfg = write_config(tmp_path, "two.json",
                           {"state": {"phi": [1, 0], "pi": [0, 0]}})
        code = main(["reify", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: state:")

    # a 401-digit JSON integer is a valid number that no float holds
    @pytest.mark.parametrize("experiment, data, name", [
        *[(experiment, {"state": {"phi": [10 ** 400], "pi": [0]}}, "state")
          for experiment in ("evolve", "iee", "reify", "project",
                             "discrepancy")],
        *[(experiment, {"ensemble": {"members": [
            {"phi": [10 ** 400], "pi": [0], "w": 1}]}}, "ensemble")
          for experiment in ("evolve", "iee")],
    ], ids=["evolve-state", "iee-state", "reify-state", "project-state",
            "discrepancy-state", "evolve-member", "iee-member"])
    def test_entry_too_large_for_a_float_exits_2_naming_it(
            self, tmp_path, capsys, experiment, data, name):
        cfg = write_config(tmp_path, "huge.json", {**data, "seed": 1})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {name}:")

    # 13 modes exceed DIM_CAP at any cutoff; the mode count is checked
    # before a circle's members or a promoted polynomial is built
    @pytest.mark.parametrize("experiment, data", [
        ("iee", {"ensemble": {"kind": "phase_circle", "modes": 13}}),
        ("evolve", {"ensemble": {"kind": "phase_circle", "modes": 13}}),
        ("iee", {"ensemble": {"members": [
            {"phi": [0] * 13, "pi": [0] * 13, "w": 1}]}}),
        ("evolve", {"ensemble": {"members": [
            {"phi": [0] * 13, "pi": [0] * 13, "w": 1}]}}),
        *[(experiment, {"state": {"phi": [0] * 13, "pi": [0] * 13}})
          for experiment in ("evolve", "iee", "project", "discrepancy")],
    ], ids=["iee-circle", "evolve-circle", "iee-members", "evolve-members",
            "evolve-state", "iee-state", "project-state",
            "discrepancy-state"])
    def test_mode_count_over_the_cap_exits_3_before_building(
            self, tmp_path, capsys, monkeypatch, experiment, data):
        def built(*args, **kwargs):
            raise AssertionError("built a phase circle past the cap")

        promote = PolyExpr.promote

        def guarded(self, modes):
            if modes >= 13:
                raise AssertionError("promoted a polynomial past the cap")
            return promote(self, modes)

        monkeypatch.setattr(Ensemble, "phase_circle", built)
        monkeypatch.setattr(PolyExpr, "promote", guarded)
        cfg = write_config(tmp_path, "modes.json",
                           {**data, "cutoff": 2, "seed": 1})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: 13 modes at cutoff 2" in err
        assert str(DIM_CAP) in err

    # math.comb(2000, k) * a**k cannot be converted to a float
    @pytest.mark.parametrize("experiment, data", [
        ("project", {"hamiltonian": "phi1^2000"}),
        ("discrepancy", {"seed": 1, "hamiltonian": "phi1^2000"}),
        ("evolve", {"observables": ["phi1^2000"]}),
    ], ids=["project-hamiltonian", "discrepancy-hamiltonian",
            "evolve-observable"])
    def test_coefficient_overflow_exits_3(self, tmp_path, capsys, experiment,
                                          data):
        cfg = write_config(tmp_path, "overflow.json", data)
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    # finite coefficients whose realized words overflow at the cutoff, so
    # the flux read off them is not finite, and finite coefficients whose
    # commutator overflows, so its constructor raises mid-run
    @pytest.mark.parametrize("experiment", ["discrepancy", "iee"])
    def test_non_finite_flux_exits_3(self, tmp_path, capsys, experiment):
        for data in ({"hamiltonian": "1e306*phi1^4 + pi1^2", "cutoff": 32},
                     {"hamiltonian": "1e200*phi1^3 + pi1^2",
                      "observables": ["1e200*phi1*pi1"]}):
            cfg = write_config(tmp_path, "flux.json", {**data, "seed": 1})
            code = main([experiment, "--config", str(cfg),
                         "--out", str(tmp_path / "out")])
            assert code == 3
            assert "not finite" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    # 1e308*1e308 is inf, and inf * (0+0j) brings in nan
    @pytest.mark.parametrize("experiment, data, name", [
        ("evolve", {"hamiltonian": "1e308*1e308*phi1^2 + pi1^2",
                    "generator": "liouville"}, "hamiltonian"),
        ("evolve", {"hamiltonian": "1e308*1e308*phi1^2 + pi1^2",
                    "generator": "master"}, "hamiltonian"),
        ("discrepancy", {"observables": ["1e308*1e308*phi1"]}, "observables"),
        ("iee", {"observables": ["1e308*1e308*phi1"]}, "observables"),
        ("evolve", {"observables": ["1e308*phi1^2*1e308"]}, "observables"),
        # the sweep value is bound only at run time
        ("discrepancy", {"sweep": {"m": [1e308]},
                         "hamiltonian": "m*m*phi1^2+pi1^2"}, "hamiltonian"),
    ], ids=["evolve-liouville-hamiltonian", "evolve-master-hamiltonian",
            "discrepancy-observable", "iee-observable", "evolve-observable",
            "discrepancy-sweep"])
    def test_non_finite_coefficient_exits_2_naming_it(self, tmp_path, capsys,
                                                      experiment, data, name):
        cfg = write_config(tmp_path, "inf.json", {**data, "seed": 1})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {name}:")
        assert "not a finite number" in err
        assert not (tmp_path / "out").exists()

    # nan and inf never reach a run: a binding or sweep value that is not
    # finite is refused at load time, and so is a polynomial with a
    # coefficient that is not (1e308*1e308 is inf, and inf - inf is nan),
    # on every suite, since every suite parses the Hamiltonian
    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    @pytest.mark.parametrize("data, name", [
        ({"bindings": {"m": math.nan}}, "bindings"),
        ({"hamiltonian": "1e308*1e308*phi1^2 - 1e308*1e308*phi1^2 + pi1^2"},
         "hamiltonian"),
        ({"sweep": {"m": [1.0, math.nan]}}, "sweep"),
    ], ids=["nan-binding", "inf-minus-inf-hamiltonian", "nan-sweep"])
    def test_nan_and_inf_exit_2_naming_the_field(self, tmp_path, capsys,
                                                 experiment, data, name):
        cfg = write_config(tmp_path, "nan.json", {**data, "seed": 1})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {name}:")
        assert not (tmp_path / "out").exists()

    # parentheses and unary minus signs nest at most poly.MAX_NESTING deep,
    # well inside Python's recursion limit
    @pytest.mark.parametrize("hamiltonian", [
        "(" * 300 + "phi1" + ")" * 300, "-" * 1200 + "phi1^2"],
        ids=["parentheses", "minus-signs"])
    def test_deep_nesting_exits_2_naming_the_field(self, tmp_path, capsys,
                                                   hamiltonian):
        cfg = write_config(tmp_path, "deep.json",
                           {"hamiltonian": hamiltonian, "seed": 1})
        code = main(["discrepancy", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: hamiltonian: nesting deeper")
        assert not (tmp_path / "out").exists()

    # a power of a long sum is refused before its expansion runs away: the
    # product that would pass poly.MAX_TERM_PAIRS is never multiplied out
    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_runaway_power_exits_2_naming_the_field(self, tmp_path, capsys,
                                                    experiment):
        cfg = write_config(tmp_path, "power.json", {
            "hamiltonian": "(phi1+pi1+phi2+pi2)^60", "seed": 1})
        start = time.perf_counter()
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: hamiltonian: a product of")
        assert "term pairs" in err
        assert not (tmp_path / "out").exists()

    # a long observable also added to the Hamiltonian: 591 by 591 words in
    # the commutator [g_n, H_n], refused before any is multiplied out
    def test_operator_product_over_the_ceiling_exits_3(self, tmp_path, capsys):
        g = " + ".join(f"phi1^{i}*pi1^{j}"
                       for i in range(30) for j in range(5))
        cfg = write_config(tmp_path, "long.json", {
            "hamiltonian": "0.5*pi1^2 + 0.5*phi1^2 + " + g,
            "observables": [g]})
        start = time.perf_counter()
        code = main(["discrepancy", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: a product of 591 by 591")
        assert not (tmp_path / "out").exists()

    # a valid config whose check has no off-diagonal content to measure:
    # every row reads 0 and the band is infinite, so the check fails
    @pytest.mark.parametrize("data", [
        {"hamiltonian": "1"}, {"hamiltonian": "0"},
        {"state": {"phi": [0.0], "pi": [0.0]}}],
        ids=["constant-hamiltonian", "zero-hamiltonian", "vacuum-state"])
    def test_project_with_nothing_to_decay_exits_1(self, tmp_path, data):
        cfg = write_config(tmp_path, "flat.json", data)
        out = tmp_path / "out"
        assert main(["project", "--config", str(cfg), "--out", str(out)]) == 1
        rows = [line.split(",") for line in
                (out / "results.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3
        assert all(row[1] == row[2] == "0" for row in rows)
        [check] = json.loads((out / "manifest.json").read_text())["checks"]
        assert check["value"] == "inf" and not check["passed"]

    def test_quartic_discrepancy_compares_every_row_and_exits_0(
            self, tmp_path, capsys):
        # phi^4 carries four z and four y factors: the series needs its
        # order-4 terms, and every row is compared
        cfg = write_config(tmp_path, "quartic.json", {
            "hamiltonian": "0.5*pi1^2 + 0.25*phi1^4",
            "observables": ["phi1*pi1", "phi1^2"]})
        out = tmp_path / "out"
        assert main(["discrepancy", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert "[pass] discrepancy-closed-form" in capsys.readouterr().out
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(float(row.split(",")[-1]) <= 1e-8 for row in rows)
        [check] = json.loads((out / "manifest.json").read_text())["checks"]
        assert check["passed"]
        assert check["detail"].startswith("2 rows compared")

    # every coefficient is finite, but the realized phi^4 term is not
    @pytest.mark.parametrize("experiment, data", [
        ("evolve", {"generator": "liouville"}), ("project", {})],
        ids=["evolve-liouville", "project"])
    def test_hamiltonian_that_overflows_on_realization_exits_3(
            self, tmp_path, capsys, experiment, data):
        cfg = write_config(tmp_path, "over.json", {
            **data, "hamiltonian": "1e306*phi1^4 + pi1^2", "cutoff": 32})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "numerical failure: H_n overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # rounding in the chart change leaves the words of (26,),(4,) and their
    # mates 1.3e-12 apart, relative, past the pairing tolerance of 1e-12
    @pytest.mark.parametrize("experiment, data", [
        ("evolve", {"generator": "master"}),
        ("evolve", {"generator": "liouville"}), ("project", {})],
        ids=["evolve-master", "evolve-liouville", "project"])
    def test_unpaired_hamiltonian_exits_3(self, tmp_path, capsys, experiment,
                                          data):
        cfg = write_config(tmp_path, "unpaired.json", {
            **data, "hamiltonian": "(phi1+pi1)^30", "bindings": {},
            "cutoff": 8})
        code = main([experiment, "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: H_n, the Hamiltonian's normal form: ")
        assert not (tmp_path / "out").exists()

    # reify and iee default to their own input (cli.SUITE_INPUTS)
    @pytest.mark.parametrize("experiment, code", [
        ("verify", 0), ("discrepancy", 0), ("evolve", 0), ("project", 0),
        ("reify", 0), ("iee", 0)])
    def test_default_exit_code(self, tmp_path, experiment, code):
        assert main([experiment, "--out", str(tmp_path / "out")]) == code

    def test_memory_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError

        monkeypatch.setitem(cli._RUNNERS, "project", exhausted)
        assert main(["project", "--out", str(tmp_path / "out")]) == 3
        assert "out of memory" in capsys.readouterr().err

    # a file where the output directory goes, or a directory where the
    # first snapshot goes
    @pytest.mark.parametrize("experiment, config, snapshot", [
        ("project", {}, None),
        ("evolve", {"t": 0.01, "snapshot_every": 10}, "snapshot_00000010.json"),
    ], ids=["report", "snapshot"])
    def test_unwritable_output_exits_3_naming_it(self, tmp_path, capsys,
                                                 experiment, config, snapshot):
        out = tmp_path / "out"
        if snapshot:
            (out / snapshot).mkdir(parents=True)
        else:
            out.write_text("a file, not a directory")
        cfg = write_config(tmp_path, "out.json", config)
        assert main([experiment, "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"resource failure: cannot write the output to {out}:")


class TestDiscrepancySweep:
    def test_mass_sweep_matches_closed_form(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", DISC_CONFIG)
        out = tmp_path / "out"
        assert main(["discrepancy", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["m", "observable", "g_hat_re", "g_hat_im", "g_dot",
                          "direct_re", "direct_im", "closed_re", "closed_im",
                          "residual"]
        for line in lines[1:]:
            cells = line.split(",")
            m = float(cells[0])
            direct = float(cells[5])
            assert abs(direct - (-(m - 1) / 2)) <= 1e-8
            assert float(cells[9]) <= 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", DISC_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["discrepancy", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["discrepancy", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == \
            (out2 / "results.csv").read_bytes()


class TestParseOnce:
    # validate parses the Hamiltonian and every observable; a suite without
    # a sweep runs on those parses, and a sweep parses again per value
    H = "0.5*pi1^2 + 0.5*m*phi1^2"
    OBSERVABLES = ["phi1*pi1", "phi1^2"]

    @staticmethod
    def spied(monkeypatch):
        texts, parse = [], cli.parse_poly

        def counted(text, bindings):
            texts.append(text)
            return parse(text, bindings)

        monkeypatch.setattr(cli, "parse_poly", counted)
        return texts

    @pytest.mark.parametrize("experiment, extra", [
        ("discrepancy", {}),
        ("evolve", {"cutoff": 8, "dt": 0.01, "t": 0.02}),
        ("iee", {"cutoff": 8, "ensemble": {"kind": "phase_circle",
                                           "points": 4}}),
        ("project", {"cutoff": 8}),
    ])
    def test_a_suite_without_a_sweep_parses_each_text_once(
            self, tmp_path, monkeypatch, experiment, extra):
        texts = self.spied(monkeypatch)
        cfg = write_config(tmp_path, "c.json", {
            "hamiltonian": self.H, "bindings": {"m": 1.0},
            "observables": self.OBSERVABLES, "seed": 1, **extra})
        main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert sorted(texts) == sorted([self.H, *self.OBSERVABLES])

    def test_a_sweep_parses_again_per_value(self, tmp_path, monkeypatch):
        texts = self.spied(monkeypatch)
        cfg = write_config(tmp_path, "d.json", DISC_CONFIG)
        assert main(["discrepancy", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        # once at validation, then once per swept value
        assert texts.count(DISC_CONFIG["hamiltonian"]) == 4
        assert texts.count("phi1*pi1") == 4


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


    def test_liouville_rows_do_not_depend_on_dt(self, tmp_path):
        # the Liouville flow is exact in t: dt only sets the sample grid
        rows = []
        for dt, every in ((0.01, 10), (0.02, 5)):
            cfg = write_config(tmp_path, f"l{every}.json", {
                "generator": "liouville",
                "hamiltonian": "0.5*pi1^2 + 0.5*phi1^2 + 0.1*phi1^4",
                "bindings": {}, "observables": ["phi1", "phi1*pi1"],
                "state": {"phi": [0.8], "pi": [0.3]},
                "cutoff": 16, "t": 0.2, "dt": dt, "sample_every": every})
            out = tmp_path / f"out{every}"
            assert main(["evolve", "--config", str(cfg),
                         "--out", str(out)]) == 0
            rows.append(np.loadtxt(out / "results.csv", delimiter=",",
                                   skiprows=1))
        assert rows[0].shape == rows[1].shape == (3, 5)
        assert np.max(np.abs(rows[0] - rows[1])) <= 1e-12
        # the trace is sum_k p_k ||y_k||^2, real by construction
        assert not rows[0][1:, 2].any() and not rows[1][1:, 2].any()

    def test_liouville_members_match_the_dense_reference(self, tmp_path):
        # a 3-member, 2-mode ensemble against U rho U^H from the complex eigh
        # of H_n, read off with the realized observables
        D, dt, steps = 6, 0.01, 7
        text = "0.5*(pi1^2+phi1^2+pi2^2+phi2^2) + 0.1*phi1^2*phi2 + 0.2*phi1*pi2"
        observables = ["phi1", "phi1*pi2", "pi1^2 + phi2^2"]
        members = [{"phi": [0.4, -0.2], "pi": [0.1, 0.5], "w": 0.5},
                   {"phi": [-0.3, 0.6], "pi": [0.2, 0.0], "w": 0.3},
                   {"phi": [0.1, 0.1], "pi": [-0.6, 0.3], "w": 0.2}]
        cfg = write_config(tmp_path, "m.json", {
            "generator": "liouville", "hamiltonian": text, "bindings": {},
            "observables": observables,
            "ensemble": {"kind": "members", "members": members},
            "cutoff": D, "dt": dt, "t": steps * dt, "sample_every": 3})
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        got = np.loadtxt(out / "results.csv", delimiter=",", skiprows=1)
        ensemble = Ensemble.from_states(
            [ClassicalState(m["phi"], m["pi"]) for m in members],
            [m["w"] for m in members])
        rho = ensemble_density(ensemble, D).data
        evals, vecs = np.linalg.eigh(
            realize_matrix(poly_to_normal_form(parse_poly(text, {})), D).data)
        gs = [realize_matrix(poly_to_normal_form(parse_poly(g, {})
                                                 .promote(2)), D).data
              for g in observables]
        assert got.shape == (4, 3 + len(observables))
        for row, done in zip(got, (0, 3, 6, 7)):
            u = (vecs * np.exp(-1j * done * dt * evals)) @ vecs.conj().T
            rho_t = u @ rho @ u.conj().T
            want = [np.trace(rho_t @ g).real for g in gs]
            assert row[0] == done * dt
            assert np.max(np.abs(row[3:] - want)) <= 1e-12
            # the truncated members keep their trace, just below 1
            assert abs(row[1] - np.trace(rho_t).real) <= 1e-12
            assert row[2] == 0

    def test_liouville_on_a_diagonal_h_n_at_dim_4096(self, tmp_path):
        # the rotation-invariant H_n is diagonal in the number basis, so
        # each basis state only turns its phase, by E(k1, k2) t: phi^2 + pi^2
        # = 2|z|^2 becomes 2n and its square 4 adag^2 a^2 = 4n(n-1); <a_j>
        # is read off the phased coherent amplitudes, <phi_j> = sqrt2
        # Re<a_j> and <pi_j> = sqrt2 Im<a_j>
        D, dt, c1, c2 = 64, 0.05, 0.02, 0.01
        phi, pi_ = [1.0, 0.5], [0.3, -0.2]
        cfg = write_config(tmp_path, "r.json", {
            "generator": "liouville",
            "hamiltonian": "0.5*(pi1^2+phi1^2+pi2^2+phi2^2)"
                           " + c1*(phi1^2+pi1^2)^2"
                           " + c2*(phi1^2+pi1^2)*(phi2^2+pi2^2)",
            "bindings": {"c1": c1, "c2": c2}, "observables": ["phi1", "pi2"],
            "state": {"phi": phi, "pi": pi_},
            "cutoff": D, "dt": dt, "t": 6 * dt, "sample_every": 3})
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        got = np.loadtxt(out / "results.csv", delimiter=",", skiprows=1)
        columns = []
        for f, p in zip(phi, pi_):
            z = (f + 1j * p) / math.sqrt(2)
            col = np.exp(-abs(z) ** 2 / 2) * np.cumprod(
                np.r_[1, z / np.sqrt(np.arange(1, D))])
            columns.append(col)
        w = np.outer(*columns)
        k1, k2 = np.indices((D, D))
        energy = k1 + k2 + 4 * c1 * k1 * (k1 - 1) + 4 * c2 * k1 * k2
        ladder = np.sqrt(np.arange(1, D))
        assert got.shape == (3, 5)
        for row, done in zip(got, (0, 3, 6)):
            y = np.exp(-1j * done * dt * energy) * w
            a1 = np.vdot(y[:-1], ladder[:, None] * y[1:])
            a2 = np.vdot(y[:, :-1], ladder * y[:, 1:])
            assert abs(row[1] - np.vdot(w, w).real) <= 1e-12
            assert abs(row[3] - math.sqrt(2) * a1.real) <= 1e-12
            assert abs(row[4] - math.sqrt(2) * a2.imag) <= 1e-12

    def test_generator_is_built_once_per_run(self, tmp_path, monkeypatch):
        builds = []
        init = evolution.MasterTerms.__init__

        def counted(self, hamiltonian, cutoff):
            builds.append(hamiltonian)
            init(self, hamiltonian, cutoff)

        monkeypatch.setattr(evolution.MasterTerms, "__init__", counted)
        cfg = write_config(tmp_path, "e.json", {
            "observables": ["phi1"], "cutoff": 8, "t": 0.06, "dt": 0.01,
            "sample_every": 2})
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "results.csv").read_text().splitlines()) == 1 + 4
        assert len(builds) == 1


class TestIEESuite:
    def test_each_commutator_is_compiled_once_per_run(self, tmp_path,
                                                      monkeypatch):
        # 16 members and two observables: two compiled commutators, not one
        # per member
        calls = []
        compile_operator = discrepancy.compile_operator

        def counted(op, cutoff):
            calls.append(op)
            return compile_operator(op, cutoff)

        monkeypatch.setattr(discrepancy, "compile_operator", counted)
        cfg = write_config(tmp_path, "iee.json", {
            "ensemble": {"kind": "phase_circle", "radius": 1.0, "points": 16},
            "observables": ["phi1*pi1", "phi1^2 - pi1^2"], "cutoff": 16})
        assert main(["iee", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 2


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

    def test_manifest_keeps_each_check_detail(self, tmp_path):
        # at cutoff 8 ladder-commutator-expansion fails with value 0 (its
        # symbolic residuals) and tolerance 0; the manifest says why
        out = tmp_path / "out"
        assert main(["verify", "--cutoff", "8", "--out", str(out)]) == 1
        checks = json.loads((out / "manifest.json").read_text())["checks"]
        assert [c["tag"] for c in checks] == [c.tag for c in CRITERIA]
        assert all(c["detail"] for c in checks)
        [ladder] = [c for c in checks
                    if c["tag"] == "ladder-commutator-expansion"]
        assert not ladder["passed"]
        assert "matrix residual inf (1 empty interior blocks)" \
            in ladder["detail"]
        # and every suite's default run explains each of its checks
        for experiment in cli.EXPERIMENTS:
            out = tmp_path / experiment
            assert main([experiment, "--out", str(out)]) == 0
            checks = json.loads((out / "manifest.json").read_text())["checks"]
            assert checks and all(c["detail"] for c in checks), experiment

    def test_small_cutoff_fails_with_every_row_written(self, tmp_path):
        # at cutoff 8 the interior block of ladder-commutator-expansion is
        # empty for its deepest margins: the check fails, and the run still
        # writes all its rows and exits 1
        out = tmp_path / "out"
        assert main(["verify", "--cutoff", "8", "--out", str(out)]) == 1
        lines = (out / "results.csv").read_text().splitlines()
        rows = dict(line.split(",", 1) for line in lines[1:])
        assert list(rows) == [c.tag for c in CRITERIA]
        assert rows["ladder-commutator-expansion"].endswith(",false")


def suite_checks(tmp_path, name, experiment, data=None):
    """Exit code and manifest checks, by tag, of one suite run."""
    out = tmp_path / name
    args = [experiment, "--out", str(out)]
    if data is not None:
        args += ["--config", str(write_config(tmp_path, f"{name}.json", data))]
    code = main(args)
    checks = json.loads((out / "manifest.json").read_text())["checks"]
    return code, {c["tag"]: c for c in checks}


class TestNegativeControls:
    # each suite check passes on a clean run and fails once one named fault
    # is planted in what its suite measures

    def test_trace_drift_sees_a_sample_trace_shifted_by_2e_6(
            self, tmp_path, monkeypatch):
        data = {"observables": ["phi1"], "cutoff": 8, "t": 0.04, "dt": 0.01,
                "sample_every": 2}
        assert suite_checks(tmp_path, "clean", "evolve", data)[0] == 0
        traces = []
        trace = FockMatrix.trace

        def shifted(rho):
            traces.append(trace(rho))
            return traces[-1] + (2e-6 if len(traces) > 1 else 0.0)

        monkeypatch.setattr(FockMatrix, "trace", shifted)
        code, checks = suite_checks(tmp_path, "fault", "evolve", data)
        assert code == 1 and len(traces) == 3
        assert not checks["trace-drift"]["passed"]
        assert float(checks["trace-drift"]["value"]) == pytest.approx(2e-6)

    def test_closed_form_check_sees_the_closed_form_skewed_by_1e_7(
            self, tmp_path, monkeypatch):
        assert suite_checks(tmp_path, "clean", "discrepancy",
                            DISC_CONFIG)[0] == 0
        closed_form = discrepancy.discrepancy_closed_form

        def skewed(*args):
            return closed_form(*args) + 1e-7

        monkeypatch.setattr(discrepancy, "discrepancy_closed_form", skewed)
        code, checks = suite_checks(tmp_path, "fault", "discrepancy",
                                    DISC_CONFIG)
        assert code == 1
        check = checks["discrepancy-closed-form"]
        assert not check["passed"]
        assert float(check["value"]) == pytest.approx(1e-7)
        assert check["detail"].startswith("3 rows compared")

    def test_projection_check_sees_a_window_fixed_at_the_first_delta(
            self, tmp_path, monkeypatch):
        # every delta averaged over [0, 50] leaves the off-diagonal content
        # constant, so the C estimates spread by max/min delta = 8; at the
        # default deltas that spread is 4.0 and passes the band of 4
        data = {"hamiltonian": "0.5*pi1^2 + 0.5*phi1^2 + 0.1*phi1^4",
                "deltas": [50.0, 100.0, 200.0, 400.0]}
        assert suite_checks(tmp_path, "clean", "project", data)[0] == 0
        average = evolution._time_average
        monkeypatch.setattr(evolution, "_time_average",
                            lambda rho, eig, delta: average(rho, eig, 50.0))
        code, checks = suite_checks(tmp_path, "fault", "project", data)
        assert code == 1
        check = checks["projection-offdiagonal-decay"]
        assert not check["passed"]
        assert float(check["value"]) == pytest.approx(8.0)

    def test_equilibrium_check_sees_a_quantum_flux_biased_by_2e_7(
            self, tmp_path, monkeypatch):
        assert suite_checks(tmp_path, "clean", "iee")[0] == 0
        flux = discrepancy.quantum_flux
        monkeypatch.setattr(discrepancy, "quantum_flux",
                            lambda rho, table: flux(rho, table) + 2e-7)
        code, checks = suite_checks(tmp_path, "fault", "iee")
        assert code == 1
        assert not checks["iee-flux-vanishes"]["passed"]
        rows = (tmp_path / "fault" / "results.csv").read_text().splitlines()
        assert rows[1].endswith(",false")

    def test_monotone_check_sees_one_norm_lowered(self, tmp_path,
                                                  monkeypatch):
        assert suite_checks(tmp_path, "clean", "reify")[0] == 0
        rho_z_trace = cli.rho_z_trace

        def lowered(state, grid, cutoff):
            trace = rho_z_trace(state, grid, cutoff)
            if cutoff == 64:
                trace.norms[10] = 0.5 * trace.norms[9]
            return trace

        monkeypatch.setattr(cli, "rho_z_trace", lowered)
        code, checks = suite_checks(tmp_path, "fault", "reify")
        assert code == 1
        check = checks["reify-monotone-growth"]
        assert not check["passed"]
        assert check["detail"] == "not monotone at cutoff 64"
        assert checks["reify-growth-steepens-with-cutoff"]["passed"]

    def test_steepening_check_sees_every_cutoff_run_at_the_first(
            self, tmp_path, monkeypatch):
        assert suite_checks(tmp_path, "clean", "reify")[0] == 0
        rho_z_trace = cli.rho_z_trace
        monkeypatch.setattr(cli, "rho_z_trace", lambda state, grid, cutoff:
                            replace(rho_z_trace(state, grid, 32),
                                    cutoff=cutoff))
        code, checks = suite_checks(tmp_path, "fault", "reify")
        assert code == 1
        assert not checks["reify-growth-steepens-with-cutoff"]["passed"]
        assert checks["reify-monotone-growth"]["passed"]
