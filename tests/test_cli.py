import json
import math
from pathlib import Path

import pytest

from levydam import PolicyEvaluator
from levydam.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    build_model,
    build_policy,
    cmd_evaluate,
    cmd_optimize,
    cmd_verify,
    load_config,
    main,
)

ROOT = Path(__file__).resolve().parent.parent


def wiener_config(out_dir, **extra):
    cfg = {
        "schema_version": 1,
        "model": {"kind": "brownian", "mu": 1.0, "sigma2": 1.0},
        "reflected": False,
        "policy": {"lambda": 2.0, "tau": 0.0, "M": 2.0, "V": 4.0},
        "costs": {
            "K1": 0.5, "K2": 0.25, "R": 0.1,
            "g": {"breakpoints": [0.0, 2.0], "coeffs": [[0.1]]},
            "g_star": {"breakpoints": [0.0, 4.0], "coeffs": [[0.05]]},
        },
        "alphas": [0.5],
        "verification": {"n_paths": 3000, "seed": 3, "tolerance_se": 3.0,
                         "time_step": 0.002},
        "output": {"dir": str(out_dir)},
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_strict(path):
    """Parse a report as strict JSON: NaN and Infinity are rejected."""
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestConfigValidation:
    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema_version": 1,\n  "model": oops\n}')
        with pytest.raises(ConfigError, match=r":3:"):
            load_config(str(path))

    def test_schema_version_required(self, tmp_path):
        path = write_config(tmp_path, {"model": {}})
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(path)

    def test_missing_key_path_in_message(self):
        with pytest.raises(ConfigError, match=r"model\.sigma2"):
            build_model({"kind": "brownian", "mu": 1.0})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown model kind"):
            build_model({"kind": "stable", "mu": 1.0})

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "gamma", "zeta": 1.0, "a": 3.0, "b": 2.0, "jump_mean": 5.0,
          "sigma2": 9.0}, "jump_mean"),
        ({"kind": "compound_poisson", "zeta": 2.0, "rate": 1.0,
          "jump_mean": 1.0, "mu": 1.0}, "mu"),
        ({"kind": "inverse_gaussian", "zeta": 1.0, "sigma": 1.0, "c": 0.8,
          "jump_rate": 1.0}, "jump_rate"),
    ], ids=["gamma", "compound_poisson", "inverse_gaussian"])
    def test_unread_model_key_rejected(self, spec, key):
        with pytest.raises(ConfigError, match=rf"^model\.{key}: not supported"):
            build_model(spec)

    def test_policy_inequality_enforced(self):
        with pytest.raises(ConfigError, match="tau < lam"):
            build_policy({"lambda": 1.0, "tau": 1.5, "M": 1.0, "V": 4.0})

    def test_infinite_capacity_spelling(self):
        # "inf", JSON Infinity, null and a missing V are all unlimited
        for spec in ({"V": "inf"}, {"V": math.inf}, {"V": None}, {}):
            pol = build_policy({"lambda": 1.0, "tau": 0.5, "M": 1.0, **spec})
            assert pol.V == math.inf

    def test_main_reports_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"schema_version": 2})
        assert main(["evaluate", "--config", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err


def all_verbs_config(out_dir):
    """A config that every verb accepts: a one-point sweep."""
    cfg = wiener_config(out_dir)
    cfg["sweep"] = {"lambda": 2.0, "tau": 0.0, "refine_rounds": 0}
    cfg["objective"] = {"criterion": "long_run_average"}
    return cfg


# (verb, key path, value): each value fails its key's typed check
BAD_VALUES = [
    ("evaluate", "reflected", "false"),
    ("verify", "reflected", 1),
    ("optimize", "reflected", None),
    ("verify", "verification.tolerance_se", "3"),
    ("verify", "verification.tolerance_se", 0.0),
    ("verify", "verification.check_total_discounted", "false"),
    ("optimize", "sweep.refine_rounds", 1.5),
    ("optimize", "sweep.refine_rounds", -1),
    ("optimize", "sweep.refine_rounds", True),
    ("optimize", "objective", "long_run_average"),
    ("optimize", "objective.alpha", "0.5"),
    ("optimize", "objective.alpha", -0.5),
    ("optimize", "policy.V", "big"),
    ("optimize", "policy.V", True),
    ("evaluate", "output", "out"),
    ("evaluate", "output.dir", 5),
    ("verify", "verification.n_paths", "300"),
    ("verify", "verification.seed", True),
    ("verify", "verification.time_step", "0.01"),
    ("verify", "verification.horizon", "100"),
    ("evaluate", "costs.g_bound", "1"),
    ("evaluate", "costs.g_star_bound", "1"),
    # a rate piece with an infinite end must be constant
    ("evaluate", "costs.g", {"breakpoints": [0.0, math.inf],
                             "coeffs": [[0.1, 0.2]]}),
    # non-finite numbers
    ("evaluate", "policy.lambda", math.inf),
    ("verify", "policy.lambda", math.inf),
    ("evaluate", "policy.M", math.nan),
    ("verify", "policy.M", math.inf),
    ("optimize", "policy.M", math.nan),
    ("evaluate", "alphas", [math.nan]),
    ("verify", "alphas", [math.nan]),
    ("verify", "alphas", [0.5, math.inf]),
    ("optimize", "sweep.lambda", math.inf),
    ("evaluate", "model.mu", math.nan),
    ("verify", "verification.horizon", math.inf),
    ("evaluate", "policy.V", math.nan),
    ("verify", "policy.V", math.nan),
    ("optimize", "policy.V", math.nan),
    ("evaluate", "policy.V", -math.inf),
    ("optimize", "policy.V", -math.inf),
    # keys that are no longer read must not pass silently
    ("verify", "verification.small_jump_cutoff", 1e-6),
    ("verify", "verification.corrupt", {"quantity": "fill_exit_mean",
                                        "factor": 1.5}),
    # model keys that the brownian kind does not read
    ("evaluate", "model.jump_mean", 5.0),
    ("verify", "model.zeta", 2.0),
    ("optimize", "model.rate", 1.0),
]


class TestTypedValues:
    @pytest.mark.parametrize("verb, key, value", BAD_VALUES)
    def test_rejected_with_key_path(self, tmp_path, capsys, verb, key, value):
        out = tmp_path / "out"
        cfg = all_verbs_config(out)
        if key == "objective.alpha":
            cfg["objective"] = {"criterion": "total_discounted"}
        *parents, last = key.split(".")
        block = cfg
        for name in parents:
            block = block[name]
        block[last] = value
        path = write_config(tmp_path, cfg)
        assert main([verb, "--config", path, "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert "Traceback" not in err
        assert not out.exists()


# atomic jump sizes as the config once gave them, well formed or not
ATOMS = {"well_formed": [[0.5, 0.5], [1.5, 0.5]],
         "malformed": [[0.5], [1.5, 0.5]]}


def atomic_jump_config(out_dir, atoms):
    """Compound Poisson input whose jump sizes are atoms."""
    cfg = wiener_config(out_dir)
    cfg["model"] = {"kind": "compound_poisson", "zeta": 2.0, "rate": 1.0,
                    "atoms": atoms}
    cfg["reflected"] = True
    cfg["sweep"] = {"lambda": 2.0, "tau": 0.0}
    cfg["objective"] = {"criterion": "long_run_average"}
    return cfg


class TestAtomicJumps:
    def test_model_is_not_built(self):
        spec = atomic_jump_config("out", ATOMS["well_formed"])["model"]
        with pytest.raises(ConfigError, match=r"^model\.atoms: "):
            build_model(spec)

    @pytest.mark.parametrize("atoms", ATOMS.values(), ids=ATOMS.keys())
    @pytest.mark.parametrize("verb", ["evaluate", "verify", "optimize"])
    def test_rejected_up_front(self, tmp_path, capsys, verb, atoms):
        out = tmp_path / "out"
        path = write_config(tmp_path, atomic_jump_config(out, atoms))
        assert main([verb, "--config", path, "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: model.atoms: ")
        assert "not supported" in err and "Traceback" not in err
        assert not out.exists()


class TestEvaluate:
    def test_wiener_exit_mean_field(self, tmp_path):
        report = cmd_evaluate(wiener_config(tmp_path))
        # lambda / mu for Wiener input started at tau = 0
        assert report["quantities"]["fill_exit_mean"] == pytest.approx(2.0,
                                                                       rel=1e-10)
        assert "0.5" in report["quantities"]["per_alpha"]
        over = report["quantities"]["overshoot"]
        # continuous input crosses by creeping: the law is the unit atom
        assert over["atom_mass_at_threshold"] == pytest.approx(1.0, abs=1e-9)
        assert over["jump_crossing_mass"] == 0.0

    def test_overshoot_summary_for_jump_input(self, tmp_path):
        cfg = wiener_config(tmp_path)
        cfg["model"] = {"kind": "compound_poisson", "zeta": 2.0, "rate": 1.0,
                        "jump_mean": 1.0}
        cfg["reflected"] = True
        cfg["policy"]["tau"] = 0.5
        report = cmd_evaluate(cfg)
        over = report["quantities"]["overshoot"]
        assert over["jump_crossing_mass"] == pytest.approx(1.0, abs=1e-6)
        # exponential jumps are memoryless: mean overshoot is the jump mean
        assert over["mean_overshoot_given_jump"] == pytest.approx(1.0,
                                                                  abs=1e-6)

    def test_zero_costs_give_zero_fields(self, tmp_path):
        cfg = wiener_config(tmp_path)
        cfg["costs"].update(K1=0.0, K2=0.0, R=0.0)
        cfg["costs"]["g"]["coeffs"] = [[0.0]]
        cfg["costs"]["g_star"]["coeffs"] = [[0.0]]
        report = cmd_evaluate(cfg)
        q = report["quantities"]
        assert q["long_run_average_cost"] == pytest.approx(0.0, abs=1e-12)
        assert q["per_alpha"]["0.5"]["cycle_cost"] == pytest.approx(0.0,
                                                                    abs=1e-12)
        assert q["per_alpha"]["0.5"]["total_discounted_cost"] == pytest.approx(
            0.0, abs=1e-12)

    def test_byte_identical_reports(self, tmp_path):
        cfg_path = write_config(tmp_path, wiener_config(tmp_path / "o1"))
        assert main(["evaluate", "--config", cfg_path, "--quiet"]) == EXIT_OK
        cfg_path2 = write_config(tmp_path, wiener_config(tmp_path / "o2"),
                                 name="cfg2.json")
        assert main(["evaluate", "--config", cfg_path2, "--quiet"]) == EXIT_OK
        a = (tmp_path / "o1" / "evaluate.json").read_bytes()
        b = (tmp_path / "o2" / "evaluate.json").read_bytes()
        assert a == b
        a_csv = (tmp_path / "o1" / "evaluate.csv").read_bytes()
        b_csv = (tmp_path / "o2" / "evaluate.csv").read_bytes()
        assert a_csv == b_csv

    def test_downward_drift_reports_cycle_means_unavailable(self, tmp_path):
        # plain input drifting down never reaches the threshold for sure: the
        # mean fill time is infinite and the release mean is defective
        cfg = wiener_config(tmp_path)
        cfg["model"]["mu"] = -0.5
        path = write_config(tmp_path, cfg)
        assert main(["evaluate", "--config", path, "--quiet"]) == EXIT_OK
        report = read_strict(tmp_path / "evaluate.json")
        q = report["quantities"]
        for key in ("fill_exit_mean", "mean_release_time", "mean_cycle_length",
                    "long_run_average_cost"):
            assert q[key] is None
        assert any(n.startswith("cycle means unavailable: infinite")
                   for n in report["notes"])
        assert q["per_alpha"]["0.5"]["fill_exit_lt"] < 1.0

    def test_non_finite_value_exits_numeric(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setattr(PolicyEvaluator, "long_run_average",
                            lambda self: math.nan)
        path = write_config(tmp_path, wiener_config(tmp_path))
        assert main(["evaluate", "--config", path, "--quiet"]) == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "evaluate.json").exists()


    def test_transform_out_of_range_exits_numeric(self, tmp_path, capsys):
        # reflected Brownian input at lambda = 20: the fill transform at
        # alpha = 0.5 cancels to 8192 and is refused
        cfg = wiener_config(tmp_path, reflected=True)
        cfg["policy"] = {"lambda": 20.0, "tau": 0.5, "M": 2.0, "V": 40.0}
        path = write_config(tmp_path, cfg)
        assert main(["evaluate", "--config", path, "--quiet"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "outside [0, 1]" in err
        assert "np.float64" not in err
        assert not (tmp_path / "evaluate.json").exists()

    @pytest.mark.parametrize("verb", ["evaluate", "optimize"])
    def test_divergent_discounted_series_exits_numeric(self, tmp_path,
                                                       capsys, verb):
        # reflected gamma input at lambda = 10: the cycle transform at tau
        # comes out as 82.3 at alpha = 0.5, outside [0, 1]
        cfg = json.loads((ROOT / "perfbench/configs/evaluate_gamma.json")
                         .read_text())
        cfg.update(reflected=True, alphas=[0.5], output={"dir": str(tmp_path)})
        cfg["policy"].update({"lambda": 10.0, "V": 20.0})
        cfg["sweep"] = {"lambda": 10.0, "tau": 0.5}
        cfg["objective"] = {"criterion": "total_discounted", "alpha": 0.5}
        path = write_config(tmp_path, cfg)
        assert main([verb, "--config", path, "--quiet"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical failure: cycle end transform" in err
        assert "outside [0, 1]" in err
        assert "np.float64" not in err
        assert "Traceback" not in err
        assert not (tmp_path / f"{verb}.json").exists()


def _inflate_fill_exit_mean(monkeypatch):
    """A wrong analytic side: the fill exit mean 1.5 times too large."""
    exact = PolicyEvaluator.fill_exit_mean
    monkeypatch.setattr(PolicyEvaluator, "fill_exit_mean",
                        lambda self, x=None: 1.5 * exact(self, x))


class TestVerify:
    def test_wiener_passes(self, tmp_path):
        report = cmd_verify(wiener_config(tmp_path))
        assert report["pass"] is True
        assert not report["starved"]
        assert len(report["checks"]) >= 5
        assert "notes" not in report

    def test_dropped_long_run_check_is_noted(self, tmp_path, monkeypatch):
        def unavailable(self):
            raise ValueError("no average here")

        monkeypatch.setattr(PolicyEvaluator, "long_run_average", unavailable)
        cfg = wiener_config(tmp_path)
        cfg["verification"].update(n_paths=400)
        report = cmd_verify(cfg)
        assert not report["starved"]
        assert report["notes"] == [
            "long-run average check skipped: no average here"]
        names = [c["quantity"] for c in report["checks"]]
        assert "long_run_average_cost" not in names
        assert "fill_exit_mean" in names

    def test_corrupted_analytic_fails(self, tmp_path, monkeypatch):
        _inflate_fill_exit_mean(monkeypatch)
        report = cmd_verify(wiener_config(tmp_path))
        assert report["pass"] is False
        bad = [c for c in report["checks"]
               if c["quantity"] == "fill_exit_mean"][0]
        assert bad["pass"] is False

    def test_exit_code_on_failure(self, tmp_path, monkeypatch):
        _inflate_fill_exit_mean(monkeypatch)
        path = write_config(tmp_path, wiener_config(tmp_path))
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_VERIFY

    def test_bad_horizon_is_config_error(self, tmp_path, capsys):
        cfg = wiener_config(tmp_path)
        cfg["verification"]["horizon"] = -1.0
        path = write_config(tmp_path, cfg)
        assert main(["verify", "--config", path, "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: verification: horizon")

    def test_seed_stability_of_outcome(self, tmp_path):
        outcomes = []
        for seed in (11, 12, 13):
            report = cmd_verify(wiener_config(tmp_path), seed=seed)
            outcomes.append(report["pass"])
        assert outcomes == [True, True, True]

    def test_seed_override_changes_estimates(self, tmp_path):
        r1 = cmd_verify(wiener_config(tmp_path), seed=1)
        r2 = cmd_verify(wiener_config(tmp_path), seed=2)
        m1 = r1["checks"][0]["mc_mean"]
        m2 = r2["checks"][0]["mc_mean"]
        assert m1 != m2

    def test_total_discounted_check_opt_in(self, tmp_path):
        cfg = wiener_config(tmp_path)
        cfg["alphas"] = [1.0]
        cfg["verification"].update(n_paths=800, time_step=0.002,
                                   check_total_discounted=True)
        report = cmd_verify(cfg)
        names = [c["quantity"] for c in report["checks"]]
        assert "total_discounted[alpha=1]" in names
        assert report["pass"] is True

    def test_starved_simulation_reported_distinctly(self, tmp_path):
        # plain input with downward drift never reaches the threshold
        cfg = wiener_config(tmp_path)
        cfg["model"] = {"kind": "compound_poisson", "zeta": 2.0, "rate": 1.0,
                        "jump_mean": 1.0}
        cfg["reflected"] = False
        cfg["verification"].update(n_paths=200, horizon=30.0)
        report = cmd_verify(cfg)
        assert report["starved"] is True
        assert report["pass"] is False
        path = write_config(tmp_path, cfg, name="starve.json")
        rc = main(["verify", "--config", path, "--quiet"])
        from levydam.cli import EXIT_NUMERIC
        assert rc == EXIT_NUMERIC


class TestOptimize:
    def sweep_config(self, tmp_path, **kw):
        cfg = wiener_config(tmp_path)
        cfg["reflected"] = True
        cfg["sweep"] = {
            "lambda": {"start": 1.0, "stop": 2.0, "num": 3},
            "tau": {"start": 0.2, "stop": 0.8, "num": 3},
            "refine_rounds": kw.pop("refine_rounds", 0),
        }
        cfg["objective"] = {"criterion": "long_run_average"}
        cfg.update(kw)
        return cfg

    def test_single_point_grid(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        cfg["sweep"]["lambda"] = 1.5
        cfg["sweep"]["tau"] = 0.5
        report = cmd_optimize(cfg)
        assert report["argmin"]["lambda"] == 1.5
        assert report["argmin"]["tau"] == 0.5

    def test_infeasible_grid_rejected(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        cfg["sweep"]["lambda"] = 0.5
        cfg["sweep"]["tau"] = 0.9
        with pytest.raises(ConfigError, match="no grid point"):
            cmd_optimize(cfg)

    def test_constant_objective_tie_break(self, tmp_path, monkeypatch):
        cfg = self.sweep_config(tmp_path)
        import levydam.cli as cli

        def constant(cfg_, model, costs, reflected):
            return (lambda policy: 7.0), "constant"

        monkeypatch.setattr(cli, "_objective_fn", constant)
        report = cmd_optimize(cfg)
        # lexicographically first feasible point
        assert report["argmin"]["lambda"] == 1.0
        assert report["argmin"]["tau"] == 0.2

    def test_refinement_stays_near_coarse_argmin(self, tmp_path):
        coarse = cmd_optimize(self.sweep_config(tmp_path, refine_rounds=0))
        fine = cmd_optimize(self.sweep_config(tmp_path, refine_rounds=2))
        assert abs(fine["argmin"]["lambda"] - coarse["argmin"]["lambda"]) <= 0.5
        assert abs(fine["argmin"]["tau"] - coarse["argmin"]["tau"]) <= 0.3
        assert fine["argmin"]["objective"] <= coarse["argmin"]["objective"] + 1e-12

    def test_shared_scale_sets_change_no_byte(self, tmp_path, monkeypatch):
        import levydam.cli as cli
        import levydam.costs as costs

        cfg = self.sweep_config(tmp_path, model={
            "kind": "compound_poisson", "zeta": 2.0, "rate": 1.0,
            "jump_mean": 1.0})
        cfg["sweep"]["tau"] = 0.5
        builds = []

        def counted(*args, **kwargs):
            builds.append(args[1:])
            return real_set(*args, **kwargs)

        real_set = costs.ScaleFunctionSet
        monkeypatch.setattr(costs, "ScaleFunctionSet", counted)
        shared = json.dumps(cmd_optimize(cfg))
        # three policies of one tau: one fill and one release set at alpha 0
        assert len(builds) == 2
        builds.clear()
        monkeypatch.setattr(cli, "PolicyEvaluator",
                            lambda *a, scale_sets, **k: PolicyEvaluator(*a, **k))
        assert json.dumps(cmd_optimize(cfg)) == shared
        assert len(builds) == 6
