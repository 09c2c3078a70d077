"""End-to-end tests of the command line front end: every subcommand, the
deterministic-output contract, and the exit-code protocol."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dsdprior import cli
from dsdprior._io import read_matrix_market, sha256_file
from dsdprior.elicit import ElicitationSpec, build_dsd_prior, solve_scale
from dsdprior.priors import DsdParams, dsd_cdf_quantile, dsd_pdf, dsd_sample
from dsdprior.qf import gamma_approx
from dsdprior.structure import DesignMatrix, StructureSpec, build_rw, qf_weights

GENERIC_PARAMS = {
    "alpha": 24.5, "beta": 24.5, "alpha_tilde": 1.43, "beta_tilde": 0.061,
    "b": 1.0, "p": 0.5, "q": 1.5,
}


def run(*args):
    return cli.main([str(a) for a in args])


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestStructureCommand:
    def test_random_walk_recipe(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"recipe": "rw2 12"})
        out = tmp_path / "out"
        assert run("structure", "--config", cfg, "--out", out) == 0
        meta = json.loads((out / "structure.json").read_text())
        assert meta["n_g"] == 12
        assert meta["rank_deficiency"] == 2
        k = read_matrix_market(out / "structure.mtx")
        np.testing.assert_array_equal(k, build_rw(order=2, n_g=12).precision)
        assert (out / "manifest.json").exists()

    def test_adjacency_recipe(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        cfg = write_config(tmp_path / "cfg.json", {"recipe": "icar edges.txt"})
        out = tmp_path / "out"
        assert run("structure", "--config", cfg, "--out", out) == 0
        k = read_matrix_market(out / "structure.mtx")
        np.testing.assert_array_equal(k, build_rw(order=1, n_g=3).precision)
        assert json.loads((out / "structure.json").read_text())["rank_deficiency"] == 1

    def test_file_recipe_round_trips_bitwise(self, tmp_path):
        cfg1 = write_config(tmp_path / "a.json", {"recipe": "crw2 17"})
        out1 = tmp_path / "out1"
        assert run("structure", "--config", cfg1, "--out", out1) == 0
        cfg2 = write_config(
            tmp_path / "b.json",
            {"recipe": f"file {out1 / 'structure.mtx'}", "rank_deficiency": 1},
        )
        out2 = tmp_path / "out2"
        assert run("structure", "--config", cfg2, "--out", out2) == 0
        a = read_matrix_market(out1 / "structure.mtx")
        b = read_matrix_market(out2 / "structure.mtx")
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, build_rw(order=2, n_g=17, circular=True).precision)

    def test_bad_recipe_is_validation_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"recipe": "rw7 10"})
        assert run("structure", "--config", cfg, "--out", tmp_path / "out") == 1


class TestWeightsCommand:
    def test_identity_design_matches_library(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"design": {"kind": "identity"}, "structure": {"recipe": "rw2 40"}},
        )
        out = tmp_path / "out"
        assert run("weights", "--config", cfg, "--out", out) == 0
        doc = json.loads((out / "weights.json").read_text())
        want = qf_weights(DesignMatrix.identity(40), build_rw(order=2, n_g=40), constrained=True)
        np.testing.assert_array_equal(np.array(doc["weights"]), want.weights)
        assert doc["n_predictor"] == 40
        assert doc["zero_count"] == want.zero_count

    def test_structure_file_read_back_bitwise(self, tmp_path):
        out1 = tmp_path / "out1"
        assert run(
            "structure",
            "--config", write_config(tmp_path / "s.json", {"recipe": "crw2 30"}),
            "--out", out1,
        ) == 0
        cfg = write_config(
            tmp_path / "w.json",
            {
                "design": {"kind": "identity"},
                "structure": {"recipe": f"file {out1 / 'structure.mtx'}", "rank_deficiency": 1},
            },
        )
        out2 = tmp_path / "out2"
        assert run("weights", "--config", cfg, "--out", out2) == 0
        doc = json.loads((out2 / "weights.json").read_text())
        # a file carries K but not the walk's closed-form spectrum, so the
        # bitwise reference is the same K without it
        walk = build_rw(order=2, n_g=30, circular=True)
        want = qf_weights(
            DesignMatrix.identity(30),
            StructureSpec(precision=walk.precision, rank_deficiency=1),
            constrained=True,
        )
        np.testing.assert_array_equal(np.array(doc["weights"]), want.weights)

    def test_structure_file_needs_rank_deficiency(self, tmp_path, capsys):
        out1 = tmp_path / "out1"
        cfg1 = write_config(tmp_path / "s.json", {"recipe": "crw2 17"})
        assert run("structure", "--config", cfg1, "--out", out1) == 0
        structure = {"recipe": f"file {out1 / 'structure.mtx'}"}
        cfg = write_config(
            tmp_path / "w.json", {"design": {"kind": "identity"}, "structure": structure}
        )
        capsys.readouterr()
        assert run("weights", "--config", cfg, "--out", tmp_path / "out2") == 1
        assert "'rank_deficiency'" in capsys.readouterr().err

    def test_structure_path_form_is_rejected(self, tmp_path, capsys):
        # the file recipe is the one way to name a structure file
        structure = {"path": "k.mtx", "rank_deficiency": 1}
        cfg = write_config(
            tmp_path / "w.json", {"design": {"kind": "identity"}, "structure": structure}
        )
        assert run("weights", "--config", cfg, "--out", tmp_path / "out") == 1
        assert "'recipe'" in capsys.readouterr().err

    def test_constrained_follows_rank_deficiency(self, tmp_path):
        # a 'constrained' key is not read: improper structures are always
        # constrained, as in build_dsd_prior
        docs = []
        for tag, extra in (("plain", {}), ("keyed", {"constrained": False})):
            cfg = write_config(
                tmp_path / f"{tag}.json",
                {"design": {"kind": "identity"}, "structure": {"recipe": "rw2 20"}, **extra},
            )
            assert run("weights", "--config", cfg, "--out", tmp_path / tag) == 0
            docs.append((tmp_path / tag / "weights.json").read_bytes())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["constrained"] is True

    def test_exchangeable_component_has_unit_weights(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"design": {"kind": "identity"}, "structure": {"recipe": "iid 12"}},
        )
        out = tmp_path / "out"
        assert run("weights", "--config", cfg, "--out", out) == 0
        doc = json.loads((out / "weights.json").read_text())
        np.testing.assert_allclose(doc["weights"], np.ones(11), rtol=1e-12)

    def test_inline_covariate_design(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=25)
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "design": {"kind": "covariate-column", "values": [[v] for v in x]},
                "structure": {"recipe": "iid 1"},
            },
        )
        out = tmp_path / "out"
        assert run("weights", "--config", cfg, "--out", out) == 0
        doc = json.loads((out / "weights.json").read_text())
        assert doc["weights"] == [pytest.approx(24.0 * np.var(x, ddof=1), rel=1e-12)]


class TestApproxCommand:
    def test_matches_library(self, tmp_path):
        out1 = tmp_path / "out1"
        run(
            "weights",
            "--config", write_config(
                tmp_path / "w.json",
                {"design": {"kind": "identity"}, "structure": {"recipe": "rw2 40"}},
            ),
            "--out", out1,
        )
        cfg = write_config(tmp_path / "a.json", {"weights": str(out1 / "weights.json")})
        out2 = tmp_path / "out2"
        assert run("approx", "--config", cfg, "--out", out2) == 0
        doc = json.loads((out2 / "approx.json").read_text())
        want = gamma_approx(
            qf_weights(DesignMatrix.identity(40), build_rw(order=2, n_g=40), constrained=True)
        )
        assert doc["alpha_tilde"] == want.alpha_tilde
        assert doc["beta_tilde"] == want.beta_tilde


class TestElicitCommand:
    def test_matches_library_bitwise(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"n": 50, "c": 2.0})
        out = tmp_path / "out"
        assert run("elicit", "--config", cfg, "--out", out) == 0
        doc = json.loads((out / "elicit.json").read_text())
        want = solve_scale(ElicitationSpec(n=50, c=2.0))
        assert doc["b"] == want.b
        assert doc["quantile"] == want.quantile

    def test_former_monte_carlo_keys_are_ignored(self, tmp_path):
        # configs written for the Monte Carlo solve keep working
        docs = []
        for tag, extra in (("old", {"mc_draws": 5000, "seed": 13}), ("new", {})):
            cfg = write_config(tmp_path / f"{tag}.json", {"n": 50, "c": 2.0, **extra})
            assert run("elicit", "--config", cfg, "--out", tmp_path / tag) == 0
            docs.append((tmp_path / tag / "elicit.json").read_bytes())
        assert docs[0] == docs[1]

    def test_likelihood_supplies_bound(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "n": 50,
                "likelihood": {"kind": "binomial_logit", "value": 0.5},
            },
        )
        out = tmp_path / "out"
        assert run("elicit", "--config", cfg, "--out", out) == 0
        assert json.loads((out / "elicit.json").read_text())["c"] == 4.0

    def test_reruns_are_byte_identical(self, tmp_path):
        payload = {"n": 30, "c": 1.0}
        outs = []
        for tag in ("x", "y"):
            cfg = write_config(tmp_path / f"{tag}.json", payload)
            out = tmp_path / tag
            assert run("elicit", "--config", cfg, "--out", out) == 0
            outs.append((out / "elicit.json").read_bytes())
        assert outs[0] == outs[1]


class TestPriorCommand:
    def test_grid_csv(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"params": GENERIC_PARAMS})
        out = tmp_path / "out"
        assert run("prior", "--config", cfg, "--out", out) == 0
        grid = np.loadtxt(out / "prior_grid.csv", delimiter=",", skiprows=1)
        assert grid.shape == (512, 3)
        s, pdf, cdf = grid.T
        assert np.all(np.diff(cdf) >= 0.0)
        theta = DsdParams(**GENERIC_PARAMS)
        curve = dsd_cdf_quantile(theta)
        assert s[0] == pytest.approx(curve.quantile(0.001), rel=1e-9)
        assert s[-1] == pytest.approx(curve.quantile(0.999), rel=1e-9)
        np.testing.assert_allclose(pdf, dsd_pdf(s, theta), rtol=1e-12)

    def test_sd_grid_uses_change_of_variables(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"params": GENERIC_PARAMS})
        out = tmp_path / "out"
        assert run("prior", "--config", cfg, "--out", out, "--grid-points", 64) == 0
        grid = np.loadtxt(out / "prior_sd_grid.csv", delimiter=",", skiprows=1)
        assert grid.shape == (64, 2)
        t, pdf = grid.T
        theta = DsdParams(**GENERIC_PARAMS)
        np.testing.assert_allclose(pdf, 2.0 * t * dsd_pdf(t * t, theta), rtol=1e-12)
        # the sd column reuses the variance grid's pdf, so it matches bit for bit
        s, s_pdf, _ = np.loadtxt(out / "prior_grid.csv", delimiter=",", skiprows=1).T
        np.testing.assert_array_equal(t, np.sqrt(s))
        np.testing.assert_array_equal(pdf, 2.0 * np.sqrt(s) * s_pdf)

    def test_numerical_failure_exit_code(self, tmp_path):
        bad = dict(GENERIC_PARAMS)
        bad["p"] = 1e-7
        cfg = write_config(tmp_path / "cfg.json", {"params": bad})
        assert run("prior", "--config", cfg, "--out", tmp_path / "out") == 2


class TestSampleCommand:
    def test_matches_library_bitwise(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"params": GENERIC_PARAMS, "count": 500, "seed": 9}
        )
        out = tmp_path / "out"
        assert run("sample", "--config", cfg, "--out", out) == 0
        got = np.loadtxt(out / "samples.csv", skiprows=1)
        want = dsd_sample(DsdParams(**GENERIC_PARAMS), 500, seed=9)
        np.testing.assert_array_equal(got, want)

    def test_numerical_failure_exit_code(self, tmp_path):
        bad = dict(GENERIC_PARAMS)
        bad["p"] = 1e-7
        cfg = write_config(tmp_path / "cfg.json", {"params": bad, "count": 100})
        assert run("sample", "--config", cfg, "--out", tmp_path / "out") == 2


class TestPipelineCommand:
    def test_end_to_end_bundle(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "design": {"kind": "identity"},
                "structure": {"recipe": "rw2 30"},
                "elicitation": {"n": 30, "c": 1.5},
            },
        )
        out = tmp_path / "out"
        assert run("pipeline", "--config", cfg, "--out", out) == 0
        doc = json.loads((out / "bundle.json").read_text())
        want = build_dsd_prior(
            DesignMatrix.identity(30),
            build_rw(order=2, n_g=30),
            ElicitationSpec(n=30, c=1.5),
        )
        assert doc["params"]["b"] == want.params.b
        assert doc["params"]["alpha"] == 14.5
        assert doc["params"]["alpha_tilde"] == want.params.alpha_tilde
        assert "weights_sha256" in doc["provenance"]

    def test_seasonal_configuration_scale(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "design": {"kind": "identity"},
                "structure": {"recipe": "crw2 366"},
                "elicitation": {"n": 366, "c": 5.16},
            },
        )
        out = tmp_path / "out"
        assert run("pipeline", "--config", cfg, "--out", out) == 0
        doc = json.loads((out / "bundle.json").read_text())
        assert doc["params"]["b"] == pytest.approx(26.5, rel=0.03)


class TestVerifyCommand:
    def test_battery_passes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"mc_draws": 30_000, "seed": 5})
        out = tmp_path / "out"
        assert run("verify", "--config", cfg, "--out", out) == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["all_passed"] is True
        names = {check["name"] for check in doc["checks"]}
        assert any("normalization" in name for name in names)
        assert any("reduction" in name for name in names)
        assert any("residual" in name for name in names)
        assert any("weighted-chi2" in name for name in names)
        assert {
            "residual[pspline-m5]",
            "residual[pspline-m20]",
            "scale-solve[mc]",
            "weighted-chi2[pairs]",
        } <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["settings"] == {"mc_draws": 30_000, "seed": 5}


class TestManifest:
    def test_records_settings_and_digests(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"n": 30, "c": 1.0})
        out = tmp_path / "out"
        assert run("elicit", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "elicit"
        assert manifest["settings"] == {}
        assert manifest["inputs"]["cfg.json"] == sha256_file(cfg)
        assert set(manifest["outputs"]) == {"elicit.json"}
        for digest in manifest["outputs"].values():
            assert len(digest) == 64
        assert "numpy" in manifest["versions"]
        blob = (out / "manifest.json").read_text()
        assert str(tmp_path) not in blob  # no absolute paths leak into the manifest

    def test_reruns_byte_identical(self, tmp_path):
        payload = {"n": 30, "c": 1.0}
        blobs = []
        for tag in ("m1", "m2"):
            cfg = write_config(tmp_path / f"{tag}.json", payload)
            out = tmp_path / tag
            assert run("elicit", "--config", cfg, "--out", out) == 0
            blobs.append((out / "manifest.json").read_bytes())
        # config file names differ, so compare everything except the inputs block
        docs = [json.loads(b) for b in blobs]
        for doc in docs:
            doc.pop("inputs")
        assert docs[0] == docs[1]


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        assert run("elicit", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == 1

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("elicit", "--config", cfg, "--out", tmp_path / "o") == 1

    def test_unknown_command(self, tmp_path):
        assert run("frobnicate", "--config", tmp_path / "x", "--out", tmp_path / "o") == 1

    def test_config_that_is_not_an_object(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", [1])
        assert run("verify", "--config", cfg, "--out", tmp_path / "o") == 1

    def test_missing_required_key(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"c": 1.0})
        assert run("elicit", "--config", cfg, "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("pipeline", "--threads"),
            ("elicit", "--seed"),
            ("elicit", "--mc-draws"),
            ("sample", "--grid-points"),
            ("sample", "--seed"),
            ("verify", "--seed"),
            ("verify", "--mc-draws"),
        ],
    )
    def test_flag_the_command_does_not_read(self, tmp_path, command, flag):
        cfg = write_config(tmp_path / "cfg.json", {"n": 30, "c": 1.0})
        assert run(command, "--config", cfg, "--out", tmp_path / "o", flag, 2) == 1
        assert not (tmp_path / "o").exists()


class TestIntegerKeys:
    """Integer config keys take 30 or 30.0; 2.7 and true exit 1 rather
    than being truncated."""

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("sample", {"params": GENERIC_PARAMS, "count": 2.7, "seed": 1}),
            ("sample", {"params": GENERIC_PARAMS, "count": 2, "seed": 1.9}),
            ("sample", {"params": GENERIC_PARAMS, "count": True}),
            ("elicit", {"n": 30.9, "c": 1.0}),
            ("elicit", {"n": True, "c": 1.0}),
            ("verify", {"mc_draws": 2000.5}),
            ("verify", {"seed": True}),
            (
                "weights",
                {
                    "design": {"kind": "identity"},
                    "structure": {"recipe": "file k.mtx", "rank_deficiency": 1.5},
                },
            ),
            (
                "weights",
                {
                    "design": {"kind": "basis", "x": [0.0, 0.5, 1.0], "m": 5.5},
                    "structure": {"recipe": "rw2 5"},
                },
            ),
            (
                "weights",
                {
                    "design": {"kind": "basis", "x": [0.0, 0.5, 1.0], "m": 5, "degree": True},
                    "structure": {"recipe": "rw2 5"},
                },
            ),
        ],
    )
    def test_non_integer_is_rejected(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 1
        assert "must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_is_the_integer(self, tmp_path):
        blobs = []
        for tag, count, seed in (("int", 30, 9), ("float", 30.0, 9.0)):
            cfg = write_config(
                tmp_path / f"{tag}.json", {"params": GENERIC_PARAMS, "count": count, "seed": seed}
            )
            out = tmp_path / tag
            assert run("sample", "--config", cfg, "--out", out) == 0
            blobs.append((out / "samples.csv").read_bytes())
            assert json.loads((out / "manifest.json").read_text())["settings"] == {"seed": 9}
        assert blobs[0] == blobs[1]
        want = dsd_sample(DsdParams(**GENERIC_PARAMS), 30, seed=9)
        got = np.loadtxt(tmp_path / "int" / "samples.csv", skiprows=1)
        np.testing.assert_array_equal(got, want)

    def test_integral_float_n_elicits_that_n(self, tmp_path):
        docs = []
        for tag, n in (("int", 30), ("float", 30.0)):
            cfg = write_config(tmp_path / f"{tag}.json", {"n": n, "c": 1.0})
            assert run("elicit", "--config", cfg, "--out", tmp_path / tag) == 0
            docs.append((tmp_path / tag / "elicit.json").read_bytes())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["n"] == 30


class TestReadmeFlagTable:
    def test_table_lists_the_registered_flags(self):
        # the README's flag table must name exactly the (command, flag)
        # pairs the parser registers beyond --config and --out
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        start = lines.index("| flag | commands | meaning |")
        documented = set()
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            flag_cell, commands_cell = line.split("|")[1:3]
            flag = re.findall(r"`(--[\w-]+)", flag_cell)[0]
            documented |= {(cmd, flag) for cmd in re.findall(r"`(\w+)`", commands_cell)}
        parser = cli._build_parser()
        (subparsers,) = (a for a in parser._actions if a.choices and a.dest == "command")
        registered = {
            (name, option)
            for name, sub in subparsers.choices.items()
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option not in ("--config", "--out", "--help")
        }
        assert registered == documented
        assert registered == {("prior", "--grid-points")}


class TestImportGraph:
    def test_cli_import_leaves_scipy_stats_out(self):
        # scipy.stats alone costs about half a second of command start-up,
        # scipy.integrate about 40 ms
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys, dsdprior.cli; "
            "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"
