"""End-to-end tests of the command line front end: every subcommand, the
deterministic-output contract, and the exit-code protocol."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from dsdprior import cli
from dsdprior._io import read_matrix_market, sha256_file, write_csv
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
        np.testing.assert_array_equal(k.toarray(), build_rw(order=2, n_g=12).precision.toarray())
        assert (out / "manifest.json").exists()

    def test_adjacency_recipe(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n")
        cfg = write_config(tmp_path / "cfg.json", {"recipe": "icar edges.txt"})
        out = tmp_path / "out"
        assert run("structure", "--config", cfg, "--out", out) == 0
        k = read_matrix_market(out / "structure.mtx")
        np.testing.assert_array_equal(k.toarray(), build_rw(order=1, n_g=3).precision.toarray())
        assert json.loads((out / "structure.json").read_text())["rank_deficiency"] == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n1 x\n", "edges.txt:2: expected two integer indices, got '1 x'"),
            ("0 1\n1 2.0\n", "edges.txt:2: expected two integer indices, got '1 2.0'"),
            ("# ring\n0 1 2\n", "edges.txt:2: expected two integer indices, got '0 1 2'"),
            ("0 1\n\n2 -1\n", "edges.txt:3: vertex indices must be nonnegative"),
            ("0 1\n1 1\n", "edges.txt:2: self loops are not allowed"),
            ("# no edges\n\n", "edges.txt: edge list is empty"),
        ],
        ids=["bad-token", "float-token", "three-columns", "negative", "self-loop", "empty"],
    )
    def test_edge_list_rejections_name_their_line(self, tmp_path, capsys, text, message):
        (tmp_path / "edges.txt").write_text(text)
        cfg = write_config(tmp_path / "cfg.json", {"recipe": "icar edges.txt"})
        assert run("structure", "--config", cfg, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_repeated_edges_are_one_edge(self, tmp_path):
        # a sparse build that summed the repeats would give W entries of 2,
        # which build_icar refuses
        blobs = []
        for tag, text in (("once", "0 1\n1 2\n"), ("repeated", "0 1\n1 0\n1 2\n0 1\n2 1\n")):
            (tmp_path / f"{tag}.edges").write_text(text)
            cfg = write_config(tmp_path / f"{tag}.json", {"recipe": f"icar {tag}.edges"})
            assert run("structure", "--config", cfg, "--out", tmp_path / tag) == 0
            blobs.append((tmp_path / tag / "structure.mtx").read_bytes())
        assert blobs[0] == blobs[1]
        k = read_matrix_market(tmp_path / "repeated" / "structure.mtx")
        np.testing.assert_array_equal(k.toarray(), build_rw(order=1, n_g=3).precision.toarray())

    def test_structure_file_is_coordinate_layout(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"recipe": "rw1 3"})
        assert run("structure", "--config", cfg, "--out", tmp_path / "out") == 0
        head = (tmp_path / "out" / "structure.mtx").read_text().splitlines()[0]
        assert head == "%%MatrixMarket matrix coordinate real general"

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
        a = read_matrix_market(out1 / "structure.mtx").toarray()
        b = read_matrix_market(out2 / "structure.mtx").toarray()
        np.testing.assert_array_equal(a, b)
        want = build_rw(order=2, n_g=17, circular=True).precision.toarray()
        np.testing.assert_array_equal(a, want)

    def test_bad_recipe_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"recipe": "rw7 10"})
        assert run("structure", "--config", cfg, "--out", tmp_path / "out") == 1
        cfg = write_config(tmp_path / "cfg.json", {"recipe": "rw2"})
        capsys.readouterr()
        assert run("structure", "--config", cfg, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == "error: structure recipe must be '<kind> <argument>', got 'rw2'\n"
        assert not (tmp_path / "out").exists()

    def test_integral_float_size_is_the_size(self, tmp_path):
        # a recipe size passes the integer rule of config keys, so 20.0 is 20
        blobs = []
        for tag, recipe in (("int", "rw2 20"), ("float", "rw2 20.0")):
            cfg = write_config(tmp_path / f"{tag}.json", {"recipe": recipe})
            assert run("structure", "--config", cfg, "--out", tmp_path / tag) == 0
            blobs.append((tmp_path / tag / "structure.mtx").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        # the last three are Python float spellings that JSON does not read
        "recipe", ["rw2 20.5", "iid true", "crw1 0", "iid 0", "rw1 1_000", "rw1 +20", "rw1 \uff12\uff10"],
    )
    def test_bad_size_names_the_recipe(self, tmp_path, capsys, recipe):
        cfg = write_config(tmp_path / "cfg.json", {"recipe": recipe})
        assert run("structure", "--config", cfg, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: structure recipe {recipe!r}: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_reruns_write_identical_matrix_files(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"recipe": "crw2 1000"})
        blobs = []
        for tag in ("a", "b"):
            assert run("structure", "--config", cfg, "--out", tmp_path / tag) == 0
            blobs.append((tmp_path / tag / "structure.mtx").read_bytes())
        assert blobs[0] == blobs[1]
        k = read_matrix_market(tmp_path / "a" / "structure.mtx")
        want = build_rw(order=2, n_g=1000, circular=True).precision
        assert k.toarray().tobytes() == want.toarray().tobytes()

    def test_iid_recipe_holds_one_matrix(self):
        # a dense I of n = 3000 would be 72 MB; the recipe holds a sparse one
        tracemalloc.start()
        try:
            cli._load_structure({"recipe": "iid 3000"}, ctx=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 90e6


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

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_coordinate_matrix_files_read_as_arrays(self, tmp_path, symmetry):
        # scipy's mmwrite writes a sparse K or Z in coordinate layout, a
        # dense one as an array; both must give the same component
        k = build_rw(order=1, n_g=6).precision.toarray()
        z = np.eye(6)[[0, 1, 2, 3, 4, 5, 0, 2, 4]]
        outputs = []
        for layout, to_write in (("array", np.asarray), ("coordinate", scipy.sparse.coo_array)):
            work = tmp_path / layout
            work.mkdir()
            scipy.io.mmwrite(work / "k.mtx", to_write(k), symmetry=symmetry)
            scipy.io.mmwrite(work / "z.mtx", to_write(z))
            head = (work / "k.mtx").read_text().splitlines()[0]
            assert head == f"%%MatrixMarket matrix {layout} real {symmetry}"
            cfg = write_config(
                work / "cfg.json",
                {
                    "structure": {"recipe": "file k.mtx", "rank_deficiency": 1},
                    "design": {"kind": "selection", "path": "z.mtx"},
                    "elicitation": {"c": 1.0},
                },
            )
            for command, name in (("weights", "weights.json"), ("pipeline", "bundle.json")):
                assert run(command, "--config", cfg, "--out", work / command) == 0
                outputs.append((work / command / name).read_bytes())
        assert outputs[:2] == outputs[2:]

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

    def test_design_path_must_be_a_string(self, tmp_path, capsys):
        design, structure = {"kind": "selection", "path": 5}, {"recipe": "rw1 5"}
        cfg = write_config(tmp_path / "w.json", {"design": design, "structure": structure})
        assert run("weights", "--config", cfg, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == "error: design config key 'path' must be a file path, got 5\n"
        assert not (tmp_path / "out").exists()
        design = {"kind": "selection"}
        cfg = write_config(tmp_path / "w.json", {"design": design, "structure": structure})
        assert run("weights", "--config", cfg, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            "error: design config needs 'values', 'path', or a basis recipe with 'x' and 'm'\n"
        )
        assert not (tmp_path / "out").exists()

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


class TestThreadInvariance:
    def test_spectrum_routes_write_the_same_bytes(self, tmp_path):
        # the closed-form (crw2 identity) and banded (lattice ICAR identity,
        # one-hot rw1 selection labelled basis) routes at 1 and 2 BLAS
        # threads; effect-map designs hold their bytes only at a fixed count
        v = np.arange(200).reshape(5, 40)
        edges = [*zip(v[:, :-1].ravel(), v[:, 1:].ravel()), *zip(v[:-1].ravel(), v[1:].ravel())]
        (tmp_path / "lattice.edges").write_text("".join(f"{a} {b}\n" for a, b in edges))
        rng = np.random.default_rng(9)
        regions = rng.permutation(np.concatenate([np.arange(40), rng.integers(0, 40, 8)]))
        selection = np.eye(40)[regions].tolist()
        designs = {
            "crw2": ({"recipe": "crw2 366"}, {"kind": "identity"}),
            "icar": ({"recipe": "icar lattice.edges"}, {"kind": "identity"}),
            "rw1": ({"recipe": "rw1 40"}, {"kind": "basis", "values": selection}),
        }
        for name, (structure, design) in designs.items():
            write_config(tmp_path / f"{name}.json", {"structure": structure, "design": design})
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys; from dsdprior.cli import main; "
            "sys.exit(max(main(['weights', '--config', c, '--out', c[:-5] + sys.argv[1]])"
            " for c in sys.argv[2:]))"
        )
        configs = [str(tmp_path / f"{name}.json") for name in designs]
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": str(src),
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
            }
            subprocess.run([sys.executable, "-c", code, threads, *configs], env=env, check=True)
        for name in designs:
            one, two = ((tmp_path / f"{name}{t}" / "weights.json").read_bytes() for t in "12")
            assert one == two, name


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

    @pytest.mark.parametrize("weights", [["1.0", 2.0], [True, 2.0]], ids=["string", "bool"])
    def test_document_weights_must_be_real(self, tmp_path, capsys, weights):
        doc = write_config(
            tmp_path / "weights.json", {"weights": weights, "n_predictor": 10, "zero_count": 1}
        )
        cfg = write_config(tmp_path / "a.json", {"weights": str(doc)})
        assert run("approx", "--config", cfg, "--out", tmp_path / "o") == 1
        assert "weights must be a real number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_inline_weights_are_rejected(self, tmp_path, capsys):
        doc = {"weights": [1.0, 2.0], "n_predictor": 10, "zero_count": 1}
        cfg = write_config(tmp_path / "a.json", {"weights": doc})
        assert run("approx", "--config", cfg, "--out", tmp_path / "o") == 1
        assert "config key 'weights'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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

    @pytest.mark.parametrize("kind", ["gaussian", "user_supplied"])
    def test_known_bound_is_given_as_c(self, tmp_path, capsys, kind):
        # a Gaussian response's sample variance, or any known bound, is c
        likelihood = {"kind": kind, "value": 2.0}
        cfg = write_config(tmp_path / "cfg.json", {"n": 50, "likelihood": likelihood})
        assert run("elicit", "--config", cfg, "--out", tmp_path / "out") == 1
        assert "unknown likelihood kind" in capsys.readouterr().err

    def test_mean_too_close_to_zero_is_a_config_error(self, tmp_path, capsys):
        likelihood = {"kind": "binomial_probit", "value": 1e-300}
        cfg = write_config(tmp_path / "cfg.json", {"n": 50, "likelihood": likelihood})
        assert run("elicit", "--config", cfg, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: binomial_probit mean 1e-300") and "Traceback" not in err

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
        cfg = write_config(tmp_path / "cfg.json", {"params": GENERIC_PARAMS, "grid_points": 64})
        out = tmp_path / "out"
        assert run("prior", "--config", cfg, "--out", out) == 0
        grid = np.loadtxt(out / "prior_sd_grid.csv", delimiter=",", skiprows=1)
        assert grid.shape == (64, 2)
        t, pdf = grid.T
        theta = DsdParams(**GENERIC_PARAMS)
        np.testing.assert_allclose(pdf, 2.0 * t * dsd_pdf(t * t, theta), rtol=1e-12)
        # the sd column reuses the variance grid's pdf, so it matches bit for bit
        s, s_pdf, _ = np.loadtxt(out / "prior_grid.csv", delimiter=",", skiprows=1).T
        np.testing.assert_array_equal(t, np.sqrt(s))
        np.testing.assert_array_equal(pdf, 2.0 * np.sqrt(s) * s_pdf)

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        bad = dict(GENERIC_PARAMS)
        bad["p"] = 1e-7
        cfg = write_config(tmp_path / "cfg.json", {"params": bad})
        assert run("prior", "--config", cfg, "--out", tmp_path / "out") == 2
        # a power this small leaves the quadrature no finite window
        bad["p"] = 1e-307
        cfg = write_config(tmp_path / "cfg.json", {"params": bad})
        capsys.readouterr()
        assert run("prior", "--config", cfg, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            "numerical failure: tanh-sinh window is not finite at this power\n"
            "  power: 1e-307\n"
        )
        assert not (tmp_path / "out").exists()

    def test_grid_points_is_an_integer_key(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", {"params": GENERIC_PARAMS, "grid_points": 30.0})
        out = tmp_path / "out"
        assert run("prior", "--config", cfg, "--out", out) == 0
        assert np.loadtxt(out / "prior_grid.csv", delimiter=",", skiprows=1).shape == (30, 3)
        assert json.loads((out / "manifest.json").read_text())["settings"] == {"grid_points": 30}

    def test_grid_needs_two_points(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"params": GENERIC_PARAMS, "grid_points": 1})
        assert run("prior", "--config", cfg, "--out", tmp_path / "out") == 1
        assert "config key 'grid_points' must be >= 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def test_lattice_icar_holds_no_dense_matrix(self, tmp_path):
        # a 60 x 60 lattice: one dense 3600 x 3600 K, adjacency or Z = I
        # would be 104 MB; K and Z are sparse and the weights come from
        # the banded route
        v = np.arange(3600).reshape(60, 60)
        edges = [(a, b) for a, b in zip(v[:, :-1].ravel(), v[:, 1:].ravel())]
        edges += [(a, b) for a, b in zip(v[:-1].ravel(), v[1:].ravel())]
        (tmp_path / "lattice.edges").write_text("".join(f"{a} {b}\n" for a, b in edges))
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "design": {"kind": "identity"},
                "structure": {"recipe": "icar lattice.edges"},
                "elicitation": {"c": 1.0},
            },
        )
        tracemalloc.start()
        try:
            code = run("pipeline", "--config", cfg, "--out", tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 20e6


class TestOutputLayout:
    """Each JSON output keeps a flat layout: the library records' fields
    sit at the top level beside the labels the command adds."""

    def test_key_sets(self, tmp_path):
        structure, design = {"recipe": "rw2 30"}, {"kind": "identity"}
        configs = {
            "weights": {"structure": structure, "design": design},
            "approx": {"weights": str(tmp_path / "weights" / "weights.json")},
            "elicit": {"n": 30, "c": 1.5},
            "pipeline": {
                "structure": structure, "design": design, "elicitation": {"n": 30, "c": 1.5},
            },
        }
        docs = {}
        for command, payload in configs.items():
            cfg = write_config(tmp_path / f"{command}.json", payload)
            assert run(command, "--config", cfg, "--out", tmp_path / command) == 0
            (name,) = {path.name for path in (tmp_path / command).iterdir()} - {"manifest.json"}
            docs[name] = json.loads((tmp_path / command / name).read_text())
        weight_keys = {"weights", "n_predictor", "zero_count"}
        scale_keys = {"b", "quantile", "pi0", "c"}
        assert set(docs["weights.json"]) == weight_keys | {
            "constrained", "design_kind", "structure_label",
        }
        assert set(docs["approx.json"]) == {"alpha_tilde", "beta_tilde", "n_predictor"}
        assert set(docs["elicit.json"]) == scale_keys | {"n", "p", "q"}
        bundle = docs["bundle.json"]
        assert set(bundle) == weight_keys | {"label", "params", "scale", "provenance"}
        assert set(bundle["scale"]) == scale_keys
        assert set(bundle["params"]) == {"alpha", "beta", "alpha_tilde", "beta_tilde", "b", "p", "q"}

    def test_csv_refuses_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError, match="^cannot serialize non-finite value nan$"):
            write_csv(tmp_path / "x.csv", ("s",), (np.array([1.0, np.nan]),))
        # no truncated file is left behind
        assert not (tmp_path / "x.csv").exists()


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

    def test_failing_check_exits_numerical(self, tmp_path, capsys, monkeypatch):
        # a residual of 1 misses every residual check's 1e-4 bound
        monkeypatch.setattr(cli, "integral_equation_residual", lambda theta, v: np.ones(np.size(v)))
        cfg = write_config(tmp_path / "cfg.json", {"mc_draws": 2_000})
        out = tmp_path / "out"
        assert run("verify", "--config", cfg, "--out", out) == 2
        failed = "residual[generic], residual[pspline-m5], residual[pspline-m20]"
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: verification battery failed: {failed}\n")
        doc = json.loads((out / "verify.json").read_text())
        assert doc["all_passed"] is False
        assert [check["name"] for check in doc["checks"] if not check["passed"]] == failed.split(", ")

    def test_single_weight_check_compares_independent_code(self, tmp_path):
        # the series' single term against erf: agreement to rounding, not 0 by construction
        cfg = write_config(tmp_path / "cfg.json", {"mc_draws": 2_000})
        assert run("verify", "--config", cfg, "--out", tmp_path / "out") == 0
        checks = json.loads((tmp_path / "out" / "verify.json").read_text())["checks"]
        (single,) = [check for check in checks if check["name"] == "weighted-chi2[single]"]
        assert 0.0 < single["statistic"] <= single["threshold"] == 1e-10


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


    def test_inputs_keyed_by_their_spelling(self, tmp_path):
        # two files of one name in two directories keep two digests
        k = build_rw(order=1, n_g=6).precision
        for folder, matrix in (("a", k), ("b", scipy.sparse.eye_array(6, format="coo"))):
            (tmp_path / folder).mkdir()
            scipy.io.mmwrite(tmp_path / folder / "m.mtx", matrix)
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "structure": {"recipe": "file a/m.mtx", "rank_deficiency": 1},
                "design": {"kind": "selection", "path": "b/m.mtx"},
                "elicitation": {"c": 1.0},
            },
        )
        out = tmp_path / "out"
        assert run("pipeline", "--config", cfg, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text())["inputs"] == {
            "cfg.json": sha256_file(cfg),
            "a/m.mtx": sha256_file(tmp_path / "a" / "m.mtx"),
            "b/m.mtx": sha256_file(tmp_path / "b" / "m.mtx"),
        }

    def test_records_blas_builds_and_thread_variables(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = write_config(tmp_path / "cfg.json", {"n": 30, "c": 1.0})
        blobs = []
        for tag in ("a", "b"):
            assert run("elicit", "--config", cfg, "--out", tmp_path / tag) == 0
            blobs.append((tmp_path / tag / "manifest.json").read_bytes())
        assert blobs[0] == blobs[1]
        manifest = json.loads(blobs[0])
        assert set(manifest["blas"]) == {"numpy", "scipy"}
        for build in manifest["blas"].values():
            assert set(build) == {"name", "version"}
        threads = manifest["threads"]
        assert set(threads) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert threads["OMP_NUM_THREADS"] == "1"
        assert threads["MKL_NUM_THREADS"] is None


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

    @pytest.mark.parametrize("payload", [[], 0, False, "", None])
    def test_empty_value_is_not_an_empty_config(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert run("verify", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == "error: config must be a JSON object\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["prior", "sample"])
    @pytest.mark.parametrize("params", [[1], 5, "b", None])
    def test_params_that_is_not_an_object(self, tmp_path, capsys, command, params):
        cfg = write_config(tmp_path / "cfg.json", {"params": params, "count": 10})
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == "error: params config must be a JSON object\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "params, message",
        [
            ({k: v for k, v in GENERIC_PARAMS.items() if k != "q"},
             "params config is missing required key 'q'"),
            ({**GENERIC_PARAMS, "scale": 2.0}, "params config has unknown keys ['scale']"),
        ],
        ids=["missing", "unknown"],
    )
    def test_params_keys(self, tmp_path, capsys, params, message):
        cfg = write_config(tmp_path / "cfg.json", {"params": params})
        assert run("prior", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", {"c": 1.0})
        assert run("elicit", "--config", cfg, "--out", tmp_path / "o") == 1
        likelihood = {"kind": "binomial_logit", "value": 0.5}
        for payload in ({"n": 30}, {"n": 30, "c": 1.0, "likelihood": likelihood}):
            cfg = write_config(tmp_path / "cfg.json", payload)
            capsys.readouterr()
            assert run("elicit", "--config", cfg, "--out", tmp_path / "o") == 1
            assert capsys.readouterr().err == (
                "error: give exactly one of 'c' or 'likelihood' in the elicitation config\n"
            )
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("pipeline", "--threads"),
            ("prior", "--grid-points"),
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
            ("prior", {"params": GENERIC_PARAMS, "grid_points": 2.5}),
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


IID1 = {"recipe": "iid 1"}
RW2_5 = {"recipe": "rw2 5"}


def _covariate(values):
    return {"kind": "covariate-column", "values": values}


def _basis(x=(0.0, 0.5, 1.0), bounds=(0.0, 1.0)):
    return {"kind": "basis", "x": list(x), "m": 5, "bounds": list(bounds)}


class TestRealKeys:
    """Float config keys and arrays take JSON numbers; a string or a
    boolean, alone or as an array entry, exits 1 rather than being read
    as a number."""

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("elicit", {"n": 50, "c": "2.0"}),
            ("elicit", {"n": 50, "c": 2.0, "p": True}),
            ("elicit", {"n": 50, "c": 2.0, "pi0": "0.5"}),
            ("elicit", {"n": 50, "likelihood": {"kind": "binomial_logit", "value": "0.27"}}),
            ("sample", {"params": {**GENERIC_PARAMS, "beta": "24.5"}, "count": 10}),
            ("sample", {"params": {**GENERIC_PARAMS, "b": True}, "count": 10}),
            ("prior", {"params": {**GENERIC_PARAMS, "q": "1.5"}}),
            ("weights", {"design": _covariate([["0.3"], [1.2], [2.0]]), "structure": IID1}),
            ("weights", {"design": _covariate([[0.3], [True], [2.0]]), "structure": IID1}),
            ("weights", {"design": _basis(x=["0.0", 0.5, 1.0]), "structure": RW2_5}),
            ("weights", {"design": _basis(bounds=["-1", 1]), "structure": RW2_5}),
            ("weights", {"design": _basis(bounds=[False, 1]), "structure": RW2_5}),
        ],
        ids=[
            "c-string", "p-bool", "pi0-string", "mean-string", "beta-string", "b-bool", "q-string",
            "values-string", "values-bool", "x-string", "bounds-string", "bounds-bool",
        ],
    )
    def test_non_number_is_rejected(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert run(command, "--config", cfg, "--out", tmp_path / "o") == 1
        assert "must be a real number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_infinite_bounds_are_rejected(self, tmp_path, capsys):
        # JSON's Infinity reads as a float; the basis refuses it before any arithmetic
        design = _basis(bounds=[0.0, float("inf")])
        cfg = write_config(tmp_path / "cfg.json", {"design": design, "structure": RW2_5})
        assert "Infinity" in cfg.read_text()
        assert run("weights", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == "error: bounds must be finite\n"

    def test_integer_value_is_the_float(self, tmp_path):
        docs = []
        for tag, c in (("int", 2), ("float", 2.0)):
            cfg = write_config(tmp_path / f"{tag}.json", {"n": 50, "c": c, "pi0": 0.5})
            assert run("elicit", "--config", cfg, "--out", tmp_path / tag) == 0
            docs.append((tmp_path / tag / "elicit.json").read_bytes())
        assert docs[0] == docs[1]


class TestReadmeFlagTable:
    def test_table_lists_the_registered_flags(self):
        # one parser registers --config and --out for every command and
        # nothing else, and the README says so in one sentence instead of a
        # flag table
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        assert "The only flags are `--config` and `--out`" in text
        assert "| flag |" not in text
        parser = cli._build_parser()
        options = sorted(option for action in parser._actions for option in action.option_strings)
        assert options == ["--config", "--help", "--out", "-h"]
        (command,) = (action for action in parser._actions if action.dest == "command")
        assert command.choices is cli._COMMANDS


class TestImportGraph:
    @staticmethod
    def _loaded_after_cli_import(*modules):
        src = Path(cli.__file__).resolve().parents[1]
        code = f"import sys, dsdprior.cli; print([m for m in {modules!r} if m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.strip()

    def test_cli_import_leaves_scipy_stats_out(self):
        # scipy.stats alone costs about half a second of command start-up,
        # scipy.integrate about 40 ms
        assert self._loaded_after_cli_import("scipy.stats", "scipy.integrate") == "[]"

    def test_cli_import_leaves_scipy_interpolate_out(self):
        # about 25 ms even with scipy.optimize loaded; only B-spline
        # basis designs import it
        assert self._loaded_after_cli_import("scipy.interpolate") == "[]"
