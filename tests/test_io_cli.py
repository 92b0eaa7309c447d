import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import modular_ppt
from modular_ppt import gns
from modular_ppt.cli import RunConfig, config_from_args, build_parser, main, run_command
from modular_ppt.constructions import AnticommutatorInstance, instance_residual, random_anticommutator_instance
from modular_ppt.errors import ContractError
from modular_ppt.io import (
    MatrixFileError,
    load_matrix,
    matrix_from_payload,
    matrix_to_payload,
    report_body_text,
    save_matrix,
    save_report,
)
from modular_ppt.linalg import BipartiteShape, hermitize, partial_transpose
from modular_ppt.rand import complex_gaussian, generator, random_faithful_density


class TestMatrixFiles:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        m = complex_gaussian(rng, 3, 3)
        path = str(tmp_path / "m.json")
        save_matrix(m, path, kind="generic")
        loaded, meta = load_matrix(path)
        assert np.array_equal(loaded, m)
        assert meta["kind"] == "generic"

    def test_density_kind_validated(self, tmp_path):
        path = str(tmp_path / "bad.json")
        save_matrix(0.9 * np.eye(2) / 2, path, kind="generic")
        payload = json.load(open(path))
        payload["kind"] = "density"
        with pytest.raises(MatrixFileError) as err:
            matrix_from_payload(payload)
        assert "trace" in str(err.value)

    def test_hermitian_kind_validated(self):
        payload = matrix_to_payload(np.array([[0, 1], [0, 0]], dtype=complex), kind="generic")
        payload["kind"] = "hermitian"
        with pytest.raises(MatrixFileError):
            matrix_from_payload(payload)

    def test_missing_field_named(self):
        with pytest.raises(MatrixFileError) as err:
            matrix_from_payload({"schema_version": "1", "rows": 2, "cols": 2, "re": [[0, 0], [0, 0]]})
        assert err.value.field == "im"

    @pytest.mark.parametrize("shape", [
        {"dim_a": 2}, {"dim_a": "1", "dim_b": 2}, [1, 2], None, {"dim_a": 1.5, "dim_b": 2},
        {"dim_a": 0, "dim_b": 2}, {"dim_a": True, "dim_b": 2}, {"dim_a": 2, "dim_b": 2},
    ], ids=["missing-dim-b", "string", "list", "null", "float", "zero", "bool", "does-not-split-rows"])
    def test_malformed_shape_field_named(self, shape):
        payload = matrix_to_payload(np.eye(2) / 2, kind="density")
        payload["shape"] = shape
        with pytest.raises(MatrixFileError) as err:
            matrix_from_payload(payload)
        assert err.value.field == "shape"

    def test_shape_field_on_a_non_square_matrix_named(self):
        payload = matrix_to_payload(np.ones((2, 4)), kind="generic", shape=BipartiteShape(1, 2))
        with pytest.raises(MatrixFileError) as err:
            matrix_from_payload(payload)
        assert err.value.field == "shape"

    def test_malformed_json_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(MatrixFileError):
            load_matrix(str(path))

    def test_atomic_report_write(self, tmp_path):
        path = str(tmp_path / "report.json")
        save_report({"body": {"x": 1}}, path)
        assert json.load(open(path))["body"]["x"] == 1
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]


class TestMatrixFileDensityRejection:
    def test_eye4_fails_density_contract(self, tmp_path):
        # trace 4 violates the declared density kind on load
        path = str(tmp_path / "i4.json")
        save_matrix(np.eye(4), path, kind="density", shape=BipartiteShape(2, 2))
        with pytest.raises(MatrixFileError) as err:
            load_matrix(path)
        assert "trace" in str(err.value)


class TestRunCommand:
    def test_determinism_byte_identical_bodies(self):
        cfg = RunConfig(command="gns-verify", seed=11, dims=3, samples=25)
        _, report1 = run_command(cfg)
        _, report2 = run_command(cfg)
        assert report_body_text(report1["body"]) == report_body_text(report2["body"])

    def test_ppt_check_singlet(self, tmp_path, singlet):
        path = str(tmp_path / "singlet.json")
        save_matrix(singlet, path, kind="density", shape=BipartiteShape(2, 2))
        cfg = RunConfig(command="ppt-check", dims=(2, 2), in_path=path)
        code, report = run_command(cfg)
        assert code == 0
        results = report["body"]["results"]
        assert results["ppt"] is False
        assert results["min_eig_gamma"] == pytest.approx(-0.5, abs=1e-10)

    @pytest.mark.parametrize("npt,kind", [(True, "density"), (False, "density"), (True, "hermitian")],
                             ids=["singlet", "maximally-mixed", "hermitian"])
    def test_ppt_check_decomposes_the_partial_transpose_once(self, monkeypatch, tmp_path, singlet, npt, kind):
        # one eigvalsh for the density check (on load for a density file, else by the runner), one eigh of D^Gamma
        path = str(tmp_path / "d.json")
        save_matrix(singlet if npt else np.eye(4) / 4, path, kind=kind, shape=BipartiteShape(2, 2))
        calls = []

        def counted(name, solver):
            def call(*args, **kwargs):
                calls.append(name)
                return solver(*args, **kwargs)
            return call

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        _, report = run_command(RunConfig(command="ppt-check", in_path=path))
        assert sorted(calls) == ["eigh", "eigvalsh"]
        assert report["body"]["results"]["witness_found"] is npt

    @pytest.mark.parametrize("ppt", [True, False], ids=["ppt", "npt"])
    def test_ppt_check_min_eig_matches_eigvalsh(self, tmp_path, singlet, ppt):
        # generic states: 0.3 of a random density mixed into I/4 (PPT) or into the singlet (NPT)
        shape = BipartiteShape(2, 2)
        d = 0.7 * (np.eye(4) / 4 if ppt else singlet) + 0.3 * random_faithful_density(generator(ppt + 3), 4)
        path = str(tmp_path / "d.json")
        save_matrix(d, path, kind="density", shape=shape)
        results = run_command(RunConfig(command="ppt-check", in_path=path))[1]["body"]["results"]
        expected = np.linalg.eigvalsh(hermitize(partial_transpose(d, shape, "B")))[0]
        assert results["ppt"] is ppt and bool(expected >= 0) is ppt
        assert abs(results["min_eig_gamma"] - expected) <= 1e-15

    def test_report_file_written(self, tmp_path):
        out = str(tmp_path / "report.json")
        cfg = RunConfig(command="choi", dims=(2, 2), seed=1, out_path=out)
        code, _ = run_command(cfg)
        assert code == 0
        saved = json.load(open(out))
        assert saved["body"]["command"] == "choi"
        assert "timing" in saved

    def test_experiment_timing_tallies_the_sampler(self):
        code, report = run_command(RunConfig(command="experiment", dims=(2, 2), samples=20))
        timing = report["timing"]
        assert set(timing) == {"seconds", "dykstra_sweeps", "dykstra_sweeps_p90", "dykstra_snaps"}
        # every sample takes at least one sweep; the sampler converges without snaps here
        assert timing["dykstra_sweeps"] >= 20 and timing["dykstra_sweeps_p90"] >= 1
        assert timing["dykstra_snaps"] == 0
        assert not any(key.startswith("dykstra") for key in report["body"]["results"])

    def test_shape_read_from_file(self, tmp_path, singlet):
        path = str(tmp_path / "singlet.json")
        save_matrix(singlet, path, kind="density", shape=BipartiteShape(2, 2))
        cfg = RunConfig(command="ppt-check", in_path=path)
        code, report = run_command(cfg)
        assert code == 0 and report["body"]["results"]["ppt"] is False

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)], ids=["2x2", "2x3"])
    def test_construct_separable_bracket_closes(self, dims):
        # PPT = separable in 2x2 and 2x3, so the bracket closes on the PPT cone vector
        code, report = run_command(RunConfig(command="construct", dims=dims, seed=1))
        results = report["body"]["results"]
        assert code == 0 and results["xi_inside"]
        assert 0.0 <= results["separable_lower_bound"] <= results["separable_bound"] <= 1e-9
        assert not results["candidate_ppt_not_separable"]

    def test_construct_3x3_reports_a_bracket(self):
        code, report = run_command(RunConfig(command="construct", dims=(3, 3), seed=1))
        results = report["body"]["results"]
        assert code == 0
        assert 0.0 <= results["separable_lower_bound"] <= results["separable_bound"]
        assert 1 <= results["separable_terms"] <= 81


class TestCliMain:
    def test_exit_zero_on_pass(self, capsys):
        assert main(["choi", "--dims", "2x2", "--seed", "3"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["passed"] is True

    def test_exit_two_on_bad_input(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["ppt-check", "--in", str(path), "--dims", "2x2"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "MatrixFileError"

    def test_exit_two_on_missing_dims(self, capsys):
        assert main(["hierarchy"]) == 2

    @pytest.mark.parametrize("argv", [
        ["gns-verify", "--dims", "0"],
        ["cone-check", "--dims", "0"],
        ["gns-verify", "--dims", "-1"],
        ["gns-verify", "--dims", "4097"],
        ["experiment", "--dims", "64x65"],
        ["anticomm", "--dims", "2x100000"],
        ["choi", "--dims", "100x100"],
        ["choi", "--dims", "2x2", "--seed", "-1"],
        ["experiment", "--dims", "2x2", "--seed", str(2**32)],
    ], ids=["gns-verify-zero", "cone-check-zero", "negative", "gns-verify-over-cap", "experiment-over-cap",
            "anticomm-over-cap", "choi-over-cap", "negative-seed", "seed-2^32"])
    def test_exit_two_on_dims_or_seed_out_of_range(self, argv, capsys):
        assert main(argv) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ContractError" and argv[-2] in diagnostic["error"]

    def test_hierarchy_runs_at_the_last_seed(self, capsys):
        # the block test draws its seed from the report's generator, so every seed below 2^32 runs
        assert main(["hierarchy", "--dims", "2x2", "--seed", str(2**32 - 1), "--samples", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_exit_two_on_malformed_shape_field(self, tmp_path, capsys):
        path = tmp_path / "noshape.json"
        payload = matrix_to_payload(np.eye(4) / 4, kind="density")
        payload["shape"] = {"dim_a": 2}
        path.write_text(json.dumps(payload))
        assert main(["ppt-check", "--in", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["field"] == "shape"

    @pytest.mark.parametrize("name,content,field", [
        ("missing.json", None, "path"),
        (".", None, "path"),  # the directory itself
        ("latin1.json", b'{"kind": "\xe9"}', "json"),
        ("number.json", b"4", "json"),
        ("null.json", b"null", "json"),
        ("list.json", b"[]", "json"),
    ], ids=["missing", "directory", "not-utf-8", "number", "null", "list"])
    def test_exit_two_on_unreadable_matrix_file(self, tmp_path, capsys, name, content, field):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        assert main(["ppt-check", "--in", str(path), "--dims", "2x2"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "MatrixFileError" and diagnostic["field"] == field

    @pytest.mark.parametrize("out", ["missing/report.json", "."], ids=["missing-directory", "directory"])
    def test_exit_two_on_unwritable_out_before_the_run(self, tmp_path, capsys, monkeypatch, out):
        def run_command(cfg):
            raise AssertionError("the command ran")

        monkeypatch.setattr(modular_ppt.cli, "run_command", run_command)
        assert main(["choi", "--dims", "2x2", "--out", str(tmp_path / out)]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ContractError" and "--out" in diagnostic["error"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["ppt-check"], ["ppt-check", "--dims", "2x2"],
                                      ["minimize"], ["minimize", "--dims", "2x2"]],
                             ids=["ppt-check", "ppt-check-dims", "minimize", "minimize-dims"])
    def test_exit_two_on_shape_field_that_does_not_split_the_matrix(self, tmp_path, argv, capsys):
        # a 4x4 density saved with a 3x3 split: the file is wrong whether or not --dims overrides it
        path = str(tmp_path / "mis-split.json")
        save_matrix(np.eye(4) / 4, path, kind="density", shape=BipartiteShape(3, 3))
        assert main([argv[0], "--in", path, *argv[1:]]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "MatrixFileError" and diagnostic["field"] == "shape"
        assert "3x3" in diagnostic["error"]

    def test_generator_takes_seeds_in_32_bits(self):
        for seed in (-1, 2**32):
            with pytest.raises(ContractError):
                generator(seed)
        assert generator(2**32 - 1).integers(2**32) != generator(0, stream=1).integers(2**32)

    def test_generator_refuses_seeds_that_are_not_integers(self):
        # np.uint64(1.5) is 1: a float seed would run seed 1's stream
        ctx = gns.build_gns(random_faithful_density(generator(4), 2))
        for seed in (1.5, 1.0, True, "1", None):
            with pytest.raises(ContractError, match="seed must be an integer"):
                generator(seed)
        modular_ppt.cones.duality_check(ctx, 0.25, samples=3, seed=1)
        for seed in (1.5, 1.0, True):   # equal or near to the cached seed 1, still refused
            with pytest.raises(ContractError, match="seed must be an integer"):
                modular_ppt.cones.duality_check(ctx, 0.25, samples=3, seed=seed)
        for seed in (np.int64(1), np.uint32(1)):
            assert generator(seed).integers(2**32) == generator(1).integers(2**32)

    def test_exit_two_on_solver_dimension_cap(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "eye9.json")
        save_matrix(np.eye(9), path, kind="hermitian", shape=BipartiteShape(3, 3))
        monkeypatch.setattr(modular_ppt.optim, "MAX_DIM", 8)
        assert main(["minimize", "--in", path]) == 2
        assert json.loads(capsys.readouterr().out)["kind"] == "DimensionLimitError"

    def test_exit_three_on_route_disagreement(self, capsys, monkeypatch):
        from modular_ppt import cli as cli_mod
        from modular_ppt.errors import ConsistencyError

        def disagreeing_runner(cfg):
            raise ConsistencyError("routes disagree")

        monkeypatch.setitem(cli_mod.RUNNERS, "experiment", disagreeing_runner)
        with pytest.raises(ConsistencyError):
            run_command(RunConfig(command="experiment", dims=(2, 2)))
        assert main(["experiment", "--dims", "2x2"]) == 3
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic == {"error": "routes disagree", "kind": "ConsistencyError"}

    @pytest.mark.parametrize("route", ["natural-cone", "pn-intersection"])
    def test_exit_three_on_cone_route_disagreement(self, route, capsys, monkeypatch):
        # force one route of each two-route membership test to the wrong side, clear of the boundary
        from modular_ppt import cones
        from modular_ppt.errors import ConsistencyError

        comp = cones.build_composite(*(gns.build_gns(random_faithful_density(generator(5), 2)) for _ in "ab"))
        if route == "natural-cone":
            monkeypatch.setattr(cones, "v_beta_membership",
                                lambda ctx, beta, xi, tol: cones.MembershipVerdict(inside=False, certificate=-1.0))
            with pytest.raises(ConsistencyError, match="natural-cone routes disagree"):
                cones.natural_cone_membership(comp.joint, comp.joint.omega)
        else:
            monkeypatch.setattr(cones, "_gamma_min", lambda *args: -1.0)
            with pytest.raises(ConsistencyError, match="PPT-cone routes disagree"):
                cones.pn_intersection_membership(comp, comp.joint.omega)
        assert main(["construct", "--dims", "2x2"]) == 3
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ConsistencyError" and "routes disagree" in diagnostic["error"]

    def test_exit_zero_on_composite_with_large_delta_images(self, capsys):
        # the Delta images of this seed's states reach a rounding residual of 1.1e-10
        assert main(["experiment", "--dims", "3x3", "--seed", "79020364", "--samples", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("argv", [["--dims", "2xfoo"], ["--dims", "2x2", "--tol", "feas=abc"]])
    def test_exit_two_on_malformed_number(self, argv, capsys):
        assert main(["experiment", *argv]) == 2
        assert json.loads(capsys.readouterr().out)["kind"] == "ContractError"

    @pytest.mark.parametrize("argv", [
        ["cone-check", "--dims", "2", "--samples", "-1"],
        ["cone-check", "--dims", "2", "--samples", "0"],
        ["anticomm", "--dims", "2x2", "--samples", "0"],
        ["hierarchy", "--dims", "2x2", "--samples", "0"],
        ["gns-verify", "--dims", "2", "--samples", "-1"],
    ], ids=["cone-check-negative", "cone-check-zero", "anticomm-zero", "hierarchy-zero", "gns-verify-negative"])
    def test_exit_two_on_samples_below_one(self, argv, capsys):
        assert main(argv) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ContractError" and "--samples" in diagnostic["error"]

    @pytest.mark.parametrize("argv,kind,names", [
        (["cone-check", "--dims", "2", "--tol", "membership"], "ContractError", "KEY=VAL"),
        (["ppt-check", "--dims", "2x2"], "ContractError", "--in"),
        (["minimize", "--dims", "2x2"], "ContractError", "--in"),
        (["gns-verify"], "ContractError", "--dims"),
        (["minimize", "--in", "UNSPLIT"], "ContractError", "--dims"),
        (["construct", "--dims", "10x9"], "ShapeError", "cap 81"),
    ], ids=["tol-without-equals", "ppt-check-without-in", "minimize-without-in", "gns-verify-without-dims",
            "minimize-without-split", "construct-over-joint-cap"])
    def test_exit_two_names_the_missing_or_bad_input(self, argv, kind, names, tmp_path, swap22, capsys):
        path = str(tmp_path / "unsplit.json")
        save_matrix(swap22, path, kind="hermitian")  # no shape field
        assert main([path if arg == "UNSPLIT" else arg for arg in argv]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == kind and names in diagnostic["error"]

    def test_construct_refuses_the_joint_cap_before_building_contexts(self, monkeypatch, capsys):
        def forbidden(*args, **kwargs):
            raise AssertionError("construct built a GNS context for a --dims over its cap")
        monkeypatch.setattr(gns, "build_gns", forbidden)
        assert main(["construct", "--dims", "10x9"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ShapeError" and "cap 81" in diagnostic["error"]

    @pytest.mark.parametrize("argv,admitted", [
        (["gns-verify", "--dims", "4096", "--samples", "1"], False),
        (["gns-verify", "--dims", "4096"], False),
        (["gns-verify", "--dims", "64", "--samples", "512"], True),
        (["gns-verify", "--dims", "64", "--samples", "513"], False),
        (["cone-check", "--dims", "145"], False),
        (["experiment", "--dims", "3x3", "--samples", "25890"], True),
        (["experiment", "--dims", "3x3", "--samples", "25891"], False),
        (["experiment", "--dims", "2x2", "--samples", "131072"], True),
        (["hierarchy", "--dims", "2x2", "--samples", "131073"], False),
        (["anticomm", "--dims", "2x2048", "--samples", "1000000"], True),  # builds one instance at a time
        (["choi", "--dims", "64x64", "--samples", "1000000"], True),  # reads no --samples
    ], ids=["gns-verify-4096-one-sample", "gns-verify-4096", "gns-verify-64-at-cap", "gns-verify-64-over",
            "cone-check-145", "experiment-3x3-at-cap", "experiment-3x3-over", "experiment-2x2-at-cap",
            "hierarchy-2x2-over", "anticomm-not-budgeted", "choi-not-budgeted"])
    def test_config_budgets_the_sample_stacks(self, argv, admitted):
        # config_from_args allocates nothing, so over-budget configurations are safe to check here
        args = build_parser().parse_args(argv)
        if admitted:
            assert config_from_args(args).samples == args.samples
        else:
            with pytest.raises(ContractError, match="--samples .* at --dims"):
                config_from_args(args)

    def test_exit_two_on_a_stack_over_budget(self, capsys):
        for argv in (["gns-verify", "--dims", "4096"], ["experiment", "--dims", "3x3", "--samples", "25891"]):
            assert main(argv) == 2
            diagnostic = json.loads(capsys.readouterr().out)
            assert diagnostic["kind"] == "ContractError"
            assert "--samples" in diagnostic["error"] and "--dims" in diagnostic["error"]
            assert str(modular_ppt.linalg.MAX_STACK_ENTRIES) in diagnostic["error"]

    def test_exit_three_on_lapack_failure(self, capsys, monkeypatch):
        from modular_ppt import cli as cli_mod

        def failing_runner(cfg):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setitem(cli_mod.RUNNERS, "experiment", failing_runner)
        assert main(["experiment", "--dims", "2x2"]) == 3
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic == {"error": "Eigenvalues did not converge", "kind": "LinAlgError"}

    @pytest.mark.parametrize("argv", [
        ["gns-verify", "--dims", "2", "--samples", "5"],
        ["cone-check", "--dims", "2", "--samples", "5"],
        ["choi", "--dims", "2x2"],
        ["ppt-check", "--in", "{density}"],
        ["minimize", "--in", "{hermitian}"],
        ["construct", "--dims", "2x2"],
        ["anticomm", "--dims", "2x2"],
        ["experiment", "--dims", "2x2", "--samples", "5"],
        ["hierarchy", "--dims", "2x2", "--samples", "5"],
    ], ids=lambda argv: argv[0])
    def test_exit_three_when_the_eigensolver_fails(self, argv, tmp_path, singlet, capsys, monkeypatch):
        # a LinAlgError from numpy's eigensolver, reached through each command's own code path, exits 3
        files = {"density": str(tmp_path / "d.json"), "hermitian": str(tmp_path / "h.json")}
        save_matrix(singlet, files["density"], kind="density", shape=BipartiteShape(2, 2))
        save_matrix(-singlet, files["hermitian"], kind="hermitian", shape=BipartiteShape(2, 2))

        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, failing)
        assert main([arg.format(**files) for arg in argv]) == 3
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic == {"error": "Eigenvalues did not converge", "kind": "LinAlgError"}

    def test_exit_one_names_failing_residual(self, capsys, monkeypatch):
        from modular_ppt import cli as cli_mod

        def failing_runner(cfg):
            return {"duality": [{"passed": True}, {"passed": False}], "passed": False}, False

        monkeypatch.setitem(cli_mod.RUNNERS, "cone-check", failing_runner)
        assert main(["cone-check", "--dims", "2"]) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["failure"] == "duality[1]"

    def test_exit_one_names_a_failing_residual_suite(self, capsys, monkeypatch):
        verify = gns.verify_modular_identities
        monkeypatch.setattr(gns, "verify_modular_identities",
                            lambda *args, **kw: {**verify(*args, **kw), "passed": False})
        assert main(["gns-verify", "--dims", "2", "--samples", "5"]) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["failure"] == "residuals" and body["results"]["residuals"]["passed"] is False

    def test_exit_one_names_a_failing_bool(self, capsys, monkeypatch):
        from modular_ppt import choi

        to_table = choi.map_from_choi
        monkeypatch.setattr(choi, "map_from_choi", lambda h, shape: to_table(2 * h, shape))
        assert main(["choi", "--dims", "2x2"]) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["failure"] == "round_trip_bit_exact" and body["results"]["round_trip_bit_exact"] is False

    def test_anticomm_ships_its_falsified_instances(self, capsys, monkeypatch):
        from modular_ppt import constructions

        monkeypatch.setattr(constructions, "_gamma_min", lambda *args: np.float64(-1.0))
        assert main(["anticomm", "--dims", "2x2", "--samples", "12"]) == 1
        body = json.loads(capsys.readouterr().out)
        results = body["results"]
        assert body["failure"] == "falsified_instances[0]"
        assert results["falsifications"] == 12 and len(results["falsified_instances"]) == 10
        for entry in results["falsified_instances"]:
            inst = {key: np.array(entry["instance"][key + "_re"]) + 1j * np.array(entry["instance"][key + "_im"])
                    for key in ("rho", "f", "a")}
            rebuilt = AnticommutatorInstance(rho=inst["rho"], f=inst["f"], a_op=inst["a"])
            assert instance_residual(rebuilt) == entry["residual"]
            assert entry["min_gamma_eig"] == -1.0 and entry["falsified"] and entry["passed"] is False

    @pytest.mark.parametrize("argv", [["cone-check", "--dims", "2", "--samples", "10"],
                                      ["anticomm", "--dims", "2x2", "--samples", "8"]],
                             ids=["cone-check", "anticomm"])
    def test_exit_zero_with_byte_identical_bodies(self, argv, capsys):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert json.loads(first)["passed"] is True

    def test_cone_check_reads_its_membership_tolerance(self, capsys, monkeypatch):
        from modular_ppt import cones

        seen = []
        for name in ("duality_check", "u_maps_cones"):
            check = getattr(cones, name)
            monkeypatch.setattr(cones, name,
                                lambda *args, check=check, **kw: seen.append(kw["tol"]) or check(*args, **kw))
        assert main(["cone-check", "--dims", "2", "--samples", "5", "--tol", "membership=1e-9"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == {"membership": 1e-9}
        assert seen == [1e-9] * 10
        seen.clear()
        assert main(["cone-check", "--dims", "2", "--samples", "5"]) == 0
        assert seen == [cones.DEFAULT_TOL] * 10

    def test_anticomm_counts_its_instances(self, capsys):
        assert main(["anticomm", "--dims", "2x3", "--samples", "8"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["instances"] == 8 and results["falsifications"] == 0
        rng = generator(0)
        kinds = ("product", "block_diag", "herm_offdiag", "antiherm_offdiag")
        instances = [random_anticommutator_instance(rng, 3, kinds[k % 4]) for k in range(8)]
        residuals = [instance_residual(inst) for inst in instances]
        assert 0.0 < results["max_instance_residual"] == max(residuals) <= 1e-9

    @pytest.mark.parametrize("argv", [["cone-check", "--dims", "2x2"], ["anticomm", "--dims", "3x2"],
                                      ["choi", "--dims", "1x3"], ["hierarchy", "--dims", "1x2"]],
                             ids=["cone-check-bipartite", "anticomm-not-a-qubit", "choi-on-m1", "hierarchy-on-m1"])
    def test_exit_two_on_the_wrong_split(self, argv, capsys):
        # on M_1 transposition is the identity map, so choi and hierarchy have no claim to check there
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().out)["kind"] == "ContractError"

    def test_tol_override_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["ppt-check", "--in", "x.json", "--dims", "2x2",
                                  "--tol", "psd=1e-9", "--tol", "psd=1e-11"])
        cfg = config_from_args(args)
        assert cfg.tol == {"psd": 1e-11}

    @pytest.mark.parametrize("kwargs", [
        {"command": "ppt-check", "dims": (2, 2), "in_path": "MIXED", "tol": {"psd": float("nan")}},
        {"command": "ppt-check", "dims": (2, 2), "in_path": "MIXED", "tol": {"psd": -1.0}},
        {"command": "ppt-check", "dims": (2, 2)},
        {"command": "cone-check", "dims": 3, "tol": {"membership": float("nan")}},
        {"command": "choi", "dims": (1, 3)},
        {"command": "hierarchy", "dims": (1, 2)},
        {"command": "anticomm", "dims": (3, 2)},
        {"command": "gns-verify", "dims": (2, 2)},
        {"command": "experiment", "dims": 3},
        {"command": "experiment", "dims": (8, 8), "samples": 600},  # 600 * 64^2 entries, over the stack budget
        {"command": "choi", "dims": (2, 2), "seed": True},
        {"command": "nope", "dims": (2, 2)},
    ], ids=["ppt-check-psd-nan", "ppt-check-psd-negative", "ppt-check-without-in", "cone-check-membership-nan",
            "choi-on-m1", "hierarchy-on-m1", "anticomm-not-a-qubit", "gns-verify-bipartite", "experiment-single",
            "experiment-over-budget", "seed-bool", "unknown-command"])
    def test_config_built_in_code_refuses_a_broken_contract(self, kwargs, tmp_path, monkeypatch):
        # a config built in code takes the checks argv takes, so none of these reaches a runner
        def forbidden(cfg):
            raise AssertionError("a runner was called")

        for name in modular_ppt.cli.RUNNERS:
            monkeypatch.setitem(modular_ppt.cli.RUNNERS, name, forbidden)
        path = str(tmp_path / "mixed.json")
        save_matrix(np.eye(4) / 4, path, kind="density", shape=BipartiteShape(2, 2))
        with pytest.raises(ContractError):
            RunConfig(**{key: path if value == "MIXED" else value for key, value in kwargs.items()})

    def test_checked_tolerances_are_read_only(self, tmp_path):
        # a NaN set after the check once turned I/4 NPT with exit 0; neither the config's
        # mapping nor the caller's dict reaches the run after it
        path = str(tmp_path / "mixed.json")
        save_matrix(np.eye(4) / 4, path, kind="density", shape=BipartiteShape(2, 2))
        tol = {"psd": 1e-11}
        cfg = RunConfig(command="ppt-check", dims=(2, 2), in_path=path, tol=tol)
        with pytest.raises(TypeError):
            cfg.tol["psd"] = float("nan")
        tol["psd"] = float("nan")
        code, report = run_command(cfg)
        assert code == 0 and report["body"]["results"]["ppt"] is True
        assert report["body"]["config"]["tol"] == {"psd": 1e-11}

    def test_command_tables_name_only_known_commands(self):
        cli = modular_ppt.cli
        assert set(cli.READS) <= set(cli.RUNNERS)
        assert set(cli.DIMS) == set(cli.RUNNERS)  # every command takes one --dims form
        assert set(cli.DIMS.values()) <= {"N", "NxM", cli.FROM_FILE}

    def test_tol_key_the_command_does_not_read_exits_two(self, tmp_path, swap22, capsys):
        path = str(tmp_path / "swap.json")
        save_matrix(swap22, path, kind="hermitian", shape=BipartiteShape(2, 2))
        assert main(["minimize", "--in", path, "--dims", "2x2", "--tol", "feas=1e-9"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ContractError" and "feas" in diagnostic["error"]
        assert main(["cone-check", "--dims", "2", "--tol", "psd=1e-11"]) == 2
        assert "psd" in json.loads(capsys.readouterr().out)["error"]

    def test_flag_the_command_does_not_read_exits_two(self, capsys):
        assert main(["experiment", "--dims", "2x2", "--iters", "5"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ContractError" and "--iters" in diagnostic["error"]
        assert main(["choi", "--dims", "2x2", "--in", "x.json"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ContractError" and "--in" in diagnostic["error"]

    @pytest.mark.parametrize("argv,setting", [
        (["ppt-check", "--in", "x.json", "--dims", "2x2", "--tol", "membership=1e-9"], "--tol membership"),
        (["cone-check", "--dims", "2", "--in", "x.json"], "--in"),
    ], ids=["ppt-check-tol-membership", "cone-check-in"])
    def test_setting_another_command_reads_exits_two(self, argv, setting, capsys):
        assert main(argv) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ContractError" and setting in diagnostic["error"]

    def test_minimize_runs_the_iterations_it_is_given(self, tmp_path, swap22, monkeypatch):
        path = str(tmp_path / "swap.json")
        save_matrix(swap22, path, kind="hermitian", shape=BipartiteShape(2, 2))
        seen = []
        solve = modular_ppt.optim.min_trace_over_ppt

        def recording(h, spec, iters, **kwargs):
            seen.append(iters)
            return solve(h, spec, iters=iters, **kwargs)

        monkeypatch.setattr(modular_ppt.optim, "min_trace_over_ppt", recording)
        for iters in (0, None):
            run_command(RunConfig(command="minimize", dims=(2, 2), in_path=path, iters=iters))
        assert seen == [0, 1500]

    def test_minimize_results_do_not_depend_on_seed(self, tmp_path, choi_map):
        path = str(tmp_path / "choi.json")
        save_matrix(choi_map, path, kind="hermitian", shape=BipartiteShape(3, 3))
        configs = [RunConfig(command="minimize", in_path=path, seed=seed, iters=300) for seed in (0, 3)]
        results = [run_command(cfg)[1]["body"]["results"] for cfg in configs]
        assert results[0] == results[1]
        assert results[0]["converged"]

    def test_minimize_timing_counts_the_solver(self, tmp_path, choi_map):
        path = str(tmp_path / "choi.json")
        save_matrix(choi_map, path, kind="hermitian", shape=BipartiteShape(3, 3))
        _, report = run_command(RunConfig(command="minimize", in_path=path, iters=300))
        timing = report["timing"]
        assert set(timing) == {"seconds", "iterations", "certificate_checks"}
        # a check at every CHECK_EVERY-th iteration, at the first and at the last, and any the screen adds
        scheduled = timing["iterations"] // modular_ppt.optim.CHECK_EVERY + 1
        assert scheduled + (timing["iterations"] % modular_ppt.optim.CHECK_EVERY > 0) <= timing["certificate_checks"]
        assert timing["certificate_checks"] <= timing["iterations"] + 1
        assert not set(timing) & set(report["body"]["results"])

    def test_negative_iters_exits_two(self, tmp_path, swap22, capsys):
        path = str(tmp_path / "swap.json")
        save_matrix(swap22, path, kind="hermitian", shape=BipartiteShape(2, 2))
        assert main(["minimize", "--in", path, "--dims", "2x2", "--iters", "-5"]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ContractError" and "iters" in diagnostic["error"]

    def test_ppt_check_reads_its_psd_tolerance(self, tmp_path, singlet, capsys):
        # a Werner state whose partial transpose has least eigenvalue -5e-11
        p = 1 / 3 + 4 / 3 * 5e-11
        path = str(tmp_path / "werner.json")
        save_matrix(p * singlet + (1 - p) * np.eye(4) / 4, path, kind="density", shape=BipartiteShape(2, 2))
        verdicts = []
        for tol in ([], ["--tol", "psd=1e-11"]):
            assert main(["ppt-check", "--in", path, "--dims", "2x2", *tol]) == 0
            verdicts.append(json.loads(capsys.readouterr().out)["results"]["ppt"])
        assert verdicts == [True, False]

    @pytest.mark.parametrize("argv", [
        ["ppt-check", "--in", "MIXED", "--dims", "2x2", "--tol", "psd=nan"],
        ["ppt-check", "--in", "MIXED", "--dims", "2x2", "--tol", "psd=inf"],
        ["ppt-check", "--in", "MIXED", "--dims", "2x2", "--tol", "psd=-inf"],
        ["ppt-check", "--in", "MIXED", "--dims", "2x2", "--tol", "psd=-1"],
        ["cone-check", "--dims", "2", "--tol", "membership=-5"],
    ], ids=["psd-nan", "psd-inf", "psd-minus-inf", "psd-negative", "membership-negative"])
    def test_exit_two_on_a_tolerance_not_finite_and_nonnegative(self, argv, tmp_path, capsys):
        # each used to pass unchecked and give a wrong verdict: I/4 reported not PPT, or a failed duality check
        path = str(tmp_path / "mixed.json")
        save_matrix(np.eye(4) / 4, path, kind="density", shape=BipartiteShape(2, 2))
        assert main([path if arg == "MIXED" else arg for arg in argv]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        key = argv[-1].split("=")[0]
        assert diagnostic["kind"] == "ContractError" and f"--tol {key}" in diagnostic["error"]

    def test_a_zero_tolerance_is_accepted(self, tmp_path, capsys):
        path = str(tmp_path / "mixed.json")
        save_matrix(np.eye(4) / 4, path, kind="density", shape=BipartiteShape(2, 2))
        assert main(["ppt-check", "--in", path, "--dims", "2x2", "--tol", "psd=0"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["config"]["tol"] == {"psd": 0.0} and body["results"]["ppt"] is True

    def test_minimize_exits_two_on_an_overflowing_norm(self, tmp_path, capsys):
        # it used to exit 3 with "Eigenvalues did not converge"
        path = str(tmp_path / "huge.json")
        save_matrix(np.diag([1.0, -1.0, 2.0, 0.5]) * 1e160, path, kind="hermitian", shape=BipartiteShape(2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way to the refusal
            assert main(["minimize", "--in", path]) == 2
        diagnostic = json.loads(capsys.readouterr().out)
        assert diagnostic["kind"] == "ContractError" and "Frobenius norm" in diagnostic["error"]

    def test_minimize_zero_operator(self, tmp_path, capsys):
        path = str(tmp_path / "zero.json")
        save_matrix(np.zeros((4, 4)), path, kind="hermitian", shape=BipartiteShape(2, 2))
        assert main(["minimize", "--in", path]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["value"] == results["lower_bound"] == results["gap"] == 0.0 and results["converged"]
        assert results["minimizer_diag"] == [0.25] * 4

    def test_minimize_swap_value(self, tmp_path, swap22, capsys):
        path = str(tmp_path / "swap.json")
        save_matrix(swap22, path, kind="hermitian", shape=BipartiteShape(2, 2))
        code = main(["minimize", "--in", path, "--dims", "2x2", "--iters", "600", "--seed", "2"])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert abs(body["results"]["value"]) <= 1e-4


class TestImport:
    def test_no_scipy_module_is_loaded(self):
        # numpy is the only runtime dependency, so a fresh import of the package and its CLI loads no scipy
        src = str(Path(modular_ppt.__file__).resolve().parents[1])
        code = "import sys, modular_ppt, modular_ppt.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert run.stdout.strip() == "[]"
