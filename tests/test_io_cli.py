"""Tests for the config/dataset file formats and the command-line pipeline."""

import json
import math
import os
import pickle
import shutil

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ratemix import io_cli
from ratemix._blas import chain_blas_threads
from ratemix.io_cli import (
    ConfigError,
    cfg_get,
    extract_events,
    load_config,
    read_dataset,
    write_dataset,
)
from ratemix.likelihood import ValidationError
from ratemix.model import apply_censoring


SIM_CONFIG = """\
[simulate]
alpha0 = 1.0
alpha_slopes = 0.5 0.5 0.5
beta1 = 2.0
beta2 = 5.0
rho = 1.0
censor_quantile = 0.75
d = 4
n = 10
n_predict_sites = 1
seed = 11
"""

FIT_CONFIG = """\
[model]
variant = D1
covariates = x, y, z3

[sampler]
n_iter = 1200
burnin1 = 300
burnin2 = 300
thin = 10
seed = 3
checkpoint_interval = 500

[priors]
kappa1 = 1.0
kappa2 = 1.0

[fit]
track_latents = 0:{site}
"""

CHI_CONFIG = """\
[chi]
beta1 = 1.0
beta2 = 3.0
rho = 1.0
pair_distance = 0.5
u_grid = 0.90 0.95
n_mc = 20000
seed = 4
"""


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def truncate(path):
    """Cut a file to half its length, as an interrupted write would."""
    raw = read_bytes(path)
    with open(path, "wb") as fh:
        fh.write(raw[: len(raw) // 2])


def manifest_core(path):
    with open(path) as fh:
        m = json.load(fh)
    m.pop("timing_seconds", None)
    return m


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated dataset and one completed two-chain fit."""
    root = tmp_path_factory.mktemp("cli")
    sim_cfg = root / "sim.ini"
    sim_cfg.write_text(SIM_CONFIG)
    data_dir = root / "data"
    assert io_cli.main(["simulate", "--config", str(sim_cfg), "--out", str(data_dir)]) == 0
    truth = json.loads((data_dir / "truth.json").read_text())
    site = truth["prediction_sites"][0]
    fit_cfg = root / "fit.ini"
    fit_cfg.write_text(FIT_CONFIG.format(site=site))
    fit_dir = root / "fitA"
    rc = io_cli.main([
        "fit", "--config", str(fit_cfg), "--data", str(data_dir),
        "--out", str(fit_dir), "--chains", "2",
    ])
    assert rc == 0
    return {
        "root": root,
        "sim_cfg": sim_cfg,
        "fit_cfg": fit_cfg,
        "data_dir": data_dir,
        "fit_dir": fit_dir,
        "site": site,
    }


class TestConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_missing_key_names_section_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[simulate]\nd = 4\n")
        rc = io_cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "[simulate] alpha0" in capsys.readouterr().err

    def test_bad_value_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(SIM_CONFIG.replace("d = 4", "d = four"))
        rc = io_cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "[simulate] d" in capsys.readouterr().err

    def test_defaults_and_casts(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[s]\na = 2\nb = 1.5, 2.5\nc = u, v\n")
        parsed = load_config(cfg)
        assert cfg_get(parsed, "s", "a", int) == 2
        assert cfg_get(parsed, "s", "b", io_cli._float_list) == [1.5, 2.5]
        assert cfg_get(parsed, "s", "c", io_cli._str_list) == ["u", "v"]
        assert cfg_get(parsed, "s", "zz", int, default=7) == 7
        with pytest.raises(ConfigError):
            cfg_get(parsed, "s", "zz", int)


class TestDatasetFiles:
    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        y = rng.gamma(2.0, size=(8, 3))
        missing = np.zeros_like(y, dtype=bool)
        missing[2, 1] = True
        y[2, 1] = np.nan
        data = apply_censoring(y, 0.5, predict_sites=[2], missing=missing)
        coords = rng.uniform(size=(3, 2))
        covariates = rng.normal(size=(3, 2))
        write_dataset(tmp_path, data, coords, covariates, ("c1", "c2"))
        back, coords2, cov2, names2 = read_dataset(tmp_path)
        assert_allclose(coords2, coords)
        assert_allclose(cov2, covariates)
        assert names2 == ["c1", "c2"]
        assert np.array_equal(np.isnan(back.y), np.isnan(data.y))
        ok = ~np.isnan(data.y)
        assert np.array_equal(back.y[ok], data.y[ok])
        assert np.array_equal(back.u, data.u)
        assert np.array_equal(back.e, data.e)

    def write_rows(self, tmp_path, rows):
        with open(tmp_path / "sites.csv", "w") as fh:
            fh.write("site_id,x,y,c1\n0,0.0,0.0,1.0\n1,1.0,0.0,2.0\n")
        with open(tmp_path / "data.csv", "w") as fh:
            fh.write("site_id,time_id,value,censor\n")
            for r in rows:
                fh.write(",".join(str(v) for v in r) + "\n")

    def test_duplicate_cell_rejected(self, tmp_path):
        self.write_rows(tmp_path, [
            (0, 0, 1.0, 0.0), (0, 0, 2.0, 0.0), (1, 0, 1.0, 0.0),
        ])
        with pytest.raises(ValidationError):
            read_dataset(tmp_path)

    def test_missing_value_needs_inf_censor(self, tmp_path):
        self.write_rows(tmp_path, [(0, 0, "", 1.0), (1, 0, 1.0, 0.0)])
        with pytest.raises(ValidationError):
            read_dataset(tmp_path)

    def test_negative_censor_rejected(self, tmp_path):
        self.write_rows(tmp_path, [(0, 0, 1.0, -1.0), (1, 0, 1.0, 0.0)])
        with pytest.raises(ValidationError):
            read_dataset(tmp_path)

    def test_time_gap_rejected(self, tmp_path):
        self.write_rows(tmp_path, [(0, 0, 1.0, 0.0), (0, 2, 1.0, 0.0)])
        with pytest.raises(ValidationError):
            read_dataset(tmp_path)

    def test_unknown_site_rejected(self, tmp_path):
        self.write_rows(tmp_path, [(0, 0, 1.0, 0.0), (5, 0, 1.0, 0.0)])
        with pytest.raises(ValidationError):
            read_dataset(tmp_path)

    def test_bad_header_rejected(self, tmp_path):
        self.write_rows(tmp_path, [(0, 0, 1.0, 0.0)])
        with open(tmp_path / "data.csv") as fh:
            body = fh.read().splitlines()[1:]
        with open(tmp_path / "data.csv", "w") as fh:
            fh.write("station,day,val,cut\n" + "\n".join(body) + "\n")
        with pytest.raises(ValidationError):
            read_dataset(tmp_path)


class TestMalformedDatasetCli:
    """Malformed dataset files exit 2 with an error line naming the file."""

    def run_fit(self, workspace, data_dir, capsys):
        rc = io_cli.main([
            "fit", "--config", str(workspace["fit_cfg"]), "--data", str(data_dir),
            "--out", str(data_dir / "fit"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        return err

    def copy_data(self, workspace, tmp_path):
        data_dir = tmp_path / "data"
        shutil.copytree(workspace["data_dir"], data_dir)
        return data_dir

    def test_short_row(self, workspace, tmp_path, capsys):
        data_dir = self.copy_data(workspace, tmp_path)
        with open(data_dir / "data.csv", "a") as fh:
            fh.write("0,5\n")
        n_lines = len((data_dir / "data.csv").read_text().splitlines())
        err = self.run_fit(workspace, data_dir, capsys)
        assert f"data.csv line {n_lines}" in err
        assert "expected 4 fields, found 2" in err

    def test_short_site_row(self, workspace, tmp_path, capsys):
        data_dir = self.copy_data(workspace, tmp_path)
        lines = (data_dir / "sites.csv").read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        (data_dir / "sites.csv").write_text("\n".join(lines) + "\n")
        err = self.run_fit(workspace, data_dir, capsys)
        assert "sites.csv line 3" in err

    def test_non_numeric_value(self, workspace, tmp_path, capsys):
        data_dir = self.copy_data(workspace, tmp_path)
        lines = (data_dir / "data.csv").read_text().splitlines()
        lines[1] = "0,0,abc,0.0"
        (data_dir / "data.csv").write_text("\n".join(lines) + "\n")
        err = self.run_fit(workspace, data_dir, capsys)
        assert "data.csv line 2" in err

    @pytest.mark.parametrize("name", ["data.csv", "sites.csv"])
    def test_empty_file(self, workspace, tmp_path, capsys, name):
        data_dir = self.copy_data(workspace, tmp_path)
        (data_dir / name).write_text("")
        err = self.run_fit(workspace, data_dir, capsys)
        assert f"{name} is empty" in err

    @pytest.mark.parametrize("name", ["data.csv", "sites.csv"])
    def test_header_only(self, workspace, tmp_path, capsys, name):
        data_dir = self.copy_data(workspace, tmp_path)
        header = (data_dir / name).read_text().splitlines()[0]
        (data_dir / name).write_text(header + "\n")
        err = self.run_fit(workspace, data_dir, capsys)
        assert f"{name} has a header but no rows" in err


class TestExtractEvents:
    def test_strict_exceedance_with_missing(self):
        values = np.array([
            [1.0, 1.0],
            [5.0, np.nan],
            [2.0, 2.0],
            [0.5, 1.5],
        ])
        days, means, missing = extract_events(values, 0.5)
        assert_allclose(means, [1.0, 5.0, 2.0, 1.0])
        cut = np.quantile(means, 0.5)
        assert np.array_equal(days, np.flatnonzero(means > cut))
        assert missing.tolist() == [0, 1, 0, 0]

    def test_all_missing_day_rejected(self):
        values = np.array([[1.0, 2.0], [np.nan, np.nan]])
        with pytest.raises(ValidationError):
            extract_events(values, 0.5)

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValidationError):
            extract_events(np.ones((3, 2)), 1.5)


class TestSimulateCli:
    def test_outputs_and_truth(self, workspace):
        data_dir = workspace["data_dir"]
        for name in ("data.csv", "sites.csv", "truth.json", "manifest.json"):
            assert (data_dir / name).exists()
        truth = json.loads((data_dir / "truth.json").read_text())
        assert truth["alpha0"] == 1.0
        assert truth["xi"] == 0.2
        assert len(truth["prediction_sites"]) == 1
        data, coords, covariates, names = read_dataset(data_dir)
        assert data.y.shape == (10, 4)
        assert names == ["x", "y", "z3"]
        assert np.all(np.isinf(data.u[:, workspace["site"]]))

    def test_rerun_byte_identical(self, workspace, tmp_path):
        out2 = tmp_path / "data2"
        rc = io_cli.main(["simulate", "--config", str(workspace["sim_cfg"]),
                          "--out", str(out2)])
        assert rc == 0
        for name in ("data.csv", "sites.csv", "truth.json"):
            assert read_bytes(out2 / name) == read_bytes(workspace["data_dir"] / name)
        assert manifest_core(out2 / "manifest.json") == manifest_core(
            workspace["data_dir"] / "manifest.json"
        )


class TestFitCli:
    def test_output_files(self, workspace):
        fit_dir = workspace["fit_dir"]
        for name in ("trace.csv", "history.csv", "summary.json", "chains.pkl",
                     "manifest.json", "checkpoint_chain0.pkl", "checkpoint_chain1.pkl"):
            assert (fit_dir / name).exists(), name

    def test_summary_parameter_set(self, workspace):
        summary = json.loads((workspace["fit_dir"] / "summary.json").read_text())
        want = {"alpha0", "alpha_x", "alpha_y", "alpha_z3", "beta1", "xi", "rho",
                f"lambda_0_{workspace['site']}"}
        assert set(summary["parameters"]) == want
        assert summary["variant"] == "D1"
        assert summary["n_chains"] == 2
        assert len(summary["acceptance"]["rw"]) == 2
        assert len(summary["acceptance"]["mala"]) == 2
        for s in summary["parameters"].values():
            assert s["ci_low"] <= s["mean"] <= s["ci_high"]

    def test_trace_and_history_have_both_chains(self, workspace):
        trace = (workspace["fit_dir"] / "trace.csv").read_text().splitlines()
        header = trace[0].split(",")
        assert header[:2] == ["chain", "iteration"]
        assert header[2:] == ["alpha0", "alpha_x", "alpha_y", "alpha_z3",
                              "beta1", "beta2", "rho"]
        chains = {row.split(",")[0] for row in trace[1:]}
        assert chains == {"0", "1"}
        hist = (workspace["fit_dir"] / "history.csv").read_text().splitlines()
        assert hist[0] == "chain,iteration,p_rw,p_mala,tau_theta,tau_lambda"
        assert {row.split(",")[0] for row in hist[1:]} == {"0", "1"}

    def test_rerun_byte_identical(self, workspace, tmp_path):
        out2 = tmp_path / "fitB"
        rc = io_cli.main([
            "fit", "--config", str(workspace["fit_cfg"]),
            "--data", str(workspace["data_dir"]),
            "--out", str(out2), "--chains", "2",
        ])
        assert rc == 0
        for name in ("trace.csv", "history.csv", "summary.json", "chains.pkl"):
            assert read_bytes(out2 / name) == read_bytes(workspace["fit_dir"] / name), name
        assert manifest_core(out2 / "manifest.json") == manifest_core(
            workspace["fit_dir"] / "manifest.json"
        )

    def test_resume_continues_to_same_bytes(self, workspace, tmp_path):
        # the straight run's last saved checkpoint sits at iteration 1000 of
        # 1200, so --resume re-runs the final 200 iterations
        out2 = tmp_path / "fitC"
        shutil.copytree(workspace["fit_dir"], out2)
        payload = pickle.load(open(out2 / "checkpoint_chain0.pkl", "rb"))
        assert payload["state"]["iteration"] == 1000
        rc = io_cli.main([
            "fit", "--config", str(workspace["fit_cfg"]),
            "--data", str(workspace["data_dir"]),
            "--out", str(out2), "--chains", "2", "--resume",
        ])
        assert rc == 0
        for name in ("trace.csv", "history.csv", "summary.json", "chains.pkl"):
            assert read_bytes(out2 / name) == read_bytes(workspace["fit_dir"] / name), name

    def test_manifest_records_blas_threads(self, workspace):
        manifest = json.loads((workspace["fit_dir"] / "manifest.json").read_text())
        assert manifest["blas_threads"] == chain_blas_threads()
        assert manifest["fingerprint"] == io_cli.manifest_fingerprint(manifest)

    def test_resume_under_user_thread_setting(self, workspace, tmp_path, monkeypatch):
        # blas_threads describes the machine, so it stays out of the
        # fingerprint that checkpoints must match
        out2 = tmp_path / "fitG"
        shutil.copytree(workspace["fit_dir"], out2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        rc = io_cli.main([
            "fit", "--config", str(workspace["fit_cfg"]),
            "--data", str(workspace["data_dir"]),
            "--out", str(out2), "--chains", "2", "--resume",
        ])
        assert rc == 0
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["blas_threads"] == chain_blas_threads()
        for name in ("trace.csv", "chains.pkl"):
            assert read_bytes(out2 / name) == read_bytes(workspace["fit_dir"] / name), name

    def test_resume_without_checkpoint_fails(self, workspace, tmp_path, capsys):
        out2 = tmp_path / "fitD"
        rc = io_cli.main([
            "fit", "--config", str(workspace["fit_cfg"]),
            "--data", str(workspace["data_dir"]),
            "--out", str(out2), "--chains", "2", "--resume",
        ])
        assert rc == 2
        assert "missing" in capsys.readouterr().err

    def test_resume_fingerprint_mismatch_fails(self, workspace, tmp_path, capsys):
        out2 = tmp_path / "fitE"
        shutil.copytree(workspace["fit_dir"], out2)
        rc = io_cli.main([
            "fit", "--config", str(workspace["fit_cfg"]),
            "--data", str(workspace["data_dir"]),
            "--out", str(out2), "--chains", "2", "--resume", "--seed", "999",
        ])
        assert rc == 2
        assert "different run" in capsys.readouterr().err

    def test_resume_truncated_checkpoint_fails(self, workspace, tmp_path, capsys):
        out2 = tmp_path / "fitF"
        shutil.copytree(workspace["fit_dir"], out2)
        truncate(out2 / "checkpoint_chain1.pkl")
        rc = io_cli.main([
            "fit", "--config", str(workspace["fit_cfg"]),
            "--data", str(workspace["data_dir"]),
            "--out", str(out2), "--chains", "2", "--resume",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: cannot read checkpoint")
        assert "checkpoint_chain1.pkl" in err and "Traceback" not in err

    def test_unknown_covariate_fails(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "fit_bad.ini"
        cfg.write_text(FIT_CONFIG.format(site=workspace["site"]).replace(
            "covariates = x, y, z3", "covariates = x, elevation"
        ))
        rc = io_cli.main([
            "fit", "--config", str(cfg), "--data", str(workspace["data_dir"]),
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "elevation" in capsys.readouterr().err


class TestPredictCli:
    def test_writes_draws_for_held_out_site(self, workspace, tmp_path):
        out = tmp_path / "pred"
        rc = io_cli.main([
            "predict", "--fit", str(workspace["fit_dir"]),
            "--data", str(workspace["data_dir"]), "--out", str(out), "--seed", "7",
        ])
        assert rc == 0
        rows = (out / "predictions.csv").read_text().splitlines()
        assert rows[0] == "site_id,time_id,draw,value"
        bundle = pickle.load(open(workspace["fit_dir"] / "chains.pkl", "rb"))
        n_draws = sum(o.retained_latent()[0].shape[0] for o in bundle["outputs"])
        assert len(rows) == 1 + 10 * n_draws
        sites = {int(r.split(",")[0]) for r in rows[1:]}
        assert sites == {workspace["site"]}
        values = np.array([float(r.split(",")[3]) for r in rows[1:]])
        assert np.all(values > 0)

    def test_rerun_byte_identical(self, workspace, tmp_path):
        a, b = tmp_path / "p1", tmp_path / "p2"
        for out in (a, b):
            rc = io_cli.main([
                "predict", "--fit", str(workspace["fit_dir"]),
                "--data", str(workspace["data_dir"]), "--out", str(out), "--seed", "7",
            ])
            assert rc == 0
        assert read_bytes(a / "predictions.csv") == read_bytes(b / "predictions.csv")

    def test_missing_fit_dir_fails(self, workspace, tmp_path, capsys):
        rc = io_cli.main([
            "predict", "--fit", str(tmp_path / "nofit"),
            "--data", str(workspace["data_dir"]), "--out", str(tmp_path / "o"),
        ])
        assert rc == 2
        assert "chains.pkl" in capsys.readouterr().err


class TestUnreadableFitDirCli:
    """A damaged fit directory exits 2 with an error line naming the file."""

    @pytest.mark.parametrize(
        "command, damage, name",
        [
            ("predict", truncate, "chains.pkl"),
            ("score", truncate, "chains.pkl"),
            ("score", os.remove, "manifest.json"),
        ],
    )
    def test_fails_cleanly(self, workspace, tmp_path, capsys, command, damage, name):
        fit_dir = tmp_path / "fit"
        shutil.copytree(workspace["fit_dir"], fit_dir)
        damage(fit_dir / name)
        rc = io_cli.main([
            command, "--fit", str(fit_dir),
            "--data", str(workspace["data_dir"]), "--out", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: cannot read") and name in err
        assert "Traceback" not in err


class TestScoreCli:
    def test_single_fit_scores(self, workspace, tmp_path):
        out = tmp_path / "scores"
        rc = io_cli.main([
            "score", "--fit", str(workspace["fit_dir"]),
            "--data", str(workspace["data_dir"]), "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "scores.csv").read_text().splitlines()
        assert rows[0] == "variant,crps,twcrps,best_crps,best_twcrps"
        assert len(rows) == 2
        variant, crps, twcrps, bc, bt = rows[1].split(",")
        assert variant == "D1"
        assert float(crps) > 0 and float(twcrps) > 0
        assert float(twcrps) <= float(crps)
        assert (bc, bt) == ("1", "1")


class TestChiCli:
    def test_curve_and_determinism(self, workspace, tmp_path):
        cfg = tmp_path / "chi.ini"
        cfg.write_text(CHI_CONFIG)
        a, b = tmp_path / "chi1", tmp_path / "chi2"
        for out in (a, b):
            rc = io_cli.main(["chi", "--config", str(cfg), "--out", str(out)])
            assert rc == 0
        assert read_bytes(a / "chi.csv") == read_bytes(b / "chi.csv")
        rows = (a / "chi.csv").read_text().splitlines()
        assert rows[0] == "u,chi,se"
        assert len(rows) == 3
        for row in rows[1:]:
            u, chi, se = (float(v) for v in row.split(","))
            assert 0.0 <= chi <= 1.0
            assert se > 0


class TestExtractEventsCli:
    def test_event_listing(self, tmp_path):
        series = tmp_path / "series.csv"
        with open(series, "w") as fh:
            fh.write("site_id,time_id,value\n")
            vals = {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 5.0,
                    (0, 2): 2.0, (1, 2): 2.0, (0, 3): 0.5, (1, 3): 1.5}
            for (j, t), v in vals.items():
                fh.write(f"{j},{t},{v}\n")
        out = tmp_path / "events"
        rc = io_cli.main([
            "extract-events", "--data", str(series), "--quantile", "0.5",
            "--out", str(out),
        ])
        assert rc == 0
        rows = (out / "events.csv").read_text().splitlines()
        assert rows[0] == "time_id,spatial_mean,n_missing"
        got = [r.split(",") for r in rows[1:]]
        assert [g[0] for g in got] == ["1", "2"]
        assert float(got[0][1]) == 5.0
        # site 1 has no value on day 1, so that day reports one missing cell
        assert got[0][2] == "1"
        assert got[1][2] == "0"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "is empty"),
            ("site_id,time_id,value\n0,1\n", "line 2: expected 3 fields, found 2"),
        ],
    )
    def test_malformed_series_fails(self, tmp_path, capsys, text, message):
        series = tmp_path / "series.csv"
        series.write_text(text)
        rc = io_cli.main(["extract-events", "--data", str(series), "--out", str(tmp_path / "e")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and message in err
