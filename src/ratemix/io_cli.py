"""Command-line pipeline and on-disk formats.

Subcommands: simulate, fit, predict, score, chi, extract-events. Every run
writes a manifest echoing the parsed config, the seed, and content hashes of
its inputs; reruns with the same manifest reproduce the data outputs byte
for byte (the manifest itself is the one file excluded from that guarantee:
it carries a wall-clock timing field and, for a fit, the BLAS thread count
its chains ran with).

Datasets are long-format CSV (site_id, time_id, value, censor): censor is
the cell's threshold, "inf" for fully censored cells (missing values or
prediction sites), 0.0 for uncensored cells. Site geometry and covariates
live in sites.csv.

Exit codes: 0 success, 2 config/validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import pickle
import sys
import time

import numpy as np

from . import __version__
from ._blas import chain_blas_threads
from .diagnostics import (
    latent_summaries,
    posterior_summaries,
    predictive_cell_draws,
)
from .distributions import DomainError
from .latent_field import FactorizationError, make_design
from .likelihood import ExceedanceData, HyperParams, ValidationError
from .model import FitSpec, apply_censoring, compare, fit, get_variant
from .priors import PriorSet
from .sampler import (
    ChainDivergedError,
    InitializationError,
    SamplerConfig,
    load_checkpoint,
)
from .simulate import ScenarioSpec, chi_u_curve, simulate_dataset

_REQUIRED = object()
# what pickle.load raises on a truncated or foreign file
_UNREADABLE_PICKLE = (pickle.UnpicklingError, EOFError)


class ConfigError(Exception):
    """Bad or missing configuration."""


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def load_config(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from None
    return parser


def cfg_get(cfg, section, key, cast=str, default=_REQUIRED):
    if not cfg.has_option(section, key) or cfg.get(section, key).strip() == "":
        if default is _REQUIRED:
            raise ConfigError(f"missing config key [{section}] {key}")
        return default
    raw = cfg.get(section, key).strip()
    try:
        return cast(raw)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad value for [{section}] {key}: {err}") from None


def _float_list(raw):
    return [float(tok) for tok in raw.replace(",", " ").split()]


def _str_list(raw):
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _cells(raw):
    out = []
    for tok in _str_list(raw):
        i, j = tok.split(":")
        out.append((int(i), int(j)))
    return out


def config_echo(cfg):
    return {s: dict(cfg.items(s)) for s in cfg.sections()}


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def _fmt(x):
    x = float(x)
    if math.isinf(x):
        return "inf"
    return repr(x)


def write_dataset(out_dir, data, coords, covariates, covariate_names):
    """Write data.csv and sites.csv in the long format."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sites.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["site_id", "x", "y", *covariate_names])
        for j in range(coords.shape[0]):
            w.writerow([j, _fmt(coords[j, 0]), _fmt(coords[j, 1])]
                       + [_fmt(v) for v in covariates[j]])
    with open(os.path.join(out_dir, "data.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["site_id", "time_id", "value", "censor"])
        for i in range(data.n):
            for j in range(data.d):
                y = data.y[i, j]
                w.writerow(
                    [j, i, "" if math.isnan(y) else _fmt(y), _fmt(data.u[i, j])]
                )


def _read_table(path):
    """Header and body rows of a CSV file with at least one body row, each
    as wide as the header."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise ValidationError(f"missing input file {path}") from None
    if not rows:
        raise ValidationError(f"{path} is empty")
    if len(rows) == 1:
        raise ValidationError(f"{path} has a header but no rows")
    width = len(rows[0])
    for line, r in enumerate(rows[1:], start=2):
        if len(r) != width:
            raise ValidationError(
                f"{path} line {line}: expected {width} fields, found {len(r)}"
            )
    return rows[0], rows[1:]


def read_dataset(data_dir):
    """Read a dataset directory; returns (data, coords, covariates, names)."""
    sites_path = os.path.join(data_dir, "sites.csv")
    data_path = os.path.join(data_dir, "data.csv")
    header, rows = _read_table(sites_path)
    if header[:3] != ["site_id", "x", "y"]:
        raise ValidationError("sites.csv must start with site_id,x,y")
    cov_names = header[3:]
    site_ids, table = [], []
    for line, r in enumerate(rows, start=2):
        try:
            site_ids.append(int(r[0]))
            table.append([float(v) for v in r[1:]])
        except ValueError as err:
            raise ValidationError(f"{sites_path} line {line}: {err}") from None
    if sorted(site_ids) != list(range(len(rows))):
        raise ValidationError("site ids must be 0..d-1 without gaps")
    table = np.array(table)[np.argsort(site_ids)]
    coords = table[:, :2]
    covariates = table[:, 2:]

    header, rows = _read_table(data_path)
    if header != ["site_id", "time_id", "value", "censor"]:
        raise ValidationError("data.csv must have site_id,time_id,value,censor")
    d = coords.shape[0]
    cells = {}
    times = set()
    for line, r in enumerate(rows, start=2):
        try:
            j, i = int(r[0]), int(r[1])
            value = math.nan if r[2] == "" else float(r[2])
            censor = float(r[3])
        except ValueError as err:
            raise ValidationError(f"{data_path} line {line}: {err}") from None
        if j < 0 or j >= d:
            raise ValidationError(f"unknown site id {j}")
        if (i, j) in cells:
            raise ValidationError(f"duplicate cell site {j} time {i}")
        if censor < 0 or math.isnan(censor):
            raise ValidationError(f"bad censor value at site {j} time {i}")
        if math.isnan(value) and math.isfinite(censor):
            raise ValidationError(f"missing value needs censor=inf at site {j} time {i}")
        cells[(i, j)] = (value, censor)
        times.add(i)
    times = sorted(times)
    if times != list(range(len(times))):
        raise ValidationError("time ids must be 0..n-1 without gaps")
    n = len(times)
    y = np.full((n, d), np.nan)
    u = np.full((n, d), np.inf)
    for (i, j), (value, censor) in cells.items():
        y[i, j] = value
        u[i, j] = censor
    return ExceedanceData.from_thresholds(y, u), coords, covariates, cov_names


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def _hash_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


# fields about the run's wall time and machine, not about what it computed
_UNFINGERPRINTED = ("timing_seconds", "blas_threads", "fingerprint")


def manifest_fingerprint(manifest):
    core = {k: v for k, v in manifest.items() if k not in _UNFINGERPRINTED}
    return hashlib.sha256(json.dumps(core, sort_keys=True).encode()).hexdigest()


def write_manifest(out_dir, command, cfg, seed, inputs, extra=None, timing=None,
                   environment=None):
    """Write manifest.json; `environment` fields (`blas_threads`) go beside
    `timing_seconds`, outside the fingerprint."""
    manifest = {
        "command": command,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "seed": seed,
        "config": config_echo(cfg) if cfg is not None else {},
        "inputs": {os.path.basename(p): _hash_file(p) for p in inputs},
    }
    if extra:
        manifest.update(extra)
    manifest["fingerprint"] = manifest_fingerprint(manifest)
    if timing is not None:
        manifest["timing_seconds"] = timing
    manifest.update(environment or {})
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


# ---------------------------------------------------------------------------
# event extraction
# ---------------------------------------------------------------------------

def extract_events(values, quantile):
    """Days whose spatial average strictly exceeds its empirical quantile.

    values is (n_days, n_sites) with NaN for missing cells; missing cells are
    excluded from each day's mean. Returns (day indices, mean series,
    missing counts). A day with no data at all is an error.
    """
    values = np.asarray(values, dtype=float)
    if not 0.0 < quantile < 1.0:
        raise ValidationError("quantile must lie in (0, 1)")
    missing = np.isnan(values)
    if np.any(np.all(missing, axis=1)):
        raise ValidationError("a day with all sites missing has no spatial mean")
    with np.errstate(invalid="ignore"):
        means = np.nanmean(values, axis=1)
    cut = np.quantile(means, quantile)
    days = np.flatnonzero(means > cut)
    return days, means, missing.sum(axis=1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _scenario_from_config(cfg, seed):
    alpha0 = cfg_get(cfg, "simulate", "alpha0", float)
    slopes = cfg_get(cfg, "simulate", "alpha_slopes", _float_list, default=[])
    hyper = HyperParams(
        alpha_coefs=np.concatenate(([math.log(alpha0)], slopes)),
        beta1=cfg_get(cfg, "simulate", "beta1", float),
        beta2=cfg_get(cfg, "simulate", "beta2", float),
        rho=cfg_get(cfg, "simulate", "rho", float),
    )
    raw_q = cfg_get(cfg, "simulate", "censor_quantile", float, default=None)
    return ScenarioSpec(
        d=cfg_get(cfg, "simulate", "d", int),
        n=cfg_get(cfg, "simulate", "n", int),
        hyper=hyper,
        censor_quantile=raw_q,
        n_predict_sites=cfg_get(cfg, "simulate", "n_predict_sites", int, default=0),
        copula=cfg_get(cfg, "simulate", "copula", str, default="gaussian"),
        nu=cfg_get(cfg, "simulate", "nu", float, default=None),
        covariate_field_range=cfg_get(
            cfg, "simulate", "covariate_field_range", float, default=2.0
        ),
        seed=seed,
    )


def cmd_simulate(args):
    t0 = time.monotonic()
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg_get(cfg, "simulate", "seed", int, default=0)
    spec = _scenario_from_config(cfg, seed)
    data, model, log_lam = simulate_dataset(spec)
    os.makedirs(args.out, exist_ok=True)
    write_dataset(args.out, data, model.design.coords, model.covariates, model.covariate_names)
    truth = {
        "alpha0": math.exp(spec.hyper.alpha_coefs[0]),
        "alpha_slopes": [float(v) for v in spec.hyper.alpha_coefs[1:]],
        "beta1": spec.hyper.beta1,
        "beta2": spec.hyper.beta2,
        "rho": spec.hyper.rho,
        "xi": 1.0 / spec.hyper.beta2,
        "prediction_sites": [int(j) for j in data.prediction_sites()],
    }
    with open(os.path.join(args.out, "truth.json"), "w") as fh:
        json.dump(truth, fh, sort_keys=True, indent=2)
        fh.write("\n")
    write_manifest(
        args.out, "simulate", cfg, seed, [args.config], timing=time.monotonic() - t0
    )
    return 0


def _sampler_config(cfg, seed):
    return SamplerConfig(
        n_iter=cfg_get(cfg, "sampler", "n_iter", int),
        burnin1=cfg_get(cfg, "sampler", "burnin1", int),
        burnin2=cfg_get(cfg, "sampler", "burnin2", int),
        adapt_interval=cfg_get(cfg, "sampler", "adapt_interval", int, default=500),
        omega=cfg_get(cfg, "sampler", "omega", float, default=0.4),
        p_target_mala=cfg_get(cfg, "sampler", "p_target_mala", float, default=0.57),
        p_target_rw=cfg_get(cfg, "sampler", "p_target_rw", float, default=0.23),
        mala_band=tuple(
            cfg_get(cfg, "sampler", "mala_band", _float_list, default=[0.50, 0.65])
        ),
        rw_band=tuple(cfg_get(cfg, "sampler", "rw_band", _float_list, default=[0.15, 0.30])),
        thin=cfg_get(cfg, "sampler", "thin", int, default=50),
        tau_theta0=cfg_get(cfg, "sampler", "tau_theta0", float, default=0.01),
        tau_lambda0=cfg_get(cfg, "sampler", "tau_lambda0", float, default=0.001),
        seed=seed,
        audit_interval=cfg_get(cfg, "sampler", "audit_interval", int, default=10000),
        checkpoint_interval=cfg_get(
            cfg, "sampler", "checkpoint_interval", int, default=50000
        ),
    )


def _select_covariates(cfg, coords, covariates, cov_names):
    wanted = cfg_get(cfg, "model", "covariates", _str_list)
    table = {"x": coords[:, 0], "y": coords[:, 1]}
    for k, name in enumerate(cov_names):
        table[name] = covariates[:, k]
    cols = []
    for name in wanted:
        if name not in table:
            raise ConfigError(f"covariate {name!r} not found in sites.csv")
        cols.append(table[name])
    return np.column_stack(cols) if cols else np.empty((coords.shape[0], 0)), wanted


def cmd_fit(args):
    t0 = time.monotonic()
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg_get(cfg, "sampler", "seed", int, default=0)
    data, coords, covariates, cov_names = read_dataset(args.data)
    design = make_design(coords)
    X, names = _select_covariates(cfg, coords, covariates, cov_names)

    refit_q = cfg_get(cfg, "fit", "censor_quantile", float, default=None)
    if refit_q is not None:
        data = apply_censoring(
            data.y,
            refit_q,
            predict_sites=data.prediction_sites(),
            missing=np.isnan(data.y),
        )

    spec = FitSpec(
        variant=cfg_get(cfg, "model", "variant", str, default="D1"),
        sampler=_sampler_config(cfg, seed),
        priors=PriorSet(
            kappa1=cfg_get(cfg, "priors", "kappa1", float, default=1.0),
            kappa2=cfg_get(cfg, "priors", "kappa2", float, default=1.0),
        ),
    )
    get_variant(spec.variant)
    os.makedirs(args.out, exist_ok=True)

    inputs = [args.config, os.path.join(args.data, "data.csv"),
              os.path.join(args.data, "sites.csv")]
    manifest = write_manifest(
        args.out, "fit", cfg, seed, inputs,
        extra={"variant": spec.variant, "chains": args.chains},
    )
    fingerprint = manifest["fingerprint"]

    ckpt_paths = [
        os.path.join(args.out, f"checkpoint_chain{c}.pkl") for c in range(args.chains)
    ]
    resume_payloads = None
    if args.resume:
        resume_payloads = []
        for p in ckpt_paths:
            if not os.path.exists(p):
                raise ValidationError(f"--resume requested but {p} is missing")
            try:
                payload = load_checkpoint(p)
            except _UNREADABLE_PICKLE as err:
                raise ValidationError(f"cannot read checkpoint {p}: {err}") from None
            if payload["fingerprint"] != fingerprint:
                raise ValidationError(
                    "checkpoint belongs to a different run (manifest mismatch)"
                )
            resume_payloads.append(payload)

    def progress(chain, it, p_rw, p_mala, tau_t, tau_l):
        print(
            f"chain {chain} iter {it}: acc rw {p_rw:.3f} mala {p_mala:.3f} "
            f"tau {tau_t:.3g}/{tau_l:.3g}",
            file=sys.stderr,
        )

    model, outputs = fit(
        spec, data, design, X, names,
        n_chains=args.chains,
        progress=progress if args.verbose else None,
        checkpoint_paths=ckpt_paths,
        resume_payloads=resume_payloads,
        fingerprint=fingerprint,
    )

    with open(os.path.join(args.out, "chains.pkl"), "wb") as fh:
        pickle.dump({"outputs": outputs, "model": model, "fingerprint": fingerprint}, fh)

    _write_trace_csv(os.path.join(args.out, "trace.csv"), outputs)
    _write_history_csv(os.path.join(args.out, "history.csv"), outputs)

    requested = cfg_get(cfg, "fit", "track_latents", _cells, default=[])
    summaries = posterior_summaries(outputs)
    # the reported set is alpha coefficients, beta1, xi, rho (beta2 stays in
    # the trace; xi = 1/beta2 is the quantity of interest)
    summaries.pop("beta2", None)
    if requested:
        lat = latent_summaries(outputs)
        for (i, j) in requested:
            key = f"lambda_{i}_{j}"
            if key in lat:
                summaries[key] = lat[key]
    acc = [o.sampling_acceptance() for o in outputs]
    payload = {
        "variant": spec.variant,
        "n_chains": args.chains,
        "parameters": {
            k: {
                "mean": s.mean,
                "ci_low": s.ci_low,
                "ci_high": s.ci_high,
                "ess": s.ess,
                "rhat": s.rhat,
            }
            for k, s in summaries.items()
        },
        "acceptance": {
            "rw": [a[0] for a in acc],
            "mala": [a[1] for a in acc],
        },
    }
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")

    write_manifest(
        args.out, "fit", cfg, seed, inputs,
        extra={"variant": spec.variant, "chains": args.chains},
        timing=time.monotonic() - t0,
        environment={"blas_threads": chain_blas_threads()},
    )
    return 0


def _write_trace_csv(path, outputs):
    names = outputs[0].names
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "iteration", *names])
        for c, out in enumerate(outputs):
            for it in out.latent_iters:
                w.writerow([c, int(it), *[_fmt(v) for v in out.hyper_trace[it]]])


def _write_history_csv(path, outputs):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "iteration", "p_rw", "p_mala", "tau_theta", "tau_lambda"])
        for c, out in enumerate(outputs):
            for (it, p_rw, p_mala), (_, tau_t, tau_l) in zip(
                out.accept_history, out.step_history
            ):
                w.writerow(
                    [c, int(it), _fmt(p_rw), _fmt(p_mala), _fmt(tau_t), _fmt(tau_l)]
                )


def _load_fit(fit_dir):
    path = os.path.join(fit_dir, "chains.pkl")
    if not os.path.exists(path):
        raise ValidationError(f"no chains.pkl under {fit_dir}; run fit first")
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except _UNREADABLE_PICKLE as err:
        raise ValidationError(f"cannot read {path}: {err}") from None


def cmd_predict(args):
    t0 = time.monotonic()
    data, _, _, _ = read_dataset(args.data)
    bundle = _load_fit(args.fit)
    outputs = bundle["outputs"]
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "predictions.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["site_id", "time_id", "draw", "value"])
        for site in data.prediction_sites():
            draws = np.concatenate(
                [predictive_cell_draws(o, site, data, rng) for o in outputs], axis=0
            )
            for i in range(draws.shape[1]):
                for t in range(draws.shape[0]):
                    w.writerow([int(site), i, t, _fmt(draws[t, i])])
    write_manifest(
        args.out, "predict", None, seed,
        [os.path.join(args.data, "data.csv")],
        extra={"fit": os.path.abspath(args.fit)},
        timing=time.monotonic() - t0,
    )
    return 0


def cmd_score(args):
    t0 = time.monotonic()
    data, _, _, _ = read_dataset(args.data)
    by_variant = {}
    for fit_dir in args.fit:
        bundle = _load_fit(fit_dir)
        manifest_path = os.path.join(fit_dir, "manifest.json")
        try:
            with open(manifest_path) as fh:
                variant = json.load(fh).get("variant", os.path.basename(fit_dir))
        except (FileNotFoundError, json.JSONDecodeError) as err:
            raise ValidationError(f"cannot read {manifest_path}: {err}") from None
        by_variant[variant] = bundle["outputs"]
    rows = compare(
        by_variant, data, censor_quantile=args.censor_quantile, seed=args.seed or 0
    )
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "scores.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["variant", "crps", "twcrps", "best_crps", "best_twcrps"])
        for r in rows:
            w.writerow(
                [
                    r["variant"],
                    _fmt(r["crps"]),
                    _fmt(r["twcrps"]),
                    int(r["best_crps"]),
                    int(r["best_twcrps"]),
                ]
            )
    write_manifest(
        args.out, "score", None, args.seed or 0,
        [os.path.join(args.data, "data.csv")],
        extra={"fits": [os.path.abspath(p) for p in args.fit]},
        timing=time.monotonic() - t0,
    )
    return 0


def cmd_chi(args):
    t0 = time.monotonic()
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg_get(cfg, "chi", "seed", int, default=0)
    alpha0 = cfg_get(cfg, "chi", "alpha0", float, default=1.0)
    hyper = HyperParams(
        alpha_coefs=np.array([math.log(alpha0)]),
        beta1=cfg_get(cfg, "chi", "beta1", float),
        beta2=cfg_get(cfg, "chi", "beta2", float),
        rho=cfg_get(cfg, "chi", "rho", float),
    )
    spec = ScenarioSpec(
        d=2,
        n=1,
        hyper=hyper,
        censor_quantile=None,
        copula=cfg_get(cfg, "chi", "copula", str, default="gaussian"),
        nu=cfg_get(cfg, "chi", "nu", float, default=None),
        seed=seed,
    )
    curve = chi_u_curve(
        spec,
        pair_distance=cfg_get(cfg, "chi", "pair_distance", float, default=0.5),
        u_grid=cfg_get(cfg, "chi", "u_grid", _float_list, default=[0.9, 0.95, 0.99]),
        n_mc=cfg_get(cfg, "chi", "n_mc", int, default=1000000),
    )
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "chi.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["u", "chi", "se"])
        for u, c, s in zip(curve.u, curve.chi, curve.se):
            w.writerow([_fmt(u), _fmt(c), _fmt(s)])
    write_manifest(args.out, "chi", cfg, seed, [args.config], timing=time.monotonic() - t0)
    return 0


def cmd_extract_events(args):
    t0 = time.monotonic()
    header, rows = _read_table(args.data)
    if header[:3] != ["site_id", "time_id", "value"]:
        raise ValidationError("series file must have site_id,time_id,value")
    sites = sorted({int(r[0]) for r in rows})
    times = sorted({int(r[1]) for r in rows})
    smap = {s: k for k, s in enumerate(sites)}
    tmap = {t: k for k, t in enumerate(times)}
    values = np.full((len(times), len(sites)), np.nan)
    for r in rows:
        if r[2] != "":
            values[tmap[int(r[1])], smap[int(r[0])]] = float(r[2])
    days, means, missing = extract_events(values, args.quantile)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "events.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time_id", "spatial_mean", "n_missing"])
        for k in days:
            w.writerow([times[k], _fmt(means[k]), int(missing[k])])
    write_manifest(
        args.out, "extract-events", None, 0, [args.data],
        extra={"quantile": args.quantile},
        timing=time.monotonic() - t0,
    )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ratemix",
        description="Spatial modeling of threshold exceedances via gamma rate mixtures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="run the MCMC sampler")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--chains", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="posterior predictive draws at held-out sites")
    p.add_argument("--fit", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("score", help="CRPS/twCRPS of fits against held-out truth")
    p.add_argument("--fit", nargs="+", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--censor-quantile", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("chi", help="Monte Carlo pairwise tail dependence curve")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("extract-events", help="days whose spatial mean is extreme")
    p.add_argument("--data", required=True)
    p.add_argument("--quantile", type=float, default=0.85)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_events)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError, DomainError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (FactorizationError, InitializationError, ChainDivergedError, FloatingPointError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
