"""Replicated coverage studies for the calibration pipeline.

Per replicate: draw data from a scenario's physical system, smooth it, locate
the loss minimiser, form sandwich matrices, scale the posterior and record
point summaries plus credible intervals. Aggregates report coverage of the
population minimiser, mean posterior summaries and interval lengths.

All randomness is indexed: replicate i uses seed ``base_seed + i`` for data
and the same seed for any sampling engine, so reports are byte-identical
across reruns and across worker counts.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial
from statistics import NormalDist

import numpy as np

from . import __version__
from .asymptotics import (CONDITIONAL_FORMS, conditional_matrices,
                          marginal_matrices)
from .calibration import (StraightLine, estimate_many, estimate_theta,
                          l2_loss_fn, linear_theta_hat, matched_gamma,
                          normal_posterior)
from .models import make_scenario
from .numerics import DEFAULT_QUAD_ORDER, build_rule, set_blas_threads
from .posterior import (INTERVAL_MODES, Prior, SamplerSettings,
                        conjugate_posterior, credible_interval, laplace_approx,
                        sample_posterior)
from .scaling import (ScalingError, curvature_adjustment, fixed_gamma,
                      magnitude_adjustment, no_scaling, scaled_loss)
from .smoother import KERNEL_FAMILIES, Dataset, GcvGrid

VARIANTS = ("marginal", "conditional")
SCALINGS = ("magnitude", "curvature")
DEFAULT_ANALYSES = tuple(f"{v}-{s}" for v in VARIANTS for s in SCALINGS)
ENGINES = ("laplace", "mcmc", "conjugate")
# replicates a study slice fits and estimates together: a uniform design keeps
# this many smoother fits alive, each with its n x n eigenvectors
STUDY_CHUNK = 8


@dataclass
class StudyConfig:
    scenario: str
    replicates: int
    n: int | None = None
    seed: int = 0
    analyses: tuple = DEFAULT_ANALYSES
    engine: str = "laplace"
    interval: str = "quantile"
    level: float = 0.95
    quad_order: int = DEFAULT_QUAD_ORDER
    kernel_family: str = "gaussian"
    conditional_form: str = "derived"
    n_starts: int = 10
    workers: int = 1
    mcmc_chains: int = SamplerSettings.chains
    mcmc_iterations: int = SamplerSettings.iterations
    mcmc_thin: int = SamplerSettings.thin

    def __post_init__(self):
        _check_shared_fields(self)
        _check_choice(self, "engine", ENGINES)
        _check_choice(self, "interval", INTERVAL_MODES)
        _check_choice(self, "conditional_form", CONDITIONAL_FORMS)
        if self.engine == "mcmc":
            SamplerSettings(chains=self.mcmc_chains, iterations=self.mcmc_iterations,
                            thin=self.mcmc_thin).check_kept_draws()
        self.analyses = tuple(self.analyses)
        for a in self.analyses:
            parse_analysis(a)


def _check_shared_fields(config) -> None:
    """Validate the fields both study configs have."""
    if config.replicates < 1:
        raise ValueError("replicates must be >= 1")
    if not 0.0 < config.level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if config.workers < 1:
        raise ValueError("workers must be >= 1")
    _check_choice(config, "kernel_family", KERNEL_FAMILIES)


def _check_choice(config, name: str, choices: tuple) -> None:
    value = getattr(config, name)
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; choose from {choices}")


def _report_config(config) -> dict:
    """A report's config block: every field but the partition-only ``workers``."""
    return {k: v for k, v in asdict(config).items() if k != "workers"}


def _tally(flags) -> dict:
    """Occurrences of each flag, in flag order."""
    return dict(sorted(Counter(flags).items()))


def parse_analysis(name: str):
    """Split an analysis label into (variant, scaling, gamma)."""
    if name == "unscaled":
        return None, "none", None
    if name.startswith("fixed-gamma:"):
        try:
            g = float(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad fixed-gamma analysis {name!r}") from None
        if g <= 0:
            raise ValueError(f"fixed gamma must be positive in {name!r}")
        return None, "fixed", g
    parts = name.split("-")
    if len(parts) == 2 and parts[0] in VARIANTS and parts[1] in SCALINGS:
        return parts[0], parts[1], None
    raise ValueError(
        f"unknown analysis {name!r}; expected variant-scaling, 'unscaled' "
        "or 'fixed-gamma:<value>'")


def generate_replicate(system, n: int, seed: int) -> Dataset:
    """Draw one dataset from the system's design rule and noise level."""
    rule = system.design
    rng = np.random.default_rng(seed)
    if rule.kind == "uniform":
        k = rule.lower.size
        x = rule.lower + rng.random((n, k)) * (rule.upper - rule.lower)
    else:
        x = np.linspace(rule.lower[0], rule.upper[0], n).reshape(-1, 1)
    y = np.asarray(system.mu(x), dtype=float)
    if system.sigma > 0:
        y = y + system.sigma * rng.standard_normal(n)
    return Dataset(design=x, responses=y)


_ORACLE_CACHE: dict = {}


def oracle_theta(scenario: str, quad_order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
    """Population loss minimiser for a scenario, cached per quadrature order."""
    key = (scenario, quad_order)
    if key not in _ORACLE_CACHE:
        model, system, _ = make_scenario(scenario)
        rule = build_rule(model.x_box.lower, model.x_box.upper, quad_order)
        est = estimate_theta(system.mu, model, rule, method="l2", seed=1, n_starts=20)
        _ORACLE_CACHE[key] = est.theta
    return _ORACLE_CACHE[key].copy()


def run_replicate(index: int, config: StudyConfig, model, rule,
                  theta_star: np.ndarray, fit, est) -> dict:
    """The analyses of one replicate from its smoother fit and estimate;
    returns a plain-dict record."""
    seed_i = config.seed + index
    n = fit.data.n
    base_loss = l2_loss_fn(fit, model, rule)
    record = {
        "index": index,
        "seed": seed_i,
        "theta_hat": est.theta.tolist(),
        "loss_value": est.value,
        "lambda": fit.lam,
        "rho": fit.kernel.rho.tolist(),
        "sigma2_hat": fit.sigma2_hat,
        "flags": sorted(set(fit.flags) | ({"estimate-not-converged"}
                                          if not est.converged else set())),
        "analyses": {},
    }
    sandwiches = {}     # one per variant, shared by its scalings
    for name in config.analyses:
        variant, kind, gval = parse_analysis(name)
        out = {"flags": []}
        try:
            if kind == "none":
                adj = no_scaling()
            elif kind == "fixed":
                adj = fixed_gamma(gval)
            else:
                if variant not in sandwiches:
                    sandwiches[variant] = (
                        marginal_matrices(est, fit, model, rule) if variant == "marginal"
                        else conditional_matrices(est, fit, model, rule,
                                                  form=config.conditional_form))
                sw = sandwiches[variant]
                adj = (magnitude_adjustment(sw) if kind == "magnitude"
                       else curvature_adjustment(sw, est.theta))
            if config.engine == "laplace":
                post = laplace_approx(est, adj, n)
            elif config.engine == "conjugate":
                if not model.scalar_linear:
                    raise ValueError("conjugate engine needs a scalar linear model")
                post = conjugate_posterior(linear_theta_hat(fit, rule), n, tau2=np.inf,
                                           gamma=adj.scalar_gamma, rule=rule)
            else:
                loss = scaled_loss(adj, base_loss, model.theta_box)
                prior = Prior.uniform(model.theta_box)
                init_cov = laplace_approx(est, adj, n).cov
                settings = SamplerSettings(chains=config.mcmc_chains,
                                           iterations=config.mcmc_iterations,
                                           thin=config.mcmc_thin,
                                           init=est.theta, init_cov=init_cov)
                post = sample_posterior(loss, prior, n, seed=seed_i,
                                        settings=settings)
            out["flags"].extend(post.flags)
            ci = credible_interval(post, level=config.level, mode=config.interval)
            out.update({
                "post_mean": post.mean.tolist(),
                "post_sd": post.sd.tolist(),
                "interval": ci.tolist(),
                "length": (ci[:, 1] - ci[:, 0]).tolist(),
                "covers": [bool(lo <= t <= hi) for (lo, hi), t in zip(ci, theta_star)],
                "gamma": adj.gamma if adj.kind == "magnitude" else None,
            })
        except (ScalingError, ValueError) as exc:
            out["flags"].append(f"analysis-failed: {exc}")
            out["failed"] = True
        out["flags"] = sorted(set(out["flags"]))
        record["analyses"][name] = out
    return record


def _study_slice(config: StudyConfig, theta_star: np.ndarray,
                 indices: list[int]) -> list[dict]:
    """Records of the replicates ``indices``, STUDY_CHUNK at a time: draw and
    fit each, estimate them all in one lockstep minimisation, then run each
    replicate's analyses."""
    model, system, defaults = make_scenario(config.scenario)
    rule = build_rule(model.x_box.lower, model.x_box.upper, config.quad_order)
    n = config.n if config.n is not None else defaults["n"]
    grid = None
    if system.design.kind == "equidistant":
        xs = np.linspace(system.design.lower[0], system.design.upper[0], n)
        grid = GcvGrid(xs.reshape(-1, 1), family=config.kernel_family)
    records = []
    for start in range(0, len(indices), STUDY_CHUNK):
        chunk = indices[start:start + STUDY_CHUNK]
        seeds = [config.seed + i for i in chunk]
        data = [generate_replicate(system, n, s) for s in seeds]
        if grid is None:    # a grid per design, dropped once it has fitted
            fits = [GcvGrid(d.design, family=config.kernel_family).fit(d.responses)
                    for d in data]
        else:
            fits = grid.fit_many(np.stack([d.responses for d in data]))
        ests = estimate_many(fits, model, rule, seeds, config.n_starts)
        records += [run_replicate(i, config, model, rule, theta_star, fit, est)
                    for i, fit, est in zip(chunk, fits, ests)]
    return records


def aggregate_records(records: list[dict], analyses) -> dict:
    out = {}
    for name in analyses:
        rows = [r["analyses"][name] for r in records]
        ok = [r for r in rows if not r.get("failed")]
        n_ok = len(ok)
        agg = {"n_replicates": len(rows), "n_used": n_ok,
               "n_failed": len(rows) - n_ok}
        if n_ok:
            agg.update({f"mean_{f}": np.mean([r[f] for r in ok], axis=0).tolist()
                        for f in ("post_mean", "post_sd", "length")})
            coverage = np.mean([r["covers"] for r in ok], axis=0, dtype=float)
            agg["coverage"] = coverage.tolist()
            agg["coverage_se"] = np.sqrt(coverage * (1 - coverage) / n_ok).tolist()
        agg["flag_counts"] = _tally(f.split(":", 1)[0] for r in rows for f in r["flags"])
        out[name] = agg
    return out


@dataclass
class SimulationReport:
    config: dict
    oracle_theta: list
    analyses: dict
    replicate_flags: dict
    records: list = field(default_factory=list, repr=False)
    kind: str = "study"

    def to_dict(self, include_records: bool = False) -> dict:
        d = {
            "schema": 1,
            "kind": self.kind,
            "config": self.config,
            "oracle_theta": self.oracle_theta,
            "analyses": self.analyses,
            "replicate_flags": self.replicate_flags,
            "provenance": {
                "package": "l2calib",
                "version": __version__,
                "seed": self.config.get("seed"),
                "quad_order": self.config.get("quad_order"),
            },
        }
        if include_records:
            d["records"] = self.records
        return d

    def to_json(self, include_records: bool = False) -> str:
        return json.dumps(self.to_dict(include_records), sort_keys=True, indent=2)

    def summary_rows(self) -> list[dict]:
        rows = []
        for name, agg in self.analyses.items():
            if "coverage" not in agg:
                rows.append({"analysis": name, "coordinate": "",
                             "mean_post_mean": "", "mean_post_sd": "",
                             "coverage": "", "mean_length": "",
                             "n_used": agg.get("n_used", 0)})
                continue
            for j in range(len(agg["coverage"])):
                rows.append({
                    "analysis": name,
                    "coordinate": j + 1,
                    "mean_post_mean": agg["mean_post_mean"][j],
                    "mean_post_sd": agg["mean_post_sd"][j],
                    "coverage": agg["coverage"][j],
                    "mean_length": agg["mean_length"][j],
                    "n_used": agg["n_used"],
                })
        return rows


def _map_slices(slice_fn, workers: int, replicates: int, *args) -> list:
    """``slice_fn(*args, chunk)`` for each chunk of replicates 0..replicates-1,
    in index order; the caller joins the results.

    With more than one worker the indices are cut into one contiguous chunk
    per worker and the chunks run in a process pool whose workers each run
    BLAS on one thread, whatever the start method; ``pool.map`` yields the
    results in the order the chunks were submitted. Otherwise all indices are
    one chunk, run in this process.
    """
    indices = list(range(replicates))
    if workers <= 1 or replicates <= 1:
        return [slice_fn(*args, indices)]
    size = (replicates + workers - 1) // workers
    chunks = [indices[i:i + size] for i in range(0, replicates, size)]
    # fork starts every worker up front, so start no more than there are chunks
    with ProcessPoolExecutor(max_workers=len(chunks), initializer=set_blas_threads,
                             initargs=(1,)) as pool:
        return list(pool.map(partial(slice_fn, *args), chunks))


def run_study(config: StudyConfig) -> SimulationReport:
    # once, in this process: pool workers receive theta* instead of re-deriving it
    theta_star = oracle_theta(config.scenario, config.quad_order)
    records = [r for part in _map_slices(_study_slice, config.workers, config.replicates,
                                         config, theta_star) for r in part]
    flags = _tally(f for r in records for f in r["flags"])
    return SimulationReport(config=_report_config(config), oracle_theta=theta_star.tolist(),
                            analyses=aggregate_records(records, config.analyses),
                            replicate_flags=flags, records=records)


# ---------------------------------------------------------------------------
# coverage study for the straight-line closed-form posterior
# ---------------------------------------------------------------------------

@dataclass
class ClosedFormStudyConfig:
    """Coverage study of the conjugate posterior on the straight-line scenario.

    For each replicate the smoother settings are chosen by GCV, the
    closed-form estimator and its sampling variance follow from the kernel
    weights, and three posteriors are summarised: gamma = 1, the
    variance-matched gamma (computed from ``tau2`` and the true noise level),
    and a fixed large gamma. Credible intervals use the flat-prior normal
    posterior; set ``prior_in_interval`` to keep the N(0, tau2) prior in the
    interval construction as well.
    """

    replicates: int = 10_000
    seed: int = 0
    sample_sizes: tuple = (4, 8)
    gamma_fixed: tuple = (1.0, 15.0)
    tau2: float = 1.0
    level: float = 0.95
    quad_order: int = DEFAULT_QUAD_ORDER
    kernel_family: str = "gaussian"
    prior_in_interval: bool = False
    workers: int = 1

    def __post_init__(self):
        _check_shared_fields(self)
        if not self.tau2 > 0.0:     # also refuses NaN; inf is the flat prior
            raise ValueError("tau2 must be > 0")
        if not all(0.0 < g < np.inf for g in self.gamma_fixed) or \
                len(set(_gamma_labels(self.gamma_fixed))) <= len(self.gamma_fixed):
            # each value labels a table cell, and equal labels would share one
            raise ValueError("gamma_fixed must be positive, finite and distinct "
                             "to 6 significant digits")


def _closed_form_slice(cfg: ClosedFormStudyConfig, n: int,
                       indices: list[int]) -> np.ndarray:
    """Rows (theta_hat, its sampling variance) of the replicates ``indices``."""
    model, system, _ = make_scenario("simple-linear")
    line = StraightLine(build_rule(model.x_box.lower, model.x_box.upper, cfg.quad_order))
    xs = np.linspace(0.0, 1.0, n)
    grid = GcvGrid(xs.reshape(-1, 1), family=cfg.kernel_family)
    # the response-free part of the estimator and its variance, per bandwidth
    qt_qs = np.stack([line.qt_q(spec, grid.design, qmat)
                      for spec, _, qmat in grid.bandwidths])
    eig = np.stack([d for _, d, _ in grid.bandwidths])
    y0 = np.asarray(system.mu(xs.reshape(-1, 1)), dtype=float)
    noise = np.stack([np.random.default_rng(cfg.seed + i).standard_normal(n)
                      for i in indices])
    ys = y0 + system.sigma * noise
    idx, j = grid.select_many(ys)[:2]
    lam = grid.lambda_grid[j]
    # z = Q'y as the one-response product qmat.T @ y, per selected bandwidth:
    # the same BLAS call as StraightLine.fit_terms, so theta_hat is unchanged
    z = np.empty_like(ys)
    for b in np.unique(idx):
        rows = idx == b
        z[rows] = (grid.bandwidths[b][2].T @ ys[rows, :, None])[..., 0]
    qt_q, d = qt_qs[idx], eig[idx]
    return np.stack([line.theta_hat(qt_q, z, d, lam),
                     line.variance(qt_q, d, lam, system.sigma**2)], axis=1)


def _gamma_labels(gamma_fixed) -> list[str]:
    """The table's gamma column: each fixed gamma, then the matched one."""
    return [f"{g:g}" for g in gamma_fixed] + ["matched"]


@dataclass
class ClosedFormReport(SimulationReport):
    """A closed-form study's report: one table entry per (n, gamma) cell."""

    kind: str = "closed-form-study"

    def summary_rows(self) -> list[dict]:
        columns = ("coverage", "coverage_se", "mean_length", "mean_gamma", "n_used")
        rows = []
        for n in self.config["sample_sizes"]:
            for label in _gamma_labels(self.config["gamma_fixed"]):
                agg = self.analyses[f"n={n},gamma={label}"]
                rows.append({"n": n, "gamma": label, **{k: agg.get(k, "") for k in columns}})
        return rows


def run_closed_form_study(cfg: ClosedFormStudyConfig) -> ClosedFormReport:
    z = NormalDist().inv_cdf(0.5 + cfg.level / 2.0)
    theta_star = float(oracle_theta("simple-linear", cfg.quad_order)[0])
    box = make_scenario("simple-linear")[0].x_box
    den = StraightLine(build_rule(box.lower, box.upper, cfg.quad_order)).den
    prior_prec = 1.0 / cfg.tau2 if cfg.prior_in_interval else 0.0
    tables = {}
    flags = {}
    for n in cfg.sample_sizes:
        parts = _map_slices(_closed_form_slice, cfg.workers, cfg.replicates, cfg, n)
        theta_hat, var_hat = np.concatenate(parts).T
        # NaN where var_hat >= tau2: no gamma matches, and that posterior is left out
        matched = np.where(var_hat < cfg.tau2,
                           matched_gamma(var_hat, n, den, cfg.tau2), np.nan)
        gammas = [np.full(cfg.replicates, g) for g in cfg.gamma_fixed] + [matched]
        for label, g in zip(_gamma_labels(cfg.gamma_fixed), gammas):
            used = ~np.isnan(g)
            n_used = int(used.sum())
            agg = tables[f"n={n},gamma={label}"] = {"n_used": n_used}
            if n_used:
                prec, mean = normal_posterior(theta_hat[used], n, g[used], den, prior_prec)
                sd = np.sqrt(1.0 / prec)
                c = float(np.mean(np.abs(mean - theta_star) <= z * sd))
                agg.update(coverage=c, coverage_se=float(np.sqrt(c * (1 - c) / n_used)),
                           mean_length=float(np.mean(2.0 * z * sd)),
                           mean_post_mean=float(mean.mean()), mean_gamma=float(g[used].mean()))
        if undefined := int(np.isnan(matched).sum()):
            flags[f"n={n}:variance-matching-undefined"] = undefined
    return ClosedFormReport(config=_report_config(cfg), oracle_theta=[theta_star],
                            analyses=tables, replicate_flags=dict(sorted(flags.items())))
