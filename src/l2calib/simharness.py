"""Replicated coverage studies for the calibration pipeline.

Per replicate: draw data from a scenario's physical system, smooth it, locate
the loss minimiser and run its analyses through ``run_analyses``, the one path
to a scaled posterior and its credible interval, which ``calibrate`` shares.
Aggregates report coverage of the population minimiser, mean posterior
summaries and interval lengths.

All randomness is indexed: replicate i uses seed ``base_seed + i`` for data
and the same seed for any sampling engine, so reports are byte-identical
across reruns and across worker counts.
"""

from __future__ import annotations

import json
import pickle
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache

import numpy as np

from . import __version__
from .asymptotics import (CONDITIONAL_FORMS, conditional_matrices,
                          marginal_matrices)
from .calibration import (StraightLine, estimate_many, estimate_theta,
                          linear_theta_hat, matched_gamma, normal_posterior,
                          sampler_l2_loss)
from .models import SCENARIO_NAMES, make_scenario
from .numerics import DEFAULT_QUAD_ORDER, N_STARTS, blas_threads, build_rule
from .posterior import (INTERVAL_MODES, LEVEL_BOUND, Prior, SamplerSettings,
                        conjugate_posterior, credible_interval, laplace_approx,
                        sample_posterior, two_sided_z)
from .scaling import (curvature_adjustment, fixed_gamma,
                      magnitude_adjustment, no_scaling, scaled_loss)
from .smoother import KERNEL_FAMILIES, MIN_OBSERVATIONS, Dataset, GcvGrid, KernelSpec
# not called here: perfbench/spans.py patches it on this module (ROADMAP item 1)
from .calibration import l2_loss_fn  # noqa: F401

VARIANTS = ("marginal", "conditional")
SCALINGS = ("magnitude", "curvature")
ENGINES = ("laplace", "mcmc", "conjugate")
# replicates a study slice fits and estimates together: a uniform design keeps
# this many smoother fits alive, each with its n x n eigenvectors
STUDY_CHUNK = 8
# closed-form replicates a worker needs to pay for its forked child on 2 CPUs (BENCH_27.json)
CLOSED_FORM_PER_WORKER = 250


def at_least(low: int) -> tuple:
    return (lambda v: v >= low, f"must be >= {low}")


# (test, message) on the study configs' fields, each config checking those it has,
# and on the CLI's settings of the same names
SHARED_BOUNDS = {
    "replicates": at_least(1), "level": LEVEL_BOUND, "workers": at_least(1),
    "seed": at_least(0), "quad_order": at_least(2),
    "n": (lambda v: v is None or v >= MIN_OBSERVATIONS, f"must be >= {MIN_OBSERVATIONS}"),
    "tau2": (lambda v: v > 0.0, "must be > 0"),     # also refuses NaN; inf is the flat prior
    "n_starts": at_least(1),
}


def analysis_names(variants=VARIANTS, scalings=SCALINGS) -> tuple:
    """The label "variant-scaling" of each pair, as ``parse_analysis`` reads it."""
    return tuple(f"{v}-{s}" for v in variants for s in scalings)


@dataclass
class StudyConfig:
    scenario: str
    replicates: int
    n: int | None = None
    seed: int = 0
    analyses: tuple = analysis_names()
    engine: str = "laplace"
    interval: str = "quantile"
    level: float = 0.95
    quad_order: int = DEFAULT_QUAD_ORDER
    kernel_family: str = "gaussian"
    conditional_form: str = "derived"
    n_starts: int = N_STARTS
    workers: int = 1
    mcmc_chains: int = SamplerSettings.chains
    mcmc_iterations: int = SamplerSettings.iterations
    mcmc_thin: int = SamplerSettings.thin

    def __post_init__(self):
        _check_shared_fields(self)
        _check_choice(self, "scenario", SCENARIO_NAMES)
        _check_choice(self, "engine", ENGINES)
        _check_choice(self, "interval", INTERVAL_MODES)
        _check_choice(self, "conditional_form", CONDITIONAL_FORMS)
        check_engine(self.engine, self.scenario, chains=self.mcmc_chains,
                     iterations=self.mcmc_iterations, thin=self.mcmc_thin)
        self.analyses = tuple(self.analyses)
        for a in self.analyses:
            parse_analysis(a)


def _check_shared_fields(config) -> None:
    """Validate the fields of ``SHARED_BOUNDS`` the config has, and its kernel."""
    for name, (test, message) in SHARED_BOUNDS.items():
        if hasattr(config, name) and not test(getattr(config, name)):
            raise ValueError(f"{name} {message}")
    _check_choice(config, "kernel_family", KERNEL_FAMILIES)


def check_engine(engine: str, scenario: str, **sampler) -> None:
    """Refuse, before any work, ``SamplerSettings(**sampler)`` that do not build or,
    for MCMC, keep too few draws, or the conjugate engine on a non-line model."""
    settings = SamplerSettings(**sampler)
    if engine == "mcmc":
        settings.check_kept_draws()
    if engine == "conjugate" and not make_scenario(scenario)[0].scalar_linear:
        raise ValueError("engine 'conjugate' needs a scalar linear model; "
                         f"scenario {scenario!r} is not")


def _check_choice(config, name: str, choices: tuple) -> None:
    value = getattr(config, name)
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; choose from {choices}")


def report_json(d: dict) -> str:
    """The text of a JSON report: sorted keys, so byte-stable across runs."""
    return json.dumps(d, sort_keys=True, indent=2)


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
        if not 0.0 < g < np.inf:
            raise ValueError(f"fixed gamma must be positive and finite in {name!r}")
        return None, "fixed", g
    parts = name.split("-")
    if len(parts) == 2 and parts[0] in VARIANTS and parts[1] in SCALINGS:
        return parts[0], parts[1], None
    raise ValueError(
        f"unknown analysis {name!r}; expected variant-scaling, 'unscaled' "
        "or 'fixed-gamma:<value>'")


def generate_replicate(system, n: int, seed: int) -> Dataset:
    """Draw one dataset from the system's design rule and noise level."""
    rng = np.random.default_rng(seed)
    x = system.design.points(n, rng)
    y = np.asarray(system.mu(x), dtype=float)
    if system.sigma > 0:
        y = y + system.sigma * rng.standard_normal(n)
    return Dataset(design=x, responses=y)


_ORACLE_CACHE: dict = {}


def oracle_theta(scenario: str, quad_order: int = DEFAULT_QUAD_ORDER) -> np.ndarray:
    """Population loss minimiser for a scenario, cached per quadrature order: a
    declared ``theta0`` where the truth is the model there, a straight line's
    box-clipped vertex int x mu / int x^2, else a 20-start estimate."""
    key = (scenario, quad_order)
    if key not in _ORACLE_CACHE:
        model, system, defaults = make_scenario(scenario)
        rule = build_rule(model.x_box.lower, model.x_box.upper, quad_order)
        if "theta0" in defaults:
            theta = np.array(defaults["theta0"], dtype=float)
        elif model.scalar_linear:
            line = StraightLine(rule)
            theta = model.theta_box.clip([line.wx @ system.mu(rule.nodes) / line.den])
        else:
            theta = estimate_theta(system.mu, model, rule, "l2", seed=1, n_starts=20).theta
        _ORACLE_CACHE[key] = theta
    return _ORACLE_CACHE[key].copy()


def run_analyses(names, est, fit, model, rule, sandwich, engine: str, level: float,
                 interval: str, seed: int, settings: SamplerSettings,
                 sampler=None) -> dict:
    """name -> (report entry, adjustment, posterior) of each analysis of one
    estimate, the path ``calibrate`` and ``simulate`` share; ``sandwich(variant)``
    gives a variant's matrices, and the adjustment and the posterior are None
    where the analysis failed before building them."""
    n = fit.data.n
    base_loss = sampler_l2_loss(fit, model, rule) if engine == "mcmc" else None
    theta_hat = linear_theta_hat(fit, rule) if engine == "conjugate" else None
    out = {}
    for name in names:
        variant, kind, gval = parse_analysis(name)
        entry, adj, post = {"flags": []}, None, None
        try:
            if kind == "none":
                adj = no_scaling()
            elif kind == "fixed":
                adj = fixed_gamma(gval)
            else:
                adj = (magnitude_adjustment(sandwich(variant)) if kind == "magnitude"
                       else curvature_adjustment(sandwich(variant), est.theta))
            if engine == "laplace":
                post = laplace_approx(est, adj, n)
            elif engine == "conjugate":
                post = conjugate_posterior(theta_hat, n, tau2=np.inf,
                                           gamma=adj.scalar_gamma, rule=rule)
            else:
                # the default is looked up per call, so a patched module name is seen
                post = (sampler or sample_posterior)(
                    scaled_loss(adj, base_loss, model.theta_box), Prior(model.theta_box), n,
                    laplace_approx(est, adj, n), seed=seed, settings=settings)
            entry["flags"].extend(post.flags)
            entry.update(post_mean=post.mean.tolist(), post_sd=post.sd.tolist(),
                         interval=credible_interval(post, level=level, mode=interval).tolist())
        except ValueError as exc:     # ScalingError is one
            entry["flags"].append(f"analysis-failed: {exc}")
            entry["failed"] = True
        entry["flags"] = sorted(set(entry["flags"]))
        out[name] = entry, adj, post
    return out


def run_replicate(index: int, config: StudyConfig, model, rule,
                  theta_star: np.ndarray, fit, est) -> dict:
    """The analyses of one replicate from its smoother fit and estimate;
    returns a plain-dict record."""
    seed_i = config.seed + index
    sandwich = cache(lambda variant: (     # one per variant, shared by its scalings
        marginal_matrices(est, fit, model, rule) if variant == "marginal"
        else conditional_matrices(est, fit, model, rule, form=config.conditional_form)))
    settings = SamplerSettings(config.mcmc_chains, config.mcmc_iterations, config.mcmc_thin)
    analyses = run_analyses(config.analyses, est, fit, model, rule, sandwich, config.engine,
                            config.level, config.interval, seed_i, settings)
    for out, adj, _ in analyses.values():
        if ci := out.get("interval"):     # the analysis did not fail
            out.update(length=[hi - lo for lo, hi in ci],
                       covers=[bool(lo <= t <= hi) for (lo, hi), t in zip(ci, theta_star)],
                       gamma=adj.gamma if adj.kind == "magnitude" else None)
    return {
        "index": index,
        "seed": seed_i,
        "theta_hat": est.theta.tolist(),
        "loss_value": est.value,
        "lambda": fit.lam,
        "rho": fit.kernel.rho.tolist(),
        "sigma2_hat": fit.sigma2_hat,
        "flags": sorted({*fit.flags, *est.flags}),
        "analyses": {name: out for name, (out, _, _) in analyses.items()},
    }


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
        grid = GcvGrid(system.design.points(n), family=config.kernel_family)
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
        return report_json(self.to_dict(include_records))

    def summary_rows(self) -> list[dict]:
        """A row per analysis and coordinate; one blank row for an analysis no replicate used."""
        columns = ("mean_post_mean", "mean_post_sd", "coverage", "mean_length")
        rows = []
        for name, agg in self.analyses.items():
            for j in range(len(agg["coverage"])) if "coverage" in agg else [None]:
                rows.append({"analysis": name, "coordinate": "" if j is None else j + 1,
                             **{c: "" if j is None else agg[c][j] for c in columns},
                             "n_used": agg["n_used"]})
        return rows


def _child_slice(write, slice_fn, args, chunk) -> None:
    """Send ``(True, result)`` or ``(False, exc)``, as a RuntimeError if exc does not pickle."""
    try:
        write.send((True, slice_fn(*args, chunk)))
    except BaseException as exc:     # the parent raises it
        try:
            write.send((False, pickle.loads(pickle.dumps(exc))))
        except Exception:
            write.send((False, RuntimeError(f"{type(exc).__name__}: {exc}")))


def _map_slices(slice_fn, workers: int, replicates: int, *args) -> list:
    """``slice_fn(*args, chunk)`` for each chunk of replicates 0..replicates-1, in
    index order. Every slice runs BLAS on one thread, as a two-thread ``eigh`` or
    solve rounds differently, so no report depends on the worker count; this
    process gets its own count back after the slices, also on raise.

    With more than one worker, where "fork" is a start method, the indices are
    cut into one chunk per worker: this process runs the first, and forked
    children (see ``set_blas_threads``) run the others and pipe back ``(ok, value)``.
    If any chunk fails, every child is killed and joined before the error propagates.
    """
    indices = list(range(replicates))
    chunks, children = [indices], []
    if workers > 1 and replicates > 1:
        import multiprocessing      # only forking needs it: keep it off start-up
        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            size = (replicates + workers - 1) // workers
            chunks = [indices[i:i + size] for i in range(0, replicates, size)]
    with blas_threads(1):
        try:
            for chunk in chunks[1:]:
                read, write = fork.Pipe(duplex=False)
                child = fork.Process(target=_child_slice, args=(write, slice_fn, args, chunk))
                child.start()
                write.close()       # the child's copy is then the only one: EOF if it dies
                children.append((child, read))
            parts = [slice_fn(*args, chunks[0])]
            for child, read in children:
                try:
                    ok, value = read.recv()
                except EOFError:
                    child.join()
                    ok, value = False, RuntimeError(
                        f"a forked slice exited with code {child.exitcode}")
                if not ok:
                    raise value
                parts.append(value)
            return parts
        except BaseException:
            for child, _ in children:
                child.kill()
            raise
        finally:
            for child, read in children:
                child.join()
                read.close()


def run_study(config: StudyConfig) -> SimulationReport:
    # once, in this process: forked children inherit theta* instead of re-deriving it
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
        if not all(0.0 < g < np.inf for g in self.gamma_fixed) or \
                len(set(_gamma_labels(self.gamma_fixed))) <= len(self.gamma_fixed):
            # each value labels a table cell, and equal labels would share one
            raise ValueError("gamma_fixed must be positive, finite and distinct "
                             "to 6 significant digits")
        sizes = self.sample_sizes
        if not sizes or len(set(sizes)) < len(sizes) or not all(
                isinstance(n, int) and n >= MIN_OBSERVATIONS for n in sizes):
            raise ValueError("sample_sizes must be distinct integers >= "
                             f"{MIN_OBSERVATIONS}, and at least one")


def _closed_form_slice(cfg: ClosedFormStudyConfig, indices: list[int]) -> np.ndarray:
    """Rows (theta_hat, its sampling variance) of the replicates ``indices``,
    one block per sample size: a ``(len(sample_sizes), len(indices), 2)`` array.

    Replicate i draws one noise stream from seed ``cfg.seed + i``, and size n
    uses its first n draws, which are the n draws that seed alone gives."""
    model, system, _ = make_scenario("simple-linear")
    line = StraightLine(build_rule(model.x_box.lower, model.x_box.upper, cfg.quad_order))
    noise = np.stack([np.random.default_rng(cfg.seed + i)
                      .standard_normal(max(cfg.sample_sizes)) for i in indices])
    blocks = []
    for n in cfg.sample_sizes:
        xs = system.design.points(n)
        grid = GcvGrid(xs, family=cfg.kernel_family)
        # the response-free part of the estimator and its variance, per bandwidth
        qt_qs = line.qt_q(KernelSpec(grid.family, grid.rho_grid), xs, grid.eig_vectors)
        y0 = np.asarray(system.mu(xs), dtype=float)
        ys = y0 + system.sigma * noise[:, :n]
        idx, j, _, _, _, z = grid.select_many(ys)
        lam = grid.lambda_grid[j]
        qt_q, d = qt_qs[idx], grid.eig_values[idx]
        blocks.append(np.stack([line.theta_hat(qt_q, z, d, lam),
                                line.variance(qt_q, d, lam, system.sigma**2)], axis=1))
    return np.stack(blocks)


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
    z = two_sided_z(cfg.level)
    theta_star = float(oracle_theta("simple-linear", cfg.quad_order)[0])
    box = make_scenario("simple-linear")[0].x_box
    den = StraightLine(build_rule(box.lower, box.upper, cfg.quad_order)).den
    prior_prec = 1.0 / cfg.tau2 if cfg.prior_in_interval else 0.0
    tables = {}
    flags = {}
    # one set of slices for all sample sizes, and no child unless it pays (CLOSED_FORM_PER_WORKER)
    workers = min(cfg.workers, max(1, cfg.replicates // CLOSED_FORM_PER_WORKER))
    est = np.concatenate(_map_slices(_closed_form_slice, workers, cfg.replicates, cfg), axis=1)
    for n, (theta_hat, var_hat) in zip(cfg.sample_sizes, est.transpose(0, 2, 1)):
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
