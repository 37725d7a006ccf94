"""Spans and counters recorded around the public functions of ``l2calib``.

Nothing inside the package changes. ``instrument`` replaces each traced
function in the namespace its callers import it from (``l2calib.cli``,
``l2calib.simharness``, ...) with a wrapper that records a span, and
restores the originals on exit. Methods are wrapped on their class, and the
loss closures and model functions handed out by the package are wrapped as
they are returned, so that every loss evaluation and every ``eta`` call is
counted where it happens.

A span's self time is its duration minus the time covered by the spans it
caused; it is charged to the module named before the first dot of the span
name, which gives each module's share of the wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MODULES = ("numerics", "models", "smoother", "calibration", "asymptotics",
           "scaling", "posterior", "simharness", "cli")


class Tracer:
    """In-memory span durations, per-module self time and named counters."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: list = []

    def wrap(self, name: str, fn, on_return=None):
        """Return ``fn`` wrapped in a span named ``module.what``.

        ``on_return(result, args)`` runs after the span closes and may
        replace the result (used to wrap returned closures).
        """
        module = name.split(".", 1)[0]
        stack, durations, self_s = self._stack, self.durations[name], self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                self_s[module] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                durations.append(dur)
            if on_return is not None:
                result = on_return(result, args)
            return result

        return wrapper

    def total(self, name: str) -> float:
        return float(sum(self.durations.get(name, ())))

    def mean(self, *names: str) -> float:
        vals = [d for n in names for d in self.durations.get(n, ())]
        return float(np.mean(vals)) if vals else 0.0

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def capture_samples(cli, sink: list):
    """Keep every PosteriorSample the CLI's sampler returns (no timing)."""
    original = cli.sample_posterior

    def sample_posterior(*args, **kwargs):
        post = original(*args, **kwargs)
        sink.append(post)
        return post

    return patched([(cli, "sample_posterior", sample_posterior)])


def instrument(tr: Tracer):
    """Context manager that installs every span wrapper of ``tr``."""
    from l2calib import calibration as cal
    from l2calib import cli, scaling as sc, simharness as sh, smoother as sm

    def model_with_counted_eta(result, args):
        model, system, defaults = result
        dim = model.x_box.dim

        def count_points(out, eta_args):
            tr.counts["models.eta_points"] += int(np.size(eta_args[1])) // dim
            return out

        model = dataclasses.replace(
            model,
            eta=tr.wrap("models.eta", model.eta, count_points),
            grad_eta=tr.wrap("models.grad_eta", model.grad_eta),
            hess_eta=tr.wrap("models.hess_eta", model.hess_eta))
        return model, system, defaults

    def traced_loss(result, args):
        return tr.wrap("calibration.loss", result)

    def traced_scaled_loss(result, args):
        base_loss = args[1]
        return result if result is base_loss else tr.wrap("scaling.loss", result)

    def edge_hit(result, args):
        grid = args[0]
        idx, lam = result[0], result[1]
        lam_grid = grid.lambda_grid
        on_edge = idx in (0, len(grid.rho_grid) - 1) or lam in (lam_grid[0], lam_grid[-1])
        tr.counts["smoother.edge_hits"] += int(on_edge)
        return result

    def keep_sample(post, args):
        tr.samples.append(post)
        return post

    def estimate_theta(fn):
        evals = tr.durations["calibration.loss"]

        def counted(*args, **kwargs):
            before = len(evals)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.counts["calibration.loss_evals_in_estimates"] += len(evals) - before

        return tr.wrap("calibration.estimate_theta", counted)

    spans = {
        # name: (on_return, owners whose attribute of that name is replaced)
        "models.make_scenario": (model_with_counted_eta, (cli, sh)),
        "numerics.build_rule": (None, (cli, sh)),
        "numerics.minimize_box": (None, (cal,)),
        "smoother.fit_smoother": (None, (cli,)),
        "calibration.l2_loss_fn": (traced_loss, (cli, sh, cal)),
        "calibration.ols_loss_fn": (traced_loss, (cal,)),
        "calibration.l2_loss_hess": (None, (cal,)),
        "calibration.ols_loss_hess": (None, (cal,)),
        "asymptotics.marginal_matrices": (None, (cli, sh)),
        "asymptotics.conditional_matrices": (None, (cli, sh)),
        "asymptotics.ols_matrices": (None, (cli,)),
        "scaling.magnitude_adjustment": (None, (cli, sh)),
        "scaling.curvature_adjustment": (None, (cli, sh)),
        # cli imports scaled_loss from the scaling module inside cmd_calibrate
        "scaling.scaled_loss": (traced_scaled_loss, (sh, sc)),
        "posterior.laplace_approx": (None, (cli, sh)),
        "posterior.sample_posterior": (keep_sample, (cli, sh)),
        "posterior.credible_interval": (None, (cli, sh)),
        "posterior.conjugate_posterior": (None, (sh,)),
        "simharness.run_study": (None, (cli,)),
        "simharness.run_closed_form_study": (None, (cli,)),
        "simharness.generate_replicate": (None, (cli, sh)),
        "simharness.run_replicate": (None, (sh,)),
        "simharness.oracle_theta": (None, (sh,)),
        "simharness.aggregate_records": (None, (sh,)),
    }
    replacements = []
    for name, (on_return, owners) in spans.items():
        attr = name.split(".", 1)[1]
        for owner in owners:
            replacements.append(
                (owner, attr, tr.wrap(name, getattr(owner, attr), on_return)))
    for owner in (cli, sh):
        replacements.append((owner, "estimate_theta",
                             estimate_theta(owner.estimate_theta)))
    grid, fit = sm.GcvGrid, sm.SmootherFit
    replacements += [
        (grid, "__init__", tr.wrap("smoother.grid_build", grid.__init__)),
        (grid, "select", tr.wrap("smoother.select", grid.select, edge_hit)),
        (grid, "fit", tr.wrap("smoother.grid_fit", grid.fit)),
        (fit, "predict", tr.wrap("smoother.predict", fit.predict)),
        (fit, "weights", tr.wrap("smoother.weights", fit.weights)),
    ]
    return patched(replacements)
