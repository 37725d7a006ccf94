"""The benchmark's span wrappers still find every function they patch.

``perfbench/spans.py`` replaces functions by name in the modules that call
them, so a function that moves out of one of those modules makes
``instrument`` fail with AttributeError, and a sampler call that no longer
goes through ``cli.sample_posterior`` escapes ``capture_samples``. The file
is loaded as it stands; these tests never edit it.
"""

import importlib.util
from pathlib import Path

from l2calib import cli, posterior
from l2calib.posterior import PosteriorSample

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# four analyses (both variants, both scalings) of a small sampler run
MCMC_ARGV = ["calibrate", "--scenario", "simple-linear", "--engine", "mcmc",
             "--chains", "2", "--iterations", "200", "--thin", "1"]


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_wraps_and_restores_every_traced_name(tmp_path):
    spans = _spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cli.sample_posterior is not posterior.sample_posterior
        assert cli.main(MCMC_ARGV + ["--out", str(tmp_path / "r.json")]) in (0, 1)
    assert cli.sample_posterior is posterior.sample_posterior
    assert tracer.calls("posterior.sample_posterior") == 4
    assert len(tracer.samples) == 4


def test_instrument_traces_the_study_estimator(tmp_path):
    # a study chunk's estimates go through the traced minimiser and loss closure
    spans = _spans()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert cli.main(["simulate", "--scenario", "scenario1", "--replicates", "2",
                         "--workers", "1", "--out", str(tmp_path / "r.json")]) in (0, 1)
    assert tracer.calls("numerics.minimize_box") >= 1
    assert tracer.calls("calibration.loss") >= 1


def test_capture_samples_keeps_one_sample_per_analysis(tmp_path):
    spans = _spans()
    sink: list = []
    with spans.capture_samples(cli, sink):
        assert cli.main(MCMC_ARGV + ["--out", str(tmp_path / "r.json")]) in (0, 1)
    assert len(sink) == 4
    assert all(isinstance(s, PosteriorSample) for s in sink)
