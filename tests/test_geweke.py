"""Geweke's joint-distribution test of the whole sampler, on each of its paths.

``bench/calibrate.py`` holds the fixed model, the hook that redraws the cells
after every sweep and the scoring; run as a script it also runs the long
version and shows that each known mutant of the sweep fails.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import calibrate  # noqa: E402

SEED = 1  # fixed before the first run


@pytest.mark.parametrize("path", sorted(calibrate.PATHS))
def test_every_parameter_keeps_its_prior(path):
    # balanced: normal, complete; general: normal, one cell missing; robust
    scores = calibrate.run_path(path, kept=20_000, seed=SEED)
    assert set(scores) == set(calibrate.prior_moments(calibrate.geweke_spec(calibrate.PATHS[path][0])))
    assert max(abs(z) for z in scores.values()) <= calibrate.BOUND, scores
