import numpy as np
import pytest
from hypothesis import settings

from oct_cascade import phantom

# The same examples on every run, so a property failure reproduces; example
# counts stay as each test sets them.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def clean_config(seed: int = 0) -> phantom.PhantomConfig:
    base = phantom.default_config("desk", seed=seed)
    return phantom.PhantomConfig.from_dict({**base.to_dict(), "noise_sigma": 0.0})


@pytest.fixture(scope="session")
def desk_phantom():
    """Default (noisy) desk phantom, seed 0."""
    cfg = phantom.default_config("desk", seed=0)
    volume, gt = phantom.generate(cfg)
    return cfg, volume, gt


@pytest.fixture(scope="session")
def clean_phantom():
    """Noise-free desk phantom, seed 0."""
    cfg = clean_config(0)
    volume, gt = phantom.generate(cfg)
    return cfg, volume, gt


def dice(a: np.ndarray, b: np.ndarray) -> float:
    inter = np.count_nonzero(a & b)
    total = np.count_nonzero(a) + np.count_nonzero(b)
    return 1.0 if total == 0 else 2.0 * inter / total
