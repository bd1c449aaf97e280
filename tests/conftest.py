import numpy as np
import pytest

from actimetrics import SyntheticSpec, estimate_noise_variance, preprocess_all, synthesize


@pytest.fixture(scope="session")
def bout_recording():
    """10 minutes of alternating rest/active motion with noise."""
    return synthesize(
        SyntheticSpec(
            subject_id="bout",
            duration_s=600.0,
            rest_s=180.0,
            active_s=120.0,
            active_freq_hz=1.5,
            active_amp_g=0.5,
            amp_jitter=0.3,
            noise_sd_g=0.02,
            seed=7,
        )
    )


@pytest.fixture(scope="session")
def bout_datasets(bout_recording):
    return dict(preprocess_all(bout_recording))


@pytest.fixture(scope="session")
def bout_noise(bout_recording):
    """The AI noise-variance estimate of ``bout_recording``."""
    return estimate_noise_variance(bout_recording)


@pytest.fixture(scope="session")
def rest_recording():
    """Noise-free rest at orientation (0, 0, 1)."""
    return synthesize(
        SyntheticSpec(
            subject_id="rest",
            duration_s=600.0,
            rest_s=600.0,
            active_s=0.0,
            noise_sd_g=0.0,
            seed=1,
        )
    )


def rng(seed=0):
    return np.random.default_rng(seed)
