"""The response validator accepts sound responses and rejects corrupted ones."""

import math

import numpy as np
import pytest
from benchlib import check


def _mc_response(**overrides):
    probs = np.array([0.1, 0.6, 0.2, 0.05, 0.05])
    entropy = float(-(probs * np.log(probs)).sum())
    response = {
        "probs": probs.tolist(),
        "label": 1,
        "entropy": entropy,
        "mutual_information": 0.5 * entropy,
        "exit_index": None,
        "num_samples": 8,
        "latency_s": 0.004,
    }
    response.update(overrides)
    return response


def _validate(response, num_samples=8):
    return check.validate(response, num_classes=5, num_exits=2, num_samples=num_samples)


def test_sound_mc_response_passes():
    assert _validate(_mc_response()) is None


def test_sound_early_exit_response_passes():
    response = _mc_response(mutual_information=None, exit_index=1, num_samples=None)
    assert _validate(response, num_samples=None) is None


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"probs": [0.2, 0.6, 0.2, 0.05, 0.05]}, "distribution"),
        ({"probs": [math.nan, 0.6, 0.2, 0.1, 0.1]}, "finite"),
        ({"label": 0}, "argmax"),
        ({"entropy": 2.0}, "entropy"),
        ({"mutual_information": -0.1}, "mutual information"),
        ({"num_samples": 4}, "num_samples"),
        ({"probs": [0.5, 0.5]}, "shape"),
    ],
)
def test_corrupted_mc_response_is_rejected(overrides, fragment):
    problem = _validate(_mc_response(**overrides))
    assert problem is not None and fragment in problem


@pytest.mark.parametrize("index", [None, -1, 2])
def test_early_exit_index_out_of_range_is_rejected(index):
    response = _mc_response(mutual_information=None, exit_index=index, num_samples=None)
    assert "exit_index" in _validate(response, num_samples=None)


def test_probe_digest_matches_a_served_batch():
    """A direct call under ForwardContext(spawn_key=seq) equals the served bits."""
    import asyncio

    from benchlib import models

    from repro.serving import ServingConfig, ServingEngine

    x = np.random.default_rng(0).standard_normal((1, 12, 12))

    async def serve():
        engine = ServingEngine(models.demo_lenet(), ServingConfig(num_samples=8))
        async with engine:
            await engine.submit(x)  # batch seq 0
            return await engine.submit(x)  # batch seq 1

    served = asyncio.run(serve())
    direct = check.direct_digest(models.demo_lenet(), x, 1, 8, None)
    assert check.response_digest(served) == direct
    assert check.direct_digest(models.demo_lenet(), x, 2, 8, None) != direct
