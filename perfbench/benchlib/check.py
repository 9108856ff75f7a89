"""Correctness checks on served responses.

Every response of every phase is validated (:func:`validate`), and a short
sequential probe is compared bit for bit against a direct engine call
(:func:`direct_digest`): one request per batch makes the batch sequence
numbers known, and a batch's result depends only on its input and the
``ForwardContext(spawn_key=seq)`` it ran under.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: slack for float rounding in the sum and entropy checks
_TOL = 1e-9


def response_fields(response) -> dict:
    """Normalise an ``UncertaintyResult`` or a parsed HTTP body to one dict."""
    if isinstance(response, dict):
        return response
    return {
        "probs": response.probs,
        "label": response.label,
        "entropy": response.entropy,
        "mutual_information": response.mutual_information,
        "exit_index": response.exit_index,
        "num_samples": response.num_samples,
        "latency_s": response.latency_s,
    }


def validate(
    response, num_classes: int, num_exits: int, num_samples: int | None
) -> str | None:
    """The first broken invariant of one response, or ``None`` if sound.

    ``num_samples=None`` means early-exit mode: an exit index is required
    and no MC sample count or mutual information is expected.
    """
    r = response_fields(response)
    probs = np.asarray(r["probs"], dtype=np.float64)
    if probs.shape != (num_classes,):
        return f"probs has shape {probs.shape}, expected ({num_classes},)"
    if not np.all(np.isfinite(probs)):
        return "probs are not finite"
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > _TOL:
        return f"probs do not form a distribution (sum {probs.sum()!r})"
    if r["label"] != int(np.argmax(probs)):
        return f"label {r['label']} is not argmax {int(np.argmax(probs))}"
    entropy = r["entropy"]
    if not (-_TOL <= entropy <= math.log(num_classes) + _TOL):
        return f"entropy {entropy} outside [0, ln C]"
    if num_samples is None:
        index = r["exit_index"]
        if index is None or not 0 <= index < num_exits:
            return f"exit_index {index} outside [0, {num_exits})"
        return None
    mi = r["mutual_information"]
    if mi is None or not (-_TOL <= mi <= entropy + _TOL):
        return f"mutual information {mi} outside [0, entropy {entropy}]"
    if r["num_samples"] != num_samples:
        return f"num_samples {r['num_samples']} != {num_samples}"
    return None


def digest(probs, label: int, exit_index: int | None) -> str:
    """Bit-exact fingerprint of one prediction."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(probs, dtype=np.float64).tobytes())
    h.update(f"{label}/{exit_index}".encode())
    return h.hexdigest()


def direct_digest(
    model, x: np.ndarray, seq: int, num_samples: int | None, threshold: float | None
) -> str:
    """Digest of a direct one-example engine call under batch seq ``seq``."""
    from repro.nn import ForwardContext

    ctx = ForwardContext(spawn_key=seq)
    batch = x[None]
    if threshold is not None:
        res = model.engine.early_exit_predict(batch, threshold, ctx=ctx)
        probs, index = res.probs[0], int(res.exit_indices[0])
    else:
        pred = model.engine.predict_mc(batch, num_samples, ctx=ctx)
        probs, index = pred.mean_probs[0], None
    return digest(probs, int(np.argmax(probs)), index)


def response_digest(response) -> str:
    r = response_fields(response)
    return digest(r["probs"], r["label"], r["exit_index"])
