"""Shared test helpers: brute-force winding oracle, random map factories and
an evaluator that records its batch sizes."""
import math

import numpy as np
import pytest

from zerocert import Region, SampledMap, sample_sphere
from zerocert.mapspec import as_evaluator


def wrapped_angle_steps(images):
    angles = np.arctan2(images[:, 1], images[:, 0])
    steps = np.diff(np.concatenate([angles, angles[:1]]))
    return (steps + math.pi) % (2.0 * math.pi) - math.pi


def brute_force_winding(evaluator, samples=2 ** 16):
    """Independent oracle: dense fixed-grid angle sum around the circle."""
    theta = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ims = np.asarray(evaluator(pts), dtype=float)
    return int(round(float(np.sum(wrapped_angle_steps(ims))) / (2.0 * math.pi)))


def circle_map(theta_fn):
    """Evaluator on circle points from a function of the angle array."""
    def evaluator(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        theta = np.arctan2(pts[:, 1], pts[:, 0])
        return np.asarray(theta_fn(theta), dtype=float)
    return evaluator


def sampled_circle_map(evaluator, level=6):
    sampling = sample_sphere(Region.disk([0.0, 0.0], 1.0), level)
    return SampledMap.from_evaluator(evaluator, sampling)


def random_trig_map(rng, max_harmonic=3, min_norm=0.1):
    """Nonvanishing random trigonometric-polynomial boundary map."""
    while True:
        coefs = rng.normal(scale=1.0, size=(2, 2 * max_harmonic + 1))

        def theta_fn(theta, coefs=coefs):
            cols = [np.ones_like(theta)]
            for k in range(1, max_harmonic + 1):
                cols.append(np.cos(k * theta))
                cols.append(np.sin(k * theta))
            basis = np.stack(cols, axis=1)
            return basis @ coefs.T

        ev = circle_map(theta_fn)
        dense = ev(np.stack([np.cos(np.linspace(0, 2 * math.pi, 4096)),
                             np.sin(np.linspace(0, 2 * math.pi, 4096))], axis=1))
        if float(np.min(np.linalg.norm(dense, axis=1))) > min_norm:
            return ev


@pytest.fixture
def unit_disk():
    return Region.disk([0.0, 0.0], 1.0)


class CountingEvaluator:
    """Batch evaluator of a MapSpec or callable that appends the size of
    every batch it is called with to ``batches``."""

    def __init__(self, map_like):
        self._ev = as_evaluator(map_like)
        self.batches = []

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        self.batches.append(len(pts))
        return self._ev(pts)


@pytest.fixture
def counting_evaluator():
    return CountingEvaluator
