"""Fixtures shared by the test modules."""
import pytest


@pytest.fixture
def random_fpath():
    """``walk(rng, n)``: a seeded random F-path of length n, stepping
    uniformly over (0, 1) and the steps with a <= 2 that keep the
    height >= 0."""

    def walk(rng, n):
        q, height = [], 0
        for _ in range(n):
            steps = [(0, 1)] + [
                (a, b)
                for a in (1, 2)
                for b in (-1, 0, 1)
                if height + b - a >= 0
            ]
            a, b = rng.choice(steps)
            q.append((a, b))
            height += b - a
        return tuple(q)

    return walk
