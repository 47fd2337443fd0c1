"""Shared fixtures and naive reference helpers for the test suite."""

import numpy as np
import pytest

from cinefuse.catalog import Catalog, Movie, Rating, RatingScale, load_catalog
from cinefuse.cf import RatingMatrix
from cinefuse.cli import FIXTURE_DIR

# (number, label, passed) rows appended by the acceptance module so the run
# ends with one visible line per criterion regardless of output capture.
criterion_results: list[tuple[int, str, bool]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not criterion_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num, label, ok in sorted(criterion_results):
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{status}] {label}")


def load_fixture_catalog() -> Catalog:
    """A freshly loaded copy of the bundled toy dataset."""
    return load_catalog(
        FIXTURE_DIR / "movies.csv",
        FIXTURE_DIR / "ratings.csv",
        FIXTURE_DIR / "reviews.csv",
        implicit_path=FIXTURE_DIR / "implicit.csv",
    )


@pytest.fixture(scope="session")
def fixture_catalog() -> Catalog:
    """The bundled toy dataset, loaded once per session."""
    return load_fixture_catalog()


def make_matrix(values, scale=None) -> RatingMatrix:
    """RatingMatrix from a dense array with NaN for missing entries."""
    values = np.asarray(values, dtype=float)
    n_users, n_items = values.shape
    return RatingMatrix(
        user_ids=tuple(range(1, n_users + 1)),
        item_ids=tuple(range(101, 101 + n_items)),
        values=values.copy(),
        sources=(~np.isnan(values)).astype(np.uint8),
        scale=scale or RatingScale(),
    )


def random_rating_matrix(rng: np.random.Generator, max_users: int = 10, max_items: int = 10) -> RatingMatrix:
    """Random sparse matrix on the half-step scale, no empty rows or columns."""
    scale = RatingScale()
    n_u = int(rng.integers(2, max_users + 1))
    n_i = int(rng.integers(2, max_items + 1))
    density = float(rng.uniform(0.3, 0.9))
    choices = np.array(scale.values())
    values = np.full((n_u, n_i), np.nan)
    for i in range(n_u):
        for j in range(n_i):
            if rng.uniform() < density:
                values[i, j] = float(rng.choice(choices))
    for i in range(n_u):
        if np.all(np.isnan(values[i])):
            values[i, int(rng.integers(0, n_i))] = float(rng.choice(choices))
    for j in range(n_i):
        if np.all(np.isnan(values[:, j])):
            values[int(rng.integers(0, n_u)), j] = float(rng.choice(choices))
    return make_matrix(values, scale)


def tiny_catalog() -> Catalog:
    """Small in-memory catalog for unit tests that do not need files."""
    movies = {
        1: Movie(1, "Alpha Road", frozenset({"Drama"}), summary="a quiet road movie", release_year=2000),
        2: Movie(2, "Beta Storm", frozenset({"Action", "Drama"}), summary="storm chasers race a flood", release_year=2010),
        3: Movie(3, "Gamma Sky", frozenset({"Sci-Fi"}), summary="a pilot crosses a burning sky", release_year=2020),
        4: Movie(4, "Delta Creek", frozenset({"Drama", "Romance"}), summary="two families share one creek", release_year=1995),
    }
    ratings = [
        Rating(1, 1, 4.0, 100), Rating(1, 2, 3.0, 101), Rating(1, 3, 5.0, 102),
        Rating(2, 1, 3.5, 103), Rating(2, 2, 2.5, 104), Rating(2, 4, 4.0, 105),
        Rating(3, 2, 4.5, 106), Rating(3, 3, 3.0, 107), Rating(3, 4, 3.5, 108),
    ]
    title_groups = {}
    for mid, m in movies.items():
        key = m.title.lower()
        title_groups.setdefault(key, []).append(mid)
    return Catalog(
        movies=movies,
        ratings=ratings,
        reviews=[],
        implicit=[],
        scale=RatingScale(),
        dropped_reviews=0,
        title_groups={k: tuple(v) for k, v in title_groups.items()},
    )
