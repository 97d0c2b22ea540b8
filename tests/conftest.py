from pathlib import Path

import pytest

from threatshare import ingest, xt

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "data" / "fixture"


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def fixture_actions(fixture_dir):
    """All SPADL actions of the two bundled matches, in file order."""
    actions = []
    for path in sorted(fixture_dir.glob("*.json")):
        actions.extend(ingest.to_spadl(ingest.parse_events(path).events))
    return actions


@pytest.fixture(scope="session")
def fixture_grid(fixture_actions):
    return xt.fit_grid(fixture_actions, 16, 12)


@pytest.fixture(scope="session")
def fixture_features(fixture_dir):
    stats = ingest.load_player_stats(fixture_dir / "player_stats.csv")
    return ingest.normalize_per90(stats)


@pytest.fixture(scope="session")
def fixture_roles(fixture_dir):
    return ingest.load_player_roles(fixture_dir / "player_roles.csv")
