"""Sources that the reach guards read (test_modules_reached, test_fields_read,
test_params_passed), and noise-free scanners and arms.

The program is src/ plus trialbench/ without its `test_*.py`: a module,
field or parameter that only tests reach has no caller.
"""

from pathlib import Path

import pytest

from insertsim.arm import error_model
from insertsim.scansim import scanner

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "src").rglob("*.py"))


def _program(sources: dict) -> dict:
    return {path: text for path, text in sources.items()
            if path.split("/")[0] in ("src", "trialbench")
            and not Path(path).name.startswith("test_")}


@pytest.fixture(scope="session")
def program_of():
    """The program part of a {repo-relative path: source text} map."""
    return _program


@pytest.fixture(scope="session")
def program_sources() -> dict:
    """Repo-relative path -> source text of every program module."""
    return _program({p.relative_to(ROOT).as_posix(): p.read_text()
                     for d in ("src", "trialbench") for p in sorted((ROOT / d).rglob("*.py"))})


def pytest_generate_tests(metafunc):
    """A test taking `src_module` runs once per module under src/, by its repo-relative path."""
    if "src_module" in metafunc.fixturenames:
        metafunc.parametrize("src_module", SRC_MODULES)


@pytest.fixture
def noise_free_scans(monkeypatch):
    """Scanner clouds without depth noise: each sample lies on the surface."""
    monkeypatch.setattr(scanner, "DEPTH_NOISE_STD", 0.0)


@pytest.fixture
def noise_free_arm(monkeypatch):
    """Arms without repeatability noise: only their joint bias moves them."""
    monkeypatch.setattr(error_model, "REPEAT_STD", 0.0)
