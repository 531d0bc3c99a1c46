from pathlib import Path

import pytest

from fdlb import parse_kb, parse_ubox

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_kb(name):
    result = parse_kb((FIXTURES / name).read_text(encoding="utf-8"))
    assert result.ok, [d.message for d in result.diagnostics]
    return result.kb


def load_ubox(name):
    result = parse_ubox((FIXTURES / name).read_text(encoding="utf-8"))
    assert result.ubox is not None, [d.message for d in result.diagnostics]
    return result.ubox


@pytest.fixture(scope="session")
def crisp_kb():
    return load_kb("tablet_crisp.fdlb")


@pytest.fixture(scope="session")
def fuzzy_kb():
    return load_kb("tablet_fuzzy.fdlb")


@pytest.fixture(scope="session")
def complete_kb():
    return load_kb("tablet_complete.fdlb")


@pytest.fixture(scope="session")
def expert1():
    return load_ubox("expert1.ubox")


@pytest.fixture(scope="session")
def expert2():
    return load_ubox("expert2.ubox")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES
