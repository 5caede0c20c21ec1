import os
import pathlib
import sys

import pytest

# Write no bytecode next to `src/typika`, here or in the `python -m typika`
# subprocesses the tests start, so no later run imports a stale cache.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from typika.parser import parse_kb  # noqa: E402

REPO = pathlib.Path(__file__).resolve().parent.parent
KBS = REPO / "kbs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

SET3_TEXT = (KBS / "set3.kb").read_text(encoding="utf-8")
SET1_TEXT = (KBS / "set1.kb").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def kb_set3():
    """Birds fly and have nice feathers; penguins are flightless birds."""
    return parse_kb(SET3_TEXT)


@pytest.fixture(scope="session")
def kb_set1():
    """Students, working students, and apprentice working students."""
    return parse_kb(SET1_TEXT)
