"""Shared test helpers: optional real-data fixtures and a named pipe.

The two application datasets are not redistributed with the code. When a
checkout lacks them the tests that need them skip with a visible reason;
see tests/fixtures/README.md for the export procedure.
"""

import json
import os
import threading
from pathlib import Path

import pytest

from plm.io import check_fixture_manifest, load_csv

FIXTURE_DIR = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / name


def load_fixture(name: str):
    """Load a committed data fixture, skipping the caller when absent.

    When a manifest entry exists the loaded file is checked against it so
    silently drifting fixtures fail loudly instead of shifting numbers.
    """
    path = fixture_path(name)
    if not path.is_file():
        pytest.skip(
            f"fixture {name} is not committed in this checkout; "
            "see tests/fixtures/README.md for the export procedure"
        )
    data = load_csv(path)
    manifest_file = FIXTURE_DIR / "manifest.json"
    if manifest_file.is_file():
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
        if name in manifest:
            check_fixture_manifest(data, manifest[name])
    return data


@pytest.fixture
def fifo():
    """``fifo(path, content)``: a named pipe made at ``path``, returned,
    whose first reader reads ``content`` from a writer thread. Each later
    open of the pipe reads nothing at once, as a reopened ``<(cat file)``
    does, so a reader that opens it twice fails instead of waiting for a
    writer."""
    done = threading.Event()
    writers = []

    def feed(path, content):
        while not done.wait(0.005):
            try:
                # Refused (ENXIO) while no reader has the pipe open.
                fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
            except OSError:
                continue
            os.set_blocking(fd, True)
            try:
                while content:
                    content = content[os.write(fd, content):]
            except BrokenPipeError:
                content = b""  # the reader stopped at an error
            finally:
                os.close(fd)

    def make(path, content: bytes):
        os.mkfifo(path)
        writer = threading.Thread(target=feed, daemon=True,
                                  args=(path, memoryview(content)))
        writer.start()
        writers.append(writer)
        return path

    yield make
    done.set()
    for writer in writers:
        writer.join(timeout=5)
