"""Every map here runs on the work queue, whose journals live under the
cache dir: keep them out of the shared cache."""

from __future__ import annotations

import pytest

from repro.queue import QUEUE_DIR_ENV


@pytest.fixture(autouse=True)
def isolated_queue_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv(QUEUE_DIR_ENV, raising=False)
