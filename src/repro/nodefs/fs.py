"""Filesystem interface for sampler plugins.

The interface is the minimal surface samplers need: read a whole small
file as text, check existence, list a directory.  Two implementations:

* :class:`RealFS` — the host's real filesystem (used on Linux to sample
  the actual /proc and /sys in the runnable examples and tests).
* :class:`SynthFS` — a registry of render callables keyed by path,
  backed by workload models.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.util.errors import ReproError

__all__ = ["FileSystem", "RealFS", "SynthFS"]


class FileSystem:
    def read(self, path: str) -> str:
        """Return the file's full text content."""
        raise NotImplementedError

    def exists(self, path: str) -> bool:
        raise NotImplementedError

    def listdir(self, path: str) -> list[str]:
        raise NotImplementedError


class RealFS(FileSystem):
    """Pass-through to the real filesystem."""

    def read(self, path: str) -> str:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            return f.read()

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def listdir(self, path: str) -> list[str]:
        return sorted(os.listdir(path))


class SynthFS(FileSystem):
    """Synthetic file tree: path -> render callable.

    Render callables take no arguments and return the file text as of
    "now"; time flows through the host models they close over, not
    through this class.
    """

    def __init__(self) -> None:
        self._files: dict[str, Callable[[], str]] = {}

    def register(self, path: str, render: Callable[[], str]) -> None:
        path = self._norm(path)
        if path in self._files:
            raise ReproError(f"synthetic file {path!r} already registered")
        self._files[path] = render

    def unregister(self, path: str) -> None:
        self._files.pop(self._norm(path), None)

    @staticmethod
    def _norm(path: str) -> str:
        return "/" + path.strip("/")

    def read(self, path: str) -> str:
        path = self._norm(path)
        try:
            render = self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None
        return render()

    def exists(self, path: str) -> bool:
        path = self._norm(path)
        if path in self._files:
            return True
        prefix = path.rstrip("/") + "/"
        return any(p.startswith(prefix) for p in self._files)

    def listdir(self, path: str) -> list[str]:
        prefix = self._norm(path).rstrip("/") + "/"
        names = set()
        for p in self._files:
            if p.startswith(prefix):
                names.add(p[len(prefix) :].split("/", 1)[0])
        if not names and not self.exists(path):
            raise FileNotFoundError(path)
        return sorted(names)

    def paths(self) -> list[str]:
        return sorted(self._files)
