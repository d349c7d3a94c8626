"""On-disk store for descent histograms.

Histogram runs can be expensive, so completed (and partially completed)
counts can be persisted under a cache directory.  Files are plain text,
written atomically via a temp file and `os.replace`.  A histogram is
drawn in blocks, one substream each; a partial file records how many
blocks have been merged so far, and a later run with the same
parameters resumes from that point.

The cache directory comes from the `RIFFMIX_CACHE_DIR` environment
variable when not given explicitly.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import NamedTuple

FORMAT_TAG = "riffmix histogram v2"
ENV_VAR = "RIFFMIX_CACHE_DIR"


def default_cache_dir() -> Path | None:
    val = os.environ.get(ENV_VAR)
    return Path(val) if val else None


class HistogramKey(NamedTuple):
    """Identity of a histogram run; all fields must match to reuse counts.

    `streams` is the number of substreams (sample blocks) the run draws.
    `sampler` names the version of the sampling algorithm that drew the
    counts, so counts drawn by an older sampler are never served.
    """

    source_text: str
    target_text: str
    samples: int
    seed: int
    streams: int
    sampler: int = 0

    def fields(self) -> dict[str, str]:
        """Field name -> text, in the order files and the digest use."""
        return {
            "source": self.source_text,
            "target": self.target_text,
            "samples": str(self.samples),
            "seed": str(self.seed),
            "streams": str(self.streams),
            "sampler": str(self.sampler),
        }

    def digest(self) -> str:
        raw = "|".join(self.fields().values())
        return hashlib.sha256(raw.encode()).hexdigest()[:24]

    def path(self, cache_dir: Path) -> Path:
        return Path(cache_dir) / f"hist_{self.digest()}.txt"


def ensure_dir(cache_dir: str | Path) -> Path:
    """`cache_dir` as a `Path`, created if missing.  Raises `ValueError`
    naming it when it cannot be created."""
    cache_dir = Path(cache_dir)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(
            f"cannot use cache directory {cache_dir}: {exc.strerror}"
        ) from None
    return cache_dir


def store(
    cache_dir: Path,
    key: HistogramKey,
    counts: list[int],
    completed: int,
) -> None:
    """Atomically write `counts` merged over the first `completed` blocks."""
    cache_dir = ensure_dir(cache_dir)
    lines = [
        FORMAT_TAG,
        *(f"{k}={v}" for k, v in key.fields().items()),
        f"completed={completed}",
        "counts=" + ",".join(str(c) for c in counts),
        "",
    ]
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".hist_tmp_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(lines))
        os.replace(tmp, key.path(cache_dir))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load(cache_dir: Path, key: HistogramKey) -> tuple[tuple[int, ...], int] | None:
    """Counts and completed-block count for `key`, or None.

    Returns None when the file is missing, malformed, or describes a
    different run.
    """
    path = key.path(Path(cache_dir))
    try:
        text = path.read_text()
    except OSError:
        return None
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_TAG:
        return None
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        if "=" not in line:
            return None
        k, _, v = line.partition("=")
        fields[k] = v
    for k, v in key.fields().items():
        if fields.get(k) != v:
            return None
    try:
        completed = int(fields["completed"])
        counts = tuple(int(c) for c in fields["counts"].split(","))
    except (KeyError, ValueError):
        return None
    if not 0 <= completed <= key.streams:
        return None
    return counts, completed
