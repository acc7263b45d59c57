"""Most-frequent-sense mapping from anchor statistics.

Each lowercased surface form maps to the concept it most often links to;
ties prefer the smaller page id, so the index is fully deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(slots=True)
class SenseIndex:
    """surface form -> (winning page_id, its anchor count)."""

    mapping: dict[str, tuple[int, int]] = field(default_factory=dict)

    def lookup(self, surface: str) -> int | None:
        """Most frequent sense for a surface form, or None when unseen."""
        entry = self.mapping.get(" ".join(surface.split()).lower())
        return entry[0] if entry else None

    def __len__(self) -> int:
        return len(self.mapping)

    def __contains__(self, surface: str) -> bool:
        return self.lookup(surface) is not None


def load_sense_index(path: str | Path) -> SenseIndex:
    """Build the index from an aggregated ``surface<TAB>page_id<TAB>count`` file.

    Surfaces are normalised before counting; a blank surface raises ValueError.
    """
    counts: Counter = Counter()
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 tab-separated fields")
            surface, page_id, count = parts
            key = " ".join(surface.split()).lower()
            if not key:
                raise ValueError(f"{path}: line {lineno}: blank surface")
            try:
                counts[(key, int(page_id))] += int(count)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: bad integer field") from None
    by_surface: dict[str, tuple[int, int]] = {}
    for (surface, page_id), n in counts.items():
        best = by_surface.get(surface)
        # Higher count wins; equal counts go to the smaller page id.
        if best is None or (n, -page_id) > (best[1], -best[0]):
            by_surface[surface] = (page_id, n)
    return SenseIndex(by_surface)
