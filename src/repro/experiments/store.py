"""Persistence of experiment results as JSON.

``profess report --store DIR`` archives every result it renders into
EXPERIMENTS.md as ``DIR/<experiment id>.json`` (the committed
``results/`` directory).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.common.serialize import jsonable
from repro.experiments.base import ExperimentResult


def save_result(result: ExperimentResult, directory: str | Path) -> Path:
    """Write one experiment result as ``<directory>/<experiment id>.json``;
    returns the file's path."""
    path = Path(directory) / f"{result.experiment_id}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = jsonable(asdict(result))
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
