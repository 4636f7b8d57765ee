"""The golden determinism scenarios, canonical serialization, and digests.

``tests/golden/`` pins two full simulations — every result field, byte
for byte — against kernel changes.  This module is the single source of
truth for *what* those scenarios are and *how* a result is serialized
for comparison, shared by the test suite (``tests/
test_golden_determinism.py``), the ``profess golden`` CLI, and the CI
``determinism`` job that regenerates the blobs on multiple Python
versions and cross-checks their digests.

The scenarios were captured from the pre-optimization kernel (commit
a771054); regenerate the blobs ONLY when a change is *intended* to alter
simulation results, and say so explicitly in the commit message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:
    from repro.sim.engine import SimulationDriver


def _single_pom_driver(_ignored: object = None) -> "SimulationDriver":
    from repro.common.config import paper_single_core
    from repro.sim.engine import SimulationDriver
    from repro.traces.generator import synthesize_trace

    config = paper_single_core(scale=128)
    traces = [("zeusmp", synthesize_trace("zeusmp", 1500, scale=128, seed=0))]
    return SimulationDriver(config, "pom", traces, seed=0)


def _quad_profess_driver(_ignored: object = None) -> "SimulationDriver":
    from repro.common.config import paper_quad_core
    from repro.sim.engine import SimulationDriver
    from repro.traces.generator import synthesize_trace

    config = paper_quad_core(scale=128)
    traces = [
        ("zeusmp", synthesize_trace("zeusmp", 1200, scale=128, seed=0)),
        ("leslie3d", synthesize_trace("leslie3d", 800, scale=128, seed=1)),
        ("mcf", synthesize_trace("mcf", 800, scale=128, seed=2)),
        ("libquantum", synthesize_trace("libquantum", 800, scale=128, seed=3)),
    ]
    return SimulationDriver(config, "profess", traces, seed=0)


def _quad_composed_driver(_ignored: object = None) -> "SimulationDriver":
    """A composed registry spec: ProFess with the LFU STC replacement.

    Pins the whole composable-policy path — spec parsing, canonical
    naming (``mdm+rsm+stc:lfu`` -> ``profess+stc:lfu``), axis resolution,
    and the non-default STC array — byte for byte.
    """
    from repro.common.config import paper_quad_core
    from repro.sim.engine import SimulationDriver
    from repro.traces.generator import synthesize_trace

    config = paper_quad_core(scale=128)
    traces = [
        ("zeusmp", synthesize_trace("zeusmp", 1000, scale=128, seed=0)),
        ("leslie3d", synthesize_trace("leslie3d", 600, scale=128, seed=1)),
        ("mcf", synthesize_trace("mcf", 600, scale=128, seed=2)),
        ("libquantum", synthesize_trace("libquantum", 600, scale=128, seed=3)),
    ]
    return SimulationDriver(config, "mdm+rsm+stc:lfu", traces, seed=0)


#: name -> fresh driver for that scenario.  A builder accepts and
#: ignores one optional positional argument (it once carried a
#: memory-timing backend override), so one-argument callers such as
#: ``perfbench/tests`` keep working.
GOLDEN_SCENARIOS: Dict[str, Callable[..., "SimulationDriver"]] = {
    "single_pom": _single_pom_driver,
    "quad_profess": _quad_profess_driver,
    "quad_composed": _quad_composed_driver,
}


def golden_text(name: str) -> str:
    """Run scenario ``name`` and serialize exactly as the blobs were.

    Any drift in values OR in ``to_dict()`` structure changes the text
    (and therefore the digest).
    """
    result = GOLDEN_SCENARIOS[name]().run()
    return json.dumps(result.to_dict(), indent=1, sort_keys=True) + "\n"


def golden_digest(name: str) -> str:
    """SHA-256 of the scenario's canonical serialization."""
    return hashlib.sha256(golden_text(name).encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """Canonical SHA-256 of one :class:`SimulationResult`.

    The byte-identity contract for resilient execution (DESIGN.md §15):
    however a result was obtained — serial, pooled, retried after a
    worker death, re-attempted by a rerun, or read back from the
    integrity-checked cache — its canonical serialization must hash the
    same as a clean serial run's.  The chaos suite asserts exactly this.
    Uses the same serialization as the golden blobs so the two
    determinism contracts cannot drift apart.
    """
    text = json.dumps(result.to_dict(), indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def golden_digests() -> Dict[str, str]:
    """Digest of every golden scenario (the cross-version CI payload)."""
    return {name: golden_digest(name) for name in sorted(GOLDEN_SCENARIOS)}


def check_against_blobs(golden_dir: Path) -> Dict[str, str]:
    """Regenerate every scenario and diff against ``golden_dir`` blobs.

    Returns ``{scenario: problem}`` for mismatching or missing blobs
    (empty = all byte-identical).
    """
    problems: Dict[str, str] = {}
    for name in sorted(GOLDEN_SCENARIOS):
        blob = golden_dir / f"{name}.json"
        if not blob.exists():
            problems[name] = f"missing blob {blob}"
            continue
        if golden_text(name) != blob.read_text():
            problems[name] = f"regenerated result differs from {blob}"
    return problems
