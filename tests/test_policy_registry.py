"""The composable policy registry: specs, factory, axes, and back-compat.

Covers the full redesigned surface (repro.policies.registry):

* ``PolicySpec`` parsing, canonicalization, and the error taxonomy
  (``PolicySpecError`` / ``UnknownPolicyError``);
* registry completeness — every registered policy constructible under
  the default ``SystemConfig`` with axes resolved, listed in one order
  whatever a process imports first;
* axis semantics end-to-end (the STC replacement wires through to the
  array; the swap type stays the policy class's own);
* cache-key compatibility — pre-redesign ``SystemConfig.cache_token()``
  and ``RunSpec.cache_key()`` values are pinned as constants, and
  equivalent spec spellings collapse to one key;
* the package surface (no class re-exports; defining modules import
  silently);
* the CLI (``--policy`` validation exits 2, ``profess policies`` and
  the README tables it generates);
* serial/parallel byte-identity of the ``ext-policy-matrix`` sweep.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.cache.sets import REPLACEMENT_POLICIES
from repro.common.config import paper_quad_core, paper_single_core
from repro.common.errors import PolicySpecError, UnknownPolicyError
from repro.exec.executor import execute_spec
from repro.exec.spec import RunSpec
from repro.policies.registry import (
    PolicySpec,
    build_policy,
    canonical_policy,
    guided_bases,
    iter_registered,
    registry_names,
)

CONFIG = paper_quad_core(scale=64)

#: Pre-redesign regression constants, computed on the commit before the
#: registry landed.  They pin the promise that policy canonicalization
#: did NOT invalidate existing disk caches.
QUAD64_TOKEN = "7893fd1f5674002209965556632541ae1b4d218bad11d167cdcf90d3c54e9913"
SINGLE64_TOKEN = "75b3e0f22931d9553a48ca12b5c354785ebd2f85714cea8d5c474a9348282c7e"
MDM_MULTI_KEY = "8ae98a4fa4dd86827b22b98dc3351db4222a11707db82115a41db1556dd55f20"
PROFESS_SINGLE_KEY = (
    "84c825da41ff47ff9b19569918df4593f074db73c561cef5854d17b744d8d825"
)


class TestSpecParsing:
    def test_plain_base(self):
        spec = PolicySpec.parse("pom")
        assert spec == PolicySpec(base="pom")

    def test_registered_composition_expands(self):
        assert PolicySpec.parse("profess") == PolicySpec(
            base="mdm", guidance=True
        )
        assert PolicySpec.parse("rsm-pom") == PolicySpec(
            base="pom", guidance=True
        )

    def test_axes_any_order(self):
        forward = PolicySpec.parse("mdm+rsm+stc:lfu")
        shuffled = PolicySpec.parse("mdm+stc:lfu+rsm")
        assert forward == shuffled
        assert forward.stc_replacement == "lfu"
        assert forward.guidance

    def test_case_insensitive(self):
        assert PolicySpec.parse("PoM") == PolicySpec(base="pom")
        assert PolicySpec.parse("MDM+RSM+STC:LFU") == PolicySpec.parse(
            "mdm+rsm+stc:lfu"
        )

    def test_unknown_head_lists_known_names(self):
        with pytest.raises(UnknownPolicyError) as excinfo:
            PolicySpec.parse("nope")
        assert excinfo.value.name == "nope"
        assert "pom" in excinfo.value.known
        assert excinfo.value.known == sorted(excinfo.value.known)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "+rsm",
            "mdm+rsm+rsm",  # duplicate axis
            "mdm+stc:plru",  # unknown STC replacement
            "mdm+stc:fifo",  # STC replacements are lru and lfu only
            "mdm+turbo:on",  # unknown axis
            # The swap type belongs to the policy class, and no spec
            # drops a decided promotion: swap and bypass are no axes.
            "mdm+swap:fast",
            "mdm+swap:warp",
            "mdm+swap:",
            "mdm+bypass:0.05",
            "mdm+bypass:fast",
            "mdm+bypass:1.0",
            "mdm+bypass:-0.1",
        ],
    )
    def test_malformed_specs_rejected(self, text):
        with pytest.raises((PolicySpecError, UnknownPolicyError)):
            PolicySpec.parse(text)

    def test_spec_error_is_value_error(self):
        # Callers that caught the old make_policy errors keep working.
        with pytest.raises(ValueError):
            PolicySpec.parse("mdm+swap:warp")


class TestCanonicalization:
    def test_legacy_names_map_to_themselves(self):
        for name in registry_names():
            assert canonical_policy(name) == name

    def test_equivalent_spelling_collapses(self):
        assert canonical_policy("mdm+rsm") == "profess"
        assert canonical_policy("pom+rsm") == "rsm-pom"
        # An explicit class-default STC replacement is the inherited one.
        assert canonical_policy("pom+rsm+stc:lru") == "rsm-pom"
        assert PolicySpec("mdm", stc_replacement="lru").canonical() == "mdm"

    def test_composed_form_is_stable(self):
        text = "mdm+stc:lfu+rsm"
        canonical = canonical_policy(text)
        assert canonical == "profess+stc:lfu"
        # Canonicalization is idempotent.
        assert canonical_policy(canonical) == canonical

    def test_round_trip_parse_canonical(self):
        for text in ("pom", "profess", "mdm+stc:lfu", "pom+rsm+stc:lfu"):
            spec = PolicySpec.parse(text)
            assert PolicySpec.parse(spec.canonical()) == spec


class TestSerialization:
    """A spec serializes as its canonical text (TestCanonicalization
    round-trips it); as a value it is hashable."""

    def test_spec_is_hashable(self):
        assert len({PolicySpec.parse("mdm"), PolicySpec.parse("mdm")}) == 1


class TestRegistryCompleteness:
    def test_every_registered_policy_constructible(self):
        for entry in iter_registered():
            policy = build_policy(entry.name, CONFIG)
            assert isinstance(policy, entry.cls)
            assert policy.name == entry.name
            assert policy.swap_style in ("fast", "slow")
            assert policy.stc_replacement in REPLACEMENT_POLICIES
            assert entry.description  # docstring first line captured

    def test_guided_bases(self):
        assert guided_bases() == ["mdm", "pom"]

    def test_registry_names_sorted(self):
        names = registry_names()
        assert names == sorted(names)
        assert {"static", "cameo", "pom", "silcfm", "mempod", "mdm",
                "profess", "rsm-pom"} == set(names)

    def test_unsupported_guidance_rejected_with_guided_list(self):
        with pytest.raises(PolicySpecError) as excinfo:
            build_policy(PolicySpec(base="cameo", guidance=True), CONFIG)
        assert "mdm" in str(excinfo.value)

    def test_kwargs_pass_through(self):
        policy = build_policy("mdm", CONFIG, record_predictions=True)
        assert policy.prediction_log is not None


#: The registry's listing order (README tables, ext-policy-matrix rows).
REGISTRY_ORDER = [
    "mdm", "profess", "static", "cameo", "pom", "silcfm", "mempod", "rsm-pom",
]
#: Modules that register policies; each is imported first in turn.
POLICY_MODULES = [
    "repro.core.mdm",
    "repro.core.profess",
    "repro.core.rsm_guided",
    "repro.policies.cameo",
    "repro.policies.mempod",
    "repro.policies.pom",
    "repro.policies.silcfm",
    "repro.policies.static",
]
_LIST_ORDER = """
import {first}
from repro.experiments.extensions import decomposition_policies
from repro.policies.registry import iter_registered
print(" ".join(entry.name for entry in iter_registered()))
print(" ".join(decomposition_policies()))
"""


def _orders_after_importing(first: str) -> list[str]:
    """Registry and decomposition orders in a fresh interpreter that
    imports ``first`` before anything else."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (src, env.get("PYTHONPATH")) if path
    )
    done = subprocess.run(
        [sys.executable, "-c", _LIST_ORDER.format(first=first)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.stdout.splitlines()


class TestRegistryOrder:
    def test_order_is_independent_of_import_order(self):
        with ThreadPoolExecutor(max_workers=2) as pool:
            orders = pool.map(_orders_after_importing, POLICY_MODULES)
            listings = dict(zip(POLICY_MODULES, orders))
        expected = [" ".join(REGISTRY_ORDER), "mdm profess rsm-pom"]
        assert listings == dict.fromkeys(POLICY_MODULES, expected)


class TestAxisResolution:
    def test_spec_beats_class_default(self):
        explicit = build_policy("silcfm+stc:lfu", CONFIG)
        assert explicit.stc_replacement == "lfu"
        # The swap type is the class's: no spec overrides it.
        assert explicit.swap_style == "slow"

    def test_class_default_when_nothing_set(self):
        silcfm = build_policy("silcfm", CONFIG)
        assert silcfm.swap_style == "slow"
        mdm = build_policy("mdm", CONFIG)
        assert mdm.swap_style == "fast"
        assert mdm.stc_replacement == "lru"


def _spec(policy: str, requests: int = 400) -> RunSpec:
    return RunSpec(
        kind="multi",
        programs=("zeusmp", "mcf"),
        policy=policy,
        config=paper_quad_core(scale=256),
        requests=requests,
        seed=0,
        trace_scale=256,
    )


def _run(policy: str, requests: int = 400) -> object:
    return execute_spec(_spec(policy, requests))


class TestAxisBehavior:
    def test_default_axes_unchanged_from_plain_run(self):
        # Spelling out the default STC replacement names the plain run:
        # one label and one cache key for one simulation.
        for plain in ("mdm", "profess"):
            spelled = f"{plain}+stc:lru"
            assert canonical_policy(spelled) == plain
            assert _spec(spelled).cache_key() == _spec(plain).cache_key()
        assert _run("mdm+stc:lru").policy == "mdm"

    def test_stc_replacement_changes_hit_rate(self):
        assert (
            _run("mdm+stc:lfu").stc_hit_rate != _run("mdm").stc_hit_rate
        )

    def test_result_policy_label_is_canonical(self):
        assert _run("mdm+rsm", requests=200).policy == "profess"


class TestCacheKeyCompatibility:
    def test_pinned_config_tokens(self):
        assert paper_quad_core(scale=64).cache_token() == QUAD64_TOKEN
        assert paper_single_core(scale=64).cache_token() == SINGLE64_TOKEN

    def test_non_default_axes_changes_token(self):
        # Axes live only in the spec; they reach the key through the
        # canonical policy string.
        spec = RunSpec(
            kind="single",
            programs=("zeusmp",),
            policy="profess+stc:lfu",
            config=paper_single_core(scale=64),
            requests=60_000,
            seed=0,
            trace_scale=64,
        )
        assert spec.cache_key() != PROFESS_SINGLE_KEY

    def test_pinned_run_spec_keys(self):
        mdm = RunSpec(
            kind="multi",
            programs=("zeusmp", "mcf", "lbm", "omnetpp"),
            policy="mdm",
            config=paper_quad_core(scale=64),
            requests=50_000,
            seed=0,
            trace_scale=64,
        )
        assert mdm.cache_key() == MDM_MULTI_KEY
        profess = RunSpec(
            kind="single",
            programs=("zeusmp",),
            policy="profess",
            config=paper_single_core(scale=64),
            requests=60_000,
            seed=0,
            trace_scale=64,
        )
        assert profess.cache_key() == PROFESS_SINGLE_KEY

    def test_equivalent_spellings_share_a_key(self):
        def key(policy: str) -> str:
            return RunSpec(
                kind="single",
                programs=("zeusmp",),
                policy=policy,
                config=paper_single_core(scale=64),
                requests=60_000,
                seed=0,
                trace_scale=64,
            ).cache_key()

        assert key("mdm+rsm") == key("profess") == PROFESS_SINGLE_KEY

    def test_run_spec_rejects_unknown_policy(self):
        with pytest.raises(UnknownPolicyError):
            RunSpec(
                kind="single",
                programs=("zeusmp",),
                policy="nope",
                config=paper_single_core(scale=64),
                requests=100,
                seed=0,
                trace_scale=64,
            )


class TestDeprecationShims:
    """The package exports no policy classes; their defining modules
    import without warnings."""

    def test_unknown_attribute_is_attribute_error(self):
        import repro.policies as policies

        with pytest.raises(AttributeError):
            policies.NoSuchPolicy

    def test_defining_module_import_stays_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.policies.pom import PoMPolicy  # noqa: F401


class TestCli:
    def test_unknown_policy_exits_2_with_known_names(self, capsys):
        from repro import cli

        code = cli.main(["run", "ext-policy-matrix", "--policy", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "nope" in err and "profess" in err

    def test_malformed_spec_exits_2(self, capsys):
        from repro import cli

        code = cli.main(
            ["run", "ext-policy-matrix", "--policy", "mdm+bypass:2"]
        )
        assert code == 2
        assert "bypass" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec", ["mdm+swap:slow", "mdm+bypass:0.05", "mdm+stc:random"]
    )
    def test_removed_axis_values_exit_2_before_simulating(self, spec, capsys):
        from repro import cli

        code = cli.main(["run", "ext-policy-matrix", "--policy", spec])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("bad --policy:")
        assert captured.out == ""

    def test_policies_listing(self, capsys):
        from repro import cli

        assert cli.main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "profess" in out
        assert "base[+rsm][+stc:POLICY]" in out
        assert "stc replacement: lru, lfu" in out

    def test_policies_markdown(self, capsys):
        from repro import cli

        assert cli.main(["policies", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| `profess` | mdm | RSM |" in out
        assert "| `+stc:POLICY` |" in out

    def test_readme_tables_are_the_markdown_listing(self, capsys):
        from repro import cli

        assert cli.main(["policies", "--markdown"]) == 0
        out = capsys.readouterr().out
        readme = Path(__file__).resolve().parents[1] / "README.md"
        _, marker, rest = readme.read_text(encoding="utf-8").partition(
            "generated by `profess policies --markdown`:\n\n"
        )
        assert marker
        tables = []
        for line in rest.splitlines(keepends=True):
            if line.strip() and not line.startswith("|"):
                break
            tables.append(line)
        assert "".join(tables).rstrip("\n") == out.rstrip("\n")


class TestMatrixSerialParallelIdentity:
    def test_restricted_sweep_identical_across_jobs(self):
        from repro.experiments.extensions import run_policy_matrix
        from repro.experiments.runner import ExperimentRunner

        def rows(jobs: int) -> list:
            runner = ExperimentRunner(
                scale=256,
                multi_requests=250,
                single_requests=250,
                jobs=jobs,
                policies=["pom", "mdm+rsm", "mdm+stc:lfu"],
            )
            return run_policy_matrix(runner).rows

        serial = rows(1)
        parallel = rows(2)
        assert serial == parallel
        assert [row[0] for row in serial] == ["pom", "profess", "mdm+stc:lfu"]
