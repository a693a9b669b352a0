import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from pubtfp import scenario_io
from pubtfp.errors import InvalidParameterError, ScenarioError
from pubtfp.paradoxes import FailedScenario, Scenario, run_all
from pubtfp.scenario_io import load_scenarios, load_simulation
from pubtfp.technology import (
    Ces, CobbDouglas, FactorPrices, HomotheticTranslog, InputBundle, TwoLevelCes,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SRC_DIR = Path(scenario_io.__file__).resolve().parent.parent
HEX = "invalid literal for int() with base 16: ''"

SIM_HEADER = """\
simulation:
  convention: sna-cost
  start_year: 2000
  technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}
"""


def write(tmp_path, text, name="file.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadScenarios:
    def test_shipped_file_parses_to_five_scenarios(self):
        scenarios = load_scenarios(SCENARIO_DIR / "paradoxes.yaml")
        assert [s.name for s in scenarios] == [
            "technical-progress",
            "allocative-gain",
            "scale-to-best",
            "cheaper-inputs",
            "markup-cut",
        ]
        assert [s.paradox_id for s in scenarios] == [1, 2, 3, 4, 5]
        assert all(isinstance(s, Scenario) for s in scenarios)
        assert scenarios[0].shift.factor == 1.25
        assert isinstance(scenarios[2].technology, HomotheticTranslog)
        last = scenarios[4]
        assert len(last.pricing.items) == 2
        assert last.markups_after == (0.1, 0.05)
        assert last.technology.alpha_intermediates == 0.3

    def test_shipped_file_runs_clean_and_confirmed(self):
        outcomes = run_all(SCENARIO_DIR / "paradoxes.yaml")
        assert len(outcomes) == 5
        assert all(o.error is None for o in outcomes)
        assert all(o.report.paradox_confirmed for o in outcomes)

    def test_empty_documents_yield_no_scenarios(self, tmp_path):
        assert load_scenarios(write(tmp_path, "")) == []
        assert load_scenarios(write(tmp_path, "scenarios:\n", name="null.yaml")) == []

    def test_unparseable_yaml_is_a_file_error(self, tmp_path):
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenarios(write(tmp_path, "scenarios: [\n"))

    def test_wrong_top_level_shapes_are_file_errors(self, tmp_path):
        with pytest.raises(ScenarioError, match="mapping"):
            load_scenarios(write(tmp_path, "- a\n- b\n"))
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenarios(write(tmp_path, "scenarios: []\nextra: 1\n"))
        with pytest.raises(ScenarioError, match="must be a list"):
            load_scenarios(write(tmp_path, "scenarios: 5\n"))

    def test_duplicate_names_are_a_file_error(self, tmp_path):
        text = """\
scenarios:
  - name: twin
    paradox: 1
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
    shift_factor: 1.5
  - name: twin
    paradox: 1
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
    shift_factor: 2.0
"""
        with pytest.raises(ScenarioError, match="unique"):
            load_scenarios(write(tmp_path, text))

    def test_broken_entries_become_failed_scenarios_in_place(self, tmp_path):
        text = """\
scenarios:
  - name: broken-tech
    paradox: 3
    technology: {family: warp-drive}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
  - 42
  - name: ok
    paradox: 1
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
    shift_factor: 1.5
"""
        loaded = load_scenarios(write(tmp_path, text))
        assert isinstance(loaded[0], FailedScenario)
        assert loaded[0].name == "broken-tech"
        assert loaded[0].paradox_id == 3
        assert "family" in loaded[0].error
        assert isinstance(loaded[1], FailedScenario)
        assert loaded[1].name == "scenario-2"
        assert loaded[1].paradox_id == 0
        assert isinstance(loaded[2], Scenario)

    def test_out_of_range_paradox_id_fails_that_entry(self, tmp_path):
        text = """\
scenarios:
  - name: beyond
    paradox: 9
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}
    bundle: {capital: 1, labor: 1}
"""
        loaded = load_scenarios(write(tmp_path, text))
        assert isinstance(loaded[0], FailedScenario)
        assert loaded[0].paradox_id == 0

    def test_unknown_entry_key_fails_that_entry(self, tmp_path):
        text = """\
scenarios:
  - name: typo
    paradox: 1
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
    shift: 1.5
"""
        loaded = load_scenarios(write(tmp_path, text))
        assert isinstance(loaded[0], FailedScenario)
        assert "unknown keys" in loaded[0].error

    def test_non_numeric_field_fails_that_entry(self, tmp_path):
        text = """\
scenarios:
  - name: words
    paradox: 1
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
    shift_factor: big
"""
        loaded = load_scenarios(write(tmp_path, text))
        assert isinstance(loaded[0], FailedScenario)
        assert "must be a number" in loaded[0].error

    def test_all_four_families_parse(self, tmp_path):
        text = """\
scenarios:
  - name: cd
    paradox: 1
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7, level: 1.5}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
    shift_factor: 1.5
  - name: ces
    paradox: 1
    technology: {family: ces, capital_weight: 0.4, substitution: -1.0, returns_to_scale: 0.9}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
    shift_factor: 1.5
  - name: translog
    paradox: 1
    technology: {family: homothetic-translog, inner_alpha_capital: 0.5, slope: 1.2, curvature: -0.1}
    bundle: {capital: 1, labor: 1}
    prices: {capital_price: 1, wage: 1}
    shift_factor: 1.5
  - name: nested
    paradox: 1
    technology:
      family: two-level-ces
      capital_weight: 0.4
      inner_substitution: -1.0
      value_added_weight: 0.7
      outer_substitution: 0.5
    bundle: {capital: 1, labor: 1, intermediates: 1}
    prices: {capital_price: 1, wage: 1}
    shift_factor: 1.5
"""
        loaded = load_scenarios(write(tmp_path, text))
        assert [type(s.technology) for s in loaded] == [
            CobbDouglas, Ces, HomotheticTranslog, TwoLevelCes,
        ]
        assert loaded[0].technology.level == 1.5
        assert loaded[1].technology.returns_to_scale == 0.9
        assert loaded[3].bundle.intermediates == 1.0


# Plain and quoted scalars that the YAML 1.1 resolver maps to different
# tags: floats, ints in several bases, sexagesimal, booleans, nulls, dates.
_SCALARS = (
    "0.25", "1.0e-3", "1e3", "-.5", ".inf", "0x1F", "017", "1:30", "yes", "Off",
    "~", "null", "2001-12-14", "'0.4'", '"\\u00c4"', "+12", "1_000.5",
)


def generated_scenarios(count):
    """A scenario file exercising flow and block styles, anchors and scalar forms."""
    lines = ["# generated", "scenarios:"]
    for n in range(count):
        odd = _SCALARS[n % len(_SCALARS)]
        lines.append(f"  - name: case-{n:03d}{'-Ä' if n % 7 == 0 else ''}")
        lines.append(f"    paradox: {n % 5 + 1}")
        if n % 3 == 0:
            lines.append(f"    technology: &tech{n} {{family: cobb-douglas, alpha_capital: 0.3, "
                         f"alpha_labor: 0.7, level: {odd}}}")
        else:
            lines += ["    technology:", "      family: ces", "      capital_weight: 0.4",
                      f"      substitution: {odd}  # comment"]
        lines.append(f"    bundle: {{capital: {1 + n % 4}, labor: 1.5}}")
        lines.append("    prices: {capital_price: 1, wage: 1}")
        if n % 5 == 4:
            lines += ["    outputs:", "      - {quantity: 1, marginal_cost: 2, markup: 0.2}",
                      "    markups_after: [0.1]"]
        if n % 4 == 0:
            lines += ["    description: >", f"      folded text for {n}", "      over two lines"]
        if n % 11 == 0 and n % 3 == 0:
            lines += [f"  - name: alias-{n}", "    paradox: 1", f"    technology: *tech{n}",
                      "    bundle: {capital: 1, labor: 1}"]
    return "\n".join(lines) + "\n"


def bench_shaped_batch(count):
    """Scenarios laid out as the benchmark's batches: folded descriptions, block
    and flow maps, four-digit numbers, and every tenth entry planted to fail."""
    families = {
        "cobb-douglas": "{family: cobb-douglas, alpha_capital: 0.%04d, alpha_labor: 0.6, "
                        "level: 1.%04d}",
        "ces": "{family: ces, capital_weight: 0.%04d, substitution: -0.5, level: 1.%04d}",
    }
    lines = ["# Generated paradox scenarios.", "scenarios:"]
    for n in range(count):
        family = sorted(families)[n % 2]
        lines += [
            f"  - name: case-{n:05d}-p{n % 5 + 1}",
            "    description: >",
            f"      Case {n} under a {family} frontier, drawn from the documented",
            f"      valid region (variant {n * 37 % 1000}).",
            f"    paradox: {n % 5 + 1}" if n % 10 else "    paradox: 9",
            "    technology: " + families[family] % (1000 + n, n),
        ]
        if n % 3:
            lines.append(f"    bundle: {{capital: 1.{n:04d}, labor: 2.5}}")
        else:
            lines += ["    bundle:", f"      capital: {n % 7 + 1}", "      labor: 2.5"]
        lines += [f"    prices: {{capital_price: 1.{n:04d}, wage: 0.75}}", ""]
    return "\n".join(lines)


def _plain_documents():
    """YAML text of random nested documents of untagged scalars, lists and maps."""
    tokens = st.sampled_from(
        ["1", "-2", "0.5", "1e3", "1.0e-3", ".inf", "-.Inf", ".NaN", "0x1F", "0o17", "017",
         "1:30", "+12", "1_000", "yes", "No", "off", "true", "False", "~", "null", "abc",
         "two words", "'quoted'", '"1.5"', "'yes'", "Ä"]
    )
    values = st.recursive(
        tokens,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4).map(lambda items: "[" + ", ".join(items) + "]"),
            st.lists(st.tuples(tokens, inner), max_size=4).map(
                lambda pairs: "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"
            ),
        ),
        max_leaves=12,
    )
    block_mapping = st.lists(st.tuples(tokens, values), min_size=1, max_size=6).map(
        lambda pairs: "".join(f"{k}: {v}\n" for k, v in pairs)
    )
    block_sequence = st.lists(values, min_size=1, max_size=6).map(
        lambda items: "".join(f"- {v}\n" for v in items)
    )
    return st.one_of(block_mapping, block_sequence, values)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestLoaderParity:
    """libyaml and the pure-Python parser build equal documents."""

    @pytest.mark.parametrize("name", ["paradoxes.yaml", "simulate_tech_progress.yaml", None])
    def test_documents_are_equal(self, tmp_path, name):
        path = SCENARIO_DIR / name if name else write(tmp_path, generated_scenarios(200))
        text = path.read_text(encoding="utf-8")
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)
        if name is None:
            assert len(fast["scenarios"]) > 200

    # Plain documents and ones with anchors, tags, merge keys and syntax errors;
    # each must read exactly as PyYAML's own loader reads it, or fail with its error.
    PARITY_SCALARS = _SCALARS + (
        ".inf", "-.Inf", ".NaN", "0o17", "yes", "No", "off", "~", "", "'1.5'", '"017"',
        "'true'", "'~'", "1.0", "-0", "0b101", "190:20:30.15", "12_345", "True", "NULL",
    )
    PARITY_DOCUMENTS = {
        "scalars": "".join(f"k{n}: {s}\n" for n, s in enumerate(PARITY_SCALARS)),
        "plain-scalars": "".join(f"- {s}\n" for s in PARITY_SCALARS if s != "2001-12-14"),
        "scalar-list": "".join(f"- {s}\n" for s in PARITY_SCALARS),
        "scalar-keys": "".join(f"{s or '?'}: {n}\n" for n, s in enumerate(PARITY_SCALARS[:17])),
        "duplicate-keys": "a: 1\nb: 2\na: 3\n",
        "colliding-keys": "{1: int, 1.0: float, true: bool}\n",
        "colliding-keys-block": "true: 1\n1: 2\n1.0: 3\nnull: 4\n~: 5\n",
        "nested": "- 1\n- [2, {x: y, z: [3, {}]}]\n- {}\n- []\n- a:\n    - b: c\n      d: e\n",
        "block-scalars": "a: |\n  1\n  2\nb: >\n  folded\n  text\nc: |-\n  keep\n",
        "merge": "base: &b {x: 1}\nderived:\n  <<: *b\n  y: 2\n",
        "merge-list": "<<: [{a: 1}, {b: 2}]\nc: 3\n",
        "value-key": "=: 1\n",
        "complex-key": "? [complex]\n: 1\n",
        "mapping-key": "? {a: 1}\n: 2\n",
        "flow-complex-key": "{[1]: 2}\n",
        "tags": "a: !!str 1\nb: !!float 1\n",
        "non-specific-tag": "a: ! 1\n",
        "anchors": "a: &x 1\nb: *x\nc: &m {k: v}\nd: *m\n",
        "two-documents": "a: 1\n---\nb: 2\n",
        "empty": "",
        "bare-start": "---\n",
        "comments": "# one\n  # two\n",
        "bom": "\ufeffa: 1\n",
        "directive": "%YAML 1.1\n---\na: 1\n...\n",
        "timestamp": "a: 2001-12-14\n",
        "unclosed-flow": "a: [1, 2\n",
        "nested-colon": "a: b: c\n",
        "bad-indent": "a:\n  b: 1\n c: 2\n",
        "unknown-alias": "a: *nowhere\n",
        "tab-indent": "a:\n\tb: 1\n",
        "python-tag": "a: !!python/name:os.system\n",
        "bad-int": "a: 0x_\n",
    }

    @staticmethod
    def _outcome(read, path):
        try:
            return "value", repr(read(path))
        except Exception as exc:
            return type(exc).__name__, str(exc)

    @pytest.mark.parametrize(
        "loader", [scenario_io._LOADER, yaml.SafeLoader], ids=["default", "python"]
    )
    @pytest.mark.parametrize("name", sorted(PARITY_DOCUMENTS))
    def test_load_yaml_reads_as_the_loader_does(self, tmp_path, monkeypatch, loader, name):
        """By type and value: repr tells 1, 1.0 and True apart, and NaN reads as equal."""
        path = write(tmp_path, self.PARITY_DOCUMENTS[name])
        monkeypatch.setattr(scenario_io, "_LOADER", loader)

        def reference(path):
            with path.open(encoding="utf-8") as handle:
                return yaml.load(handle, Loader=loader)

        expected = self._outcome(reference, path)
        if expected[0] == "value":
            assert self._outcome(scenario_io._load_yaml, path) == expected
            return
        with pytest.raises(ScenarioError) as raised:
            scenario_io._load_yaml(path)
        kind, text = expected
        if kind == "ValueError":  # a value past what int() or float() reads
            assert str(raised.value) == f"{path}, line 1: a value cannot be read: {text}"
            return
        assert str(raised.value) == f"{path} is not valid YAML: {text}"
        cause = raised.value.__context__  # the loader's own error, suppressed by `from None`
        assert (type(cause).__name__, str(cause)) == expected

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(document=_plain_documents())
    def test_random_plain_documents_read_as_the_loader_does(self, tmp_path_factory, document):
        """``_load_yaml`` under libyaml's parser against PyYAML's pure-Python loader."""
        assert scenario_io._LOADER is yaml.CSafeLoader
        path = tmp_path_factory.mktemp("doc") / "doc.yaml"
        path.write_text(document, encoding="utf-8")
        with path.open(encoding="utf-8") as handle:
            expected = repr(yaml.load(handle, Loader=yaml.SafeLoader))
        assert repr(scenario_io._load_yaml(path)) == expected


def test_bench_shaped_batch_fails_every_tenth_entry(tmp_path):
    loaded = load_scenarios(write(tmp_path, bench_shaped_batch(250)))
    assert len(loaded) == 250
    assert sum(isinstance(s, FailedScenario) for s in loaded) == 25


class TestUnreadableValueLines:
    """A value that int() or float() rejects is named by the line of the first such
    scalar in file order, and the run exits 1 without a traceback."""

    @pytest.mark.parametrize(
        "text, line, error",
        [
            # the loader meets b's value first; the file meets the list's item first
            ("a:\n  - 0x_\nb: 0b_\n", 2, HEX),
            ("{0x_: 1}\n", 1, HEX),
            ("a: &r [1, *r, 0x_]\n", 1, HEX),
            # the rejected tag is skipped, not raised
            ("a: [!!python/name:os.system ]\nb: 0x_\n", 2, HEX),
            ("a: !!float abc\n", 1, "could not convert string to float: 'abc'"),
        ],
        ids=["two-values", "mapping-key", "recursive-alias", "rejected-tag", "tagged-float"],
    )
    def test_the_first_unreadable_scalar_is_named(self, tmp_path, text, line, error):
        source = write(tmp_path, text)
        proc = subprocess.run(  # a fresh interpreter, so a traceback shows in stderr
            [sys.executable, "-m", "pubtfp.cli", "paradox", "--input", str(source),
             "--output", str(tmp_path / "report.csv")],
            capture_output=True, text=True, timeout=60,  # a walk that loops on the alias fails
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")])
            )),
        )
        assert proc.returncode == 1
        assert proc.stderr == f"pubtfp: {source}, line {line}: a value cannot be read: {error}\n"


def test_pure_python_loader_gives_equal_scenarios(tmp_path, monkeypatch):
    paths = [SCENARIO_DIR / "paradoxes.yaml", write(tmp_path, generated_scenarios(200))]
    expected = [load_scenarios(path) for path in paths]
    monkeypatch.setattr(scenario_io, "_LOADER", yaml.SafeLoader)
    assert [load_scenarios(path) for path in paths] == expected


class TestLoadSimulation:
    def test_shipped_config(self):
        spec = load_simulation(SCENARIO_DIR / "simulate_tech_progress.yaml")
        assert spec.country == "SIM"
        assert spec.industry == "education"
        assert spec.convention == "sna-cost"
        assert spec.start_year == 1995
        assert spec.years == 26
        assert spec.levels[0] == 1.0
        assert spec.levels[25] == pytest.approx(1.01**25, rel=1e-12)
        assert spec.capital == (1.0,) * 26
        assert spec.wage == (1.0,) * 26

    def test_explicit_per_year_lists(self, tmp_path):
        text = SIM_HEADER + """\
  levels: [1.0, 1.1, 1.21]
  capital: [1.0, 1.5, 2.0]
  labor: [2.0, 2.0, 2.0]
  prices: {capital_price: 1, wage: 1}
"""
        spec = load_simulation(write(tmp_path, text))
        assert spec.years == 3
        assert spec.levels == (1.0, 1.1, 1.21)
        assert spec.capital == (1.0, 1.5, 2.0)
        assert spec.capital_price == (1.0, 1.0, 1.0)
        assert spec.country == "SIM"

    def test_price_trajectories(self, tmp_path):
        text = SIM_HEADER + """\
  level_growth: 0.0
  bundle: {capital: 1, labor: 1}
  capital_price: [1.0, 0.9]
  wage: [1.0, 0.95]
"""
        spec = load_simulation(write(tmp_path, text))
        assert spec.wage == (1.0, 0.95)
        assert spec.levels == (1.0, 1.0)

    @pytest.mark.parametrize(
        "body,message",
        [
            ("  levels: [1, 1.1]\n  level_growth: 0.01\n  bundle: {capital: 1, labor: 1}\n"
             "  prices: {capital_price: 1, wage: 1}\n", "exactly one"),
            ("  bundle: {capital: 1, labor: 1}\n  prices: {capital_price: 1, wage: 1}\n"
             "  years: 5\n", "exactly one"),
            ("  level_growth: 0.01\n  bundle: {capital: 1, labor: 1}\n"
             "  capital: [1, 1]\n  labor: [1, 1]\n  prices: {capital_price: 1, wage: 1}\n",
             "not both"),
            ("  level_growth: 0.01\n  capital: [1, 1]\n  prices: {capital_price: 1, wage: 1}\n",
             "come together"),
            ("  level_growth: 0.01\n  prices: {capital_price: 1, wage: 1}\n  years: 5\n",
             "needs bundle"),
            ("  level_growth: 0.01\n  bundle: {capital: 1, labor: 1}\n  years: 5\n",
             "needs prices"),
            ("  levels: [1, 1.1, 1.2]\n  capital: [1, 1]\n  labor: [1, 1]\n"
             "  prices: {capital_price: 1, wage: 1}\n", "disagree"),
            ("  levels: [1, 1.1]\n  bundle: {capital: 1, labor: 1}\n"
             "  prices: {capital_price: 1, wage: 1}\n  years: 3\n", "disagree"),
            ("  level_growth: 0.01\n  bundle: {capital: 1, labor: 1}\n"
             "  prices: {capital_price: 1, wage: 1}\n", "years is required"),
            ("  levels: [1.0]\n  bundle: {capital: 1, labor: 1}\n"
             "  prices: {capital_price: 1, wage: 1}\n", "at least 2 years"),
            ("  level_growth: -1.0\n  bundle: {capital: 1, labor: 1}\n"
             "  prices: {capital_price: 1, wage: 1}\n  years: 5\n", "exceed -1"),
            ("  level_growth: 0.01\n  bundle: {capital: 1, labor: 1}\n"
             "  prices: {capital_price: 1, wage: 1}\n  years: 5\n  seed: 7\n", "unknown keys"),
        ],
    )
    def test_malformed_configs(self, tmp_path, body, message):
        with pytest.raises(ScenarioError, match=message):
            load_simulation(write(tmp_path, SIM_HEADER + body))

    def test_unknown_convention_is_rejected_downstream(self, tmp_path):
        text = """\
simulation:
  convention: hedonic
  start_year: 2000
  technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}
  level_growth: 0.01
  bundle: {capital: 1, labor: 1}
  prices: {capital_price: 1, wage: 1}
  years: 5
"""
        with pytest.raises(InvalidParameterError, match="convention"):
            load_simulation(write(tmp_path, text))

    def test_intermediates_technology_is_rejected(self, tmp_path):
        text = """\
simulation:
  convention: sna-cost
  start_year: 2000
  technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.4, alpha_intermediates: 0.3}
  level_growth: 0.01
  bundle: {capital: 1, labor: 1}
  prices: {capital_price: 1, wage: 1}
  years: 5
"""
        with pytest.raises(InvalidParameterError):
            load_simulation(write(tmp_path, text))


_LEVEL = "  level_growth: 0.01\n"
_BUNDLE = "  bundle: {capital: 1, labor: 1}\n"
_PRICES = "  prices: {capital_price: 1, wage: 1}\n"


class TestSimulationPieceTexts:
    """Each piece comes as a constant or as per-year lists: exact texts and their order."""

    @pytest.mark.parametrize(
        "body, text",
        [
            ("  levels: [1, 1]\n" + _LEVEL + _BUNDLE + _PRICES,
             " needs exactly one of ('levels', 'level_growth'), got ['levels', 'level_growth']"),
            (_BUNDLE + _PRICES + "  years: 2\n",
             " needs exactly one of ('levels', 'level_growth'), got []"),
            (_LEVEL + _BUNDLE + "  capital: [1, 1]\n" + _PRICES,
             ": give bundle or capital/labor lists, not both"),
            (_LEVEL + "  labor: [1, 1]\n" + _PRICES,
             ": capital and labor lists must come together"),
            (_LEVEL + _PRICES + "  years: 2\n",
             ": needs bundle or capital/labor lists"),
            (_LEVEL + _BUNDLE + _PRICES + "  wage: [1, 1]\n",
             ": give prices or capital_price/wage lists, not both"),
            (_LEVEL + _BUNDLE + "  capital_price: [1, 1]\n",
             ": capital_price and wage lists must come together"),
            (_LEVEL + _BUNDLE + "  years: 2\n",
             ": needs prices or capital_price/wage lists"),
            # several problems at once: levels, then bundle, then prices;
            # within a piece "not both", then "together", then "needs"
            ("  labor: [1, 1]\n" + _PRICES + "  wage: [1, 1]\n",
             " needs exactly one of ('levels', 'level_growth'), got []"),
            (_LEVEL + _BUNDLE + "  labor: [1, 1]\n" + _PRICES + "  wage: [1, 1]\n",
             ": give bundle or capital/labor lists, not both"),
            (_LEVEL + "  wage: [1, 1]\n" + "  years: 2\n",
             ": needs bundle or capital/labor lists"),
        ],
        ids=[
            "levels-both", "levels-neither", "bundle-both", "bundle-pair", "bundle-neither",
            "prices-both", "prices-pair", "prices-neither", "levels-first", "not-both-first",
            "bundle-before-prices",
        ],
    )
    def test_exact_text(self, tmp_path, body, text):
        path = write(tmp_path, SIM_HEADER + body)
        with pytest.raises(ScenarioError) as caught:
            load_simulation(path)
        assert str(caught.value) == f"{path}: simulation{text}"


_FAMILY_NAMES = ["ces", "cobb-douglas", "homothetic-translog", "two-level-ces"]


def one_entry(technology="{family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}",
              bundle="{capital: 1, labor: 1}", extra=""):
    return f"""\
scenarios:
  - name: probe
    paradox: 1
    technology: {technology}
    bundle: {bundle}
    prices: {{capital_price: 1, wage: 1}}
    shift_factor: 1.5
{extra}"""


def entry_error(tmp_path, text):
    path = write(tmp_path, text)
    (failed,) = load_scenarios(path)
    assert isinstance(failed, FailedScenario)
    return failed.error.removeprefix(f"{path}: scenario 1")


class TestRecordSchemas:
    """A record's keys are its class's fields; the fields with a default are optional."""

    @pytest.mark.parametrize(
        "technology, missing",
        [
            ("{family: cobb-douglas}", ["alpha_capital", "alpha_labor"]),
            ("{family: ces, level: 2}", ["capital_weight", "substitution"]),
            ("{family: homothetic-translog}", ["curvature", "inner_alpha_capital", "slope"]),
            ("{family: two-level-ces, returns_to_scale: 1}",
             ["capital_weight", "inner_substitution", "outer_substitution", "value_added_weight"]),
        ],
        ids=["cobb-douglas", "ces", "translog", "two-level-ces"],
    )
    def test_each_family_requires_its_fields_without_a_default(
        self, tmp_path, technology, missing
    ):
        text = one_entry(technology=technology)
        assert entry_error(tmp_path, text) == f".technology is missing keys {missing!r}"

    @pytest.mark.parametrize(
        "records, missing",
        [
            ("bundle: {}", "bundle is missing keys ['capital', 'labor']"),
            ("bundle: {capital: 1, labor: 1}\n    prices: {intermediates_price: 1}",
             "prices is missing keys ['capital_price', 'wage']"),
            ("bundle: {capital: 1, labor: 1}\n    outputs: [{markup: 0.1}]",
             "outputs[0] is missing keys ['marginal_cost', 'quantity']"),
        ],
        ids=["bundle", "prices", "outputs"],
    )
    def test_other_records_require_their_fields_without_a_default(
        self, tmp_path, records, missing
    ):
        text = f"""\
scenarios:
  - name: probe
    paradox: 5
    technology: {{family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}}
    {records}
"""
        assert entry_error(tmp_path, text) == f".{missing}"

    def test_every_optional_field_is_read(self, tmp_path):
        text = """\
scenarios:
  - name: cd
    paradox: 1
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.4, level: 2,
                 alpha_intermediates: 0.3}
    bundle: {capital: 1, labor: 2, intermediates: 3}
    prices: {capital_price: 1, wage: 2, intermediates_price: 3}
    shift_factor: 1.5
  - name: ces
    paradox: 1
    technology: {family: ces, capital_weight: 0.4, substitution: -1, returns_to_scale: 0.9,
                 level: 3}
    bundle: {capital: 1, labor: 1}
    shift_factor: 1.5
  - name: translog
    paradox: 1
    technology: {family: homothetic-translog, inner_alpha_capital: 0.5, slope: 1.2,
                 curvature: -0.1, level: 4}
    bundle: {capital: 1, labor: 1}
    shift_factor: 1.5
  - name: nested
    paradox: 1
    technology: {family: two-level-ces, capital_weight: 0.4, inner_substitution: -1,
                 value_added_weight: 0.7, outer_substitution: 0.5, returns_to_scale: 0.8,
                 level: 5}
    bundle: {capital: 1, labor: 1, intermediates: 1}
    shift_factor: 1.5
"""
        cd, ces, translog, nested = load_scenarios(write(tmp_path, text))
        assert cd.technology == CobbDouglas(0.3, 0.4, level=2.0, alpha_intermediates=0.3)
        assert cd.bundle == InputBundle(1.0, 2.0, 3.0)
        assert cd.prices == FactorPrices(1.0, 2.0, 3.0)
        assert ces.technology == Ces(0.4, -1.0, returns_to_scale=0.9, level=3.0)
        assert translog.technology == HomotheticTranslog(0.5, 1.2, -0.1, level=4.0)
        assert nested.technology == TwoLevelCes(0.4, -1.0, 0.7, 0.5, 0.8, 5.0)

    def test_a_doubly_bad_output_names_its_first_bad_key_in_file_order(self, tmp_path):
        text = """\
scenarios:
  - name: probe
    paradox: 5
    technology: {family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.4,
                 alpha_intermediates: 0.3}
    bundle: {capital: 1, labor: 1, intermediates: 1}
    outputs: [{quantity: many, markup: some, marginal_cost: 2}]
    markups_after: [0.1]
"""
        assert entry_error(tmp_path, text) == ".outputs[0].quantity must be a number, got 'many'"

    @pytest.mark.parametrize(
        "records, error",
        [
            ("bundle: {capital: 1, labor: 1}\n"
             "    outputs: [{markup: -2.0, quantity: 0.0, marginal_cost: 1.0}]",
             "quantity must be strictly positive, got 0.0"),
            ("bundle: {labor: -1.0, capital: -2.0}", "capital must be nonnegative, got -2.0"),
        ],
        ids=["outputs", "bundle"],
    )
    def test_out_of_range_values_are_named_in_the_record_check_order(
        self, tmp_path, records, error
    ):
        text = f"""\
scenarios:
  - name: probe
    paradox: 5
    technology: {{family: cobb-douglas, alpha_capital: 0.3, alpha_labor: 0.7}}
    {records}
"""
        assert entry_error(tmp_path, text) == error


class TestMixedKeyTypes:
    """Unknown keys of different types are listed, strings first, with no TypeError."""

    @pytest.mark.parametrize(
        "text, where, listed",
        [
            (one_entry(technology="{family: ces, capital_weight: 0.4, substitution: -1, "
                                  "1: 2, x: 3}"),
             ".technology", "['x', 1]"),
            (one_entry(extra="    1: 2\n    x: 3\n"), "", "['x', 1]"),
            (one_entry(bundle="{capital: 1, labor: 1, 2.5: 1, null: 1, b: 1, a: 1}"),
             ".bundle", "['a', 'b', 2.5, None]"),
            (one_entry(bundle="{capital: 1, labor: 1, 10: 1, 3: 1}"), ".bundle", "[3, 10]"),
            (one_entry(bundle="{capital: 1, labor: 1, b: 1, A: 1, a: 1}"),
             ".bundle", "['A', 'a', 'b']"),
        ],
        ids=["technology", "entry", "bundle-four-types", "ints-in-order", "strings-in-order"],
    )
    def test_scenario_entry(self, tmp_path, text, where, listed):
        assert entry_error(tmp_path, text) == f"{where} has unknown keys {listed}"

    def test_scenario_file(self, tmp_path):
        path = write(tmp_path, "scenarios: []\n1: 2\nx: 3\n")
        with pytest.raises(ScenarioError) as caught:
            load_scenarios(path)
        assert str(caught.value) == f"{path} has unknown keys ['x', 1]"

    def test_simulation_config(self, tmp_path):
        body = "  years: 2\n  level_growth: 0\n  bundle: {capital: 1, labor: 1}\n" \
               "  prices: {capital_price: 1, wage: 1}\n  1: 2\n  x: 3\n"
        path = write(tmp_path, SIM_HEADER + body)
        with pytest.raises(ScenarioError) as caught:
            load_simulation(path)
        assert str(caught.value) == f"{path}: simulation has unknown keys ['x', 1]"


class TestUnhashableFamily:
    """A list or mapping as the family is the usual family error, not a TypeError."""

    @pytest.mark.parametrize("family", ["[1]", "{a: 1}"])
    def test_scenario_entry(self, tmp_path, family):
        text = one_entry(technology=f"{{family: {family}, alpha_capital: 0.3, alpha_labor: 0.7}}")
        got = yaml.safe_load(family)
        assert entry_error(tmp_path, text) == (
            f".technology: family must be one of {_FAMILY_NAMES!r}, got {got!r}"
        )

    @pytest.mark.parametrize("family", ["[1]", "{a: 1}"])
    def test_simulation_config(self, tmp_path, family):
        header = SIM_HEADER.replace("family: cobb-douglas", f"family: {family}")
        body = "  years: 2\n  level_growth: 0\n  bundle: {capital: 1, labor: 1}\n" \
               "  prices: {capital_price: 1, wage: 1}\n"
        path = write(tmp_path, header + body)
        with pytest.raises(ScenarioError) as caught:
            load_simulation(path)
        assert str(caught.value) == (
            f"{path}: simulation.technology: family must be one of {_FAMILY_NAMES!r}, "
            f"got {yaml.safe_load(family)!r}"
        )
