"""Project-level lint: the graph builder and rules RL008-RL011, RL013-RL014.

The graph machinery (symbol table, call graph) is tested directly on
hand-built :class:`ModuleInfo` sets; each cross-module rule gets a
planted multi-module violation plus an inverse control proving the
clean variant stays silent. Everything runs through ``lint_sources`` —
the in-memory entry point the engine itself uses — so the fixtures
exercise the same path CI does.
"""

import ast
import textwrap

from repro.lint import lint_sources, select_rules
from repro.lint.graph import ModuleInfo, SymbolTable, module_name_from_rel_parts
from repro.lint.project import ProjectContext


def module_of(name, source):
    """A ModuleInfo parsed from dedented ``source``."""
    path = "src/" + name.replace(".", "/") + ".py"
    return ModuleInfo(name=name, path=path, tree=ast.parse(textwrap.dedent(source)))


def project_of(**sources):
    """A ProjectContext over modules given as ``dotted_name=source``."""
    return ProjectContext(
        [module_of(name, src) for name, src in sources.items()]
    )


def run_rule(code, files):
    """Lint dedented in-memory ``files`` under the single rule ``code``."""
    dedented = {path: textwrap.dedent(src) for path, src in files.items()}
    return lint_sources(dedented, rules=select_rules(select=[code]))


def codes_of(run):
    return [finding.code for finding in run.findings]


# ---------------------------------------------------------------------------
# Module names and symbol resolution
# ---------------------------------------------------------------------------


class TestModuleNames:
    def test_plain_module(self):
        assert (
            module_name_from_rel_parts(("core", "permits.py"))
            == "repro.core.permits"
        )

    def test_package_init(self):
        assert (
            module_name_from_rel_parts(("core", "__init__.py"))
            == "repro.core"
        )

    def test_outside_repro_tree(self):
        assert module_name_from_rel_parts(()) == ""


class TestSymbolTable:
    def test_aliased_symbol_import_resolves(self):
        lib = module_of(
            "repro.util.rng",
            """
            class RngFactory:
                def derive(self, label):
                    return label
            """,
        )
        user = module_of(
            "repro.core.session",
            "from repro.util.rng import RngFactory as RF\n",
        )
        table = SymbolTable({m.name: m for m in (lib, user)})
        kind, info = table.resolve(user, "RF")
        assert kind == "class"
        assert info.qualname == "repro.util.rng.RngFactory"

    def test_aliased_module_import_resolves(self):
        lib = module_of("repro.util.units", "MB = 1000000\n")
        user = module_of(
            "repro.core.session", "import repro.util.units as units\n"
        )
        table = SymbolTable({m.name: m for m in (lib, user)})
        assert table.resolve(user, "units") == (
            "module",
            "repro.util.units",
        )

    def test_reexport_chain_followed(self):
        # core/__init__ re-exports a class from a submodule; a third
        # module imports it from the package and must land on the class.
        impl = module_of(
            "repro.core.captracker",
            """
            class CapTracker:
                pass
            """,
        )
        package = module_of(
            "repro.core", "from repro.core.captracker import CapTracker\n"
        )
        user = module_of(
            "repro.experiments.figx",
            "from repro.core import CapTracker\n",
        )
        table = SymbolTable({m.name: m for m in (impl, package, user)})
        kind, info = table.resolve(user, "CapTracker")
        assert kind == "class"
        assert info.qualname == "repro.core.captracker.CapTracker"

    def test_star_import_resolves_public_names_only(self):
        lib = module_of(
            "repro.util.helpers",
            """
            def visible():
                pass

            def _hidden():
                pass
            """,
        )
        user = module_of(
            "repro.core.session", "from repro.util.helpers import *\n"
        )
        table = SymbolTable({m.name: m for m in (lib, user)})
        kind, info = table.resolve(user, "visible")
        assert kind == "function"
        assert info.qualname == "repro.util.helpers.visible"
        assert table.resolve(user, "_hidden") is None

    def test_import_cycle_is_resolved_without_recursion(self):
        # a re-exports from b, b re-exports from a: resolution of a name
        # neither defines must terminate and return None.
        a = module_of("repro.core.a", "from repro.core.b import thing\n")
        b = module_of("repro.core.b", "from repro.core.a import thing\n")
        table = SymbolTable({m.name: m for m in (a, b)})
        assert table.resolve(a, "thing") is None

    def test_unresolvable_internal_name_is_none(self):
        user = module_of(
            "repro.core.session", "from repro.core.missing import gone\n"
        )
        table = SymbolTable({user.name: user})
        assert table.resolve(user, "gone") is None

    def test_stdlib_dotted_path_kept_for_pattern_matching(self):
        user = module_of("repro.core.session", "from random import Random\n")
        table = SymbolTable({user.name: user})
        assert table.resolve(user, "Random") == ("module", "random.Random")


# ---------------------------------------------------------------------------
# Call graph construction
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_cross_module_edge_recorded(self):
        project = project_of(**{
            "repro.proto.helpers": """
                def scale(value):
                    return value * 2
                """,
            "repro.proto.httpwire": """
                from repro.proto.helpers import scale

                def parse_head(data):
                    return scale(len(data))
                """,
        })
        callers = project.call_graph.callers_of("repro.proto.helpers.scale")
        assert [site.caller for site in callers] == [
            "repro.proto.httpwire.parse_head"
        ]

    def test_method_call_on_constructed_instance_resolved(self):
        project = project_of(**{
            "repro.core.captracker": """
                class CapTracker:
                    def record_usage(self, n):
                        self._used = n
                """,
            "repro.core.session": """
                from repro.core.captracker import CapTracker

                def run():
                    tracker = CapTracker()
                    tracker.record_usage(5)
                """,
        })
        callers = project.call_graph.callers_of(
            "repro.core.captracker.CapTracker.record_usage"
        )
        assert [site.caller for site in callers] == [
            "repro.core.session.run"
        ]

    def test_recursive_functions_do_not_hang_escape_analysis(self):
        project = project_of(**{
            "repro.proto.looper": """
                def parse_a(data):
                    if data:
                        return parse_b(data[1:])
                    raise ValueError("empty")

                def parse_b(data):
                    return parse_a(data)
                """,
        })
        escaped = project.escapes("repro.proto.looper.parse_a")
        assert "ValueError" in escaped

    def test_non_repro_files_excluded_from_project(self):
        run = lint_sources(
            {
                "tests/test_x.py": "import os\n",
                "src/repro/core/ok.py": "x = 1\n",
            }
        )
        assert run.files_checked == 2


# ---------------------------------------------------------------------------
# RL008 — seed provenance
# ---------------------------------------------------------------------------


class TestSeedProvenanceRule:
    def test_unseeded_rng_laundered_through_helper_flagged(self):
        # The RL001 blind spot: the construction site *looks* seeded,
        # the call site passes nothing, and the default is None.
        run = run_rule("RL008", {
            "src/repro/core/helpers.py": """
                from numpy.random import default_rng

                def make_rng(seed=None):
                    return default_rng(seed)
                """,
            "src/repro/experiments/figx.py": """
                from repro.core.helpers import make_rng

                def run():
                    return make_rng()
                """,
        })
        assert codes_of(run) == ["RL008"]
        assert run.findings[0].path.endswith("figx.py")

    def test_directly_unseeded_construction_flagged(self):
        run = run_rule("RL008", {
            "src/repro/core/direct.py": """
                from numpy.random import default_rng

                def fresh():
                    return default_rng()
                """,
        })
        assert codes_of(run) == ["RL008"]

    def test_seed_derived_from_rng_factory_is_clean(self):
        # Inverse control: the same helper fed a derived seed.
        run = run_rule("RL008", {
            "src/repro/core/helpers.py": """
                from numpy.random import default_rng

                def make_rng(seed=None):
                    return default_rng(seed)
                """,
            "src/repro/experiments/figx.py": """
                from repro.core.helpers import make_rng
                from repro.util.rng import RngFactory

                def run():
                    factory = RngFactory(123)
                    return make_rng(factory.derive_seed("figx"))
                """,
        })
        assert codes_of(run) == []

    def test_literal_seed_is_clean(self):
        run = run_rule("RL008", {
            "src/repro/core/direct.py": """
                from numpy.random import default_rng

                def fresh():
                    return default_rng(42)
                """,
        })
        assert codes_of(run) == []

    def test_blessed_root_module_exempt(self):
        # util/rng.py IS the seeded root; it may touch raw constructors.
        run = run_rule("RL008", {
            "src/repro/util/rng.py": """
                from numpy.random import default_rng

                def spawn():
                    return default_rng()
                """,
        })
        assert codes_of(run) == []


# ---------------------------------------------------------------------------
# RL009 — obs emit sites match the schema catalogue
# ---------------------------------------------------------------------------

_SCHEMA_FIXTURE = """
    EVENTS = {
        "permit.grant": ("device",),
    }
    METRICS = {
        "bytes.cell": {"unit": "bytes", "labels": ("path",)},
    }
    """


class TestObsSchemaSiteRule:
    def test_unknown_event_name_flagged(self):
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/permits.py": """
                def grant(obs):
                    obs.event("permit.grnat", device="phone-0")
                """,
        })
        assert codes_of(run) == ["RL009"]
        assert "permit.grnat" in run.findings[0].message

    def test_unknown_event_field_flagged(self):
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/permits.py": """
                def grant(obs):
                    obs.event("permit.grant", device="phone-0", cell=3)
                """,
        })
        assert codes_of(run) == ["RL009"]
        assert "'cell'" in run.findings[0].message

    def test_unknown_metric_label_flagged(self):
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/meter.py": """
                def meter(obs):
                    obs.count("bytes.cell", amount=10, device="p0")
                """,
        })
        assert codes_of(run) == ["RL009"]

    def test_catalogued_site_is_clean(self):
        # Inverse control: same sites, catalogued vocabulary only. The
        # reserved signature kwargs (time/amount/value) never count as
        # schema fields.
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/permits.py": """
                def grant(obs):
                    obs.event("permit.grant", device="phone-0", time=1.0)
                    obs.count("bytes.cell", amount=10, path="dsl")
                """,
        })
        assert codes_of(run) == []

    def test_dynamic_name_and_star_kwargs_not_guessed(self):
        run = run_rule("RL009", {
            "src/repro/obs/schema.py": _SCHEMA_FIXTURE,
            "src/repro/core/permits.py": """
                def grant(obs, name, fields):
                    obs.event(name, device="phone-0")
                    obs.event("permit.grant", **fields)
                """,
        })
        assert codes_of(run) == []


# ---------------------------------------------------------------------------
# RL010 — authority discipline
# ---------------------------------------------------------------------------

_CAPTRACKER_FIXTURE = """
    class CapTracker:
        def __init__(self, budget):
            self._used = 0.0
            self.budget = budget

        def record_usage(self, nbytes):
            self._used += nbytes

        def remaining(self):
            return self.budget - self._used
    """


class TestAuthorityDisciplineRule:
    def test_mutation_from_experiment_module_flagged(self):
        run = run_rule("RL010", {
            "src/repro/core/captracker.py": _CAPTRACKER_FIXTURE,
            "src/repro/experiments/figx.py": """
                from repro.core.captracker import CapTracker

                def run(tracker: CapTracker):
                    tracker.record_usage(5)
                """,
        })
        assert codes_of(run) == ["RL010"]
        assert "record_usage" in run.findings[0].message

    def test_guard_layer_may_mutate(self):
        # Inverse control: the identical call from core/resilience.py.
        run = run_rule("RL010", {
            "src/repro/core/captracker.py": _CAPTRACKER_FIXTURE,
            "src/repro/core/resilience.py": """
                from repro.core.captracker import CapTracker

                def meter(tracker: CapTracker):
                    tracker.record_usage(5)
                """,
        })
        assert codes_of(run) == []

    def test_read_path_callable_from_anywhere(self):
        run = run_rule("RL010", {
            "src/repro/core/captracker.py": _CAPTRACKER_FIXTURE,
            "src/repro/experiments/figx.py": """
                from repro.core.captracker import CapTracker

                def run(tracker: CapTracker):
                    return tracker.remaining()
                """,
        })
        assert codes_of(run) == []

    def test_own_methods_may_mutate(self):
        run = run_rule("RL010", {
            "src/repro/core/captracker.py": """
                class CapTracker:
                    def __init__(self):
                        self._used = 0.0

                    def record_usage(self, nbytes):
                        self._used += nbytes

                    def record_both(self, down, up):
                        self.record_usage(down)
                        self.record_usage(up)
                """,
        })
        assert codes_of(run) == []


# ---------------------------------------------------------------------------
# RL011 — exception escape across call boundaries
# ---------------------------------------------------------------------------


class TestExceptionEscapeRule:
    def test_data_error_two_calls_down_flagged_at_raise_site(self):
        run = run_rule("RL011", {
            "src/repro/proto/helpers.py": """
                def scale(value):
                    if value < 0:
                        raise ValueError("negative")
                    return value * 2
                """,
            "src/repro/proto/httpwire.py": """
                from repro.proto.helpers import scale

                def parse_head(data):
                    return scale(len(data))
                """,
        })
        assert codes_of(run) == ["RL011"]
        finding = run.findings[0]
        assert finding.path.endswith("helpers.py")
        assert "parse_head" in finding.message

    def test_caught_on_the_way_out_is_clean(self):
        # Inverse control: the entry point catches the helper's raise.
        run = run_rule("RL011", {
            "src/repro/proto/helpers.py": """
                def scale(value):
                    if value < 0:
                        raise ValueError("negative")
                    return value * 2
                """,
            "src/repro/proto/httpwire.py": """
                from repro.proto.helpers import scale

                def parse_head(data):
                    try:
                        return scale(len(data))
                    except ValueError:
                        return 0
                """,
        })
        assert codes_of(run) == []

    def test_taxonomy_raise_is_clean(self):
        run = run_rule("RL011", {
            "src/repro/proto/helpers.py": """
                from repro.proto.errors import FramingError

                def scale(value):
                    if value < 0:
                        raise FramingError("negative")
                    return value * 2
                """,
            "src/repro/proto/httpwire.py": """
                from repro.proto.helpers import scale

                def parse_head(data):
                    return scale(len(data))
                """,
        })
        assert codes_of(run) == []

    def test_direct_raise_left_to_rl006(self):
        # Chain length 1 is the per-module rule's finding, not RL011's.
        run = run_rule("RL011", {
            "src/repro/proto/httpwire.py": """
                def parse_head(data):
                    raise ValueError("bad")
                """,
        })
        assert codes_of(run) == []

    def test_non_parse_entry_points_exempt(self):
        run = run_rule("RL011", {
            "src/repro/proto/helpers.py": """
                def scale(value):
                    raise ValueError("negative")
                """,
            "src/repro/proto/httpwire.py": """
                from repro.proto.helpers import scale

                def render_head(data):
                    return scale(len(data))
                """,
        })
        assert codes_of(run) == []

    def test_escape_through_three_frames(self):
        run = run_rule("RL011", {
            "src/repro/web/fields.py": """
                def _to_int(text):
                    if not text.isdigit():
                        raise KeyError(text)
                    return int(text)
                """,
            "src/repro/web/lines.py": """
                from repro.web.fields import _to_int

                def _read_line(line):
                    return _to_int(line.strip())
                """,
            "src/repro/web/playlist.py": """
                from repro.web.lines import _read_line

                def parse_playlist(text):
                    return [_read_line(line) for line in text.split()]
                """,
        })
        assert codes_of(run) == ["RL011"]
        assert run.findings[0].path.endswith("fields.py")


class TestImportLayeringRule:
    def test_upward_import_flagged(self):
        # The inversion RL013 was written for: a fleet module borrowing
        # an experiments helper.
        run = run_rule("RL013", {
            "src/repro/experiments/formatting.py": """
                def fmt(value):
                    return str(value)
                """,
            "src/repro/fleet/report.py": """
                from repro.experiments.formatting import fmt
                """,
        })
        assert codes_of(run) == ["RL013"]
        assert "repro.experiments.formatting" in run.findings[0].message
        assert run.findings[0].path.endswith("fleet/report.py")

    def test_downward_import_is_clean(self):
        # Inverse control: the same edge pointing down the table.
        run = run_rule("RL013", {
            "src/repro/fleet/report.py": """
                def summarize(outcome):
                    return outcome
                """,
            "src/repro/experiments/ext_fleet.py": """
                from repro.fleet.report import summarize
                """,
        })
        assert codes_of(run) == []

    def test_lazy_and_sibling_imports_flagged(self):
        # pilot and fleet share a tier; a function-level import counts.
        run = run_rule("RL013", {
            "src/repro/pilot/simulation.py": "X = 1\n",
            "src/repro/fleet/dispatcher.py": """
                def run():
                    from repro.pilot import simulation
                    return simulation.X
                """,
        })
        assert codes_of(run) == ["RL013"]
        assert run.findings[0].line == 3

    def test_module_layers_split_their_package(self):
        # web may raise proto's error taxonomy but not use its client.
        run = run_rule("RL013", {
            "src/repro/proto/errors.py": "class WireError(Exception): ...\n",
            "src/repro/proto/client.py": "X = 1\n",
            "src/repro/web/hls.py": """
                from repro.proto import errors
                from repro.proto.client import X
                """,
        })
        assert codes_of(run) == ["RL013"]
        assert "repro.proto.client" in run.findings[0].message

    def test_unlisted_package_flagged(self):
        run = run_rule("RL013", {"src/repro/gadgets/widget.py": "X = 1\n"})
        assert codes_of(run) == ["RL013"]
        assert "LAYER_TIERS" in run.findings[0].message


class TestUnusedSymbolRule:
    #: The package root: RL014 judges only runs that include it.
    ROOT = {"src/repro/__init__.py": ""}

    def run14(self, files, **kwargs):
        dedented = {
            path: textwrap.dedent(src)
            for path, src in {**self.ROOT, **files}.items()
        }
        return lint_sources(
            dedented, rules=select_rules(select=["RL014"]), **kwargs
        )

    def test_unreferenced_function_flagged(self):
        run = self.run14({
            "src/repro/core/helpers.py": """
                def orphan():
                    return 1
                """,
        })
        assert codes_of(run) == ["RL014"]
        assert "'orphan'" in run.findings[0].message
        assert run.findings[0].line == 2

    def test_function_called_from_sibling_module_is_clean(self):
        run = self.run14({
            "src/repro/core/helpers.py": """
                def helper():
                    return 1
                """,
            "src/repro/core/session.py": """
                from repro.core.helpers import helper

                def _start():
                    return helper()
                """,
        })
        assert codes_of(run) == []

    def test_registering_decorators_are_uses(self):
        run = self.run14({
            "src/repro/experiments/registry.py": """
                def experiment(**spec):
                    return lambda fn: fn
                """,
            "src/repro/experiments/fig99.py": """
                from repro.experiments.registry import experiment

                @experiment(id="fig99")
                def run():
                    return 1
                """,
            "src/repro/lint/core.py": """
                def rule(cls):
                    return cls
                """,
            "src/repro/lint/rules.py": """
                from repro.lint.core import rule

                @rule
                class PlantedRule:
                    code = "RL999"
                """,
        })
        assert codes_of(run) == []

    def test_entry_point_main_is_a_use(self):
        # ``main`` of a module clidocs.ENTRY_POINTS lists is called by
        # the console script, from outside the tree; another module's
        # ``main`` has no such caller.
        run = self.run14({
            "src/repro/clidocs.py": """
                ENTRY_POINTS = (("repro-tool", "repro.tool"),)
                """,
            "src/repro/tool.py": """
                def main():
                    return 0
                """,
            "src/repro/other.py": """
                def main():
                    return 0
                """,
        })
        assert codes_of(run) == ["RL014"]
        assert run.findings[0].path.endswith("other.py")

    def test_package_reexport_is_not_a_use(self):
        run = self.run14({
            "src/repro/core/__init__.py": """
                from repro.core.helpers import orphan

                __all__ = ["orphan"]
                """,
            "src/repro/core/helpers.py": """
                def orphan():
                    return 1
                """,
        })
        assert codes_of(run) == ["RL014"]
        assert run.findings[0].path.endswith("helpers.py")

    def test_lazy_import_table_is_a_use(self):
        run = self.run14({
            "src/repro/proto/__init__.py": """
                import importlib

                _LAZY = {"Origin": "repro.proto.origin"}

                def __getattr__(name):
                    module = importlib.import_module(_LAZY[name])
                    return getattr(module, name)
                """,
            "src/repro/proto/origin.py": """
                class Origin:
                    pass
                """,
        })
        assert codes_of(run) == []

    def test_partial_tree_is_not_judged(self):
        # Without repro/__init__.py the run cannot see every user, so
        # RL014 reports nothing, and its suppressions are not audited.
        files = {
            "src/repro/core/helpers.py": textwrap.dedent("""
                def kept():  # repro-lint: disable=RL014  # b: test seam
                    return 1

                def orphan():
                    return 2
                """),
        }
        run = lint_sources(
            files,
            rules=select_rules(select=["RL014"]),
            warn_unused_suppressions=True,
        )
        assert run.findings == []

    def test_dead_suppression_audited_on_a_whole_tree(self):
        # Inverse control: once the run is judged, a suppression on a
        # symbol that has a user is dead (RL099).
        run = self.run14(
            {
                "src/repro/core/helpers.py": """
                    def used():  # repro-lint: disable=RL014  # b: seam
                        return 1

                    def _caller():
                        return used()
                    """,
            },
            warn_unused_suppressions=True,
        )
        assert codes_of(run) == ["RL099"]
