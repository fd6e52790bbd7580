"""The facade contract: surface, docstrings, configure.

Pins the public facade: ``repro.__all__`` matches the documented surface
(and docs/API.md names every facade function), every facade function's
docstring describes each of its parameters, and ``repro.configure`` is the
one config door that composes/restores all three subsystems.
"""

import inspect
import warnings
from pathlib import Path

import pytest

import repro
from repro import api

DOCS_API = Path(__file__).resolve().parent.parent / "docs" / "API.md"

#: the documented stable surface, in export order
DOCUMENTED_SURFACE = [
    "__version__",
    "Architecture",
    "Workload",
    "MMSParams",
    "paper_defaults",
    "solve",
    "solve_points",
    "sweep",
    "simulate",
    "tolerance_index",
    "configure",
    "scenarios",
    "SolveService",
    "ServiceConfig",
    "MMSModel",
    "MMSPerformance",
    "ToleranceResult",
    "ToleranceZone",
    "classify",
    "network_tolerance",
    "memory_tolerance",
    "tolerance_report",
    "analyze",
    "lambda_net_saturation",
    "critical_p_remote",
    "zone_boundary",
    "threads_for_tolerance",
]

FACADE_FUNCTIONS = [
    "solve",
    "solve_points",
    "sweep",
    "simulate",
    "tolerance_index",
    "configure",
    "scenarios",
]


class TestSurface:
    def test_all_matches_documented_surface(self):
        assert list(repro.__all__) == DOCUMENTED_SURFACE

    def test_every_name_in_all_is_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_api_module_all_is_subset_of_package_all(self):
        for name in api.__all__:
            assert name in repro.__all__, name

    def test_docs_api_names_every_facade_function(self):
        text = DOCS_API.read_text(encoding="utf-8")
        for name in FACADE_FUNCTIONS:
            assert f"repro.{name}" in text, f"docs/API.md missing repro.{name}"
        assert "repro.SolveService" in text

    def test_facade_solve_matches_core_solve_bitwise(self):
        params = repro.paper_defaults(num_threads=8, p_remote=0.2)
        from repro.core.model import solve as core_solve

        assert repro.solve(params).to_dict() == core_solve(params).to_dict()
        assert (
            repro.solve(num_threads=8, p_remote=0.2).to_dict()
            == core_solve(params).to_dict()
        )


class TestDocstrings:
    @pytest.mark.parametrize("name", FACADE_FUNCTIONS)
    def test_facade_function_documents_every_parameter(self, name):
        func = getattr(api, name)
        doc = func.__doc__
        assert doc and len(doc.strip()) > 40, f"{name}: missing docstring"
        params = [
            p
            for p in inspect.signature(func).parameters
            if p not in ("self",)
        ]
        for param in params:
            # **overrides appears as "overrides"; _UNSET-defaulted kwargs by name
            label = param.lstrip("*")
            assert label in doc, f"{name}: parameter {param!r} undocumented"


class TestConfigure:
    def test_composes_all_three_subsystems(self):
        from repro.obs.trace import get_tracer
        from repro.resilience.faults import get_injector
        from repro.runner.config import effective_config

        prev = repro.configure(
            jobs=5,
            backend="batch",
            fault_plan={"seed": 2, "sites": {"solve.delay": {"on_nth": [99]}}},
        )
        try:
            cfg = effective_config()
            assert cfg["jobs"] == 5
            assert cfg["backend"] == "batch"
            assert get_injector() is not None
        finally:
            repro.configure(**prev)
        assert get_injector() is None
        assert get_tracer() is None or True  # tracer untouched by restore

    def test_returns_only_touched_settings(self):
        prev = repro.configure(jobs=4)
        try:
            assert set(prev) == {"jobs"}
        finally:
            repro.configure(**prev)

    def test_restore_round_trip(self):
        from repro.runner.config import effective_config

        before = effective_config()
        prev = repro.configure(jobs=9, retries=4, timeout=1.5)
        repro.configure(**prev)
        assert effective_config() == before

    def test_unknown_keyword_rejected(self):
        with pytest.raises(TypeError):
            repro.configure(warp_speed=9)

    def test_facade_configure_never_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prev = repro.configure(jobs=2, trace=False, fault_plan=None)
            repro.configure(
                **{k: v for k, v in prev.items() if k != "tracer"}
            )
        assert not [
            w for w in caught if issubclass(w.category, DeprecationWarning)
        ]

    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            ({"backend": "quantum"}, ValueError, "unknown backend 'quantum'"),
            ({"jobs": 0}, ValueError, "jobs must be >= 1"),
            ({"jobs": 7, "retries": -1}, ValueError, "retries must be >= 0"),
            ({"jobs": 7, "retries": None}, TypeError, "not supported"),
            ({"jobs": 7, "scenario": "bogus"}, ValueError, "unknown scenario"),
            ({"jobs": 7, "fault_plan": "{bad"}, ValueError, "^fault_plan: "),
            (
                {"jobs": 7, "scenario": "hier", "fault_plan": "/no/such/plan.json"},
                ValueError,
                "^fault_plan: ",
            ),
            (
                {"jobs": 7, "fault_plan": {"sites": {"no.such.site": {}}}},
                ValueError,
                "^fault_plan: ",
            ),
        ],
    )
    def test_rejected_call_changes_nothing(self, kwargs, error, match):
        """Every keyword is checked before any setting changes."""
        from repro.resilience.faults import get_injector
        from repro.runner.config import effective_config
        from repro.scenarios import default_scenario

        config, scenario, injector = (
            effective_config(), default_scenario(), get_injector()
        )
        with pytest.raises(error, match=match):
            repro.configure(**kwargs)
        assert effective_config() == config
        assert default_scenario() == scenario
        assert get_injector() is injector

    def test_bad_settings_rejected_like_the_runner(self):
        """configure raises the errors ``SweepRunner`` would, up front."""
        from repro.runner import SweepRunner

        for kwargs in ({"backend": "quantum"}, {"jobs": 0}, {"retries": -1}):
            with pytest.raises(ValueError) as by_runner:
                SweepRunner(**kwargs)
            with pytest.raises(ValueError) as by_configure:
                repro.configure(**kwargs)
            assert str(by_configure.value) == str(by_runner.value)

    def test_subsystems_have_no_configure_of_their_own(self):
        from repro import obs, resilience, runner

        for module in (obs, resilience, runner):
            assert not hasattr(module, "configure"), module.__name__
