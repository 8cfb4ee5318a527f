"""ExperimentSpec parameter resolution, registry, and grid expansion."""
import pytest

from repro.runtime import ExperimentSpec, expand_grid, get_spec, register
from repro.runtime import spec as spec_mod


def produce_demo(x=1, y="a", flag=True):
    return {"x": x, "y": y, "flag": flag}


def make_spec(**kw):
    defaults = dict(name="demo", title="demo spec", produce=produce_demo)
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestResolveParams:
    def test_signature_defaults_become_explicit(self):
        assert make_spec().resolve_params() == {
            "x": 1, "y": "a", "flag": True
        }

    def test_layering(self):
        spec = make_spec(defaults={"x": 5}, quick={"y": "q"})
        assert spec.resolve_params() == {"x": 5, "y": "a", "flag": True}
        assert spec.resolve_params(quick=True)["y"] == "q"
        assert spec.resolve_params({"y": "z"}, quick=True)["y"] == "z"

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError, match="unknown parameter"):
            make_spec().resolve_params({"nope": 1})

    def test_resolution_never_mutates_spec(self):
        spec = make_spec(defaults={"x": 5})
        spec.resolve_params({"x": 9})
        assert spec.resolve_params()["x"] == 5


class TestRegistry:
    @pytest.fixture(autouse=True)
    def _private_registry(self, monkeypatch):
        """Register into a copy, so the demo specs never reach the CLI.

        ``mbs-repro list``/``all``/``export`` iterate the registry, so a
        demo spec left behind would join every later run in this
        process.  The real specs are registered first: importing
        ``repro.experiments`` under the copy would lose them with it.
        """
        import repro.experiments  # noqa: F401  (registers the specs)

        monkeypatch.setattr(spec_mod, "_REGISTRY", dict(spec_mod._REGISTRY))

    def test_reregister_same_module_is_idempotent(self):
        register(make_spec(name="demo_idem"))
        register(make_spec(name="demo_idem", defaults={"x": 2}))
        assert get_spec("demo_idem").defaults == {"x": 2}

    def test_conflicting_module_rejected(self):
        register(make_spec(name="demo_conflict"))
        foreign = ExperimentSpec(
            name="demo_conflict", title="imposter", produce=print
        )
        with pytest.raises(ValueError, match="already registered"):
            register(foreign)

    def test_unknown_lookup_names_candidates(self):
        with pytest.raises(KeyError, match="registered:"):
            get_spec("never_registered")

    def test_real_specs_are_registered(self):
        import repro.experiments  # noqa: F401  (triggers registration)

        names = spec_mod.spec_names()
        for expected in ("fig3", "fig10", "tab2", "headline"):
            assert expected in names

    def test_artifact_schema_check(self):
        spec = make_spec(artifact=("x", "missing"))
        assert spec.missing_artifact_keys({"x": 1}) == ["missing"]


class TestExpandGrid:
    def test_empty_axes_single_point(self):
        assert expand_grid({}) == [{}]

    def test_cartesian_product_in_order(self):
        grid = expand_grid({"a": (1, 2), "b": ("x", "y")})
        assert grid == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_order_is_deterministic_across_calls(self):
        axes = {"m": (16, 32, 64), "p": ("mbs1", "mbs2")}
        assert expand_grid(axes) == expand_grid(dict(axes))
