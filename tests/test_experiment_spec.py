"""Tests for the declarative experiment specs: round-trips, hashing, validation."""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SpecValidationError
from repro.experiments import (
    SPEC_SCHEMA_VERSION,
    AttackSpec,
    ExperimentSpec,
    ModelSpec,
    SweepSpec,
    VictimSpec,
    canonical_json,
    content_hash,
    panel_spec,
)


def tiny_spec(**overrides):
    defaults = dict(
        name="tiny",
        model=ModelSpec(
            architecture="lenet5", dataset="mnist", n_train=64, n_test=32, epochs=1
        ),
        victims=VictimSpec(multipliers=("M1", "M4"), calibration_samples=32),
        attacks=(AttackSpec(attack="FGM_linf"),),
        sweep=SweepSpec(epsilons=(0.0, 0.1), n_samples=8),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'

    def test_content_hash_is_stable_and_namespaced(self):
        payload = {"x": 1}
        assert content_hash(payload, "model") == content_hash(payload, "model")
        assert content_hash(payload, "model") != content_hash(payload, "suite")


class TestRoundTrips:
    def test_json_spec_json_round_trip(self):
        spec = tiny_spec()
        text = spec.to_json()
        again = ExperimentSpec.from_json(text)
        assert again == spec
        assert again.to_json() == text

    def test_dict_round_trip_every_node(self):
        model = ModelSpec(architecture="alexnet", dataset="cifar10", seed=3)
        assert ModelSpec.from_dict(model.to_dict()) == model
        victims = VictimSpec(multipliers=("M2",), kernel="gather", bits=7)
        assert VictimSpec.from_dict(victims.to_dict()) == victims
        attack = AttackSpec.create("BIM_linf")
        assert AttackSpec.from_dict(attack.to_dict()) == attack
        sweep = SweepSpec(epsilons=(0.0, 0.25), n_samples=5)
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep

    def test_save_load_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = str(tmp_path / "spec.json")
        spec.save(path)
        assert ExperimentSpec.load(path) == spec

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            ExperimentSpec.load(str(tmp_path / "nope.json"))

    def test_unknown_spec_version_rejected(self):
        payload = json.loads(tiny_spec().to_json())
        payload["spec_version"] = SPEC_SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError, match="spec_version"):
            ExperimentSpec.from_json(json.dumps(payload))

    def test_unknown_field_rejected(self):
        payload = json.loads(tiny_spec().to_json())
        payload["experiment"]["model"]["optimizer"] = "adam"
        with pytest.raises(ConfigurationError, match="unknown ModelSpec field"):
            ExperimentSpec.from_json(json.dumps(payload))

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentSpec.from_json("{not json")


class TestContentHash:
    def test_identical_specs_hash_equal(self):
        assert tiny_spec().content_hash() == tiny_spec().content_hash()

    def test_every_field_perturbs_the_hash(self):
        base = tiny_spec()
        variants = [
            tiny_spec(model=ModelSpec(n_train=64, n_test=32, epochs=2)),
            tiny_spec(model=ModelSpec(n_train=64, n_test=32, epochs=1, seed=7)),
            tiny_spec(victims=VictimSpec(multipliers=("M1",))),
            tiny_spec(attacks=(AttackSpec(attack="BIM_linf"),)),
            tiny_spec(sweep=SweepSpec(epsilons=(0.0, 0.2), n_samples=8)),
            tiny_spec(seed=11),
        ]
        hashes = {spec.content_hash() for spec in variants}
        assert base.content_hash() not in hashes
        assert len(hashes) == len(variants)

    def test_name_is_presentation_only(self):
        # renaming an experiment must not orphan its cached artifacts
        assert (
            tiny_spec(name="a").content_hash() == tiny_spec(name="b").content_hash()
        )

    def test_hash_stable_across_process_restarts(self):
        # the digest must be a pure function of the spec content: a fresh
        # interpreter reconstructing the spec from its JSON must agree
        spec = tiny_spec()
        code = (
            "import sys, json\n"
            "from repro.experiments import ExperimentSpec\n"
            "spec = ExperimentSpec.from_json(sys.stdin.read())\n"
            "print(spec.content_hash())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            input=spec.to_json(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == spec.content_hash()

    def test_hash_is_salted_with_the_code_version(self, monkeypatch):
        # an artifact is only valid for the code that produced it: bumping
        # the package version must invalidate every stored digest
        import repro.experiments.spec as spec_module

        before = tiny_spec().content_hash()
        monkeypatch.setattr(spec_module, "__version__", "999.0.0")
        assert tiny_spec().content_hash() != before

    def test_dataset_aliases_normalise_to_one_hash(self):
        a = ModelSpec(dataset="mnist")
        b = ModelSpec(dataset="synthetic-mnist")
        assert a.content_hash() == b.content_hash()


#: content hashes of valid victim and attack specs, recorded before their
#: kernel names and attack params were checked: validation must not move
#: the hash of any spec it accepts
PINNED_VICTIM_HASHES = {
    "auto": "3f5584bcff1ba0b3be3505bd321c55e93e1dacdf25712d3fdd7f486b92cfd2f8",
    "gather": "b82aa1fd0ae6fcb8a7722208e3815d1c883ebf07eef72dc02adb5e3f599f57c5",
    "percode": "3e6e36c72d8565728cddb250ef150f1f748ab4e324c6c613222d814e7550cbc4",
    "errorcorrection": (
        "a4431872fd4ac50de7647ec72471cba44f0d39450ca0df2e46c7c3a65eaa8b7e"
    ),
    "sparse": "02694ebdb0d0037d4c6116a9661710656aaafd40b90c7ad62a68029f944e367a",
    "exact": "8bc66b0042a43bf16a9cacabc98d4282f78cbba141db879cc74ae103f2c325a6",
    "native": "1f529909be26f95d384dddd16f89cdf22832a36d8751b0ec16a6f874a61054ba",
}
PINNED_ATTACK_HASHES = [
    ("FGM_linf", {},
     "551abff76a9eca76f21638c8b9e6395c8c9aecc754c705d4a64f206fab705e98"),
    ("BIM_linf", {"steps": 5, "step_size_factor": 0.1},
     "32163c3b665f0afd63b0e40bbcaa5151b16d0887c37c543e6bae941eb0da4f69"),
    ("PGD_l2", {"seed": 3},
     "42725e7eebe3b2adf3e6cd78a42e244079f3777644d9369fa0080f188d572e4f"),
    ("CR_l2", {"target": 0.25},
     "1b92b06d321afe8d10652062513aa64c99677362ebf9cee1884cba2af676c396"),
    ("RAU_linf", {"repeats": 4, "seed": 1},
     "1c997ce0598e483d8f66904e74234ef5d9a9fd3397975e69bf6af04dc17916e6"),
]


class TestPinnedHashes:
    def test_victim_hashes_unchanged(self):
        for kernel, digest in PINNED_VICTIM_HASHES.items():
            spec = VictimSpec(multipliers=("M1", "M4"), kernel=kernel)
            assert spec.content_hash() == digest, kernel

    @pytest.mark.parametrize("attack, params, digest", PINNED_ATTACK_HASHES)
    def test_attack_hashes_unchanged(self, attack, params, digest):
        assert AttackSpec.from_dict({"attack": attack, "params": params}).content_hash() == (
            digest
        )


class TestValidation:
    def test_unknown_architecture(self):
        with pytest.raises(ConfigurationError, match="architecture"):
            ModelSpec(architecture="resnet")

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError, match="dataset"):
            ModelSpec(dataset="imagenet")

    def test_nonpositive_budgets(self):
        with pytest.raises(ConfigurationError):
            ModelSpec(n_train=0)
        with pytest.raises(ConfigurationError):
            ModelSpec(epochs=-1)
        with pytest.raises(ConfigurationError):
            ModelSpec(learning_rate=0.0)

    def test_empty_victims(self):
        with pytest.raises(ConfigurationError, match="multiplier"):
            VictimSpec(multipliers=())

    def test_unknown_multiplier_label_fails_fast(self):
        # a typo must surface at spec construction, not after training
        with pytest.raises(ConfigurationError, match="multiplier label"):
            VictimSpec(multipliers=("M1", "M44"))

    def test_unknown_attack(self):
        with pytest.raises(ConfigurationError, match="unknown attack"):
            AttackSpec(attack="DeepFool_l7")

    def test_bad_epsilons(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(epsilons=())
        with pytest.raises(ConfigurationError):
            SweepSpec(epsilons=(-0.1,))
        with pytest.raises(ConfigurationError):
            SweepSpec(epsilons=(0.1, 0.1))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="kind"):
            tiny_spec(kind="grid")

    def test_transfer_requires_single_attack_and_epsilon(self):
        with pytest.raises(ConfigurationError, match="one attack"):
            tiny_spec(
                kind="transfer",
                attacks=(AttackSpec("FGM_linf"), AttackSpec("BIM_linf")),
                sweep=SweepSpec(epsilons=(0.1,), n_samples=8),
            )
        with pytest.raises(ConfigurationError, match="one epsilon"):
            tiny_spec(kind="transfer")

    def test_transfer_sources_must_share_eval_split(self):
        primary = ModelSpec(n_train=64, n_test=32, epochs=1)
        mismatched = ModelSpec(
            architecture="ffnn", n_train=64, n_test=64, epochs=1
        )
        with pytest.raises(ConfigurationError, match="n_test and seed"):
            ExperimentSpec(
                name="t",
                kind="transfer",
                model=primary,
                transfer_sources=(mismatched,),
                victims=VictimSpec(multipliers=("M4",)),
                attacks=(AttackSpec("BIM_linf"),),
                sweep=SweepSpec(epsilons=(0.05,), n_samples=8),
            )

    def test_transfer_sources_forbidden_for_panels(self):
        with pytest.raises(ConfigurationError, match="transfer_sources"):
            tiny_spec(transfer_sources=(ModelSpec(),))


class TestHelpers:
    def test_panel_spec_builder(self):
        spec = panel_spec(
            "p",
            attacks=["FGM_linf", "BIM_linf"],
            multipliers=["M1", "M2"],
            epsilons=[0.0, 0.1],
            n_samples=4,
        )
        assert spec.kind == "panel"
        assert [attack.attack for attack in spec.attacks] == ["FGM_linf", "BIM_linf"]
        assert spec.victims.multipliers == ("M1", "M2")
        assert spec.sweep.epsilons == (0.0, 0.1)

    def test_with_seed(self):
        spec = tiny_spec()
        reseeded = spec.with_seed(5)
        assert reseeded.seed == 5
        assert reseeded.model == spec.model
        assert reseeded.content_hash() != spec.content_hash()

    def test_attack_spec_params_sorted_and_buildable(self):
        spec = AttackSpec.create("FGM_linf")
        attack = spec.build()
        assert attack.key() == "FGM_linf"

    def test_source_models_order(self):
        primary = ModelSpec(n_train=64, n_test=32, epochs=1)
        extra = ModelSpec(architecture="ffnn", n_train=64, n_test=32, epochs=1)
        spec = ExperimentSpec(
            name="t",
            kind="transfer",
            model=primary,
            transfer_sources=(extra,),
            victims=VictimSpec(multipliers=("M4",)),
            attacks=(AttackSpec("BIM_linf"),),
            sweep=SweepSpec(epsilons=(0.05,), n_samples=8),
        )
        assert spec.source_models() == (primary, extra)


class TestStructuredValidationErrors:
    """SpecValidationError carries a machine-readable field path."""

    def _tiny_document(self):
        return tiny_spec().to_dict()

    def test_nested_model_field_path(self):
        from repro.errors import SpecValidationError

        document = self._tiny_document()
        document["model"]["n_train"] = 0
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path == "model.n_train"
        assert "n_train" in excinfo.value.reason
        payload = excinfo.value.to_dict()
        assert payload["error"] == "invalid_spec"
        assert payload["path"] == "model.n_train"

    def test_indexed_attack_path(self):
        from repro.errors import SpecValidationError

        document = self._tiny_document()
        document["attacks"].append({"attack": "NOPE_linf"})
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path.startswith("attacks[1]")

    def test_sweep_and_victims_paths(self):
        from repro.errors import SpecValidationError

        document = self._tiny_document()
        document["sweep"]["epsilons"] = []
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path.startswith("sweep")

        document = self._tiny_document()
        document["victims"]["multipliers"] = ["M1", "NOT_A_MULT"]
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path.startswith("victims")

    def test_top_level_json_error_path(self):
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_json("not json at all")
        assert excinfo.value.path == ""

    def test_unknown_attack_param_path(self):
        with pytest.raises(SpecValidationError) as excinfo:
            AttackSpec.from_dict({"attack": "FGM_linf", "params": {"bogus": 1}})
        assert excinfo.value.path == "params.bogus"
        document = self._tiny_document()
        document["attacks"].append({"attack": "BIM_linf", "params": {"seed": 1}})
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path == "attacks[1].params.seed"

    @pytest.mark.parametrize("kernel", ["warp", "AUTO", "per-code BLAS", ""])
    def test_unknown_kernel_path(self, kernel):
        with pytest.raises(SpecValidationError) as excinfo:
            VictimSpec.from_dict({"kernel": kernel})
        assert excinfo.value.path == "kernel"
        document = self._tiny_document()
        document["victims"]["kernel"] = kernel
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec.from_dict(document)
        assert excinfo.value.path == "victims.kernel"

    def test_every_kernel_strategy_is_accepted(self):
        from repro.axnn.kernels import _KERNEL_CLASSES

        for kernel in ["auto", *_KERNEL_CLASSES]:
            assert VictimSpec.from_dict({"kernel": kernel}).kernel == kernel

    def test_validation_error_is_still_a_configuration_error(self):
        from repro.errors import SpecValidationError

        assert issubclass(SpecValidationError, ConfigurationError)


# --------------------------------------------------------------------------
# hostile payloads: every from_dict fails with a SpecValidationError
# --------------------------------------------------------------------------

#: JSON-shaped values, including what Python's json parses beyond the
#: standard: NaN, Infinity and integers of any size
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**64), 10**30])
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["M1", "M4", "lenet5", "mnist", "BIM_linf", "panel"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

NODES = (ModelSpec, VictimSpec, AttackSpec, SweepSpec)


def _node_payloads(cls):
    """Objects over ``cls``'s own field names (past the unknown-key check)."""
    names = st.sampled_from([field for field in cls.__dataclass_fields__])
    return st.dictionaries(names, JSON_VALUES, max_size=4)


def _experiment_payloads():
    node = {
        "model": _node_payloads(ModelSpec),
        "victims": _node_payloads(VictimSpec),
        "attacks": st.lists(_node_payloads(AttackSpec), max_size=2),
        "sweep": _node_payloads(SweepSpec),
        "transfer_sources": st.lists(_node_payloads(ModelSpec), max_size=2),
    }
    value = st.sampled_from(sorted(node)).flatmap(
        lambda key: st.tuples(st.just(key), node[key] | JSON_VALUES)
    ) | st.tuples(st.sampled_from(["name", "kind", "seed"]), JSON_VALUES)
    return st.lists(value, max_size=5).map(dict)


def _valid_or_clean_failure(cls, payload):
    """from_dict either builds a hashable, round-tripping spec or raises
    SpecValidationError — never a TypeError, ValueError or OverflowError."""
    try:
        spec = cls.from_dict(payload)
    except SpecValidationError:
        return
    assert len(spec.content_hash()) == 64
    assert cls.from_dict(json.loads(spec.canonical_json())) == spec


class TestHostilePayloads:
    @pytest.mark.parametrize(
        "cls, payload, path",
        [
            (VictimSpec, {"multipliers": 5}, "multipliers"),
            (VictimSpec, {"multipliers": "M1"}, "multipliers"),
            (SweepSpec, {"epsilons": 3}, "epsilons"),
            (SweepSpec, {"epsilons": [0.1, float("nan")]}, "epsilons[1]"),
            (AttackSpec, {"params": 3}, "params"),
            (AttackSpec, {"params": {"steps": float("inf")}}, "params.steps"),
            (ModelSpec, json.loads('{"learning_rate": NaN}'), "learning_rate"),
            (ModelSpec, {"seed": 2**64}, "seed"),
            (ModelSpec, {"seed": -1}, "seed"),
            (ModelSpec, [], ""),
        ],
    )
    def test_node_failures_name_the_field(self, cls, payload, path):
        with pytest.raises(SpecValidationError) as excinfo:
            cls.from_dict(payload)
        assert excinfo.value.path == path

    def test_nested_failure_paths(self):
        cases = {
            "victims.multipliers": {"victims": {"multipliers": 5}},
            "model.learning_rate": json.loads('{"model": {"learning_rate": NaN}}'),
            "attacks": {"attacks": 3},
            "attacks[0].params": {"attacks": [{"params": []}]},
            "transfer_sources[0]": {"transfer_sources": [7]},
        }
        for path, payload in cases.items():
            with pytest.raises(SpecValidationError) as excinfo:
                ExperimentSpec.from_dict(payload)
            assert excinfo.value.path == path, payload

    def test_constructors_reject_non_finite_floats(self):
        with pytest.raises(SpecValidationError, match="learning_rate"):
            ModelSpec(learning_rate=float("inf"))
        with pytest.raises(SpecValidationError, match="epsilons"):
            SweepSpec(epsilons=(float("nan"),))
        with pytest.raises(SpecValidationError, match="params"):
            AttackSpec.create("FGM_linf", epsilon=float("nan"))

    @pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_node_from_dict_property(self, cls, data):
        payload = data.draw(_node_payloads(cls) | JSON_VALUES)
        _valid_or_clean_failure(cls, payload)

    @settings(max_examples=200, deadline=None)
    @given(payload=_experiment_payloads() | JSON_VALUES)
    def test_experiment_from_dict_property(self, payload):
        _valid_or_clean_failure(ExperimentSpec, payload)
