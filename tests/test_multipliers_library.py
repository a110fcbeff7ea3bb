"""Tests for the EvoApprox-style multiplier registry and named instances."""

import hashlib

import numpy as np
import pytest

from repro.errors import UnknownComponentError
from repro.multipliers import evoapprox
from repro.multipliers.library import (
    ACCURATE_MULTIPLIER,
    ALEXNET_MULTIPLIERS,
    LENET_MULTIPLIERS,
    alexnet_set,
    clear_cache,
    error_reports,
    get_multiplier,
    lenet_set,
    list_multipliers,
    paper_label,
    resolve_name,
)
from repro.multipliers.metrics import mean_absolute_error


class TestRegistry:
    def test_lenet_group_has_nine_entries(self):
        assert len(LENET_MULTIPLIERS) == 9

    def test_alexnet_group_has_eight_entries(self):
        assert len(ALEXNET_MULTIPLIERS) == 8

    def test_m1_is_the_accurate_multiplier(self):
        assert LENET_MULTIPLIERS["M1"] == ACCURATE_MULTIPLIER
        assert ALEXNET_MULTIPLIERS["A1"] == ACCURATE_MULTIPLIER

    def test_every_label_resolves(self):
        for label in list(LENET_MULTIPLIERS) + list(ALEXNET_MULTIPLIERS):
            assert resolve_name(label) in list_multipliers()

    def test_resolve_accepts_library_names(self):
        assert resolve_name("mul8u_17KS") == "mul8u_17KS"

    def test_resolve_rejects_unknown(self):
        with pytest.raises(UnknownComponentError):
            resolve_name("mul8u_NOPE")

    def test_get_multiplier_caches_instances(self):
        clear_cache()
        first = get_multiplier("M4")
        second = get_multiplier("mul8u_17KS")
        assert first is second

    def test_paper_label_roundtrip(self):
        assert paper_label("mul8u_17KS", group="lenet") == "M4"
        assert paper_label("mul8u_2P7", group="alexnet") == "A2"
        assert paper_label("mul8s_L1G", group="lenet") is None

    def test_available_names_sorted_and_unique(self):
        names = evoapprox.available_names()
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_build_unknown_raises(self):
        with pytest.raises(KeyError):
            evoapprox.build("mul8u_UNKNOWN")

    def test_build_returns_fresh_instances(self):
        assert evoapprox.build("mul8u_96D") is not evoapprox.build("mul8u_96D")


class TestNamedInstanceProperties:
    def test_accurate_multiplier_is_exact(self):
        assert get_multiplier("mul8u_1JFF").is_exact()

    def test_all_approximate_instances_have_errors(self):
        for label, name in LENET_MULTIPLIERS.items():
            if label == "M1":
                continue
            assert not get_multiplier(name).is_exact(), name

    def test_lenet_set_order(self):
        multipliers = lenet_set()
        assert [m.name for m in multipliers] == [
            LENET_MULTIPLIERS[f"M{i}"] for i in range(1, 10)
        ]

    def test_alexnet_set_order(self):
        multipliers = alexnet_set()
        assert [m.name for m in multipliers] == [
            ALEXNET_MULTIPLIERS[f"A{i}"] for i in range(1, 9)
        ]

    def test_low_error_group_below_high_error_group(self):
        # the paper's ordering: M2/M3 are near-exact, M6/M8 are the worst
        low = max(
            mean_absolute_error(get_multiplier(label)) for label in ("M2", "M3")
        )
        high = min(
            mean_absolute_error(get_multiplier(label)) for label in ("M6", "M8")
        )
        assert low < high

    def test_alexnet_set_is_mild(self):
        # every AlexNet multiplier keeps MAE under 2% (paper: accuracies
        # within ~2 points of the accurate model at eps = 0)
        for label in ALEXNET_MULTIPLIERS:
            assert mean_absolute_error(get_multiplier(label)) < 2.0

    def test_all_luts_fit_product_range(self):
        for name in list_multipliers():
            lut = get_multiplier(name).lut()
            assert lut.min() >= 0
            assert lut.max() <= 255 * 255 + (1 << 17)

    def test_error_reports_cover_library(self):
        reports = error_reports()
        assert {report.name for report in reports} == set(list_multipliers())


#: sha256 of ``lut().tobytes()`` for every library multiplier.  Every
#: weight, suite and grid hash downstream depends on these tables, so a
#: faster build must reproduce them byte for byte.
LUT_SHA256 = {
    "guesmi_ama1_l8": "e7de30881be5639ce95825928134dd72dd54217adcd6f4eedc47fc47ed127a26",
    "guesmi_ama2_l6": "1351b77cfbfe3a4c8460712ff3084469249e3ff602c0964f8870d5e26fb91b53",
    "guesmi_ama3_l8": "2717f905a3f4fd2fe9f97eae4c96283dfcae5a4b8609db629a418d1d207ba858",
    "mul8s_L1G": "8c3eac6c84f8355d72b9beed4c5f61c4122a6d34e75e2e041dca159c21d10766",
    "mul8s_L2H": "163e78d5f9e70d868b015586c14295491f7c0003c4aae27038c010515d1b75bf",
    "mul8u_12N4": "90b6e9d32535f5475c3abddc70325a8d11bf0c5d10900122801b894796452ae1",
    "mul8u_1446": "eec6cf00810e3accff08e5d6b08c6ed41d22094c384c8f39c84ebf8982a4bdfe",
    "mul8u_14VP": "1d1d8b54bc986677ad86272fcd83a5cc87849c2238387ca9ff47291f3492becf",
    "mul8u_150Q": "9e2406f098f9cf622ef07c5013b16e250d0f51027797c3879c44f4f1c08efa32",
    "mul8u_17KS": "3089db6198438e17053862eec646eb7f917d24c113c9e3db509b29dfb1310a04",
    "mul8u_1AGV": "a4d0a103fbded14ca5caf388adaf7a3b01e5bed3adee4a48973ad9ebfb80a99d",
    "mul8u_1JFF": "f8085fc34b4305c0ded5ce102ee273302045b00677f0504933593571822db644",
    "mul8u_2P7": "399e9dbab514bd9cad414788ff26309de16f0925a127e4fb7ecb383aed9c3db2",
    "mul8u_96D": "12984b7bbc862ac582c83518b2137295b525b061b5339daf4e9e6cfb95a925e5",
    "mul8u_FTA": "a9897f3ba7607f77037707173a271938505870cce114fd5c4e52db7e1e16b280",
    "mul8u_GS2": "61db838cdc24f8136afcf07f2da8708c2058cc1f9f6c84430a1ee8cb145547c7",
    "mul8u_JQQ": "8ccb7eaa6a38aaa53865b776f440f787f573a9e8449eea7ffaa4235cdf9741dc",
    "mul8u_JV3": "1ad1800e1d91289be21257f81d455232d5161bfa196eecd07d9b5e775b3fabaa",
    "mul8u_KEM": "fab393cfc20d925743bda07a5b9ba8a95947249d28523aa17584ac82ffc611ac",
    "mul8u_L40": "a1a1632f701c52a74903e64a6b090f55ab68ef203884e1722ea0c998546bc142",
    "mul8u_QJD": "8176126ee3ec9316d10e8531f62d7e30269c250915cb45ef810bc8562899a253",
}


class TestLutPins:
    def test_pins_cover_library(self):
        assert sorted(LUT_SHA256) == list_multipliers()

    @pytest.mark.parametrize("name", sorted(LUT_SHA256))
    def test_lut_bytes(self, name):
        lut = get_multiplier(name).lut()
        assert lut.dtype == np.int32 and lut.shape == (256, 256)
        assert hashlib.sha256(lut.tobytes()).hexdigest() == LUT_SHA256[name]


class TestBroadcasting:
    @pytest.mark.parametrize("name", list_multipliers())
    def test_multiply_broadcasts_like_the_lut(self, name):
        rng = np.random.default_rng(0)
        multiplier = get_multiplier(name)
        for shape_a, shape_b in [((1,), (4,)), ((4,), (1,)), ((), ()), ((3, 1), (1, 5))]:
            a = rng.integers(0, 256, size=shape_a)
            b = rng.integers(0, 256, size=shape_b)
            product = multiplier.multiply(a, b)
            assert product.shape == np.broadcast_shapes(shape_a, shape_b)
            assert np.array_equal(product, multiplier.lut()[a, b])
