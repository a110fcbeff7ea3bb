"""Tests for the argument checks of the compiled kernels' ctypes wrappers
(repro.axnn.native.cext).

The entry points take raw addresses, so nothing on the C side can refuse a
wrong operand: each wrapper must check it first.  The library is replaced
by a recorder, so these tests need no C compiler.
"""

import numpy as np
import pytest

from repro.axnn.native import cext
from repro.errors import ShapeError


class _RecordingLib:
    """Stands in for the loaded library: records each entry point it is
    asked to run, with its arguments, instead of running it."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args))


def _read_only(array):
    array = array.copy()
    array.flags.writeable = False
    return array


def _strided(shape, dtype):
    """A non-contiguous view of ``shape``: every other element of a last
    axis twice as long."""
    return np.zeros(shape[:-1] + (2 * shape[-1],), dtype)[..., ::2]


_U8, _I8, _I16, _I32, _I64, _F64 = (
    np.uint8, np.int8, np.int16, np.int32, np.int64, np.float64
)

#: per wrapper: the valid argument list, and per defect (``operand-kind``)
#: the index of the argument to replace and its replacement
_WRAPPER_CASES = {
    "lut_matmul": (
        [np.zeros((3, 4), _U8), np.zeros((4, 5), _I8), np.zeros((4, 5), _U8),
         np.zeros((256, 256), _I16), np.zeros((3, 5), _I64)],
        {"codes-dtype": (0, np.zeros((3, 4), _I64)),
         "codes-non-contiguous": (0, _strided((3, 4), _U8)),
         "codes-shape": (0, np.zeros((3, 4, 1), _U8)),
         "sign-dtype": (1, np.zeros((4, 5), _U8)),
         "sign-non-contiguous": (1, _strided((4, 5), _I8)),
         "sign-shape": (1, np.zeros((5, 5), _I8)),
         "mag-dtype": (2, np.zeros((4, 5), _I8)),
         "mag-non-contiguous": (2, _strided((4, 5), _U8)),
         "mag-shape": (2, np.zeros((4, 6), _U8)),
         "lut-dtype": (3, np.zeros((256, 256), _I64)),
         "lut-non-contiguous": (3, _strided((256, 256), _I16)),
         "lut-shape": (3, np.zeros(256 * 256, _I16)),
         "out-dtype": (4, np.zeros((3, 5), _I32)),
         "out-non-contiguous": (4, _strided((3, 5), _I64)),
         "out-read-only": (4, _read_only(np.zeros((3, 5), _I64))),
         "out-shape": (4, np.zeros((3, 6), _I64))},
    ),
    "table_matmul": (
        [np.zeros((3, 4), _U8), np.zeros((4, 256, 8), _I32), np.zeros((3, 5), _I64)],
        {"codes-dtype": (0, np.zeros((3, 4), _I64)),
         "codes-non-contiguous": (0, _strided((3, 4), _U8)),
         "codes-shape": (0, np.zeros(12, _U8)),
         "table-dtype": (1, np.zeros((4, 256, 8), _I64)),
         "table-non-contiguous": (1, _strided((4, 256, 8), _I32)),
         "table-shape": (1, np.zeros((5, 256, 8), _I32)),
         "table-lanes": (1, np.zeros((4, 256, 12), _I32)),
         "out-dtype": (2, np.zeros((3, 5), _I32)),
         "out-non-contiguous": (2, _strided((3, 5), _I64)),
         "out-read-only": (2, _read_only(np.zeros((3, 5), _I64))),
         "out-shape": (2, np.zeros((4, 5), _I64)),
         "out-wider-than-table": (2, np.zeros((3, 9), _I64))},
    ),
    "col2im_add": (
        [np.zeros((2, 3, 3, 18)), np.zeros((2, 5, 5, 2)), 3, 3, 1, 3, 3],
        {"cols-dtype": (0, np.zeros((2, 3, 3, 18), np.float32)),
         "cols-non-contiguous": (0, _strided((2, 3, 3, 18), _F64)),
         "cols-patch": (0, np.zeros((2, 3, 3, 17))),
         "cols-batch": (0, np.zeros((3, 3, 3, 18))),
         "cols-grid": (0, np.zeros((2, 2, 3, 18))),
         "out-dtype": (1, np.zeros((2, 5, 5, 2), np.float32)),
         "out-non-contiguous": (1, _strided((2, 5, 5, 2), _F64)),
         "out-read-only": (1, _read_only(np.zeros((2, 5, 5, 2)))),
         "out-shape": (1, np.zeros((2, 5, 4, 2)))},
    ),
    "im2col": (
        [np.zeros((2, 5, 5, 2), _U8), np.zeros((2, 3, 3, 18), _U8), 3, 3, 1],
        {"image-dtype": (0, np.zeros((2, 5, 5, 2), _I32)),
         "image-non-contiguous": (0, _strided((2, 5, 5, 2), _U8)),
         "image-shape": (0, np.zeros((5, 5, 2), _U8)),
         "cols-dtype": (1, np.zeros((2, 3, 3, 18), _F64)),
         "cols-non-contiguous": (1, _strided((2, 3, 3, 18), _U8)),
         "cols-read-only": (1, _read_only(np.zeros((2, 3, 3, 18), _U8))),
         "cols-patch": (1, np.zeros((2, 3, 3, 17), _U8)),
         "cols-batch": (1, np.zeros((1, 3, 3, 18), _U8)),
         "cols-past-the-edge": (1, np.zeros((2, 4, 3, 18), _U8))},
    ),
}

#: per valid case: the wrapper, the arguments replaced to pick the entry
#: point (index to array), the entry point it must reach and the sizes it
#: must pass there
_DISPATCH_CASES = {
    "lut_matmul-i16": ("lut_matmul", {}, "repro_lut_matmul_i16", (3, 4, 5, 256)),
    "lut_matmul-i32": ("lut_matmul", {3: np.zeros((256, 256), _I32)},
                       "repro_lut_matmul_i32", (3, 4, 5, 256)),
    "table_matmul": ("table_matmul", {}, "repro_table_matmul_i32", (3, 4, 5, 256, 8)),
    "col2im_add": ("col2im_add", {}, "repro_col2im_f64", (2, 3, 3, 3, 3, 2, 1, 5, 5)),
    "im2col-u8": ("im2col", {}, "repro_im2col_u8", (2, 5, 5, 2, 3, 3, 1, 3, 3)),
    "im2col-f64": ("im2col", {0: np.zeros((2, 5, 5, 2)), 1: np.zeros((2, 3, 3, 18))},
                   "repro_im2col_f64", (2, 5, 5, 2, 3, 3, 1, 3, 3)),
}


def _wrapper_args(wrapper, replacements):
    args = list(_WRAPPER_CASES[wrapper][0])
    for index, replacement in replacements.items():
        args[index] = replacement
    return getattr(cext, wrapper), args


class TestWrapperChecks:
    """Every compiled entry point takes raw addresses, so its wrapper checks
    each operand's dtype, C-contiguity, shape and (outputs) writeability and
    raises before the foreign call."""

    @pytest.mark.parametrize("case", sorted(_DISPATCH_CASES))
    def test_valid_operands_reach_the_entry_point(self, case):
        wrapper, replacements, entry_point, sizes = _DISPATCH_CASES[case]
        function, args = _wrapper_args(wrapper, replacements)
        lib = _RecordingLib()
        function(lib, *args)
        assert len(lib.calls) == 1
        name, passed = lib.calls[0]
        assert name == entry_point
        assert tuple(a for a in passed if type(a) is int and a < 2**16) == sizes
        # every array goes in as its own buffer's address
        addresses = {a.ctypes.data for a in args if isinstance(a, np.ndarray)}
        assert addresses <= set(passed)

    @pytest.mark.parametrize(
        "wrapper, defect",
        [(w, d) for w, (_, defects) in _WRAPPER_CASES.items() for d in defects],
        ids=lambda value: value,
    )
    def test_defective_operand_raises_before_the_call(self, wrapper, defect):
        index, replacement = _WRAPPER_CASES[wrapper][1][defect]
        function, args = _wrapper_args(wrapper, {index: replacement})
        lib = _RecordingLib()
        with pytest.raises(ShapeError):
            function(lib, *args)
        assert lib.calls == []
