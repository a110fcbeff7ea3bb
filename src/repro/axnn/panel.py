"""Fused multi-victim evaluation: every victim of a panel in one pass.

The paper's robustness figures (Fig. 4-8) and the ``/v1/query`` service
evaluate ~9 victim AxDNNs on *identical* inputs.  The victims of one source
model differ only in the multiplier behind their LUT products: the float
passthrough layers are the same objects, the activation schemes are the
same (:func:`repro.robustness.build_victims` calibrates once) and so is
every conv geometry.

:class:`VictimPanel` therefore runs all victims through the network as
*groups*, each carried as ONE tensor:

* every victim starts in one group that shares the input batch;
* an Ax compute layer quantizes the group's input activation **once**,
  gathers the uint8 code patches **once** (conv), and then runs the
  kernel product and the dequantize epilogue of every victim, each on its
  row slice, into one output buffer.  From here on the group is
  *stacked*: ``(victims * batch, ...)``, victim-major;
* a float passthrough layer runs once per group on the whole stack.

A group holds the victims whose layers agree, at every depth, in what the
shared stages depend on: activation scheme, conv geometry or width, and
the float layer object behind a passthrough.  Victims from
``build_victims`` form one group.

**The compiled pass.**  When a native backend resolved, construction binds
each group's whole network into one program
(:class:`repro.axnn.native.PanelOp`, ``repro_panel_f64`` in ``kernels.c``)
and a pass is one ctypes call per group, with the GIL released
throughout.  The program quantizes (divide, round half to even, add the
zero point, clip), gathers the patches padded with the zero point, runs
every member's product into the shared dequantize epilogue (a ``native``
member on its signed table or LUT loop; an ``exact`` member, and a
``percode`` member of rank up to
:data:`repro.axnn.kernels.FACTOR_PRODUCT_MAX_RANK`, on the float64
factors its kernel holds, through BLAS ``dgemm``; any other 8-bit kernel
in the LUT loop), and applies
ReLU and the 2 x 2 average pool in NumPy's order; flatten and
inference-mode dropout are no-ops.

**The fallback.**  Without a native backend, or for a plan the program
cannot express (a float layer other than those four, a wider than 8-bit
activation scheme or a kernel no compiled loop can run), or for an input
whose sample shape is not the source model's,
a pass is each victim's own ``AxModel.forward`` (PERFORMANCE.md, "Deleting
the panel's NumPy walk", has what sharing stages in NumPy saved).  The Ax
layers keep those stages as separate methods (``quantize_cols``/
``extract_cols`` or ``quantize_input``, then ``forward_from_codes``)
because their ``forward`` composes them and ``perfbench/tracer.py`` hooks
them by name.

Either way every float operation is the one each victim's own
``AxModel.forward`` performs, in the same order, so panel logits are
bit-identical to evaluating each victim independently (asserted by
``tests/test_victim_panel.py`` against per-victim evaluation and the
seed-order oracle).  Non-finite input is rejected on both paths.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from repro.axnn import native as _native
from repro.axnn.engine import AxModel
from repro.axnn.layers import AxConv2D, AxDense, PassthroughLayer, fused_member
from repro.errors import ConfigurationError
from repro.nn.layers.activations import ReLU
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.pooling import AvgPool2D
from repro.nn.layers.reshape import Flatten
from repro.nn.runtime import check_serial_workers, run_batched, validate_batch_size
from repro.quantization.schemes import AffineQuantization

#: a group is a tuple of victim indices carried as one tensor
_Group = Tuple[int, ...]

_KINDS = ((PassthroughLayer, "pass"), (AxConv2D, "conv"), (AxDense, "dense"))


class _Program(NamedTuple):
    """A group's compiled pass: its ops (with the layer each op runs),
    the row blocks of its output, per-sample output shape and bound
    call."""

    group: _Group
    blocks: int
    ops: List[_native.PanelOp]
    op_layers: List[str]
    out_shape: Tuple[int, ...]
    run: Callable


def _kind(layer) -> str:
    """``"pass"``, ``"conv"`` or ``"dense"``; ``""`` for anything else."""
    for layer_type, kind in _KINDS:
        if isinstance(layer, layer_type):
            return kind
    return ""


def _split_key(layer):
    """What a group's members must share at ``layer`` to run as one tensor."""
    kind = _kind(layer)
    if kind == "pass":
        return id(layer.layer)
    if kind == "conv":
        return (layer.activation_scheme, layer.geometry, layer.filters)
    return (layer.activation_scheme, layer.units)


def _as_hwc(shape) -> Tuple[int, int, int]:
    """A per-sample shape as the ``(h, w, c)`` a compiled op reads."""
    return tuple(shape) if len(shape) == 3 else (1, 1, int(np.prod(shape)))


def _loop_name(member) -> str:
    """The compiled loop a fused member's product runs in."""
    if member.table is not None:
        return "table"
    if member.weight_factors is None:
        return "LUT loop"
    if member.code_factors is None:
        return "exact"
    return f"low-rank r={member.code_factors.shape[1]}"


class VictimPanel:
    """A set of victim AxDNNs evaluated together on shared inputs.

    ``victims`` maps victim name to :class:`AxModel`; insertion order is
    preserved everywhere.  All victims must be *lockstep-compatible* (see
    :meth:`compatible`) — true for any set built from one source model,
    which is how every figure builds its panel.  Check :meth:`compatible`
    first when the victim set is arbitrary.
    """

    def __init__(self, victims: Mapping[str, AxModel]) -> None:
        self.victims: Dict[str, AxModel] = dict(victims)
        if not self.victims:
            raise ConfigurationError("VictimPanel requires at least one victim")
        self._names = list(self.victims)
        self._models = list(self.victims.values())
        if not self.compatible(self._models):
            raise ConfigurationError(
                "panel victims are not lockstep-compatible (layer counts, "
                "layer kinds or output shapes differ); evaluate them "
                "individually instead"
            )
        self.output_shape = self._models[0].output_shape
        self._input_shape = self._models[0].source.input_shape
        self._programs = self._bind_programs()

    # ------------------------------------------------------------- planning
    @staticmethod
    def compatible(models: Sequence[AxModel]) -> bool:
        """Whether ``models`` can run layer by layer as stacked groups:
        same layer count, same output shape, and at every depth the same
        layer kind (passthrough, Ax conv or Ax dense) for every victim."""
        if not models:
            return False
        first = models[0]
        if not all(
            len(m.layers) == len(first.layers) and m.output_shape == first.output_shape
            for m in models
        ):
            return False
        for layers in zip(*(m.layers for m in models)):
            kind = _kind(layers[0])
            if not kind or any(_kind(layer) != kind for layer in layers):
                return False
        return True

    def _groups(self) -> List[_Group]:
        """The victims, partitioned by their :func:`_split_key` at every
        layer, in order of first member."""
        groups: Dict[tuple, List[int]] = {}
        for victim, model in enumerate(self._models):
            key = tuple(_split_key(layer) for layer in model.layers)
            groups.setdefault(key, []).append(victim)
        return [tuple(group) for group in groups.values()]

    def _bind_programs(self):
        """One :class:`_Program` per group, or ``None`` for each victim's
        own forward (no native backend, or a plan :meth:`_program_ops`
        cannot express)."""
        backend = _native.get_backend()
        if backend is None or self._input_shape is None or any(
            model.source.input_shape != self._input_shape for model in self._models
        ):
            return None
        programs = []
        for group in self._groups():
            compiled = self._program_ops(group)
            if compiled is None:
                return None
            ops, op_layers, blocks, out_shape = compiled
            run = backend.bind_panel(ops, _as_hwc(self._input_shape))
            programs.append(_Program(group, blocks, ops, op_layers, out_shape, run))
        return programs

    def _program_ops(self, group: _Group):
        """The :class:`repro.axnn.native.PanelOp` program of one group, the
        layer name of each op, the row blocks of its output and the
        per-sample output shape; ``None`` when a layer or kernel has no
        compiled form (see the module docstring)."""
        models = [self._models[victim] for victim in group]
        shape = tuple(self._input_shape)
        blocks = 1
        ops, op_layers = [], []
        for layers in zip(*(model.layers for model in models)):
            first = layers[0]
            if isinstance(first, PassthroughLayer):
                layer = first.layer
                if type(layer) is Flatten:
                    shape = (int(np.prod(shape)),)
                elif type(layer) is ReLU:
                    ops.append(_native.PanelOp("relu", blocks, _as_hwc(shape)))
                    op_layers.append(first.name)
                elif type(layer) is AvgPool2D and len(shape) == 3:
                    op = _native.PanelOp(
                        "avgpool", blocks, shape,
                        window=layer.pool_size, stride=layer.stride,
                    )
                    ops.append(op)
                    op_layers.append(first.name)
                    shape = op.out_blocks_and_shape()[1]
                elif type(layer) is not Dropout:
                    return None
                continue
            scheme = first.activation_scheme
            if type(scheme) is not AffineQuantization or scheme.bits > 8:
                return None
            try:
                members = tuple(
                    fused_member(layer, slot) for slot, layer in enumerate(layers)
                )
            except ConfigurationError:  # no compiled loop runs this kernel
                return None
            if any(member.codes_covered <= scheme.qmax for member in members):
                return None
            quantize = dict(
                scale=float(scheme.scale), zero_point=int(scheme.zero_point),
                qmax=scheme.qmax, k_dim=first.kernel.inner,
                n_dim=first.kernel.outputs, members=members,
            )
            if isinstance(first, AxConv2D):
                if len(shape) != 3:
                    return None
                op = _native.PanelOp(
                    "conv", blocks, shape, window=first.kernel_size,
                    stride=first.stride, pad=first.pad_amount, **quantize,
                )
                shape = op.out_blocks_and_shape()[1]
            else:
                if len(shape) != 1:
                    return None
                op = _native.PanelOp("dense", blocks, _as_hwc(shape), **quantize)
                shape = (first.units,)
            ops.append(op)
            op_layers.append(first.name)
            blocks = len(members)
        return ops, op_layers, blocks, shape

    # -------------------------------------------------------------- compute
    def forward(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Logits for one batch, keyed by victim name (bit-identical to
        running each victim's ``forward`` on ``x``).

        Raises :class:`ConfigurationError` when ``x`` holds a NaN or an
        infinity: the quantizer has no defined code for them.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if not np.isfinite(x).all():
            raise ConfigurationError("panel input holds NaN or infinite values")
        if self._programs is None or x.shape[1:] != tuple(self._input_shape):
            return {name: model.forward(x) for name, model in self.victims.items()}
        batch = x.shape[0]
        outputs: Dict[str, np.ndarray] = {}
        for program in self._programs:
            value = program.run(x, np.empty((program.blocks * batch,) + program.out_shape))
            for slot, victim in enumerate(program.group):
                outputs[self._names[victim]] = (
                    value[slot * batch : (slot + 1) * batch]
                    if program.blocks > 1 else value
                )
        return {name: outputs[name] for name in self._names}

    def _forward_stacked(self, x: np.ndarray) -> np.ndarray:
        """Panel logits stacked to ``(batch, n_victims, *output_shape)`` so
        the batched loop can concatenate batch results along axis 0."""
        outputs = self.forward(x)
        return np.stack([outputs[name] for name in self._names], axis=1)

    def predict(self, x: np.ndarray, batch_size: int = 64) -> Dict[str, np.ndarray]:
        """Batched panel inference returning logits per victim.

        Gradient-free like :meth:`AxModel.predict`; each victim's logits
        are bit-identical to that victim's own ``predict``.
        """
        validate_batch_size(batch_size)
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] == 0:
            empty = np.zeros((0,) + self.output_shape, dtype=np.float64)
            return {name: empty.copy() for name in self._names}
        stacked = run_batched(self._forward_stacked, x, batch_size)
        return {
            name: stacked[:, index]
            for index, name in enumerate(self._names)
        }

    def predict_classes(
        self, x: np.ndarray, batch_size: int = 64, workers=None
    ) -> Dict[str, np.ndarray]:
        """Predicted class labels per victim.

        ``workers`` accepts only ``None`` or ``1`` (see
        :func:`repro.nn.runtime.check_serial_workers`).
        """
        check_serial_workers(workers)
        logits = self.predict(x, batch_size=batch_size)
        return {name: np.argmax(value, axis=-1) for name, value in logits.items()}

    # ------------------------------------------------------------ reporting
    @property
    def compiled(self) -> bool:
        """Whether a pass runs the compiled program (else each victim's own
        forward)."""
        return self._programs is not None

    def fusion_report(self) -> List[str]:
        """One line per program op of each group (none on the fallback):
        the victims it runs and the work each shares."""
        victims, layers = len(self._models), len(self._models[0].layers)
        if self._programs is None:
            return [f"panel: {victims} victims, {layers} layers, per-victim forward"]
        lines = []
        for program in self._programs:
            prefix = "" if len(self._programs) == 1 else "[" + ", ".join(
                self._names[victim] for victim in program.group
            ) + "] "
            lines.extend(
                f"{prefix}{name}: {self._op_report(program.group, op)}"
                for op, name in zip(program.ops, program.op_layers)
            )
        calls = len(self._programs)
        plural = "s" if calls != 1 else ""
        lines.append(f"panel: {victims} victims, {layers} layers, {calls} group{plural}, "
                     f"{calls} compiled call{plural}")
        return lines

    def _op_report(self, group: _Group, op) -> str:
        form = "stacked" if op.in_blocks > 1 else "shared"
        victims = f"{len(group)} victims {form}"
        if op.kind in ("relu", "avgpool"):
            return f"{op.kind}[{victims}]"
        loops: Dict[str, List[str]] = {}
        for member in op.members:
            loops.setdefault(_loop_name(member), []).append(
                self._names[group[member.slot]]
            )
        products = "; ".join(f"{loop}: {', '.join(names)}" for loop, names in loops.items())
        once = "1 quantize" if op.kind == "dense" else "1 quantize, 1 gather"
        return f"{op.kind}[{victims}, {once}, {len(op.members)} products ({products})]"

    def __len__(self) -> int:
        return len(self._models)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VictimPanel(victims={self._names!r})"

