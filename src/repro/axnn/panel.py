"""Fused multi-victim evaluation: every victim of a panel in one pass.

The paper's robustness figures (Fig. 4-8) and the ``/v1/query`` service
evaluate ~9 victim AxDNNs on *identical* inputs.  The victims of one source
model differ only in the multiplier behind their LUT products: the float
passthrough layers are the same objects, the activation schemes are the
same (:func:`repro.robustness.build_victims` calibrates once) and so is
every conv geometry.

:class:`VictimPanel` therefore walks all victims through the network as
*groups*, each carried as ONE tensor:

* every victim starts in one group that shares the input batch;
* an Ax compute layer quantizes the group's input activation **once**,
  gathers the uint8 code patches **once** (conv), and then runs the
  kernel product and the dequantize epilogue of every victim, each on its
  row slice, into one output buffer.  From here on the group is
  *stacked*: ``(victims * batch, ...)``, victim-major;
* a float passthrough layer runs once per group on the whole stack.

A group splits only where its members' layers differ in what the shared
stages depend on: activation scheme, conv geometry or width, or the float
layer object behind a passthrough.  Groups from ``build_victims`` never
split.  The plan is static (it depends on layer structure only), so it is
computed once at construction.

**The compiled pass.**  When a native backend resolved, construction binds
each final group's whole network into one program
(:class:`repro.axnn.native.PanelOp`, ``repro_panel_f64`` in ``kernels.c``)
and a pass is one ctypes call per final group, with the GIL released
throughout.  The program quantizes (divide, round half to even, add the
zero point, clip), gathers the patches padded with the zero point, runs
every member's product into the shared dequantize epilogue (a ``native``
member on its signed table or LUT loop; an ``exact`` member, and a
``percode`` member of rank up to
:data:`repro.axnn.kernels.FACTOR_PRODUCT_MAX_RANK`, on the float64
factors its kernel holds, through BLAS ``dgemm``; any other 8-bit kernel
in the LUT loop), and applies
ReLU and the ``pool_size <= 2`` average pool in NumPy's order; flatten and
inference-mode dropout are no-ops.  A split plan runs one program per
final group, so a shared stage before the split runs once per final
group.

**The NumPy walk.**  Without a native backend, or for a plan the program
cannot express (a max pool, a pool over 2, batch-norm, another float
layer, a wider than 8-bit activation scheme or a kernel no compiled loop
can run), or for an input whose sample shape is not the source model's,
each stage is the method ``AxLayer.forward`` composes, applied once per
group: ``quantize_cols``/``extract_cols`` or ``quantize_input``, then each
member's ``forward_from_codes``.

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
    """A final group's compiled pass: its ops (with the layer each op
    runs), per-sample output shape and bound call."""

    group: _Group
    stacked: bool
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


def _split_key(kind: str, layer):
    """What a group's members must share to keep running as one tensor."""
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
        self._plan, self._final_groups = self._build_plan()
        self._input_shape = self._models[0].source.input_shape
        self._programs = self._bind_programs()

    # ------------------------------------------------------------- planning
    @staticmethod
    def compatible(models: Sequence[AxModel]) -> bool:
        """Whether ``models`` can be walked layer by layer as stacked groups:
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

    def _build_plan(self):
        """The static plan and the groups leaving the last layer.

        Per layer the plan holds ``(kind, splits)``, each split ``(parent,
        stacked, groups)``: the group ``parent`` enters the layer
        (``stacked``: one block of rows per member; else one block all
        members share) and leaves it as ``groups``, a stable partition by
        :func:`_split_key` (usually just ``(parent,)``).  A final group is
        ``(group, stacked)``.
        """
        groups: List[Tuple[_Group, bool]] = [(tuple(range(len(self._models))), False)]
        plan = []
        for layer_index in range(len(self._models[0].layers)):
            kind = _kind(self._models[0].layers[layer_index])
            splits = []
            next_groups: List[Tuple[_Group, bool]] = []
            for parent, stacked in groups:
                members: Dict[object, List[int]] = {}
                for victim in parent:
                    key = _split_key(kind, self._models[victim].layers[layer_index])
                    members.setdefault(key, []).append(victim)
                children = [tuple(group) for group in members.values()]
                splits.append((parent, stacked, children))
                next_groups.extend(
                    (child, stacked or kind != "pass") for child in children
                )
            plan.append((kind, splits))
            groups = next_groups
        return plan, groups

    def _bind_programs(self):
        """One :class:`_Program` per final group, or ``None`` for the NumPy
        walk (no native backend, or a plan :meth:`_program_ops` cannot
        express)."""
        backend = _native.get_backend()
        if backend is None or self._input_shape is None or any(
            model.source.input_shape != self._input_shape for model in self._models
        ):
            return None
        programs = []
        for group, stacked in self._final_groups:
            compiled = self._program_ops(group)
            if compiled is None:
                return None
            ops, op_layers, out_shape = compiled
            run = backend.bind_panel(ops, _as_hwc(self._input_shape))
            programs.append(_Program(group, stacked, ops, op_layers, out_shape, run))
        return programs

    def _program_ops(self, group: _Group):
        """The :class:`repro.axnn.native.PanelOp` program of one final
        group, the layer name of each op and the per-sample output shape;
        ``None`` when a layer or kernel has no compiled form (see the module
        docstring)."""
        models = [self._models[victim] for victim in group]
        shape = tuple(self._input_shape)
        blocks = 1
        ops, op_layers = [], []
        for layer_index, (kind, _) in enumerate(self._plan):
            layers = [model.layers[layer_index] for model in models]
            first = layers[0]
            if kind == "pass":
                layer = first.layer
                if type(layer) is Flatten:
                    shape = (int(np.prod(shape)),)
                elif type(layer) is ReLU:
                    ops.append(_native.PanelOp("relu", blocks, _as_hwc(shape)))
                    op_layers.append(first.name)
                elif type(layer) is AvgPool2D and layer.pool_size <= 2 and len(shape) == 3:
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
            if kind == "conv":
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
        return ops, op_layers, shape

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
            return self._walk(x)
        batch = x.shape[0]
        outputs: Dict[str, np.ndarray] = {}
        for program in self._programs:
            group, stacked = program.group, program.stacked
            blocks = len(group) if stacked else 1
            value = program.run(x, np.empty((blocks * batch,) + program.out_shape))
            for slot, victim in enumerate(group):
                outputs[self._names[victim]] = (
                    value[slot * batch : (slot + 1) * batch] if stacked else value
                )
        return {name: outputs[name] for name in self._names}

    def _walk(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """The NumPy walk of the plan: the shared stages once per group."""
        batch = x.shape[0]
        activations: Dict[_Group, np.ndarray] = {tuple(range(len(self._models))): x}
        for layer_index, (kind, splits) in enumerate(self._plan):
            step = self._STEPS[kind]
            next_activations: Dict[_Group, np.ndarray] = {}
            for parent, stacked, groups in splits:
                value = activations.pop(parent)
                if stacked and len(groups) > 1:
                    rows = {
                        victim: value[slot * batch : (slot + 1) * batch]
                        for slot, victim in enumerate(parent)
                    }
                    inputs = [
                        np.concatenate([rows[victim] for victim in group])
                        for group in groups
                    ]
                    del rows
                else:
                    inputs = [value] * len(groups)
                # a step holds the only reference to a stacked input, so it
                # can free the input before filling its output buffer
                del value
                for group in groups:
                    next_activations[group] = step(
                        self, layer_index, group, stacked, inputs.pop(0), batch
                    )
            activations = next_activations
        outputs: Dict[str, np.ndarray] = {}
        for group, stacked in self._final_groups:
            value = activations[group]
            for slot, victim in enumerate(group):
                outputs[self._names[victim]] = (
                    value[slot * batch : (slot + 1) * batch] if stacked else value
                )
        return {name: outputs[name] for name in self._names}

    def _passthrough(self, layer_index, group, stacked, x, batch):
        layer = self._models[group[0]].layers[layer_index]
        if stacked and isinstance(layer.layer, ReLU):
            # the stack is the panel's own buffer: np.maximum(x, 0.0) is
            # exactly what ReLU.forward computes, here without the copy
            return np.maximum(x, 0.0, out=x)
        # the other float layers of the repo's models return a smaller
        # array (pooling), a view (flatten) or their input (dropout)
        return layer.forward(x)

    def _conv(self, layer_index, group, stacked, x, batch):
        first = self._models[group[0]].layers[layer_index]
        codes = first.quantize_cols(x)
        del x
        patches = first.extract_cols(codes)
        del codes
        _, out_h, out_w, patch = patches.shape
        patches = patches.reshape(-1, patch)
        out = np.empty((len(group) * batch, out_h, out_w, first.filters))
        block = batch * out_h * out_w  # patch rows of one victim
        for slot, victim in enumerate(group):
            layer = self._models[victim].layers[layer_index]
            rows = patches[slot * block : (slot + 1) * block] if stacked else patches
            layer.forward_from_codes(
                rows, batch, out_h, out_w, out=out[slot * batch : (slot + 1) * batch]
            )
        return out

    def _dense(self, layer_index, group, stacked, x, batch):
        first = self._models[group[0]].layers[layer_index]
        codes = first.quantize_input(x)
        del x
        out = np.empty((len(group) * batch, first.units))
        for slot, victim in enumerate(group):
            layer = self._models[victim].layers[layer_index]
            rows = codes[slot * batch : (slot + 1) * batch] if stacked else codes
            layer.forward_from_codes(rows, out=out[slot * batch : (slot + 1) * batch])
        return out

    _STEPS = {"pass": _passthrough, "conv": _conv, "dense": _dense}

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
        """Whether a pass runs the compiled program (else the NumPy walk)."""
        return self._programs is not None

    def fusion_report(self) -> List[str]:
        """One line per program op of each final group (one per layer on
        the NumPy walk): the victims it runs and the work each shares."""
        if self._programs is None:
            lines = self._walk_report()
            path = "NumPy walk"
        else:
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
            path = f"{calls} compiled call{'s' if calls != 1 else ''}"
        groups = len(self._final_groups)
        lines.append(f"panel: {len(self._models)} victims, {len(self._plan)} layers, "
                     f"{groups} group{'s' if groups != 1 else ''}, {path}")
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

    def _walk_report(self) -> List[str]:
        lines = []
        for layer_index, (kind, splits) in enumerate(self._plan):
            parts = []
            for _, stacked, groups in splits:
                form = "stacked" if stacked else "shared"
                for group in groups:
                    if kind == "pass":
                        parts.append(f"{form}[{len(group)} victims]")
                    else:
                        once = "1 quantize" if kind == "dense" else "1 quantize, 1 gather"
                        parts.append(f"{kind}[{len(group)} victims {form}, {once}, "
                                     f"{len(group)} products]")
            name = self._models[0].layers[layer_index].name
            lines.append(f"{name}: {' + '.join(parts)}")
        return lines

    def __len__(self) -> int:
        return len(self._models)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VictimPanel(victims={self._names!r})"

