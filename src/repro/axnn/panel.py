"""Fused multi-victim evaluation: every victim of a panel in one pass per layer.

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
  kernel product and the dequantize epilogue of every victim — each on
  its row slice, into one output buffer.  The members whose kernel is
  ``native`` do so in ONE compiled call per layer
  (:class:`repro.axnn.layers.NativeLayerCall`, bound at construction);
  the others each run their ``forward_from_codes``.  At most
  :data:`LUT_LOOP_MAX_ROWS` code rows per victim the ``percode`` members
  join that call too, in the native LUT loop (see below).  From here on
  the group is *stacked*: ``(victims * batch, ...)``, victim-major;
* a float passthrough layer runs once per group on the whole stack.  ReLU
  rectifies the panel's own buffer in place; pooling, flatten and dropout
  return a smaller array, a view or their input, so no layer of the
  repo's models copies a full stack.

A group splits only where its members' layers differ in what the shared
stages depend on — activation scheme, conv geometry or width, or the float
layer object behind a passthrough.  Groups from ``build_victims`` never
split.  The plan is static (it depends on layer structure only), so it is
computed once at construction; per batch only the stacked compute runs.
Each stage is the method ``AxLayer.forward`` composes, applied to the
same values, so panel outputs are bit-identical to evaluating each victim
independently — asserted by ``tests/test_victim_panel.py``.

Products are routed by batch size.  A ``percode`` product streams its
whole ``(K*r, N)`` float64 weight-factor operand on every call, however
few rows it multiplies; in a LeNet M1-M9 pass at batch 1 that is ~7.9 MiB
over 14 calls, which evicts the next layer's operands from cache.  So each
compute layer's group binds a second fused call at construction, holding
its native members plus its ``percode`` members in the LUT loop (K*N sign
and magnitude bytes each and the multiplier's shared packed LUT), and a
pass whose code rows per victim are at most :data:`LUT_LOOP_MAX_ROWS`
runs that call instead.  The LUT loop accumulates in int64 and shares the
epilogue, so the output bits do not change.  Without a native backend
nothing switches.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.axnn import native as _native
from repro.axnn.engine import AxModel
from repro.axnn.kernels import lut_loop_operands
from repro.axnn.layers import AxConv2D, AxDense, NativeLayerCall, PassthroughLayer
from repro.errors import ConfigurationError
from repro.nn.layers.activations import ReLU
from repro.nn.runtime import check_serial_workers, run_batched, validate_batch_size

#: a group is a tuple of victim indices carried as one tensor
_Group = Tuple[int, ...]

_KINDS = ((PassthroughLayer, "pass"), (AxConv2D, "conv"), (AxDense, "dense"))

#: at most this many code rows per victim (batch * out_h * out_w for a
#: conv, the batch for a dense layer) a group runs its ``percode`` members
#: in its fused native call.  The crossover of the ``panel_routing`` cells
#: of ``benchmarks/bench_native_kernels.py`` (LeNet M1-M9, 2-core x86_64,
#: one BLAS thread, two runs): the LUT loop's paired speedup median read
#: 1.23-1.34 at batch 1, 1.11-1.20 at 2 and 1.03-1.10 at 4, then 0.98-1.04
#: at 6, 0.96-0.97 at 8 and 0.83-0.88 at 60
LUT_LOOP_MAX_ROWS = 4


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
        self._products = {
            (layer_index, group): self._bind_products(layer_index, group, stacked)
            for layer_index, (kind, splits) in enumerate(self._plan)
            if kind != "pass"
            for _, stacked, groups in splits
            for group in groups
        }

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

    def _bind_products(self, layer_index: int, group: _Group, stacked: bool):
        """How a compute layer's group runs its products: ``(wide,
        narrow)``, for passes above and at most :data:`LUT_LOOP_MAX_ROWS`
        code rows per victim.  Each is the fused call (``None`` when it has
        no member) and the ``(slot, layer)`` pairs of the members left to
        their own ``forward_from_codes``; ``narrow`` moves the ``percode``
        members into the call when a native backend resolved."""
        lut_loop = _native.get_backend() is not None
        members, native, percode = [], set(), set()
        for slot, victim in enumerate(group):
            layer = self._models[victim].layers[layer_index]
            members.append((slot, layer))
            if layer._native_call is not None:
                native.add(slot)
            elif (
                lut_loop
                and layer.kernel.strategy == "percode"
                and lut_loop_operands(layer.kernel) is not None
            ):
                percode.add(slot)

        def split(fused_slots):
            inside = [(slot, layer) for slot, layer in members if slot in fused_slots]
            call = None
            if inside:
                slots, layers = zip(*inside)
                call = NativeLayerCall(layers, slots, len(group), stacked)
            return call, [pair for pair in members if pair[0] not in fused_slots]

        wide = split(native)
        return wide, (split(native | percode) if percode else wide)

    def _routed(self, layer_index: int, group: _Group, rows: int):
        """The fused call and other members for ``rows`` code rows per victim."""
        wide, narrow = self._products[layer_index, group]
        return narrow if rows <= LUT_LOOP_MAX_ROWS else wide

    # -------------------------------------------------------------- compute
    def forward(self, x: np.ndarray) -> Dict[str, np.ndarray]:
        """Logits for one batch, keyed by victim name (bit-identical to
        running each victim's ``forward`` on ``x``)."""
        x = np.asarray(x, dtype=np.float64)
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
        fused, others = self._routed(layer_index, group, block)
        if fused is not None:
            fused(patches, out)
        for slot, layer in others:
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
        fused, others = self._routed(layer_index, group, batch)
        if fused is not None:
            fused(codes, out)
        for slot, layer in others:
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
    def fusion_report(self) -> List[str]:
        """One line per layer: the groups it runs and the work each shares."""
        lines = []
        for layer_index, (kind, splits) in enumerate(self._plan):
            parts = []
            for _, stacked, groups in splits:
                form = "stacked" if stacked else "shared"
                for group in groups:
                    if kind == "pass":
                        parts.append(f"{form}[{len(group)} victims]")
                    else:
                        once = "1 quantize"
                        if kind == "conv":
                            once = "1 extract, " + once
                        products = self._products_report(layer_index, group)
                        parts.append(f"{kind}[{len(group)} victims {form}, {once}, "
                                     f"{products}]")
            name = self._models[0].layers[layer_index].name
            lines.append(f"{name}: {' + '.join(parts)}")
        groups = len(self._final_groups)
        lines.append(f"panel: {len(self._models)} victims, {len(self._plan)} layers, "
                     f"{groups} group{'s' if groups != 1 else ''}")
        return lines

    def _products_report(self, layer_index: int, group: _Group) -> str:
        """``N products``, the fused call's size, and the members that join
        it at most :data:`LUT_LOOP_MAX_ROWS` rows per victim."""
        (fused, others), (_, narrow_others) = self._products[layer_index, group]
        text = f"{len(group)} products"
        notes = []
        if fused is not None:
            notes.append(f"{len(group) - len(others)} native in 1 call")
        if len(narrow_others) < len(others):
            stay = {slot for slot, _ in narrow_others}
            names = [
                self._names[group[slot]] for slot, _ in others if slot not in stay
            ]
            notes.append(f"<= {LUT_LOOP_MAX_ROWS} rows: "
                         f"{len(group) - len(narrow_others)} in 1 call, "
                         f"LUT loop for {', '.join(names)}")
        return text + (f" ({'; '.join(notes)})" if notes else "")

    def __len__(self) -> int:
        return len(self._models)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VictimPanel(victims={self._names!r})"

