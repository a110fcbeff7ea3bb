"""Named approximate-multiplier instances standing in for EvoApprox8b.

The paper selects unsigned 8-bit multipliers from the EvoApprox8b library
(Mrazek et al., DATE 2017) and refers to them by their library suffix (1JFF,
96D, 12N4, ...).  The original library ships Verilog/C netlists that are not
available offline, so each paper label is bound here to a behavioural or
circuit-backed stand-in (see README.md, "Substitutions") chosen so that

* the accurate multiplier (1JFF) is bit-exact,
* the *ordering* of mean-absolute-error across the LeNet-5 set (M1..M9) and
  the AlexNet set (A1..A8) matches the ordering implied by the paper's
  reported MAEs and zero-perturbation accuracies, and
* the error characters are diverse (under-estimating, unbiased, and
  input-dependent "masked/unmasked" errors), which is the property the
  paper's analysis actually exercises.

The measured error reports of every instance are produced by
``repro.multipliers.metrics.error_report`` and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.circuits.adders import (
    ApproximateMirrorAdder1,
    ApproximateMirrorAdder2,
    ApproximateMirrorAdder3,
)
from repro.circuits.array_multiplier import (
    ArrayMultiplierCircuit,
    CompressorTreeMultiplierCircuit,
)
from repro.circuits.compressors import (
    ApproximateCompressor42A,
    ApproximateCompressor42B,
)
from repro.multipliers.base import CircuitMultiplier, Multiplier
from repro.multipliers.behavioral import (
    BrokenCarryMultiplier,
    DrumMultiplier,
    ExactMultiplier,
    LowerColumnOrMultiplier,
    MitchellLogMultiplier,
    NoisyLSBMultiplier,
    OperandTruncationMultiplier,
    PartialProductTruncationMultiplier,
)

#: factory functions for every named multiplier, keyed by EvoApprox-style label
_FACTORIES: Dict[str, Callable[[], Multiplier]] = {
    # ----------------------------------------------------------- exact
    "mul8u_1JFF": lambda: ExactMultiplier("mul8u_1JFF"),
    # ------------------------------------------- LeNet-5 set (M2..M9)
    # M2 — negligible error: two truncated partial-product columns.
    "mul8u_96D": lambda: PartialProductTruncationMultiplier("mul8u_96D", cut_columns=2),
    # M3 — negligible error: three truncated partial-product columns.
    "mul8u_12N4": lambda: PartialProductTruncationMultiplier("mul8u_12N4", cut_columns=3),
    # M4 — small error, under-estimating: operand truncation of 2 LSBs.
    "mul8u_17KS": lambda: OperandTruncationMultiplier("mul8u_17KS", truncate_a=2, truncate_b=2),
    # M5 — small error: seven truncated partial-product columns.
    "mul8u_1AGV": lambda: PartialProductTruncationMultiplier("mul8u_1AGV", cut_columns=7),
    # M6 — large error, under-estimating: compressor tree with approximate
    #      4:2 compressors over the 12 least-significant columns.
    "mul8u_FTA": lambda: CircuitMultiplier(
        "mul8u_FTA",
        CompressorTreeMultiplierCircuit(
            width=8, compressor=ApproximateCompressor42A(), approx_columns=12
        ),
    ),
    # M7 — moderate error, roughly unbiased: DRUM-4 dynamic range multiplier.
    "mul8u_JQQ": lambda: DrumMultiplier("mul8u_JQQ", k=4),
    # M8 — largest accuracy impact of the LeNet set: array multiplier whose 8
    #      least-significant columns use approximate mirror adder 2 (the
    #      Guesmi-style construction pushed further); over-estimating bias.
    "mul8u_L40": lambda: CircuitMultiplier(
        "mul8u_L40",
        ArrayMultiplierCircuit(
            width=8, approx_cell=ApproximateMirrorAdder2(), approx_columns=8
        ),
    ),
    # M9 — moderate error, input-dependent: compressor tree with OR-style
    #      approximate 4:2 compressors over the 11 least-significant columns.
    "mul8u_JV3": lambda: CircuitMultiplier(
        "mul8u_JV3",
        CompressorTreeMultiplierCircuit(
            width=8, compressor=ApproximateCompressor42B(), approx_columns=11
        ),
    ),
    # ------------------------------------------- AlexNet set (A2..A8)
    # All AlexNet multipliers are mild (the paper's Fig. 7 shows accuracies
    # within 2% of the accurate model at eps = 0).
    "mul8u_2P7": lambda: PartialProductTruncationMultiplier("mul8u_2P7", cut_columns=4),
    "mul8u_KEM": lambda: PartialProductTruncationMultiplier("mul8u_KEM", cut_columns=5),
    "mul8u_150Q": lambda: LowerColumnOrMultiplier("mul8u_150Q", cut_columns=8),
    "mul8u_14VP": lambda: PartialProductTruncationMultiplier("mul8u_14VP", cut_columns=6),
    "mul8u_QJD": lambda: OperandTruncationMultiplier("mul8u_QJD", truncate_a=2, truncate_b=1),
    "mul8u_1446": lambda: DrumMultiplier("mul8u_1446", k=5),
    "mul8u_GS2": lambda: BrokenCarryMultiplier("mul8u_GS2", segment=9),
    # ---------------------------------- motivational case study (Fig. 1)
    # L1G / L2H play the role of the signed EvoApprox multipliers used in the
    # motivational FFNN / LeNet-5 comparison; moderate, input-dependent error.
    "mul8s_L1G": lambda: NoisyLSBMultiplier("mul8s_L1G", max_error=96),
    "mul8s_L2H": lambda: MitchellLogMultiplier("mul8s_L2H"),
    # ------------------------------- defensive-approximation baseline
    # Array multipliers with approximate mirror adders in the low columns —
    # the construction of Guesmi et al. (ASPLOS 2021), included so the
    # baseline the paper argues against can be reproduced directly.
    "guesmi_ama1_l8": lambda: CircuitMultiplier(
        "guesmi_ama1_l8",
        ArrayMultiplierCircuit(
            width=8, approx_cell=ApproximateMirrorAdder1(), approx_columns=8
        ),
    ),
    "guesmi_ama2_l6": lambda: CircuitMultiplier(
        "guesmi_ama2_l6",
        ArrayMultiplierCircuit(
            width=8, approx_cell=ApproximateMirrorAdder2(), approx_columns=6
        ),
    ),
    "guesmi_ama3_l8": lambda: CircuitMultiplier(
        "guesmi_ama3_l8",
        ArrayMultiplierCircuit(
            width=8, approx_cell=ApproximateMirrorAdder3(), approx_columns=8
        ),
    ),
}


def available_names() -> list:
    """Names of every registered EvoApprox-style multiplier."""
    return sorted(_FACTORIES)


def build(name: str) -> Multiplier:
    """Instantiate a named multiplier (a fresh object on every call)."""
    try:
        factory = _FACTORIES[name]
    except KeyError as exc:
        known = ", ".join(available_names())
        raise KeyError(f"unknown multiplier {name!r}; known: {known}") from exc
    return factory()
