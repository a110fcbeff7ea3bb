"""Energy / area / delay model for the multiplier library.

The paper motivates approximate multipliers by their energy savings.  The
original EvoApprox8b library reports post-synthesis power, area and delay for
every circuit; those netlists are not available offline, so this module ships
*representative* hardware-cost figures for each named stand-in, scaled from
the published EvoApprox8b trends (higher error -> lower power/area).  They
are intended for relative comparisons (accuracy-vs-energy Pareto plots in the
examples), not absolute silicon numbers; see README.md, "Substitutions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable


@dataclass(frozen=True)
class HardwareCost:
    """Relative hardware cost of one multiplier instance."""

    power_mw: float
    area_um2: float
    delay_ns: float

    def energy_pj(self) -> float:
        """Energy per operation (power x delay), in picojoules."""
        return self.power_mw * self.delay_ns


#: representative hardware costs per named multiplier (45 nm-class numbers)
HARDWARE_COSTS: Dict[str, HardwareCost] = {
    "mul8u_1JFF": HardwareCost(power_mw=0.391, area_um2=710.0, delay_ns=1.43),
    "mul8u_96D": HardwareCost(power_mw=0.381, area_um2=700.0, delay_ns=1.42),
    "mul8u_12N4": HardwareCost(power_mw=0.369, area_um2=690.0, delay_ns=1.41),
    "mul8u_17KS": HardwareCost(power_mw=0.301, area_um2=610.0, delay_ns=1.38),
    "mul8u_1AGV": HardwareCost(power_mw=0.322, area_um2=640.0, delay_ns=1.37),
    "mul8u_FTA": HardwareCost(power_mw=0.201, area_um2=450.0, delay_ns=1.20),
    "mul8u_JQQ": HardwareCost(power_mw=0.245, area_um2=520.0, delay_ns=1.25),
    "mul8u_L40": HardwareCost(power_mw=0.176, area_um2=410.0, delay_ns=1.15),
    "mul8u_JV3": HardwareCost(power_mw=0.212, area_um2=470.0, delay_ns=1.22),
    "mul8u_2P7": HardwareCost(power_mw=0.355, area_um2=665.0, delay_ns=1.40),
    "mul8u_KEM": HardwareCost(power_mw=0.340, area_um2=650.0, delay_ns=1.39),
    "mul8u_150Q": HardwareCost(power_mw=0.310, area_um2=620.0, delay_ns=1.36),
    "mul8u_14VP": HardwareCost(power_mw=0.325, area_um2=635.0, delay_ns=1.37),
    "mul8u_QJD": HardwareCost(power_mw=0.318, area_um2=625.0, delay_ns=1.37),
    "mul8u_1446": HardwareCost(power_mw=0.290, area_um2=590.0, delay_ns=1.33),
    "mul8u_GS2": HardwareCost(power_mw=0.305, area_um2=600.0, delay_ns=1.34),
    "mul8s_L1G": HardwareCost(power_mw=0.270, area_um2=560.0, delay_ns=1.30),
    "mul8s_L2H": HardwareCost(power_mw=0.255, area_um2=540.0, delay_ns=1.28),
    "guesmi_ama1_l8": HardwareCost(power_mw=0.280, area_um2=575.0, delay_ns=1.32),
    "guesmi_ama2_l6": HardwareCost(power_mw=0.295, area_um2=585.0, delay_ns=1.33),
    "guesmi_ama3_l8": HardwareCost(power_mw=0.265, area_um2=555.0, delay_ns=1.30),
}

#: fallback cost for multipliers without an entry (exact-multiplier figures)
DEFAULT_COST = HardwareCost(power_mw=0.391, area_um2=710.0, delay_ns=1.43)


def hardware_cost(name: str) -> HardwareCost:
    """Return the hardware cost of a named multiplier (default if unknown)."""
    return HARDWARE_COSTS.get(name, DEFAULT_COST)


def energy_per_mac_pj(name: str) -> float:
    """Energy of one multiply-accumulate, in picojoules, for a named multiplier."""
    return hardware_cost(name).energy_pj()


def model_multiply_energy_pj(name: str, multiply_counts: Iterable[int]) -> float:
    """Total multiplication energy for a model given per-layer multiply counts."""
    per_op = energy_per_mac_pj(name)
    return float(sum(int(count) for count in multiply_counts) * per_op)


def energy_saving_percent(name: str, baseline: str = "mul8u_1JFF") -> float:
    """Relative energy saving of ``name`` against a baseline multiplier."""
    base = energy_per_mac_pj(baseline)
    this = energy_per_mac_pj(name)
    return float((base - this) / base * 100.0)
