"""Default operating points for the four pixel configurations.

Gate levels are stated as target selector saturation currents and converted
through the square law, so the intent (a current ceiling for the exposure
phase) survives recalibration of the transistor constants.  The programming
window drives the gate at the rail so the pre-programmed filament state can
actually switch while the node is still held by the reset transistor.
"""

from __future__ import annotations

import math
from typing import Optional

from .devices import (
    VREAD,
    MosfetParams,
    OxRamParams,
    OxRamState,
    PhotodiodeParams,
    state_from_resistance,
)
from .pixel import (
    VG_RAIL,
    GateWaveform,
    PixelConfig,
    Topology,
    orientation_for,
)

# Exposure-phase selector current ceilings [A].  Sized so a ceiling-limited
# drain over the full exposure stays inside the readable swing: the case (i)
# ceiling passes the filament-collapse surge but bounds any residual
# conduction; the case (ii) ceiling meters the dark response directly.
I_EXPOSE_CASE_I = 2.6e-10
I_EXPOSE_CASE_II = 1.0e-10

# Measured programming levels used by the pre-programming studies: three
# usable SET levels, one over-strong filament below the switchable limit,
# and two deep-reset levels (bench-limited readings saturate near 5 Mohm;
# the actual states sit in the GOhm decade).
R_SET_LEVELS = (1.25e6, 1.0e5, 4.3e4)
R_SET_OVERSTRONG = 8.0e3
R_RESET_LEVELS = (12e9, 20e9)

# Pre-programming targets [ohm]: case (i) starts at the first SET level.
R_INIT_CASE_I = R_SET_LEVELS[0]
R_INIT_CASE_II = 5.0e6

VRST_CASE_II = 2.2        # V
VRST_ELEVATED = 1.8       # V, rescue level for over-strong filaments


def default_vrst(topology: Topology) -> float:
    """Reset level of ``topology``: raised for case (ii), else the default."""
    if topology is Topology.HYBRID_CASE_II:
        return VRST_CASE_II
    return PhotodiodeParams.vrst


def vg_for_current(i_limit: float, selector: MosfetParams) -> float:
    """Gate level whose saturation current equals ``i_limit``."""
    return selector.vth + math.sqrt(2.0 * i_limit / selector.kprime)


def default_gate_waveform(topology: Topology, pd: PhotodiodeParams,
                          selector: MosfetParams) -> GateWaveform:
    if topology is Topology.HYBRID_CASE_I:
        lvl = vg_for_current(I_EXPOSE_CASE_I, selector)
        return GateWaveform(((0.0, pd.trst, VG_RAIL),
                             (pd.trst, pd.t_end, lvl)))
    if topology is Topology.HYBRID_CASE_II:
        lvl = vg_for_current(I_EXPOSE_CASE_II, selector)
        return GateWaveform(((0.0, pd.t_end, lvl),))
    # Case (iii) and anything else: selector wide open.
    return GateWaveform(((0.0, pd.t_end, VG_RAIL),))


def default_config(topology: Topology,
                   pd: Optional[PhotodiodeParams] = None,
                   oxram: Optional[OxRamParams] = None,
                   selector: Optional[MosfetParams] = None,
                   vg_waveform: Optional[GateWaveform] = None,
                   init_resistance: Optional[float] = None) -> PixelConfig:
    """Assemble a pixel configuration with per-topology defaults."""
    selector = selector or MosfetParams()
    pd = pd or PhotodiodeParams(vrst=default_vrst(topology))
    if topology is Topology.BARE_3T:
        return PixelConfig(topology=topology, pd=pd, selector=selector)
    oxram = oxram or OxRamParams()
    orientation = orientation_for(topology)
    if init_resistance is None:
        if topology is Topology.HYBRID_CASE_I:
            init_resistance = R_INIT_CASE_I
        elif topology is Topology.HYBRID_CASE_II:
            init_resistance = R_INIT_CASE_II
    if init_resistance is None:  # case (iii): hard reset
        init = OxRamState(oxram.gap_max, orientation)
    else:
        init = state_from_resistance(init_resistance, VREAD, oxram, orientation)
    wf = vg_waveform or default_gate_waveform(topology, pd, selector)
    return PixelConfig(topology=topology, pd=pd, oxram=oxram, oxram_init=init,
                       selector=selector, vg_waveform=wf)
