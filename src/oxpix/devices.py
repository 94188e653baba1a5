"""Behavioral models for the three devices in the hybrid pixel.

The resistive device is described by a single state variable: the length
``gap_x`` of the ruptured region of the conductive filament (CF).  Static
conduction is the sum of a filament term and an oxide term, both hyperbolic
in voltage and exponential in geometry::

    I_CF    = i0_cf * exp(-a * (L - gap_x)) * sinh(b * V)
    I_oxide = i0_ox * exp(-c * gap_x)       * sinh(d * Vgap)

``Vgap`` is the share of the device voltage dropped across the ruptured
region; the assembler uses a linear divider ``Vgap = V * gap_x / gap_max``.
Gap dynamics follow a two-branch field-accelerated rate law: rupture at
``r0 * sinh(V / v1)``, growth at ``g0 * sinh(V / v0)``, with the branch
selected by electrode orientation and voltage sign.

The selector and reset transistors use a plain square-law MOSFET model
with no subthreshold conduction.

Every evaluation here is a pure function of (state, inputs, params); any
number of solver instances may call them concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import InvalidInputError, OutOfRangeError, require_finite

# Electron charge [C]; used for full-well and noise bookkeeping.
ELEMENTARY_CHARGE = 1.602176634e-19

# Largest sinh/exp argument evaluated directly; above this the model is
# already unphysical and we clamp to keep the optimizer's trial points finite.
_EXP_ARG_MAX = 600.0
# |sinh| and cosh at the clip.
_SINH_CLIP = 0.5 * math.exp(_EXP_ARG_MAX)


def _safe_sinh(x: float) -> float:
    if x > _EXP_ARG_MAX:
        return _SINH_CLIP
    if x < -_EXP_ARG_MAX:
        return -_SINH_CLIP
    return math.sinh(x)


def _safe_exp(x: float) -> float:
    return math.exp(min(x, _EXP_ARG_MAX))


class Orientation(enum.Enum):
    """Which OxRAM electrode faces the photodiode node."""

    BE_AT_PD = "BE_at_PD"
    TE_AT_PD = "TE_at_PD"


@dataclass(frozen=True)
class OxRamParams:
    """Fixed constants of the OxRAM compact model.

    Lengths in nm, voltages in V, currents in A, rates in nm/s,
    capacitance in F.
    """

    oxide_thickness_L: float = 10.0
    gap_min: float = 0.6
    gap_max: float = 9.4
    cf_decay_a: float = 0.01          # 1/nm
    # 1/V.  No calibration anchor sees the filament term.  The fitted
    # case i pixel's final VPD at 1 nA does: this value puts its difference
    # between the two RESET levels at the 12 mV target, to 0.01 1/V.
    cf_field_b: float = 40.43
    ox_decay_c: float = 2.190830      # 1/nm
    ox_field_d: float = 1.6           # 1/V
    i0_cf: float = 4.3280e-31         # A
    i0_ox: float = 9.1390e-3          # A
    growth_rate_g0: float = 5.0e2     # nm/s
    rupture_rate_r0: float = 1.59372e-5   # nm/s
    growth_field_v0: float = 0.12     # V
    rupture_field_v1: float = 0.05    # V
    c_pox: float = 0.0                # F

    def __post_init__(self):
        require_finite(self, positive=(
            "oxide_thickness_L", "gap_max", "cf_decay_a", "cf_field_b",
            "ox_decay_c", "ox_field_d", "i0_cf", "i0_ox", "growth_rate_g0",
            "rupture_rate_r0", "growth_field_v0", "rupture_field_v1"),
            nonnegative=("gap_min", "c_pox"))
        if not (self.gap_min < self.gap_max <= self.oxide_thickness_L):
            raise InvalidInputError(
                "require gap_min < gap_max <= oxide_thickness_L, got "
                f"gap_min={self.gap_min}, gap_max={self.gap_max}, "
                f"L={self.oxide_thickness_L}"
            )


@dataclass(frozen=True)
class OxRamState:
    """Mutable filament state: length of the ruptured CF region."""

    gap_x: float
    orientation: Orientation = Orientation.BE_AT_PD


@dataclass(frozen=True)
class MosfetParams:
    """Square-law NMOS constants (no subthreshold conduction)."""

    vth: float = 0.5       # V
    kprime: float = 1.3e-4  # A/V^2
    lam: float = 0.02      # 1/V, channel-length modulation

    def __post_init__(self):
        require_finite(self, positive=("vth", "kprime"), nonnegative=("lam",))


@dataclass(frozen=True)
class PhotodiodeParams:
    """Photodiode node constants and exposure schedule."""

    c_pd: float = 1.0e-14           # F
    vrst: float = 1.42              # V
    fwc_electrons: float = 62_500.0
    reset_noise_electrons: float = 28.0
    texp: float = 9.5e-6            # s
    trst: float = 0.5e-6            # s

    def __post_init__(self):
        require_finite(self, positive=("c_pd", "vrst", "fwc_electrons", "texp"),
                       nonnegative=("reset_noise_electrons", "trst"))

    @property
    def t_end(self) -> float:
        """End of the schedule: reset, then exposure [s]."""
        return self.trst + self.texp

    @property
    def full_well_swing(self) -> float:
        """Voltage drop corresponding to a full well [V]."""
        return self.fwc_electrons * ELEMENTARY_CHARGE / self.c_pd

    @property
    def reset_noise_sigma(self) -> float:
        """One-sigma reset noise on the initial node voltage [V]."""
        return self.reset_noise_electrons * ELEMENTARY_CHARGE / self.c_pd


def oxram_current(state: OxRamState, v_applied: float, vgap: float,
                  params: OxRamParams) -> float:
    """Static device current [A] at the given terminal drop.

    ``v_applied`` is the full drop across the device, ``vgap`` the share
    across the ruptured region (caller-computed).  Odd in voltage.
    """
    if not (math.isfinite(v_applied) and math.isfinite(vgap)):
        raise InvalidInputError(
            f"non-finite voltage: v_applied={v_applied}, vgap={vgap}")
    if not math.isfinite(state.gap_x):
        raise InvalidInputError(f"non-finite gap_x: {state.gap_x}")
    p = params
    i_cf = p.i0_cf * _safe_exp(-p.cf_decay_a * (p.oxide_thickness_L - state.gap_x)) \
        * _safe_sinh(p.cf_field_b * v_applied)
    i_ox = p.i0_ox * _safe_exp(-p.ox_decay_c * state.gap_x) \
        * _safe_sinh(p.ox_field_d * vgap)
    return i_cf + i_ox


def gap_drop_fraction(state: OxRamState, params: OxRamParams) -> float:
    """Linear-divider share of the device voltage across the ruptured region."""
    return state.gap_x / params.gap_max


def device_current(state: OxRamState, v_device: float, params: OxRamParams) -> float:
    """Device current with the divider applied: the form used by the circuit."""
    vgap = v_device * gap_drop_fraction(state, params)
    return oxram_current(state, v_device, vgap, params)


def _cosh_clip(x: float) -> float:
    ax = abs(x)
    if ax > _EXP_ARG_MAX:
        return _SINH_CLIP
    return math.cosh(ax)


def device_current_and_slope(gap_x: float, v: float,
                             p: OxRamParams) -> tuple[float, float]:
    """Unvalidated I(V) and dI/dV at fixed gap: the device law as the
    segment kernel of ``pixel`` evaluates it, with the gap-only factors
    ``k_cf``, ``k_ox`` and ``s = d * gap_x / gap_max`` taken first."""
    k_cf = p.i0_cf * _safe_exp(-p.cf_decay_a * (p.oxide_thickness_L - gap_x))
    k_ox = p.i0_ox * _safe_exp(-p.ox_decay_c * gap_x)
    s = p.ox_field_d * gap_x / p.gap_max
    b = p.cf_field_b
    i = k_cf * _safe_sinh(b * v) + k_ox * _safe_sinh(s * v)
    di = k_cf * b * _cosh_clip(b * v) + k_ox * s * _cosh_clip(s * v)
    return i, di


def gap_velocity(state: OxRamState, v_device: float, params: OxRamParams) -> float:
    """Rate of change of the ruptured length, dx/dt [nm/s].

    Positive voltage at the PD-side electrode ruptures the filament for
    BE_at_PD orientation and grows it for TE_at_PD.  The rate saturates to
    zero at the bound the gap is being driven toward.
    """
    if not math.isfinite(v_device):
        raise InvalidInputError(f"non-finite v_device: {v_device}")
    if v_device == 0.0:
        return 0.0
    if state.orientation is Orientation.BE_AT_PD:
        rupturing = v_device > 0.0
    else:
        rupturing = v_device < 0.0
    v = abs(v_device)
    if rupturing:
        if state.gap_x >= params.gap_max:
            return 0.0
        return params.rupture_rate_r0 * _safe_sinh(v / params.rupture_field_v1)
    if state.gap_x <= params.gap_min:
        return 0.0
    return -params.growth_rate_g0 * _safe_sinh(v / params.growth_field_v0)


# Resistance read voltage [V] of every read-back: pre-programming targets,
# default configurations and the calibration anchors.
VREAD = 0.1
# Relative distance from its target at which a read-back's bisection stops.
READ_BACK_REL_TOL = 1e-3


def read_resistance(state: OxRamState, vread: float, params: OxRamParams) -> float:
    """Quasi-static resistance V/I at the read voltage [ohm]."""
    if vread == 0.0:
        raise InvalidInputError("vread must be non-zero")
    vgap = vread * gap_drop_fraction(state, params)
    i = oxram_current(state, vread, vgap, params)
    return vread / i


def _read_back(r_target: float, vread: float, p: OxRamParams,
               rel_tol: float) -> tuple[float | None, float, float, float]:
    """Bisection on gap_x for the read resistance ``r_target``.

    Validates ``r_target`` and ``vread``, then returns ``(gap, R(gap),
    R(gap_min), R(gap_max))``; ``gap`` is None when the target lies outside
    ``[R(gap_min), R(gap_max)]``.  ``R`` evaluates the expression of
    ``read_resistance`` in the same order, with the gap-independent factors
    computed once, so every value here equals a ``read_resistance`` call.
    """
    if not (math.isfinite(r_target) and r_target > 0.0):
        raise InvalidInputError(f"r_target must be finite and > 0, got {r_target}")
    if vread == 0.0:
        raise InvalidInputError("vread must be non-zero")
    if not math.isfinite(vread):
        raise InvalidInputError(f"non-finite voltage: vread={vread}")
    k_cf, a, length = p.i0_cf, p.cf_decay_a, p.oxide_thickness_L
    i0_ox, c, d, gap_max = p.i0_ox, p.ox_decay_c, p.ox_field_d, p.gap_max
    s_cf = _safe_sinh(p.cf_field_b * vread)
    exp, sinh, arg_max, clip = math.exp, math.sinh, _EXP_ARG_MAX, _SINH_CLIP

    def resistance(gap: float) -> float:
        # ``_safe_sinh`` written out, clip for clip.  The ``exp`` arguments
        # are <= 0 for a gap in [0, L], where ``_safe_exp`` does not clip.
        i_cf = k_cf * exp(-a * (length - gap)) * s_cf
        e_ox = exp(-c * gap)
        x = d * (vread * (gap / gap_max))
        s_ox = clip if x > arg_max else -clip if x < -arg_max else sinh(x)
        return vread / (i_cf + i0_ox * e_ox * s_ox)

    lo, hi = p.gap_min, gap_max
    r_lo, r_hi = resistance(lo), resistance(hi)
    if not (r_lo <= r_target <= r_hi):
        return None, math.nan, r_lo, r_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r_mid = resistance(mid)
        if r_mid < r_target:
            lo = mid
        else:
            hi = mid
        if abs(r_mid - r_target) <= rel_tol * r_target:
            return mid, r_mid, r_lo, r_hi
    mid = 0.5 * (lo + hi)
    return mid, resistance(mid), r_lo, r_hi


def state_from_resistance(r_target: float, vread: float, params: OxRamParams,
                          orientation: Orientation = Orientation.BE_AT_PD,
                          rel_tol: float = READ_BACK_REL_TOL) -> OxRamState:
    """Invert read_resistance by bisection on gap_x.

    Read resistance is strictly increasing in gap_x, so a target inside
    [R(gap_min), R(gap_max)] brackets uniquely.  Matches within 0.1 %
    relative by default (contract allows 1 %).
    """
    gap, _, r_lo, r_hi = _read_back(r_target, vread, params, rel_tol)
    if gap is None:
        raise OutOfRangeError(
            f"target {r_target:.6g} ohm at vread={vread:.3g} V is outside the "
            f"reachable range [{r_lo:.6g}, {r_hi:.6g}] ohm")
    return OxRamState(gap, orientation)


def selector_current(vgs: float, vds: float, params: MosfetParams) -> float:
    """Square-law drain current [A]; negative vds handled by terminal swap."""
    if not (math.isfinite(vgs) and math.isfinite(vds)):
        raise InvalidInputError(f"non-finite bias: vgs={vgs}, vds={vds}")
    if vds < 0.0:
        # Swap source and drain: the gate overdrive is measured from the
        # lower terminal, which is now the nominal drain.
        return -selector_current(vgs - vds, -vds, params)
    vov = vgs - params.vth
    if vov <= 0.0:
        return 0.0
    if vds < vov:
        i = params.kprime * (vov * vds - 0.5 * vds * vds)
    else:
        i = 0.5 * params.kprime * vov * vov
    return i * (1.0 + params.lam * vds)

