"""Material models for the analysis substrate.

The paper's examples span glass viewports, titanium closures and
glass-reinforced-plastic (GRP) orthotropic cylinders, plus a thermal
T-beam, so the substrate provides:

* :class:`IsotropicElastic`  -- E, nu (glass, titanium, steel);
* :class:`OrthotropicElastic`-- distinct moduli along the two in-plane
  axes and the hoop direction (the GRP cylinders of Figures 15/16);
* :class:`ThermalMaterial`   -- conductivity, density, specific heat for
  the Reference-3 style transient conduction.

Constitutive matrices are returned in engineering (Voigt) form:

* plane problems: strain = [eps_x, eps_y, gamma_xy],
  stress = [sig_x, sig_y, tau_xy]  (3 x 3 D);
* axisymmetric: strain = [eps_r, eps_z, gamma_rz, eps_theta],
  stress = [sig_r, sig_z, tau_rz, sig_theta]  (4 x 4 D).

:class:`AnalysisType` names which of those forms a problem uses; its
values are the analysis-type strings :meth:`IsotropicElastic.thermal_strain`
and the assembly accept.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import MaterialError


class AnalysisType(Enum):
    """The three analysis families the IDLZ/OSPL pair served."""

    PLANE_STRESS = "plane_stress"
    PLANE_STRAIN = "plane_strain"
    AXISYMMETRIC = "axisymmetric"


@dataclass(frozen=True)
class IsotropicElastic:
    """Linear-elastic isotropic material.

    Parameters
    ----------
    youngs:
        Young's modulus E (> 0).
    poisson:
        Poisson's ratio nu, in (-1, 0.5).
    thickness:
        Out-of-plane thickness for plane-stress models (ignored otherwise).
    name:
        Label used in listings.
    """

    youngs: float
    poisson: float
    thickness: float = 1.0
    #: Coefficient of thermal expansion (1/degF); zero disables thermal
    #: strain so purely mechanical models are unaffected.
    expansion: float = 0.0
    name: str = "isotropic"

    def __post_init__(self):
        if self.youngs <= 0.0:
            raise MaterialError(f"Young's modulus must be > 0, got {self.youngs}")
        if not (-1.0 < self.poisson < 0.5):
            raise MaterialError(
                f"Poisson's ratio must lie in (-1, 0.5), got {self.poisson}"
            )
        if self.thickness <= 0.0:
            raise MaterialError(f"thickness must be > 0, got {self.thickness}")
        if self.expansion < 0.0:
            raise MaterialError(
                f"expansion coefficient must be >= 0, got {self.expansion}"
            )

    def thermal_strain(self, delta_t: float, analysis_type: str) -> "object":
        """Free thermal strain vector for a temperature rise ``delta_t``.

        Plane stress: [a dT, a dT, 0].  Plane strain: the out-of-plane
        constraint scales the effective in-plane strain by (1 + nu).
        Axisymmetric: [a dT, a dT, 0, a dT].
        """
        import numpy as np

        a = self.expansion * delta_t
        if analysis_type == "plane_stress":
            return np.array([a, a, 0.0])
        if analysis_type == "plane_strain":
            b = (1.0 + self.poisson) * a
            return np.array([b, b, 0.0])
        if analysis_type == "axisymmetric":
            return np.array([a, a, 0.0, a])
        raise MaterialError(f"unknown analysis type {analysis_type!r}")

    def d_plane_stress(self) -> np.ndarray:
        e, nu = self.youngs, self.poisson
        c = e / (1.0 - nu * nu)
        return c * np.array([
            [1.0, nu, 0.0],
            [nu, 1.0, 0.0],
            [0.0, 0.0, (1.0 - nu) / 2.0],
        ])

    def d_plane_strain(self) -> np.ndarray:
        e, nu = self.youngs, self.poisson
        c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return c * np.array([
            [1.0 - nu, nu, 0.0],
            [nu, 1.0 - nu, 0.0],
            [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0],
        ])

    def d_axisymmetric(self) -> np.ndarray:
        """4 x 4 D for [eps_r, eps_z, gamma_rz, eps_theta]."""
        e, nu = self.youngs, self.poisson
        c = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
        d = c * np.array([
            [1.0 - nu, nu, 0.0, nu],
            [nu, 1.0 - nu, 0.0, nu],
            [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0, 0.0],
            [nu, nu, 0.0, 1.0 - nu],
        ])
        return d


@dataclass(frozen=True)
class OrthotropicElastic:
    """Orthotropic material with axes aligned to the model axes.

    For a filament-wound GRP cylinder modelled axisymmetrically the
    principal material directions coincide with (r, z, theta), which is
    why the substrate supports only axis-aligned orthotropy -- exactly the
    case of the paper's Figures 15 and 16.

    Parameters are the engineering constants: moduli ``e1`` (x or r),
    ``e2`` (y or z), ``e3`` (out-of-plane / hoop), shear modulus ``g12``,
    and the Poisson ratios ``nu12``, ``nu13``, ``nu23`` (strain in j from
    stress in i).  Symmetry of the compliance requires nu_ji = nu_ij Ej/Ei,
    computed internally.
    """

    e1: float
    e2: float
    e3: float
    g12: float
    nu12: float
    nu13: float = 0.0
    nu23: float = 0.0
    thickness: float = 1.0
    name: str = "orthotropic"

    def __post_init__(self):
        for label, value in (("e1", self.e1), ("e2", self.e2),
                             ("e3", self.e3), ("g12", self.g12)):
            if value <= 0.0:
                raise MaterialError(f"{label} must be > 0, got {value}")
        # Thermodynamic admissibility: the compliance must be positive
        # definite; check the standard necessary conditions.
        if self.nu12 ** 2 >= self.e1 / self.e2 * (1.0 + 1e-12):
            raise MaterialError("nu12^2 must be < E1/E2 for admissibility")
        if self.nu13 ** 2 >= self.e1 / self.e3 * (1.0 + 1e-12):
            raise MaterialError("nu13^2 must be < E1/E3 for admissibility")
        if self.nu23 ** 2 >= self.e2 / self.e3 * (1.0 + 1e-12):
            raise MaterialError("nu23^2 must be < E2/E3 for admissibility")

    def _compliance3(self) -> np.ndarray:
        """Full 3-D orthotropic compliance for the three normal strains."""
        e1, e2, e3 = self.e1, self.e2, self.e3
        nu12, nu13, nu23 = self.nu12, self.nu13, self.nu23
        return np.array([
            [1.0 / e1, -nu12 / e1, -nu13 / e1],
            [-nu12 / e1, 1.0 / e2, -nu23 / e2],
            [-nu13 / e1, -nu23 / e2, 1.0 / e3],
        ])

    def d_plane_stress(self) -> np.ndarray:
        e1, e2, g12, nu12 = self.e1, self.e2, self.g12, self.nu12
        nu21 = nu12 * e2 / e1
        denom = 1.0 - nu12 * nu21
        return np.array([
            [e1 / denom, nu21 * e1 / denom, 0.0],
            [nu12 * e2 / denom, e2 / denom, 0.0],
            [0.0, 0.0, g12],
        ])

    def d_plane_strain(self) -> np.ndarray:
        """Plane strain: condense eps_3 = 0 out of the 3-D compliance."""
        s = self._compliance3()
        c = np.linalg.inv(s)  # 3-D normal-stress stiffness
        # eps_3 = 0 simply deletes row/col 3 of the stiffness block.
        d = np.zeros((3, 3))
        d[:2, :2] = c[:2, :2]
        d[2, 2] = self.g12
        return d

    def d_axisymmetric(self) -> np.ndarray:
        """4 x 4 D for [eps_r, eps_z, gamma_rz, eps_theta]; axes map
        1 -> r, 2 -> z, 3 -> theta."""
        c = np.linalg.inv(self._compliance3())
        d = np.zeros((4, 4))
        # Ordering (r, z, theta) = (1, 2, 3) -> slots (0, 1, 3).
        slots = (0, 1, 3)
        for a, sa in enumerate(slots):
            for b, sb in enumerate(slots):
                d[sa, sb] = c[a, b]
        d[2, 2] = self.g12
        return d


@dataclass(frozen=True)
class ThermalMaterial:
    """Heat-conduction properties for the Reference-3 style analysis.

    Parameters
    ----------
    conductivity:
        Thermal conductivity k (> 0), isotropic.
    density:
        Mass density rho (> 0).
    specific_heat:
        Specific heat capacity c_p (> 0).
    """

    conductivity: float
    density: float = 1.0
    specific_heat: float = 1.0
    name: str = "thermal"

    def __post_init__(self):
        for label, value in (
            ("conductivity", self.conductivity),
            ("density", self.density),
            ("specific_heat", self.specific_heat),
        ):
            if value <= 0.0:
                raise MaterialError(f"{label} must be > 0, got {value}")

    @property
    def volumetric_heat_capacity(self) -> float:
        """rho * c_p, the capacitance density."""
        return self.density * self.specific_heat

    @property
    def diffusivity(self) -> float:
        """k / (rho c_p), setting the transient time scale."""
        return self.conductivity / self.volumetric_heat_capacity


# Convenience catalogue: representative 1970-era materials for the example
# structures (values are typical handbook numbers in psi / lb / in units).
GLASS = IsotropicElastic(youngs=10.0e6, poisson=0.22,
                         expansion=5.0e-6, name="glass")
TITANIUM = IsotropicElastic(youngs=16.5e6, poisson=0.31,
                            expansion=4.8e-6, name="titanium")
STEEL = IsotropicElastic(youngs=30.0e6, poisson=0.30,
                         expansion=6.5e-6, name="steel")
GRP_ORTHOTROPIC = OrthotropicElastic(
    e1=3.0e6, e2=4.5e6, e3=7.0e6, g12=1.0e6,
    nu12=0.15, nu13=0.12, nu23=0.12, name="GRP",
)
STEEL_THERMAL = ThermalMaterial(
    conductivity=6.5e-4,   # BTU / (s in degF)
    density=0.283,         # lb / in^3
    specific_heat=0.11,    # BTU / (lb degF)
    name="steel",
)
