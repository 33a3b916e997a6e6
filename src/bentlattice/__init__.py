"""bentlattice: dynamics of light in periodically curved binary waveguide arrays.

Four model tiers share one parameter language: a driven two-level reduction,
tight-binding coupled modes on the binary lattice, the spinor continuum
limit near the zone edge, and full paraxial beam propagation, plus the
plane-wave band solver that ties the discrete constants to the continuum
geometry.
"""

# set before the submodule imports, so that a submodule importing it from
# the package finds it whichever module the package is loading
__version__ = "0.1.0"

from .bands import (BandStructure, CalibrationResult, TightBindingFit,
                    calibrate_channel, fit_tight_binding, plane_wave_bands)
from .bpm import (AbsorberSpec, BpmGauge, ChannelShape, DEFAULT_OPTICS,
                  FieldGrid, OpticsParams, TransverseGrid, bpm_run,
                  bragg_angle, build_index_profile, gaussian_tilted_input)
from .dirac import (SpinorField, SpinorTrajectory, XiGrid, band_weights,
                    dirac_evolve, free_dispersion, gaussian_spinor_packet,
                    lattice_from_spinor, spinor_from_lattice)
from .drive import (DriveKind, DriveProfile, axis_offset_um, force, phase,
                    phase_amplitude, phase_integral)
from .errors import (AccuracyError, BentLatticeError, CalibrationError,
                     ConfigError, DegenerateGapError, DomainError,
                     GeometryError, ParameterError, ShapeError)
from .tight_binding import (Boundary, Branch, Gauge, LatticeTrajectory,
                            ModeVector, SuperlatticeParams, bloch_eigenvector,
                            bloch_mode_state, dispersion, evolve_bare,
                            evolve_gauged, gauge_transform,
                            gaussian_packet_state, group_velocity)
from .two_level import (CouplingMatrix, DiracUnitsMap, MatrixKind,
                        PhysicalConstants, TwoLevelState, TwoLevelTrajectory,
                        coupling_matrix_dirac, coupling_matrix_full,
                        coupling_matrix_reduced, evolve, ground_state,
                        quasi_energy, resonance_period, transition_probability,
                        zone_edge_k)
