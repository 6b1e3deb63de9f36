"""Determinant CASCI engine with spin-orbit QDPT, g-tensors and spectra."""

__version__ = "0.1.0"

from .analysis import (decompose, format_decomposition,  # noqa: F401
                       natural_occupations, one_rdm)
from .casci import (CiState, Multiplet, assemble_multiplets,  # noqa: F401
                    dense_hamiltonian, dense_solve, hamiltonian_element,
                    sigma, solve_davidson)
from .detspace import (CasSpace, Determinant, cas_dimension,  # noqa: F401
                       enumerate_cas)
from .driver import run_gtensor, solve_multiplets  # noqa: F401
from .gtensor import GTensor, g_tensor_eha, g_tensor_sos, gap_report  # noqa: F401
from .ingest import (IntegralSet, OrbitalSpace, PropertyIntegrals,  # noqa: F401
                     RunConfig, parse_property_integrals,
                     parse_run_config, read_fcidump, write_fcidump)
from .ligandfield import (LigandFieldModel, build_ligand_field_model,  # noqa: F401
                          preset_model)
from .soc import (SocStateBasis, SoEigenstates, component_blocks,  # noqa: F401
                  qdpt, soc_basis, soc_matrix)
from .spectra import (SpectrumLine, broaden, oscillator_strength,  # noqa: F401
                      transition_table)
from .spin import apply_s_minus, s_squared  # noqa: F401
