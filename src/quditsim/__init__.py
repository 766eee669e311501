"""Statevector simulation of circuits over d-level systems.

Exact gate constructions at arbitrary (and mixed) dimensions, a circuit IR
with a declarative builder and ASCII diagrams, a mixed-radix statevector
engine with measurement sampling, a circuit text format with a CLI, and a
random-circuit scaling benchmark.
"""

from .bench import BenchConfig, BenchRow, random_circuit, scaling_sweep
from .circuit import (
    Circuit,
    DECLARE,
    GateApplication,
    MEASURE,
    Measurement,
    QuditRef,
    build,
    full_unitary,
    ghz_circuit,
    moments,
    render_diagram,
)
from .gates import (
    GateKind,
    GateSpec,
    cnot_matrix,
    custom,
    cz_matrix,
    h_matrix,
    resolve,
    s_matrix,
    single,
    two_qudit,
    u8_matrix,
    u8_phase_exponents,
    x_matrix,
    z_matrix,
)
from .numerics import (
    is_unitary,
    kron,
    mixed_radix_decode,
    mixed_radix_encode,
    root_of_unity,
)
from .simulator import (
    MeasurementTable,
    RunResult,
    StateTooLargeError,
    StateVector,
    apply_gate,
    basis_state,
    release_buffers,
    run,
    simulate,
)
from .textio import (
    CircuitDocument,
    CircuitParseError,
    format_matrix,
    format_state,
    parse_circuit,
    parse_document,
    render_document,
)

__version__ = "0.1.0"
