"""Seeded `.qdc` generators for the benchmark workloads.

Every register uses prime dimensions only, so U8 is legal on every wire, and
two-qudit gates go on pairs of equal dimension. Gates come from the full set
{X, Z, H, S, U8, CNOT, CZ}, which covers all three kernel classes: diagonal
(Z, S, U8, CZ), permutation (X, CNOT) and dense (H).

A workload is drawn in two parts. Its *structure* comes from a constant seed:
for each gate slot the kernel class, arity, wires and power magnitude. Its
*content* comes from the benchmark seed: which gate of its class fills a
slot (Z, S or U8), the sign of each power, and the seed `run()` samples
with. Run time is thus set by the structure and moves with the seed only
through noise, so the spread of a metric across seeds measures the machine,
not the draw. Every shape holds at least one slot of each type, so each
kernel class runs on every workload.

Every diagonal gate here has phase 1 on |0>, so on a wire still in |0> it
acts as the identity, and a wrong diagonal kernel would leave both the table
and the state unchanged. A circuit therefore opens with H on a pair of
equal-dimension wires, and each diagonal slot goes on wires an earlier H has
put in superposition: CZ on a pair of them, Z, S and U8 on one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Kernel class of each gate kind, as the simulator's kernels see it.
KERNEL_CLASS = {
    "Z": "diagonal",
    "S": "diagonal",
    "U8": "diagonal",
    "CZ": "diagonal",
    "X": "permutation",
    "CNOT": "permutation",
    "H": "dense",
}
KERNEL_CLASSES = ("diagonal", "permutation", "dense")

# Slot types drawn by the structure; "diag1" stands for Z, S and U8, so the
# weights make every one of the seven kinds equally likely.
_SLOT_WEIGHTS = {"diag1": 3, "X": 1, "H": 1, "CNOT": 1, "CZ": 1}
_LEADING = ("H", "H")  # on an equal-dimension pair, before every other slot
_DIAGONAL_1 = ("Z", "S", "U8")


@dataclass(frozen=True)
class Shape:
    """Register and circuit size; `structure_seed` fixes where gates go."""

    dims: tuple[int, ...]
    gates: int
    structure_seed: int = 0

    @property
    def amplitudes(self) -> int:
        return int(np.prod(self.dims))


@dataclass(frozen=True)
class Workload:
    name: str
    key: int
    shape: Shape
    twin: Shape
    reps: int

    def seeds(self, seed: int, held_out: bool = False) -> tuple[int, int]:
        """(content seed, run seed) for a benchmark seed. Held-out seeds come
        from a stream disjoint from the ordinary one."""
        state = np.random.SeedSequence(seed, spawn_key=(int(held_out), self.key))
        content, run_seed = state.generate_state(2, np.uint64)
        return int(content), int(run_seed)

    def text(self, seed: int, held_out: bool = False, measure: bool = True) -> str:
        return qdc_text(self.shape, self.seeds(seed, held_out)[0], measure)

    def twin_text(self, seed: int, held_out: bool = False) -> str:
        """Gates-only reduced twin, small enough for `full_unitary`."""
        return qdc_text(self.twin, self.seeds(seed, held_out)[0], measure=False)


def qdc_text(shape: Shape, content_seed: int, measure: bool = True) -> str:
    """Circuit text for a shape; with `measure`, every wire is measured at
    the end."""
    structure = np.random.default_rng(shape.structure_seed)
    content = np.random.default_rng(content_seed)
    dims = shape.dims
    n = len(dims)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and dims[a] == dims[b]]
    fixed = len(_LEADING) + len(_SLOT_WEIGHTS)
    if not pairs or shape.gates < fixed:
        raise ValueError(f"shape {shape} needs an equal-dimension pair and >= {fixed} gates")

    weights = np.array(list(_SLOT_WEIGHTS.values()), dtype=float)
    drawn = structure.choice(list(_SLOT_WEIGHTS), size=shape.gates - fixed, p=weights / weights.sum())
    slots = list(_SLOT_WEIGHTS) + [str(s) for s in drawn]
    structure.shuffle(slots)
    leading = pairs[int(structure.integers(len(pairs)))]
    superposed: set[int] = set()
    gates = []
    for i, slot in enumerate(list(_LEADING) + slots):
        if i < len(_LEADING):
            wires = (leading[i],)
        elif slot == "CZ":
            both = [pair for pair in pairs if superposed.issuperset(pair)]
            wires = both[int(structure.integers(len(both)))]
        elif slot == "CNOT":
            wires = pairs[int(structure.integers(len(pairs)))]
        elif slot == "diag1":
            wires = (sorted(superposed)[int(structure.integers(len(superposed)))],)
        else:
            wires = (int(structure.integers(n)),)
        if slot == "H":
            superposed.update(wires)
        # H^2 is a permutation in disguise, so a dense slot keeps power +-1.
        magnitude = 1 if slot == "H" else int(structure.choice((1, 1, 1, 2)))
        kind = _DIAGONAL_1[int(content.integers(3))] if slot == "diag1" else slot
        power = magnitude * int(content.choice((1, -1)))
        head = kind if power == 1 else f"{kind}^{power}"
        gates.append((head, wires))

    lines = ["# quditsim benchmark workload"]
    lines += [f"qudit q{i} {d}" for i, d in enumerate(dims)]
    lines += [head + "".join(f" q{w}" for w in wires) for head, wires in gates]
    if measure:
        lines += [f"M q{i} m{i}" for i in range(n)]
    return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gates_wide",
            key=0,
            shape=Shape(dims=(7, 5, 3, 2) * 3 + (3,), gates=8, structure_seed=11),
            twin=Shape(dims=(7, 5, 3, 2, 3), gates=8, structure_seed=11),
            reps=3,
        ),
        Workload(
            name="shots_terminal",
            key=1,
            shape=Shape(dims=(7, 5, 3, 2) * 2, gates=20, structure_seed=12),
            twin=Shape(dims=(7, 5, 3, 2, 2), gates=20, structure_seed=12),
            reps=10_000,
        ),
    )
}
