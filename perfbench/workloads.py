"""The benchmark's workloads: each is a fixed list of `projderiv` CLI calls.

An item is one call of `projderiv.cli.main`; a pass runs every item once.
The workload seed is passed to every item as `--seed`.
"""

from __future__ import annotations

from dataclasses import dataclass

# the 12 registered experiments, fixed here so that a new experiment does not
# silently change what `verify_default` measures
ALL_EXPERIMENTS = (
    "ball_theorem_4_1",
    "ball_coderiv_theorem_3_1",
    "affine_props_3_3_3_5",
    "cone_l2_theorem_4_3",
    "cone_lp_theorem_4_2",
    "l1_cases",
    "determinants_lemma_4_5",
    "coefficient_bounds_prop_4_6",
    "remez_theorem_5_4",
    "remez_continuity_theorem_4_8",
    "poly_theorem_4_11",
    "structural_prop_3_2",
)


@dataclass(frozen=True)
class Item:
    command: str  # "run" or "trace"
    experiment: str
    flags: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return " ".join((self.command, self.experiment) + self.flags)

    def argv(self, seed: int, out_path: str) -> list[str]:
        argv = [self.command, "--experiment", self.experiment, *self.flags, "--seed", str(seed)]
        if self.command == "run":
            argv += ["--out", out_path]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: tuple[Item, ...]


_WIDE = ("--N", "16", "--S", "1024")
_FINE = ("--G", "4097")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify_default",
            "all 12 experiments at default configs: many small oracle queries, "
            "per-object overhead in spaces and fixed_points dominates",
            tuple(Item("run", e) for e in ALL_EXPERIMENTS),
        ),
        Workload(
            "oracle_wide",
            "wide sample sets (N=16, S=1024) as run plus trace: array passes in "
            "the oracle and the keep_trace path, no Remez and no registry work",
            tuple(
                Item(command, e, _WIDE)
                for e in ("ball_coderiv_theorem_3_1", "cone_lp_theorem_4_2", "l1_cases")
                for command in ("run", "trace")
            ),
        ),
        Workload(
            "remez_fine",
            "polynomial experiments at G=4097: Remez exchange and the brute-force "
            "LP dominate, the oracle and spaces stay small",
            tuple(
                Item("run", e, _FINE)
                for e in (
                    "remez_theorem_5_4",
                    "remez_continuity_theorem_4_8",
                    "poly_theorem_4_11",
                    "structural_prop_3_2",
                )
            ),
        ),
    )
}
