"""Workloads: the inputs each seed gives and the commands of one operation.

An operation is one pass over a workload's `ngontower` commands.  The seed
picks the generator factor `--factor` for each n; nothing else varies.
"""

from dataclasses import dataclass, field
from pathlib import Path

# The first this-many valid factors of each n are the seeds' choices.
FACTOR_CHOICES = 8

# Operations in a run of 20 seconds; other lengths scale it.  The count is
# fixed from --seconds alone, so it never depends on how fast the code under
# test happens to be.  An operation takes about 27 s, 5.5 s and 0.8 s on the
# reference machine (see README.md); stored-65537 gets more operations than
# its share of 20 s because its run-to-run spread is the widest.
OPS_PER_20_SECONDS = {
    "construct-65537": 1,
    "stored-65537": 5,
    "sweep-small": 16,
}

SWEEP_NS = (3, 5, 17, 257)
SCHEDULES = ("full", "pruned")
RENDER_VERTICES_65537 = 64

# Layers (span or counter names from layers.py) that the README says do work
# on each workload.  A traced run flags any of them that records no call.
_ALL_LAYERS = frozenset(
    {
        "invariant_sets.build",
        "tower.schedule",
        "splitting.split_products",
        "tower.signs",
        "tower.cosines",
        "tower.evaluate",
        "verify.oracle",
        "oracle.mul",
        "oracle.expand",
        "report.render",
        "towerfile.dump",
        "towerfile.load",
        "construction.arith",
        "construction.geom",
        "construction.program_dump",
        "construction.svg",
    }
)
EXPECTED_LAYERS = {
    "construct-65537": _ALL_LAYERS - {"construction.svg"},
    "stored-65537": frozenset(
        {
            "invariant_sets.build",
            "tower.signs",
            "tower.cosines",
            "tower.evaluate",
            "towerfile.load",
            "construction.arith",
            "construction.geom",
            "construction.program_dump",
            "construction.svg",
        }
    ),
    "sweep-small": _ALL_LAYERS,
}
WORKLOADS = tuple(OPS_PER_20_SECONDS)


def order_of_two(n: int) -> int:
    """Multiplicative order of 2 modulo the odd number n."""
    k, d = 1, 2 % n
    while d != 1:
        d = (2 * d) % n
        k += 1
    return k


def pairs_per_set(n: int) -> int:
    """Pairs in one invariant set: the doubling orbit of a residue holds both
    e and -e for a Fermat prime n > 3, so a set has half the orbit's length."""
    return max(1, order_of_two(n) // 2)


def valid_factors(n: int, count: int = FACTOR_CHOICES) -> list[int]:
    """The first `count` factors q in [2, n-1] that order the invariant sets.

    With a single invariant set (n = 3, 5) every q serves.  Otherwise the sets
    are the cosets of the doubling orbit in the cyclic group (Z/n)*, and q
    reaches every set exactly when it is a quadratic non-residue, i.e.
    q^((n-1)/2) = -1 mod n (Euler's criterion).
    """
    one_set = order_of_two(n) == n - 1
    found = []
    for q in range(2, n):
        if one_set or pow(q, (n - 1) // 2, n) == n - 1:
            found.append(q)
            if len(found) == count:
                break
    return found


def factor_for(n: int, seed: int) -> int:
    choices = valid_factors(n)
    return choices[seed % len(choices)]


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(OPS_PER_20_SECONDS[workload] * seconds / 20))


@dataclass
class Command:
    """One `ngontower` invocation and what it must leave behind."""

    argv: list[str]
    kind: str  # build | verify | arith | geom | render
    tower: str  # the tower file it writes (build) or reads
    n: int
    out: str | None = None
    oracle: bool = True
    vertices: int = 0  # SVG vertices expected (render only)
    log: str = field(default="")


def _build(n, schedule, factor, tower, oracle=True) -> Command:
    argv = ["build", "--n", str(n), "--schedule", schedule, "--factor", str(factor)]
    if not oracle:
        argv.append("--no-oracle")
    return Command(argv + ["--out", tower], "build", tower, n, oracle=oracle)


def _verify(n, tower, oracle=True) -> Command:
    argv = ["verify", "--tower", tower] + ([] if oracle else ["--no-oracle"])
    return Command(argv, "verify", tower, n, oracle=oracle)


def _compile(n, tower, target, out) -> Command:
    return Command(
        ["compile", "--tower", tower, "--target", target, "--out", out], target, tower, n, out=out
    )


def _render(n, tower, out, max_vertices=0) -> Command:
    argv = ["render", "--tower", tower, "--out", out]
    if max_vertices:
        argv += ["--max-vertices", str(max_vertices)]
    vertices = min(n, max_vertices) if max_vertices else n
    return Command(argv, "render", tower, n, out=out, vertices=vertices)


def stored_tower(run_dir: Path) -> str:
    return str(run_dir / "T.tower")


def setup_commands(workload: str, seed: int, run_dir: Path) -> list[Command]:
    """Input preparation that set-up time includes."""
    if workload == "stored-65537":
        return [_build(65537, "pruned", factor_for(65537, seed), stored_tower(run_dir), oracle=False)]
    return []


def op_commands(workload: str, seed: int, run_dir: Path, op_dir: Path) -> list[Command]:
    d = op_dir
    if workload == "construct-65537":
        t = str(d / "T.tower")
        return [
            _build(65537, "pruned", factor_for(65537, seed), t),
            _compile(65537, t, "geom", str(d / "T.geom")),
        ]
    if workload == "stored-65537":
        t = stored_tower(run_dir)
        return [
            _verify(65537, t, oracle=False),
            _compile(65537, t, "arith", str(d / "T.arith")),
            _compile(65537, t, "geom", str(d / "T.geom")),
            _render(65537, t, str(d / "T.svg"), RENDER_VERTICES_65537),
        ]
    if workload == "sweep-small":
        cmds = []
        for n in SWEEP_NS:
            for schedule in SCHEDULES:
                stem = d / f"{n}-{schedule}"
                t = f"{stem}.tower"
                cmds += [
                    _build(n, schedule, factor_for(n, seed), t),
                    _verify(n, t),
                    _compile(n, t, "geom", f"{stem}.geom"),
                    _render(n, t, f"{stem}.svg"),
                ]
        return cmds
    raise ValueError(f"unknown workload {workload!r}")
