"""The benchmark's workloads: fixed job lists of foelab CLI invocations.

Every job is one ``foelab`` command line.  Inputs that depend on the
workload seed (random couplings, chain orderings, random graphs) are made
here with the standard library's ``random.Random(seed)``, never by foelab
itself, so the program only ever sees generated argv and graph-spec files.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

# Job sizes run in seconds on the seed code; the ROADMAP ladder's top sizes
# (L=14 chains, k=18 TL matrices, N=13 spin maps) come in once sparse routes
# exist.
SU2_LENGTHS = (11, 13)
SU2_RANDOM_LENGTH = 12
BETA, BETA_L = 0.4, 7
CHAIN_COUNT = 120
CHAIN_MAX_SITES, CHAIN_MAX_DIM = 8, 1024
# The multisets of spins (hence every Hilbert dimension) come from this fixed
# seed; the workload seed orders the spins along each chain and draws the
# couplings.  The work per pass is then the same for every seed, so the seed
# changes the instance and not the size of the run.
CHAIN_PROFILE_SEED = 20050503
Q = 0.5
QFOEL_L = 12
DROPLET_N, DROPLET_L = (1, 2, 3, 4), (4, 14)
TL_SIZES = ((14, 4), (16, 4))
SSEP_PATH_N, SSEP_TREE_N = 12, 12
SSEP_GRAPH_N, SSEP_GRAPH_EXTRA = 11, 4


@dataclass(frozen=True)
class Job:
    """One CLI invocation plus what the correctness gate needs to judge it."""

    id: str
    argv: tuple
    kind: str  # selects the checks in checks.py
    expect_exit: int = 0
    seeded: bool = False  # inputs depend on the workload seed
    info: dict = field(default_factory=dict)


def _coupling(rng):
    return 2.0 * (1.0 - rng.random())  # uniform in (0, 2]


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def _ints(values):
    return ",".join(str(int(v)) for v in values)


def _chain_job(job_id, spins, couplings, seeded):
    argv = ("foel", "--chain", _ints(spins))
    if couplings is not None:
        argv += ("--J", _floats(couplings))
    return Job(job_id, argv, "chain", seeded=seeded, info={"spins": tuple(spins)})


def su2_sectors(rng, inputs):
    jobs = [_chain_job(f"foel-L{L}", [1] * L, None, False) for L in SU2_LENGTHS]
    L = SU2_RANDOM_LENGTH
    jobs.append(_chain_job(f"foel-L{L}-random", [1] * L,
                           [_coupling(rng) for _ in range(L - 1)], True))
    jobs.append(Job("foel-beta", ("foel", "--spin1-beta", repr(BETA), "--L", str(BETA_L)),
                    "beta", expect_exit=1, info={"L": BETA_L}))
    jobs.append(Job("figure1", ("figure1",), "figure1", info={"dim": 3 ** 5}))
    return jobs


def chain_profiles():
    """Fixed spin multisets (twice-spins) for the random-chains workload."""
    prng = random.Random(CHAIN_PROFILE_SEED)
    out = []
    while len(out) < CHAIN_COUNT:
        L = prng.randint(2, CHAIN_MAX_SITES)
        spins = [prng.choice((1, 2, 3)) for _ in range(L)]
        dim = 1
        for t in spins:
            dim *= t + 1
        if dim <= CHAIN_MAX_DIM:
            out.append(tuple(sorted(spins)))
    return out


def random_chains(rng, inputs):
    jobs = []
    for i, profile in enumerate(chain_profiles()):
        spins = list(profile)
        rng.shuffle(spins)
        couplings = [_coupling(rng) for _ in range(len(spins) - 1)]
        jobs.append(_chain_job(f"chain-{i:03d}", spins, couplings, True))
    return jobs


def xxz_diagram(rng, inputs):
    q = repr(Q)
    lmin, lmax = DROPLET_L
    jobs = [
        Job(f"qfoel-L{QFOEL_L}", ("qfoel", "--L", str(QFOEL_L), "--q", q), "qfoel",
            info={"L": QFOEL_L}),
        Job("droplet", ("droplet", "--q", q, "--n", _ints(DROPLET_N),
                        "--Lmin", str(lmin), "--Lmax", str(lmax)), "droplet",
            info={"q": Q, "n": DROPLET_N, "L": DROPLET_L}),
    ]
    for k, n in TL_SIZES:
        jobs.append(Job(f"tl-k{k}-n{n}", ("tl-matrix", "--q", q, "--k", str(k), "--n", str(n)),
                        "tl", info={"k": k, "n": n, "q": Q}))
    return jobs


def path_edges(n):
    return [(i, i + 1, 1.0) for i in range(n - 1)]


def random_tree_edges(rng, n):
    return [(rng.randrange(v), v, _coupling(rng)) for v in range(1, n)]


def random_graph_edges(rng, n, extra):
    """Random spanning tree plus ``extra`` distinct extra edges: connected."""
    edges = {(u, v): j for u, v, j in random_tree_edges(rng, n)}
    target = len(edges) + extra
    while len(edges) < target:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = _coupling(rng)
    return [(u, v, j) for (u, v), j in edges.items()]


def write_graph(path, nsites, edges):
    """Write a spin-1/2 graph in foelab's graph-spec format."""
    lines = [f"site {i} 1" for i in range(nsites)]
    lines += [f"edge {u} {v} {float(j)!r}" for u, v, j in edges]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def ssep_spinmap(rng, inputs):
    graphs = {
        "path12": (SSEP_PATH_N, path_edges(SSEP_PATH_N), False),
        "tree12": (SSEP_TREE_N, random_tree_edges(rng, SSEP_TREE_N), True),
        "graph11": (SSEP_GRAPH_N,
                    random_graph_edges(rng, SSEP_GRAPH_N, SSEP_GRAPH_EXTRA), True),
    }
    files = {name: write_graph(os.path.join(inputs, f"{name}.graph"), n, edges)
             for name, (n, edges, _) in graphs.items()}
    jobs = [Job(f"ssep-{name}", ("ssep-gap", "--graph", files[name]), "ssep",
                seeded=graphs[name][2], info={"graph": name, "nsites": graphs[name][0]})
            for name in ("path12", "tree12", "graph11")]
    jobs += [Job(f"spinmap-{name}", ("spinmap", "--graph", files[name]), "spinmap",
                 seeded=graphs[name][2], info={"graph": name, "nsites": graphs[name][0]})
             for name in ("graph11", "path12")]
    return jobs


WORKLOADS = {
    "su2-sectors": su2_sectors,
    "random-chains": random_chains,
    "xxz-diagram": xxz_diagram,
    "ssep-spinmap": ssep_spinmap,
}


def build(workload, seed, inputs):
    """Job list of one workload; graph-spec files are written under ``inputs``."""
    os.makedirs(inputs, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed), inputs)
