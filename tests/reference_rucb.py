"""Self-contained textbook relative-UCB runner used as an equivalence oracle.

Keeps its own win counts (full information each step, no delay machinery)
and mirrors the library's documented random-draw order so that, with a
unit delay and aligned seeds, a policy under test can be compared to it
action for action.
"""

import numpy as np

from duelsim import DuelingEnvironment, deterministic


def reference_champion_pair(ucb, best, rng):
    """Champion/challenger pick in the documented draw order, on numpy arrays.

    Returns (u, v, new_best), like the library's selection step.
    """
    k = ucb.shape[0]
    champs = np.flatnonzero(np.all(ucb >= 0.5, axis=1))
    if best is not None and best not in champs:
        best = None
    if champs.size == 0:
        u = int(rng.integers(k))
    elif champs.size == 1:
        u = int(champs[0])
        best = u
    elif best is not None:
        if rng.random() < 0.5:
            u = best
        else:
            rest = champs[champs != best]
            u = int(rest[rng.integers(rest.size)])
    else:
        u = int(champs[rng.integers(champs.size)])

    col = ucb[:, u]
    maxers = np.flatnonzero(col == col.max())
    if maxers.size == 1:
        v = int(maxers[0])
    else:
        others = maxers[maxers != u]
        v = int(others[0]) if others.size == 1 else int(others[rng.integers(others.size)])
    return u, v, best


def classical_rucb_actions(matrix, horizon, seed, alpha=1.0):
    env_seq, pol_seq = np.random.SeedSequence(seed).spawn(2)
    env = DuelingEnvironment(
        matrix, deterministic(1), np.random.default_rng(env_seq), horizon=horizon
    )
    rng = np.random.default_rng(pol_seq)
    k = matrix.k
    wins = np.zeros((k, k))
    best = None
    actions = []
    for t in range(1, horizon + 1):
        n = wins + wins.T
        with np.errstate(divide="ignore", invalid="ignore"):
            ucb = wins / n + np.sqrt(alpha * np.log(t) / n)
        ucb[n == 0.0] = 1.0
        np.fill_diagonal(ucb, 0.5)

        u, v, best = reference_champion_pair(ucb, best, rng)
        actions.append((u, v))
        outcome = env.step(u, v)
        if outcome.x == 1:
            wins[u, v] += 1.0
        else:
            wins[v, u] += 1.0
    return actions
