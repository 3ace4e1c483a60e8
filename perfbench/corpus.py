"""Seeded inputs for every workload, made with plain numpy.

Nothing here calls into kduncert, so a change to the program cannot change
the inputs it is measured on. Every instance draws from its own stream,
seeded by (workload seed, workload tag, instance index), so the same seed
always gives the same corpus and instances do not shift when one is added.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

WITNESS_DIMS = (2, 3, 4)
CLI_DIMS = (2, 4, 8)
NCL_RESTARTS = 2
MIXED_DRAWS = 14
PURE_DRAWS = 4


@dataclass(frozen=True)
class Instance:
    """One (state, measurement) input; `effects` is a list of d x d arrays."""

    label: str
    rho: np.ndarray
    effects: tuple
    commuting: bool = False


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, index])


def _state(d: int, rank: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def _haar(d: int, rng) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _povm(d: int, n: int, rng) -> tuple:
    draws = []
    for _ in range(n):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        draws.append(g @ g.conj().T)
    w, v = np.linalg.eigh(np.sum(draws, axis=0))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    effects = []
    for a in draws:
        e = inv_sqrt @ a @ inv_sqrt
        effects.append(0.5 * (e + e.conj().T))
    return tuple(effects)


def _projectors(u: np.ndarray) -> tuple:
    return tuple(np.outer(u[:, j], u[:, j].conj()) for j in range(u.shape[0]))


def witness_corpus(seed: int) -> list:
    """Per d: mixed and pure states under 2- and 3-outcome POVMs, plus two commuting pairs.

    Mixed states get MIXED_DRAWS draws per POVM size and pure states
    PURE_DRAWS: NCl iteration counts of mixed states vary most from draw to
    draw (up to 5x at d = 4), so fewer draws would let the seed, not the
    program, set the workload's throughput.
    A commuting pair is a state diagonal in the measured PVM basis (one
    full-rank, one with a zero eigenvalue), so its verdict is non-contextual.
    """
    out = []
    for d in WITNESS_DIMS:
        for kind, rank, draws in (("mixed", d, MIXED_DRAWS), ("pure", 1, PURE_DRAWS)):
            for n in (2, 3):
                for k in range(draws):
                    rng = _rng(seed, 2, len(out))
                    out.append(Instance(f"d{d}-{kind}-povm{n}-{k}", _state(d, rank, rng), _povm(d, n, rng)))
        for kind in ("full", "deficient"):
            rng = _rng(seed, 2, len(out))
            u = _haar(d, rng)
            p = rng.dirichlet(np.ones(d))
            if kind == "deficient":
                p[-1] = 0.0
                p /= p.sum()
            rho = (u * p) @ u.conj().T
            rho = 0.5 * (rho + rho.conj().T)
            out.append(Instance(f"d{d}-commuting-{kind}", rho, _projectors(u), commuting=True))
    return out


@dataclass(frozen=True)
class CliInputs:
    """Inputs of one CLI dimension: a full-rank state, a 3-outcome POVM and two bases."""

    d: int
    rho: np.ndarray
    effects: tuple
    basis: np.ndarray
    basis2: np.ndarray


def cli_corpus(seed: int) -> list:
    out = []
    for i, d in enumerate(CLI_DIMS):
        rng = _rng(seed, 3, i)
        out.append(CliInputs(d, _state(d, d, rng), _povm(d, 3, rng), _haar(d, rng), _haar(d, rng)))
    return out


def matrix_json(m: np.ndarray) -> dict:
    """The CLI's matrix wire format, written without the program's serializer."""
    flat = np.asarray(m, dtype=complex).reshape(-1)
    return {"d": int(m.shape[0]), "re_im": [[float(x.real), float(x.imag)] for x in flat]}


def povm_json(effects) -> dict:
    return {
        "d": int(effects[0].shape[0]),
        "effects": [matrix_json(e) for e in effects],
        "labels": [str(i) for i in range(len(effects))],
    }


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def fingerprint(inst: Instance) -> str:
    """Short hash of an instance's inputs, rounded so last-bit noise does not change it."""
    h = hashlib.sha256()
    for a in (inst.rho,) + tuple(inst.effects):
        h.update((np.round(np.asarray(a, dtype=complex), 10) + 0.0).tobytes())
    return h.hexdigest()[:16]
