"""Tied neural layers: materialize weights, evaluate, and verify equivariance.

Verification runs two routes, in one helper shared by ``check_equivariance``
and ``compose_layers``. The float route evaluates the layer on random
integer-valued inputs and compares output-side and input-side permutation, by
rows of the two image tables, to a tolerance. It walks the joint elements in
blocks of k, with k sized by the widest vector the layers pass (input, output
or middle), so that its scratch stays bounded when m is far larger than n.
A block's k x trials inputs are one draw from the seeded stream
(the same values, in the same order, as drawing them one input at a time),
permuted by one flat scatter through the block's input-table rows and
evaluated as the columns of one n x (k * trials) matrix, and the outputs are
compared by one gather of trial rows through the output-table rows. The
exact route is the authority: it materializes W with the first C primes as
parameters (pairwise distinct, exact in int64) and checks P_gM @ W == W @ P_gN
by integer indexing for each generator's int image rows, which decides it
for every element because the matrices commuting with W are closed under
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import designs, permcore
from .designs import ColorMatrix, Relation, SharingStructure
from .permcore import JointAction

DEFAULT_TOLERANCE = 1e-9
DEFAULT_TRIALS = 8

# cells (elements x trials x widest vector size) per block of the float route:
# bounds each of its scratch arrays, float and int64 index alike, on the input,
# output and any middle side
_FLOAT_BATCH_CELLS = 1 << 14


class LayerError(ValueError):
    """Size mismatch or invalid layer configuration."""


@dataclass(frozen=True)
class Nonlinearity:
    """Strictly monotonic elementwise map: identity, or leaky with slope in (0, 1)."""

    kind: str
    slope: float = 1.0

    def __post_init__(self):
        if self.kind == "identity":
            return
        if self.kind == "leaky":
            if not 0.0 < self.slope < 1.0:
                raise LayerError(f"leaky slope must be in (0, 1), got {self.slope}")
            return
        raise LayerError(f"unknown nonlinearity {self.kind!r}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "identity":
            return np.asarray(x, dtype=float)
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, x, self.slope * x)


IDENTITY = Nonlinearity("identity")


def leaky(slope: float = 0.5) -> Nonlinearity:
    return Nonlinearity("leaky", slope)


def first_primes(count: int) -> np.ndarray:
    """The first ``count`` primes, used as certification parameters.

    A sieve of Eratosthenes up to Rosser's bound: for n >= 6 the n-th prime
    is below n (ln n + ln ln n), and the fifth prime is 11.
    """
    count = max(count, 0)
    limit = 12 if count < 6 else int(count * (math.log(count) + math.log(math.log(count))))
    composite = np.zeros(limit + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p::p] = True
    return np.flatnonzero(~composite)[:count].astype(np.int64)


def materialize(cm: ColorMatrix, theta) -> np.ndarray:
    """W[m, n] = sum of theta over the cell's base colors; empty cells are 0."""
    theta = np.asarray(theta)
    if theta.shape != (cm.base_color_count,):
        raise LayerError(
            f"theta length {theta.shape} does not match base color count {cm.base_color_count}"
        )
    sums = np.zeros(cm.merged_color_count + 1, dtype=theta.dtype)
    for mid, base in cm.merged_to_base.items():
        sums[mid] = theta[[c - 1 for c in base]].sum()
    return sums[cm.grid]


class TiedLayer:
    """A layer y = sigma(W x) with W generated from theta by the color matrix.

    theta is kept as a read-only copy, so the float W, materialized once here,
    cannot go stale. Non-finite theta (NaN, +-inf) is rejected.
    """

    def __init__(self, color_matrix: ColorMatrix, theta, nonlinearity: Nonlinearity = IDENTITY):
        self.color_matrix = color_matrix
        self.theta = np.array(theta)
        self.theta.flags.writeable = False
        if not np.isfinite(self.theta).all():
            raise LayerError("theta entries must be finite")
        self.nonlinearity = nonlinearity
        self._w = materialize(color_matrix, self.theta).astype(float)

    @property
    def n_size(self) -> int:
        return self.color_matrix.n_size

    @property
    def m_size(self) -> int:
        return self.color_matrix.m_size

    def weights(self) -> np.ndarray:
        return materialize(self.color_matrix, self.theta)

    def require_distinct_theta(self):
        if len(set(self.theta.tolist())) != len(self.theta):
            raise LayerError("theta entries must be pairwise distinct for uniqueness claims")

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """sigma(W x) for one input vector or an n x k matrix of input columns."""
        return self.nonlinearity.apply(self._w @ x)


def tied_layer_from_structure(
    s: SharingStructure, theta=None, nonlinearity: Nonlinearity = IDENTITY
) -> TiedLayer:
    """Merge a structure and wrap it; theta defaults to the first C primes."""
    cm = s.color_matrix
    if theta is None:
        theta = first_primes(cm.base_color_count)
    return TiedLayer(cm, theta, nonlinearity)


def forward(layer: TiedLayer, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (layer.n_size,):
        raise LayerError(f"input length {x.shape} != n_size {layer.n_size}")
    return layer._apply(x)


@dataclass(frozen=True)
class EquivarianceReport:
    tested_elements: int
    trials: int
    max_residual: float
    exact_pass: bool
    tolerance: float
    seed: int
    passed: bool


def matrix_commutes(w: np.ndarray, gn, gm) -> bool:
    """Exact check of P_gm @ W == W @ P_gn, i.e. W[gm(i), gn(j)] == W[i, j] for every cell.

    ``gn`` and ``gm`` are ``Permutation`` objects or int image rows.
    """
    rows_m, rows_n = getattr(gm, "images", gm), getattr(gn, "images", gn)
    return bool(np.array_equal(w[np.ix_(rows_m, rows_n)], w))


def _verify(
    w_exact: np.ndarray,
    apply,
    joint: JointAction,
    trials: int,
    tolerance: float,
    seed: int,
    widest: int,
) -> EquivarianceReport:
    """Exact commutation of ``w_exact`` on the generators, float replay of ``apply``.

    ``apply`` maps an n x K matrix of input columns to the m x K outputs, and
    ``widest`` is the largest row count it passes through: n, m, or that of a
    middle layer. The float route takes the joint elements in blocks of k,
    sized so that k x max(trials, 1) x max(widest, 1) stays within
    ``_FLOAT_BATCH_CELLS``, and evaluates ``apply`` twice per block, on the
    inputs and on their images. Column c of a block replays element
    g[c // trials]. The inputs' images are one scatter at flat positions
    c * n + g_c(i). The outputs' are one take of rows of trials values: row
    g_a(i) * k + a of the (m * k) x trials view holds f(g . x)[g_a(i)] for
    element g[a]. The int64 index arrays hold at most one cell per float
    cell, so the cell bound covers them too. A non-finite residual (overflow
    in W x) is kept as the maximum and fails.
    """
    if trials < 0:
        raise LayerError("trials must be >= 0")
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise LayerError("tolerance must be finite and >= 0")
    if seed < 0:
        raise LayerError("seed must be >= 0")
    n_gens, m_gens = joint.n_action._generator_rows, joint.m_action._generator_rows
    exact_pass = all(matrix_commutes(w_exact, gn, gm) for gn, gm in zip(n_gens, m_gens))

    n_table, m_table = joint.n_action._table, joint.m_action._table
    m_size, n_size = w_exact.shape
    ids = joint._element_ids
    block = max(1, _FLOAT_BATCH_CELLS // (max(1, trials) * max(1, widest)))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for lo in range(0, len(ids), block):
        g = ids[lo:lo + block]
        k = len(g)
        cols = k * trials
        x = rng.integers(-9, 10, size=(cols, n_size)).astype(float)
        # (g . x)[g(i)] = x[i]: one scatter into the flat cols x n rows
        gx = np.empty_like(x)
        at = np.arange(cols).reshape(k, trials, 1) * n_size + n_table[g][:, None, :]
        gx.ravel()[at.ravel()] = x.ravel()
        fx = apply(x.T)
        # f(x)[i] is compared with f(g . x)[g(i)]: one take of the m x k rows of
        # trials outputs, row g(i) * k + a for element g[a]
        fgx = apply(gx.T).reshape(m_size * k, trials)
        diff = fgx.take(m_table[g].T * k + np.arange(k), axis=0).reshape(m_size, cols)
        np.subtract(fx, diff, out=diff)
        np.abs(diff, out=diff)
        # np.maximum keeps NaN, Python max drops it
        worst = np.maximum(worst, np.max(diff, initial=0.0))
    max_residual = float(worst)
    return EquivarianceReport(
        tested_elements=joint.joint_order,
        trials=trials,
        max_residual=max_residual,
        exact_pass=exact_pass,
        tolerance=tolerance,
        seed=seed,
        passed=exact_pass and max_residual <= tolerance,
    )


def check_equivariance(
    layer: TiedLayer,
    joint: JointAction,
    trials: int = DEFAULT_TRIALS,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> EquivarianceReport:
    """Replay g^M . sigma(W x) == sigma(W . g^N x) for every joint element.

    Failures are reported in the verdict, never raised.
    """
    if layer.n_size != joint.n_size or layer.m_size != joint.m_size:
        raise LayerError(
            f"layer is {layer.m_size} x {layer.n_size} but the joint action targets "
            f"{joint.m_size} x {joint.n_size}"
        )
    w_exact = materialize(layer.color_matrix, first_primes(layer.color_matrix.base_color_count))
    widest = max(layer.n_size, layer.m_size)
    return _verify(w_exact, layer._apply, joint, trials, tolerance, seed, widest)


def compose_layers(
    first: TiedLayer,
    second: TiedLayer,
    joint_nm: JointAction,
    joint_mo: JointAction,
    trials: int = DEFAULT_TRIALS,
    tolerance: float = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> EquivarianceReport:
    """Check g^O . phi2(phi1(x)) == phi2(phi1(g^N x)) over the shared reference group.

    The two joints must share the reference group and the middle action.
    """
    if first.m_size != second.n_size:
        raise LayerError(
            f"middle size mismatch: first layer emits {first.m_size}, second takes {second.n_size}"
        )
    if joint_nm.group != joint_mo.group:
        raise LayerError("middle-action mismatch: joints use different reference groups")
    # one group, so equal generator images mean equal actions
    if not np.array_equal(joint_nm.m_action._generator_rows, joint_mo.n_action._generator_rows):
        raise LayerError("middle-action mismatch: shared action on M differs between joints")
    if (joint_nm.n_size, joint_nm.m_size, joint_mo.m_size) != (
        first.n_size, first.m_size, second.m_size
    ):
        raise LayerError("layer sizes do not match the joint actions")

    w1 = materialize(first.color_matrix, first_primes(first.color_matrix.base_color_count))
    w2 = materialize(second.color_matrix, first_primes(second.color_matrix.base_color_count))
    joint = permcore.joint_action(joint_nm.n_action, joint_mo.m_action)
    widest = max(first.n_size, first.m_size, second.m_size)
    return _verify(
        w2 @ w1, lambda x: second._apply(first._apply(x)), joint, trials, tolerance, seed, widest
    )


# ---------------------------------------------------------------------------
# group convolution (output identified with the group)


def group_conv_structure(
    joint: JointAction, genset, tie_across_orbits: bool = False
) -> SharingStructure:
    """Sparse design with the output regular over G; optionally tie across input orbits.

    Tying keeps one color per (output orbit, generator) pair, merging the edge
    sets of the per-input-orbit relations, which matches sharing one parameter
    theta_a across all input orbits.
    """
    if joint.m_size != joint.group.order:
        raise LayerError(
            f"group convolution needs m_size == |G| ({joint.group.order}), got {joint.m_size}"
        )
    if not permcore.classify_action(joint.m_action).regular:
        raise LayerError("group convolution needs the output action to be regular over G")
    s = designs.sparse_design(joint, genset)
    if not tie_across_orbits:
        return s
    merged: dict[tuple[int, int], list[np.ndarray]] = {}
    orbit_lists: dict[tuple[int, int], list[int]] = {}
    for rel in s.relations:
        key = (rel.provenance["m_orbit"], rel.provenance["generator"])
        merged.setdefault(key, []).append(rel.edges)
        orbit_lists.setdefault(key, []).append(rel.provenance["n_orbit"])
    relations = []
    for key in sorted(merged):
        q, a = key
        relations.append(
            Relation(
                len(relations) + 1,
                np.concatenate(merged[key]),
                {
                    "kind": "sparse_tied",
                    "m_orbit": q,
                    "generator": a,
                    "n_orbits": tuple(orbit_lists[key]),
                },
            )
        )
    return SharingStructure(s.n_size, s.m_size, tuple(relations), s.warnings)


def group_conv(
    joint: JointAction,
    genset,
    theta=None,
    tie_across_orbits: bool = False,
    nonlinearity: Nonlinearity = IDENTITY,
) -> TiedLayer:
    s = group_conv_structure(joint, genset, tie_across_orbits)
    return tied_layer_from_structure(s, theta, nonlinearity)


# ---------------------------------------------------------------------------
# graph convolution


def graph_conv_structure(adjacency) -> SharingStructure:
    """Structure whose merged layer is W(theta) = theta_1 B + theta_2 I.

    The adjacency relation holds the edges of the digraph (cell (m, n) of B),
    the identity relation the diagonal; diagonal cells with B[n, n] = 1 carry
    both colors and so weight theta_1 + theta_2.
    """
    b = np.asarray(adjacency)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise LayerError(f"adjacency matrix must be square, got shape {b.shape}")
    if not np.isin(b, (0, 1)).all():
        raise LayerError("adjacency matrix entries must be 0 or 1")
    n = b.shape[0]
    ms, ns = np.nonzero(b)
    base = SharingStructure(n, n, (Relation(1, np.stack([ns, ms], axis=1), {"kind": "adjacency"}),))
    return designs.with_identity_relation(base)
