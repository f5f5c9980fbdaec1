"""Problem instances and their lifts onto the intersection manifold.

Two testbeds are supported: quadratic assignment problems read from the
standard flat text format, and seeded random quadratic knapsack instances.
Both are lifted to the doubled-slack form

    A' = [A  I  0]      b' = [b]
         [A  0 -I]           [b]

whose first n rows carry the sphere constraints, so every instance lands on
the same manifold family regardless of origin.

Random generation uses a hand-rolled splitmix64-seeded xoshiro256**
stream. numpy's generators are not pinned across versions, and instance
bytes must be reproducible from (n, density, seed) alone, so the generator
is part of the file format contract, not an implementation detail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricMatrix, MalformedFile, ProblemTooLarge
from .manifold import IntersectionManifold, combined_residual

__all__ = [
    "Xoshiro256StarStar",
    "QapInstance",
    "QkpInstance",
    "ProblemInstance",
    "parse_qaplib",
    "lift_qap",
    "gen_qkp",
    "lift_qkp",
    "format_qkp",
    "parse_qkp",
    "feasible_init",
    "initial_rank",
]

_MASK = (1 << 64) - 1

# most bytes lift_qap may allocate for its dense objective: the N x N Qlift
# plus the p^4 kron(D, W) temporary (p=8 needs ~0.1 MB, p=100 ~1.7 GB)
_QAP_LIFT_BYTES = 2**30


def _splitmix64(x: int):
    """Yields the splitmix64 sequence from state x (used only for seeding)."""
    while True:
        x = (x + 0x9E3779B97F4A7C15) & _MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield (z ^ (z >> 31)) & _MASK


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class Xoshiro256StarStar:
    """xoshiro256** PRNG with splitmix64 seeding.

    Stream conventions used by the generators in this module:
      uniform_int(k) = 1 + u64 % k  (modulo bias is irrelevant at k <= 100)
      bernoulli(p)   = top-53-bit float < p
    """

    def __init__(self, seed: int):
        g = _splitmix64(int(seed) & _MASK)
        self._s = [next(g) for _ in range(4)]

    @classmethod
    def from_state(cls, state) -> "Xoshiro256StarStar":
        obj = cls.__new__(cls)
        obj._s = [int(w) & _MASK for w in state]
        if len(obj._s) != 4:
            raise ValueError("xoshiro256 state has exactly four 64-bit words")
        return obj

    @property
    def state(self):
        return tuple(self._s)

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform_int(self, k: int) -> int:
        return 1 + self.next_u64() % k

    def bernoulli(self, p: float) -> bool:
        return (self.next_u64() >> 11) * 2.0**-53 < p


@dataclass(frozen=True)
class QapInstance:
    p: int
    W: np.ndarray
    D: np.ndarray
    name: str

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"need p >= 2, got {self.p}")
        for label, M in (("W", self.W), ("D", self.D)):
            if M.shape != (self.p, self.p):
                raise ValueError(f"{label} has shape {M.shape}, expected ({self.p}, {self.p})")
            if not np.allclose(M, M.T, atol=1e-12):
                raise ValueError(f"{label} is not symmetric to 1e-12")


@dataclass(frozen=True)
class QkpInstance:
    n: int
    Q: np.ndarray
    a: np.ndarray
    tau: float
    density: float
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1 items, got {self.n}")
        if self.Q.shape != (self.n, self.n) or self.a.shape != (self.n,):
            raise ValueError("Q must be n x n and a length n")
        if not np.array_equal(self.Q, self.Q.T):
            raise ValueError("Q must be symmetric")
        if np.any(self.Q < 0) or np.any(self.Q > 100) or np.any(self.Q != np.round(self.Q)):
            raise ValueError("Q entries must be integers in {0} and 1..100")
        if np.any(self.a < 1) or np.any(self.a > 50) or np.any(self.a != np.round(self.a)):
            raise ValueError("weights a must be integers in 1..50")
        want = 0.9 * float(np.sum(self.a))
        if not abs(self.tau - want) <= 1e-12 * max(1.0, abs(want)):
            raise ValueError(f"capacity {self.tau} is not 0.9 * sum(a) = {want}")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")


@dataclass(frozen=True)
class ProblemInstance:
    manifold: IntersectionManifold
    Qlift: np.ndarray
    clift: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        N = self.manifold.dims.N
        if self.Qlift.shape != (N, N) or self.clift.shape != (N,):
            raise ValueError(f"lifted objective dims do not match manifold N={N}")
        if not np.allclose(self.Qlift, self.Qlift.T, atol=1e-12):
            raise ValueError("Qlift must be symmetric")


def initial_rank(n: int) -> int:
    """Default factor rank min(200, ceil(n/5))."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return min(200, math.ceil(n / 5))


# ---------------------------------------------------------------------------
# QAPLib


def parse_qaplib(text: str, name: str = "qap") -> QapInstance:
    """Parses the flat QAPLib layout: p, then p^2 entries of W, then p^2 of D.

    Mild asymmetry (at most 1e-9) is averaged away; anything larger is an
    error rather than a silent repair. A NaN or inf entry is MalformedFile.
    """
    tokens = text.split()
    if not tokens:
        raise MalformedFile("empty input")
    try:
        p = int(tokens[0])
    except ValueError as e:
        raise MalformedFile(f"size token {tokens[0]!r} is not an integer") from e
    if p < 2:
        raise MalformedFile(f"need p >= 2, got {p}")
    if len(tokens) != 1 + 2 * p * p:
        raise MalformedFile(f"expected {1 + 2 * p * p} tokens for p={p}, got {len(tokens)}")
    try:
        vals = np.array([float(t) for t in tokens[1:]])
    except ValueError as e:
        raise MalformedFile(f"non-numeric entry: {e}") from e
    if not np.isfinite(vals).all():
        raise MalformedFile(f"non-finite entry {vals[~np.isfinite(vals)][0]}")
    mats = []
    for label, flat in (("W", vals[: p * p]), ("D", vals[p * p :])):
        M = flat.reshape(p, p)
        gap = float(np.max(np.abs(M - M.T)))
        if gap > 1e-9:
            raise AsymmetricMatrix(f"{label} asymmetric by {gap:.3e} (limit 1e-9)")
        mats.append(0.5 * (M + M.T))
    return QapInstance(p=p, W=mats[0], D=mats[1], name=name)


def _lift_affine(A: np.ndarray, b: np.ndarray):
    """Doubles the slack columns: A' = [A I 0; A 0 -I], b' = (b; b)."""
    m, n = A.shape
    Ap = np.zeros((2 * m, n + 2 * m))
    Ap[:m, :n] = A
    Ap[m:, :n] = A
    Ap[:m, n : n + m] = np.eye(m)
    Ap[m:, n + m :] = -np.eye(m)
    return Ap, np.concatenate([b, b])


def lift_qap(inst: QapInstance, r: int | None = None) -> ProblemInstance:
    """Lifts min tr(W X D X^T) over permutations to the manifold form.

    Variables are vec(X) in column-major order, so the quadratic form is
    kron(D, W) and the assignment equalities are [kron(e^T, I); kron(I, e^T)].
    Raises ProblemTooLarge, before allocating anything, when the dense
    objective (N x N with N = p^2 + 4p, plus its p^4 kron temporary) would
    exceed 2^30 bytes.
    """
    p = inst.p
    n = p * p
    nbytes = 8 * (n + 4 * p) ** 2 + 8 * p**4
    if nbytes > _QAP_LIFT_BYTES:
        raise ProblemTooLarge(p, nbytes, _QAP_LIFT_BYTES)
    e = np.ones(p)
    A = np.vstack([np.kron(e[None, :], np.eye(p)), np.kron(np.eye(p), e[None, :])])
    Ap, bp = _lift_affine(A, np.ones(2 * p))
    if r is None:
        r = initial_rank(n)
    M = IntersectionManifold(Ap, bp, binary_rows=np.arange(n), r=r)
    N = M.dims.N
    Qlift = np.zeros((N, N))
    Qlift[:n, :n] = np.kron(inst.D, inst.W)
    meta = {
        "kind": "qap",
        "name": inst.name,
        "seed": None,
        "n": n,
        "p": p,
        "r": r,
        "objective_sign": 1.0,
    }
    return ProblemInstance(manifold=M, Qlift=Qlift, clift=np.zeros(N), meta=meta)


# ---------------------------------------------------------------------------
# QKP


def gen_qkp(n: int, density: float, seed: int) -> QkpInstance:
    """Seeded random knapsack data.

    Stream order is part of the contract: upper triangle of Q in row-major
    order including the diagonal (one Bernoulli draw per entry, one value
    draw only when it fires), then the n weights. No interleaving.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    g = Xoshiro256StarStar(seed)
    Q = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            if g.bernoulli(density):
                v = g.uniform_int(100)
                Q[i, j] = v
                Q[j, i] = v
    a = np.array([g.uniform_int(50) for _ in range(n)], dtype=np.int64)
    tau = 0.9 * float(np.sum(a))
    return QkpInstance(n=n, Q=Q, a=a, tau=tau, density=density, seed=seed)


def lift_qkp(inst: QkpInstance, r: int | None = None) -> ProblemInstance:
    """Lifts max x^T Q x s.t. a^T x <= tau, x binary, to minimization on the
    manifold. The sign flip is recorded in meta["objective_sign"]."""
    n = inst.n
    a = inst.a.astype(float)
    Ap, bp = _lift_affine(a[None, :], np.array([inst.tau]))
    if r is None:
        r = initial_rank(n)
    M = IntersectionManifold(Ap, bp, binary_rows=np.arange(n), r=r)
    N = M.dims.N
    Qlift = np.zeros((N, N))
    Qlift[:n, :n] = -inst.Q.astype(float)
    meta = {
        "kind": "qkp",
        "name": f"qkp_n{n}_d{inst.density:g}_s{inst.seed}",
        "seed": inst.seed,
        "n": n,
        "p": None,
        "r": r,
        "objective_sign": -1.0,
    }
    return ProblemInstance(manifold=M, Qlift=Qlift, clift=np.zeros(N), meta=meta)


def format_qkp(inst: QkpInstance) -> str:
    """Versioned plain-text serialization; round-trips bit-exactly through
    parse_qkp. Floats use repr, which Python guarantees to round-trip."""
    lines = [f"qkp v1 {inst.n} {inst.density!r} {inst.seed}"]
    for i in range(inst.n):
        lines.append(" ".join(str(int(v)) for v in inst.Q[i, i:]))
    lines.append(" ".join(str(int(v)) for v in inst.a))
    lines.append(repr(float(inst.tau)))
    return "\n".join(lines) + "\n"


def parse_qkp(text: str) -> QkpInstance:
    lines = text.splitlines()
    if not lines:
        raise MalformedFile("empty input")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "qkp" or head[1] != "v1":
        raise MalformedFile(f"bad header {lines[0]!r}, expected 'qkp v1 n density seed'")
    try:
        n = int(head[2])
        density = float(head[3])
        seed = int(head[4])
        tokens = " ".join(lines[1:]).split()
        want = n * (n + 1) // 2 + n + 1
        if len(tokens) != want:
            raise MalformedFile(f"expected {want} data tokens for n={n}, got {len(tokens)}")
        tri = [int(t) for t in tokens[: n * (n + 1) // 2]]
        Q = np.zeros((n, n), dtype=np.int64)
        pos = 0
        for i in range(n):
            row = tri[pos : pos + n - i]
            Q[i, i:] = row
            Q[i:, i] = row
            pos += n - i
        a = np.array([int(t) for t in tokens[-n - 1 : -1]], dtype=np.int64)
        tau = float(tokens[-1])
        return QkpInstance(n=n, Q=Q, a=a, tau=tau, density=density, seed=seed)
    except (ValueError, IndexError) as e:
        raise MalformedFile(f"cannot parse qkp body: {e}") from e


# ---------------------------------------------------------------------------
# feasible points


def feasible_init(inst: ProblemInstance, r: int) -> np.ndarray:
    """Constructive point on M_r: exact feasibility by arithmetic, no solve.

    QKP parks every knapsack variable at zero and loads the slacks; QAP
    embeds the identity permutation, whose slacks vanish. Only the first
    column is populated, matching the rank-one structure of the lift.
    """
    M = inst.manifold
    if r != M.dims.r:
        raise ValueError(f"requested r={r}, but the lifted manifold has r={M.dims.r}")
    N = M.dims.N
    R = np.zeros((N, r))
    kind = inst.meta.get("kind")
    if kind == "qkp":
        tau = float(M.affine.b_col[0])
        R[-2, 0] = tau
        R[-1, 0] = -tau
    elif kind == "qap":
        p = inst.meta["p"]
        R[: p * p, 0] = np.eye(p).ravel(order="F")
    else:
        raise ValueError(f"no constructive feasible point for kind {kind!r}")
    res = combined_residual(M, R)
    if res > 1e-12:
        raise ValueError(f"constructed point violates constraints by {res:.3e}")
    return R
