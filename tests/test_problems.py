"""Oracle tests for instance generation, lifting, and feasible points.

PRNG known-answer values were frozen from an independent transcription of
the published splitmix64 / xoshiro256** reference code, and the small QKP
instances below were generated with that transcription, not with the
module under test.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from isectret import manifold as mf
from isectret import problems as pb
from isectret.errors import AsymmetricMatrix, IsectError, MalformedFile, ProblemTooLarge

# ---------------------------------------------------------------------------
# PRNG stream


def test_xoshiro_from_raw_state_known_answer():
    g = pb.Xoshiro256StarStar.from_state([1, 2, 3, 4])
    assert [g.next_u64() for _ in range(3)] == [11520, 0, 1509978240]


def test_xoshiro_seeded_known_answer():
    # seeding runs splitmix64; first splitmix64(0) output must be the
    # published vector 0xE220A8397B1DCDAF, checked here through from_seed(0)
    g0 = pb.Xoshiro256StarStar(0)
    assert g0.state[0] == 0xE220A8397B1DCDAF
    assert g0.state[1] == 0x6E789E6AA1B965F4
    g = pb.Xoshiro256StarStar(42)
    assert [g.next_u64() for _ in range(3)] == [
        1546998764402558742,
        6990951692964543102,
        12544586762248559009,
    ]


def test_uniform_int_frozen_and_range():
    g = pb.Xoshiro256StarStar(42)
    assert g.uniform_int(100) == 43  # 1 + 1546998764402558742 % 100
    g2 = pb.Xoshiro256StarStar(7)
    vals = [g2.uniform_int(50) for _ in range(2000)]
    assert min(vals) >= 1 and max(vals) <= 50
    assert len(set(vals)) > 40


def test_bernoulli_frozen():
    g = pb.Xoshiro256StarStar(42)
    assert g.bernoulli(0.5) is True  # first draw ~ 0.0839
    assert g.bernoulli(0.1) is False  # second draw ~ 0.3790


# ---------------------------------------------------------------------------
# gen_qkp


def test_gen_qkp_frozen_n3():
    inst = pb.gen_qkp(3, 0.6, 42)
    assert inst.Q.tolist() == [[3, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert inst.a.tolist() == [8, 9, 36]
    assert inst.tau == 47.7
    assert inst.n == 3 and inst.density == 0.6 and inst.seed == 42


def test_gen_qkp_frozen_n2_density_one():
    inst = pb.gen_qkp(2, 1.0, 1)
    assert inst.Q.tolist() == [[23, 84], [84, 63]]
    assert inst.a.tolist() == [37, 30]
    assert inst.tau == 60.300000000000004


def test_gen_qkp_determinism():
    x = pb.gen_qkp(40, 0.3, 123)
    y = pb.gen_qkp(40, 0.3, 123)
    assert np.array_equal(x.Q, y.Q)
    assert np.array_equal(x.a, y.a)
    assert x.tau == y.tau


def test_gen_qkp_density_one_all_fired():
    inst = pb.gen_qkp(30, 1.0, 5)
    iu = np.triu_indices(30)
    assert np.all(inst.Q[iu] >= 1)
    assert np.all(inst.Q[iu] <= 100)
    assert np.array_equal(inst.Q, inst.Q.T)


def test_gen_qkp_density_band():
    n = 200
    inst = pb.gen_qkp(n, 0.5, 77)
    iu = np.triu_indices(n)
    emp = np.count_nonzero(inst.Q[iu]) / iu[0].size
    assert abs(emp - 0.5) < 0.05


def test_gen_qkp_rejects_bad_args():
    with pytest.raises(ValueError):
        pb.gen_qkp(1, 0.5, 0)
    with pytest.raises(ValueError):
        pb.gen_qkp(10, 0.0, 0)
    with pytest.raises(ValueError):
        pb.gen_qkp(10, 1.5, 0)


# ---------------------------------------------------------------------------
# QKP text format


def test_qkp_roundtrip_bit_exact():
    inst = pb.gen_qkp(17, 0.35, 99)
    back = pb.parse_qkp(pb.format_qkp(inst))
    assert back.n == inst.n
    assert np.array_equal(back.Q, inst.Q)
    assert np.array_equal(back.a, inst.a)
    assert back.tau == inst.tau
    assert back.density == inst.density
    assert back.seed == inst.seed


def test_parse_qkp_malformed():
    good = pb.format_qkp(pb.gen_qkp(4, 0.9, 2))
    with pytest.raises(MalformedFile):
        pb.parse_qkp(good.replace("qkp v1", "qkp v9", 1))
    with pytest.raises(MalformedFile):
        pb.parse_qkp("\n".join(good.splitlines()[:-1]))
    with pytest.raises(MalformedFile):
        pb.parse_qkp("")
    body, tau = good.rstrip("\n").rsplit("\n", 1)
    for bad_tau in ("nan", "inf", "-inf"):
        with pytest.raises(MalformedFile):
            pb.parse_qkp(f"{body}\n{bad_tau}\n")
    for bad_density in ("nan", "inf", "0", "-0.5", "1.5"):
        with pytest.raises(MalformedFile):
            pb.parse_qkp(good.replace("qkp v1 4 0.9", f"qkp v1 4 {bad_density}", 1))
    assert pb.parse_qkp(f"{body}\n{tau}\n").tau == float(tau)
    with pytest.raises(MalformedFile):
        pb.parse_qkp("qkp v1 0 0.5 1\n0\n")


# ---------------------------------------------------------------------------
# QAPLib parsing


def test_parse_qaplib_tiny():
    inst = pb.parse_qaplib("2  0 1 1 0  0 2 2 0")
    assert inst.p == 2
    assert inst.W.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert inst.D.tolist() == [[0.0, 2.0], [2.0, 0.0]]


def test_parse_qaplib_truncated():
    with pytest.raises(MalformedFile):
        pb.parse_qaplib("2  0 1 1 0  0 2 2")
    with pytest.raises(MalformedFile):
        pb.parse_qaplib("2  0 1 1 0  0 2 2 0 9")
    with pytest.raises(MalformedFile):
        pb.parse_qaplib("")
    with pytest.raises(MalformedFile):
        pb.parse_qaplib("2  0 x 1 0  0 2 2 0")


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_parse_qaplib_non_finite(entry):
    # a symmetric pair, so no asymmetry check can catch it first
    with pytest.raises(MalformedFile, match="non-finite entry"):
        pb.parse_qaplib(f"2  0 {entry} {entry} 0  0 2 2 0")
    with pytest.raises(MalformedFile, match="non-finite entry"):
        pb.parse_qaplib(f"2  0 1 1 0  {entry} 2 2 0")


def test_parse_qaplib_p12_header():
    rng = np.random.default_rng(3)
    W = rng.integers(0, 9, size=(12, 12))
    W = W + W.T
    D = rng.integers(0, 9, size=(12, 12))
    D = D + D.T
    toks = ["12"] + [str(v) for v in W.ravel()] + [str(v) for v in D.ravel()]
    inst = pb.parse_qaplib(" ".join(toks))
    assert inst.p == 12
    assert inst.W.shape == (12, 12)


def test_parse_qaplib_asymmetry():
    with pytest.raises(AsymmetricMatrix):
        pb.parse_qaplib("2  0 1 2 0  0 2 2 0")
    # asymmetry below 1e-9 is averaged away
    inst = pb.parse_qaplib("2  0 1e-10 0 0  0 0 0 0")
    assert np.array_equal(inst.W, inst.W.T)


# ---------------------------------------------------------------------------
# lift_qap


def _qap_instance(p, seed=3):
    rng = np.random.default_rng(seed)
    W = rng.integers(0, 9, size=(p, p))
    W = (W + W.T).astype(float)
    D = rng.integers(0, 9, size=(p, p))
    D = (D + D.T).astype(float)
    return pb.QapInstance(p=p, W=W, D=D, name=f"rand{p}")


def test_lift_qap_dimensions():
    inst = _qap_instance(12)
    prob = pb.lift_qap(inst)
    d = prob.manifold.dims
    assert (d.N, d.m_rows, d.s) == (192, 48, 144)
    assert d.r == 29  # initial_rank(144)
    assert prob.Qlift.shape == (192, 192)
    assert np.array_equal(prob.Qlift, prob.Qlift.T)
    n = 144
    assert np.array_equal(prob.Qlift[:n, :n], np.kron(inst.D, inst.W))
    assert not prob.Qlift[n:, :].any()
    assert not prob.clift.any()
    assert np.array_equal(prob.manifold.affine.b_col, np.ones(48))
    assert prob.meta["kind"] == "qap" and prob.meta["p"] == 12


def test_lift_qap_assignment_rows():
    p = 3
    prob = pb.lift_qap(_qap_instance(p), r=2)
    A = prob.manifold.affine.A
    n = p * p
    Ablock = A[: 2 * p, :n]
    # each variable appears in exactly one row-sum and one column-sum row
    assert np.array_equal(Ablock.sum(axis=0), np.full(n, 2.0))
    # vec of every permutation matrix satisfies the assignment equalities
    for perm in itertools.permutations(range(p)):
        P = np.zeros((p, p))
        P[np.arange(p), perm] = 1.0
        x = P.ravel(order="F")
        assert np.array_equal(Ablock @ x, np.ones(2 * p))
    # identity blocks carry the slacks: [A I 0; A 0 -I]
    assert np.array_equal(A[: 2 * p, n : n + 2 * p], np.eye(2 * p))
    assert np.array_equal(A[2 * p :, n + 2 * p :], -np.eye(2 * p))
    assert np.array_equal(A[2 * p :, :n], Ablock)


def test_lift_qap_full_row_rank():
    prob = pb.lift_qap(_qap_instance(4), r=3)
    A = prob.manifold.affine.A
    w = np.linalg.eigvalsh(A @ A.T)
    assert w[0] > 1e-10 * w[-1]


def test_lift_qap_refuses_a_dense_objective_above_its_byte_limit():
    p = 110
    inst = pb.QapInstance(p=p, W=np.zeros((p, p)), D=np.zeros((p, p)), name="big")
    tracemalloc.start()
    try:
        with pytest.raises(ProblemTooLarge) as info:
            pb.lift_qap(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Qlift is N x N with N = p^2 + 4p, plus the p^4 kron(D, W) temporary
    assert info.value.p == p
    assert info.value.nbytes == 8 * (p * p + 4 * p) ** 2 + 8 * p**4
    assert isinstance(info.value, IsectError)
    assert peak < 2**20  # refused before any lift array was allocated
    prob = pb.lift_qap(_qap_instance(8))
    assert prob.Qlift.shape == (96, 96)


# ---------------------------------------------------------------------------
# lift_qkp


def test_lift_qkp_structure():
    inst = pb.gen_qkp(5, 0.8, 3)
    prob = pb.lift_qkp(inst, r=4)
    d = prob.manifold.dims
    assert (d.N, d.m_rows, d.s, d.r) == (7, 2, 5, 4)
    A = prob.manifold.affine.A
    assert np.array_equal(A[0], np.concatenate([inst.a, [1.0, 0.0]]))
    assert np.array_equal(A[1], np.concatenate([inst.a, [0.0, -1.0]]))
    assert np.array_equal(prob.manifold.affine.b_col, [inst.tau, inst.tau])
    assert np.array_equal(prob.manifold.binary_rows, np.arange(5))
    assert np.array_equal(prob.Qlift[:5, :5], -inst.Q)
    assert not prob.Qlift[5:, :].any()
    assert prob.meta["objective_sign"] == -1.0
    # x = 0 with slack entries (tau, -tau) solves both equality rows
    x = np.concatenate([np.zeros(5), [inst.tau, -inst.tau]])
    assert A @ x == pytest.approx([inst.tau, inst.tau])


def test_lift_qkp_n500_dims():
    inst = pb.gen_qkp(500, 0.2, 11)
    prob = pb.lift_qkp(inst)
    assert prob.manifold.dims.N == 502
    assert prob.manifold.dims.m_rows == 2
    assert prob.manifold.dims.r == 100  # ceil(500/5)


# ---------------------------------------------------------------------------
# feasible_init


def test_feasible_init_qkp_frozen():
    inst = pb.QkpInstance(
        n=3,
        Q=np.zeros((3, 3), dtype=np.int64),
        a=np.array([1, 1, 1], dtype=np.int64),
        tau=2.7,
        density=0.5,
        seed=0,
    )
    prob = pb.lift_qkp(inst, r=2)
    R = pb.feasible_init(prob, r=2)
    assert R[:, 0] == pytest.approx([0.0, 0.0, 0.0, 2.7, -2.7])
    assert not R[:, 1].any()
    assert mf.combined_residual(prob.manifold, R) <= 1e-12


def test_feasible_init_qap_identity():
    prob = pb.lift_qap(_qap_instance(2), r=3)
    R = pb.feasible_init(prob, r=3)
    n = 4
    assert R[:n, 0].tolist() == np.eye(2).ravel(order="F").tolist()
    assert not R[n:, :].any()
    assert not R[:, 1:].any()
    # binary rows: squared norm equals first entry
    h = mf.binary_residual(prob.manifold, R)
    assert np.max(np.abs(h)) <= 1e-12
    assert mf.combined_residual(prob.manifold, R) <= 1e-12


def test_feasible_init_fixed_point_of_both_projections():
    for prob in (pb.lift_qkp(pb.gen_qkp(8, 0.7, 21), r=3), pb.lift_qap(_qap_instance(3), r=2)):
        R = pb.feasible_init(prob, r=prob.manifold.dims.r)
        assert np.allclose(mf.project_affine(prob.manifold, R), R, atol=1e-12)
        assert np.allclose(mf.project_binary(prob.manifold, R), R, atol=1e-12)


def test_feasible_init_rank_mismatch():
    prob = pb.lift_qkp(pb.gen_qkp(4, 0.5, 9), r=2)
    with pytest.raises(ValueError):
        pb.feasible_init(prob, r=5)


# ---------------------------------------------------------------------------
# initial_rank


def test_initial_rank():
    assert pb.initial_rank(144) == 29
    assert pb.initial_rank(1000) == 200
    assert pb.initial_rank(5) == 1
    with pytest.raises(ValueError):
        pb.initial_rank(0)
