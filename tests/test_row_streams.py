"""The samplers draw and test their candidates in row blocks, and the quadric
pair kernel runs in row blocks: each gives the rows, the bits and the
generator state of the whole-array form it replaces."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hilbertgeom import bodies, coarse, distance_pairs, ray_points, sample_interior, sampling
from hilbertgeom.errors import ExteriorBase

ROOT = Path(__file__).resolve().parent.parent
BENCH_BODIES = sorted(p.stem for p in (ROOT / "perfbench" / "bodies").glob("*.json"))
BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.SFC64)
# Bytes of one (width, rows) block buffer.
BLOCK_BYTES = bodies.SLACK_BLOCK * 8


def _load(name):
    return bodies.load_body(str(ROOT / "perfbench" / "bodies" / f"{name}.json"))


def _block_rows(body) -> int:
    """Rows per (n, rows) block: SLACK_BLOCK // n, rounded down to 64."""
    return bodies.SLACK_BLOCK // body.dimension // 64 * 64


@pytest.fixture(scope="module", params=BENCH_BODIES)
def bench_body(request):
    return _load(request.param)


# -- the whole-array forms ---------------------------------------------------------


def _old_sample_interior(body, n, rng):
    """Every round draws and tests all max(2n, 64) candidates at once."""
    lo, hi = body.bounding_box()
    parts, held = [], 0
    for _ in range(sampling._MAX_ROUNDS + 1):
        cand = rng.uniform(lo, hi, (max(2 * n, 64), len(lo)))
        parts.append(cand[body.signed_gap(cand) < -body.boundary_tol()])
        held += len(parts[-1])
        if held >= n:
            return np.concatenate(parts)[:n]
    raise AssertionError("reference sampler exhausted")


def _old_ball_candidates(body, c, t, attempts, rng):
    lo, hi = sampling.ball_box(body, c, t)
    cand = rng.uniform(lo, hi, (attempts, len(lo)))
    cand = cand[body.signed_gap(cand) < -body.boundary_tol()]
    return cand[distance_pairs(body, np.broadcast_to(c, cand.shape), cand) <= t]


def _same_state(a, b) -> bool:
    """Equal bit generator states (MT19937's holds its key as an array)."""
    def flat(state):
        return {k: flat(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}
    return flat(a.bit_generator.state) == flat(b.bit_generator.state)


def _generators(seed):
    return [(np.random.Generator(bg(seed)), np.random.Generator(bg(seed))) for bg in BIT_GENERATORS]


# -- streamed draws ------------------------------------------------------------------


def test_sample_interior_stream_is_the_whole_array_draw(bench_body):
    # request sizes whose max(2n, 64) is 64, one block - 2, one block, one
    # block + 2 (in one block: the remainder joins the last block), and
    # 200,000 candidates in several blocks
    B = _block_rows(bench_body)
    for n in (1, 32, B // 2 - 1, B // 2, B // 2 + 1, 100_000):
        for mine, ref in _generators([30, n]):
            got = sample_interior(bench_body, n, mine)
            want = _old_sample_interior(bench_body, n, ref)
            assert got.shape == want.shape == (n, bench_body.dimension)
            assert np.array_equal(got, want), (n, mine.bit_generator)
            assert _same_state(mine, ref)
            assert mine.random() == ref.random()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_sample_interior_stops_testing_once_the_request_is_filled(bit_generator, monkeypatch):
    # A triangle fills 45.5% of its box, so the first round of a 100,000-row
    # request tests all 200,000 candidates and holds about 91,000 rows; the
    # second round is filled in its first block, and its other blocks are
    # drawn and dropped untested.
    body = bodies.Polygon([(0.0, 0.0), (1.0, 0.3), (0.3, 1.0)])
    n, B = 100_000, _block_rows(body)
    tested, gap = [], body.signed_gap
    mine, ref = np.random.Generator(bit_generator(31)), np.random.Generator(bit_generator(31))
    with monkeypatch.context() as mp:
        mp.setattr(body, "signed_gap", lambda P: tested.append(len(P)) or gap(P))
        got = sample_interior(body, n, mine)
    assert np.array_equal(got, _old_sample_interior(body, n, ref))
    assert _same_state(mine, ref)
    assert tested == [r.stop - r.start for r in bodies._row_blocks(2, 2 * n)] + [B]


def test_ball_candidates_stream_is_the_whole_array_draw(bench_body):
    # ball_candidates tests every draw: greedy_packing uses every candidate
    rng = np.random.default_rng(32)
    centres = np.vstack([bench_body.interior_seed(), sample_interior(bench_body, 2, rng)])
    for attempts in (0, 1, 20_000, 100_000):
        for c in centres:
            for mine, ref in _generators([33, attempts]):
                got = sampling.ball_candidates(bench_body, c, 1.0, attempts, mine)
                want = _old_ball_candidates(bench_body, c, 1.0, attempts, ref)
                assert np.array_equal(got, want), (attempts, c, mine.bit_generator)
                assert got.shape[1] == bench_body.dimension
                assert _same_state(mine, ref)


# -- the blocked quadric pair kernel --------------------------------------------------


@pytest.mark.parametrize("name", ["disk", "ellipse", "ellipsoid3"])
def test_blocked_quadric_pairs_match_one_call_bit_for_bit(name, monkeypatch):
    body = _load(name)
    M, c, n = body._to_unit, body.center, body.dimension
    rng = np.random.default_rng(34)
    X = sample_interior(body, 100_000, rng)
    Y = sample_interior(body, 100_000, rng)
    B = _block_rows(body)
    for m in (1, 7, 64, B - 1, B, B + 1, 2 * B + 1, 100_000):
        shapes = [(X[:m], Y[:m]), (np.broadcast_to(X[0], (m, n)), Y[:m])]  # as dist_from passes
        got = [bodies._quadric_pairs(M, c, A, Q) for A, Q in shapes]
        with monkeypatch.context() as mp:
            mp.setattr(bodies, "SLACK_BLOCK", 64 * m * n)
            assert len(bodies._row_blocks(n, m)) == 1
            want = [bodies._quadric_pairs(M, c, A, Q) for A, Q in shapes]
        for g, w in zip(got, want):
            assert g.shape == (m,)
            assert np.array_equal(g, w), f"{m} rows"


@pytest.mark.parametrize("side", ["x", "y"])
def test_blocked_quadric_pairs_reject_an_exterior_row_in_the_last_block(side):
    body = _load("ellipsoid3")
    B = _block_rows(body)
    m = 2 * B + 1
    rng = np.random.default_rng(35)
    X, Y = sample_interior(body, m, rng), sample_interior(body, m, rng)
    (X if side == "x" else Y)[-1] = 3.0 * body.bounding_box()[1]
    assert bodies._row_blocks(body.dimension, m)[-1] == slice(B, m)
    with pytest.raises(ExteriorBase):
        bodies._quadric_pairs(body._to_unit, body.center, X, Y)
    with pytest.raises(ExteriorBase):
        distance_pairs(body, X, Y)


# -- the contraction map ---------------------------------------------------------------


@pytest.mark.parametrize("name", [b for b in BENCH_BODIES if b != "cube_halfspaces"])
def test_contraction_map_is_the_row_broadcast_form(name, monkeypatch):
    body = _load(name)
    c = body.interior_seed()
    U = np.ones((1, body.dimension)) / np.sqrt(body.dimension)
    px = ray_points(body, c[None, :], U, 0.3)[0]
    R, r, samples, seed = 1.0, 0.5, 20_000, 36
    seen = []
    monkeypatch.setattr(coarse, "distance_pairs", lambda b, A, F: seen.append(F) or distance_pairs(b, A, F))
    rep = coarse.verify_contraction(body, c, R, px, r, samples, seed)
    Y = sampling.sample_ball(body, c, R, samples, np.random.default_rng(seed))
    F = px + coarse.contraction_constant(r, R) * (Y - px)
    assert len(seen) == 1 and np.array_equal(seen[0], F)
    assert seen[0].flags.c_contiguous
    assert rep.max_violation == float(np.max(distance_pairs(body, np.broadcast_to(px, F.shape), F)) - r)


# -- peak memory ---------------------------------------------------------------------


def _peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["disk", "ellipsoid3"])
def test_streamed_sample_interior_peak_is_its_rows_and_a_few_blocks(name):
    # the held rows (at most one block's yield past n) and their one
    # concatenated copy: twice the output plus 0.2 (disk) and 0.4
    # (ellipsoid3) block buffers, against 12 and 22 row vectors when all
    # 200,000 candidates were tested at once
    body = _load(name)
    rng = np.random.default_rng(6)
    peak, X = _peak(lambda: sample_interior(body, 100_000, rng))
    assert peak < 2 * X.nbytes + 2 * BLOCK_BYTES


@pytest.mark.parametrize("name", ["disk", "ellipse", "ellipsoid3"])
def test_blocked_quadric_distance_pairs_peak_is_its_output_and_a_few_blocks(name):
    # per block: three (n, rows) unit-coordinate arrays, one coordinate
    # difference and the Cayley-Klein row vectors; 8.4 (planar) and 9.5
    # (ellipsoid3) block buffers past the output, against 20 and 25 for
    # whole (n, 100,000) arrays
    body = _load(name)
    rng = np.random.default_rng(3)
    X, Y = sample_interior(body, 100_000, rng), sample_interior(body, 100_000, rng)
    peak, d = _peak(lambda: distance_pairs(body, X, Y))
    assert peak < d.nbytes + 10 * BLOCK_BYTES
