"""Reproducible uniform sampling over convex bodies.

A body's exact sampler is its own ``sampler()``; this module draws streams,
rejects where a body has none, and samples and measures hyperplane sections.

Streams are counter based: a stream is identified by (seed, index) and is
bit-identical regardless of which other streams were drawn first, so every
experiment can split work into independent substreams without bookkeeping.
The (seed, index) pair is mixed through the splitmix64 finalizer and keys a
Philox counter generator.

A uniform is the top 53 bits k of one raw 64-bit Philox word, as
fl(k + 1/2) times 2^-53, so it lies in (0, 1]: the top word, k = 2^53 - 1,
rounds to even and gives exactly 1.0, with probability 2^-53 per draw.
These are the integers that ``Generator.integers(0, 2**53)`` draws from the
same bit generator, so the stream is the one that form gave, bit for bit.
Gaussians come from the inverse normal CDF applied to these uniforms, not
from rejection, so the stream consumption per variate is constant and
results cannot shift when the underlying generator version changes its
ziggurat tables; a uniform of 1.0 gives a Gaussian of +inf.
"""

from __future__ import annotations

import bisect
import itertools

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtri

from .bodies import (
    BoundingBox,
    ConvexBody,
    Cut,
    Halfspace,
    VERTEX_TOL,
    _extent,
    _rowwise,
    _unit,
    bounding_box,
    sample_ball,
    slice_basis,
)
from .errors import DegenerateBodyError, DegenerateSliceError, DimensionError
from .report import MomentEstimate, hit_or_miss

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB

REJECTION_BATCH = 65536
GROUP_VALUES = 16384  # values one rejection block, or one group of estimator batches, holds at most
MAX_CONSECUTIVE_MISSES = 10**6
ROUND_MARGIN = 1.15
ROUND_SLACK = 32


def splitmix64(z: int) -> int:
    """The splitmix64 output mixer on a 64-bit state."""
    z &= MASK64
    z = (z ^ (z >> 30)) * MIX_MULT_1 & MASK64
    z = (z ^ (z >> 27)) * MIX_MULT_2 & MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, index: int) -> int:
    """64-bit key for substream ``index`` of ``seed``."""
    if index < 0:
        raise ValueError(f"stream index must be nonnegative, got {index}")
    return splitmix64((seed + GOLDEN_GAMMA * (index + 1)) & MASK64)


class _Key(ISeedSequence):
    """The seed of ``Philox(_Key(k))``: key words [k, 0], as ``Philox(key=k)``.

    Philox asks its seed for two 64-bit words and uses them as its key, with
    a zero counter, so the generator is the one ``Philox(key=k)`` builds;
    that form also builds a ``SeedSequence`` from OS entropy and discards it.
    """

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a stream key is two 64-bit words, not {n_words} of {np.dtype(dtype)}")
        return np.array([self.key, 0], dtype=np.uint64)


class SampleStream:
    """One independent substream of uniforms, normals, and body samples."""

    def __init__(self, seed: int, index: int = 0):
        self.seed = int(seed) & MASK64
        self.index = int(index)
        self._gen = np.random.Generator(np.random.Philox(_Key(stream_key(self.seed, self.index))))

    def substream(self, index: int) -> "SampleStream":
        """Independent child stream; children of distinct indices never collide."""
        return SampleStream(stream_key(self.seed, self.index) ^ GOLDEN_GAMMA, index)

    def uniform(self, size) -> np.ndarray:
        """Uniforms in (0, 1]: fl(k + 1/2) times 2^-53, for the top 53 bits k of one Philox word each.

        ``Generator.random`` fills the array with k 2^-53, k = word >> 11,
        which is exact, and one pass adds 2^-54. Scaling by 2^-53 is exact
        both ways, so rounding commutes with it: fl(k 2^-53 + 2^-54) =
        fl(k + 1/2) 2^-53. One word is drawn per value, so the stream's
        position after each draw is that of ``Generator.integers(0, 2**53)``.
        The top word, k = 2^53 - 1, rounds to even and gives exactly 1.0.
        """
        u = np.empty(() if size is None else size)
        self._gen.random(out=u)
        u += 2.0**-54
        # size None or () gives a numpy float, not a 0-d array
        return u[()]

    def normal(self, size) -> np.ndarray:
        """Gaussians: ``ndtri`` of one uniform each, applied in place."""
        u = np.asarray(self.uniform(size))
        # size None or () gives a numpy float, as uniform does
        return ndtri(u, out=u)[()]


def _rate_sized(missing: int, tried: int, kept: int) -> int:
    """Round size: the missing points at the acceptance rate seen so far.

    The first round draws one proposal per missing point, at least 1024.
    Later rounds scale by tried/kept with ROUND_MARGIN and ROUND_SLACK, so
    that one more round usually finishes; until something has been
    accepted they fall back to four proposals per missing point.
    """
    if tried == 0:
        return min(REJECTION_BATCH, max(missing, 1024))
    if kept == 0:
        return min(REJECTION_BATCH, max(4 * missing, 1024))
    return min(REJECTION_BATCH, int(missing * tried / kept * ROUND_MARGIN) + ROUND_SLACK)


def _reject(streams, n: int, d: int, propose, accept, source: str, round_size) -> np.ndarray:
    """For each of the G streams, the first n accepted of its own proposals, in proposal order: (G n, d).

    Rows [i n, (i + 1) n) are stream i's points, so a group of one is the
    n points of one stream. ``propose(streams, sizes)`` draws sizes[j]
    candidates from streams[j] for each j, stacked in that order, and
    ``accept(pts)`` masks the ones to keep; ``source`` ends the message of
    the starvation error. ``round_size(missing, tried, kept)`` gives a
    stream's next round from its own points still missing and proposals
    tried and kept so far, so every stream draws the rounds it would draw
    alone. A round's proposals of the whole group are tested in one
    ``accept`` call and gathered from one ``flatnonzero``. A block holds at
    most GROUP_VALUES values, or one stream's round, so that it stays in
    cache; the streams that do not fit draw in the next block. Each stream's
    points are thus the ones it gives in a group of one, whatever the group.

    Where m proposals are one draw of m from the stream in order, as with
    ``BoundingBox.uniform``, the result does not depend on the round sizes.
    The streams' positions after the call do, and are unspecified, so
    callers sample from fresh substreams.

    Accepted rows are gathered by index with ``take``, straight into the
    stream's rows of the output.
    """
    g = len(streams)
    out = np.empty((g * n, d))
    got, tried, kept, misses = ([0] * g for _ in range(4))
    live = list(range(g)) if n else []
    while live:
        sizes = [round_size(n - got[i], tried[i], kept[i]) for i in live]
        ends = list(itertools.accumulate(sizes))
        cut = max(1, bisect.bisect_right(ends, GROUP_VALUES // d))
        members = live[:cut]
        pts = propose([streams[i] for i in members], sizes[:cut])
        idx = np.flatnonzero(accept(pts))
        bounds = np.searchsorted(idx, ends[:cut]).tolist()
        lo = 0
        for i, m, hi in zip(members, sizes, bounds):
            k = hi - lo
            tried[i] += m
            kept[i] += k
            if k == 0:
                misses[i] += m
                if misses[i] >= MAX_CONSECUTIVE_MISSES:
                    raise DegenerateBodyError(f"no acceptance in {misses[i]} proposals{source}")
                continue
            misses[i] = 0
            take = min(k, n - got[i])
            row = i * n + got[i]
            # the indices are in range; mode "clip" lets take write into out unbuffered
            pts.take(idx[lo : lo + take], axis=0, out=out[row : row + take], mode="clip")
            got[i] += take
            lo = hi
        live = live[cut:] + [i for i in members if got[i] < n]
    return out


def _stack(parts: list) -> np.ndarray:
    """The arrays stacked along their first axis; a single array is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _box_points(box: BoundingBox, streams, sizes) -> np.ndarray:
    """Each stream's own (m, dim) draw of ``uniform`` in turn, stacked and placed in the box in one pass.

    Stream j's rows are the points ``box.uniform(streams[j], sizes[j])`` gives.
    """
    return box.place(_stack([s.uniform((m, box.dim)) for s, m in zip(streams, sizes)]))


def _rejection_sample(stream, n, box, predicate) -> np.ndarray:
    """n points of the box accepted by the predicate, proposed uniformly, for one stream or each of a list of them.

    A list of streams gives their points stacked, as ``_reject`` stacks them.
    """
    source = "; body volume is negligible inside its bounding box"
    return _reject(_group(stream), n, box.dim, lambda ss, ms: _box_points(box, ss, ms), predicate, source, _rate_sized)


def _group(stream) -> list:
    """A list of streams, as given, or one stream as a group of one."""
    return [stream] if isinstance(stream, SampleStream) else list(stream)


def _direct_sampler(body: ConvexBody):
    """Return the body's exact sampler fn(stream, n) -> points, or None."""
    return body.sampler()


def _check_count(n: int) -> None:
    if n < 0:
        raise ValueError(f"sample count must be nonnegative, got {n}")


def sample_body(stream, body: ConvexBody, n: int) -> np.ndarray:
    """n points uniform in the body.

    A body whose ``sampler()`` is not None samples directly through it;
    everything else rejects from the bounding box. A Cut whose base samples
    directly rejects from the base sampler rather than the box, which keeps
    acceptance high for thin caps.

    ``stream`` is one SampleStream, or a list of G streams drawn as one
    group. For a group, n is a multiple of G and rows [i n/G, (i + 1) n/G)
    are the points ``sample_body(stream[i], body, n // G)`` gives, bit for
    bit: each stream draws what it draws alone, and rejection tests the
    group's proposals of a round together (``_reject``).
    """
    _check_count(n)
    streams = _group(stream)
    if not streams or n % len(streams):
        raise ValueError(f"{n} points do not split evenly over {len(streams)} streams")
    m = n // len(streams)
    if n == 0:
        return np.empty((0, body.dim))
    direct = _direct_sampler(body)
    if direct is not None:
        return _stack([direct(s, m) for s in streams])
    if isinstance(body, Cut):
        base_fn = _direct_sampler(body.base)
        if base_fn is not None:
            def propose(ss, sizes):
                return _stack([base_fn(s, size) for s, size in zip(ss, sizes)])

            accept = body.halfspace.contains_batch
            # sample_ball draws all normals, then all radii: its points depend on the round sizes
            return _reject(streams, m, body.dim, propose, accept, " from the base sampler", _rate_sized)
    box = bounding_box(body)
    if box.volume() <= 0:
        raise DegenerateBodyError("bounding box has zero volume")
    return _rejection_sample(streams, m, box, body.contains_batch)


def sample_slice(stream: SampleStream, body: ConvexBody, v, t: float, n: int) -> np.ndarray:
    """n points uniform on the hyperplane section {x in body : <v, x> = t}.

    Rejection from the section's own (d-1)-box in slice coordinates (see
    ``_slice_frame``), with membership tested on every proposal. The frame is
    built once per call, so a caller that needs many slice points draws them
    in one call. Raises DegenerateSliceError when the plane misses the body
    or the section has negligible (d-1)-volume.
    """
    _check_count(n)
    try:
        basis, box, anchor = _slice_frame(body, v, t)
        if box.volume() <= 0:
            raise DegenerateBodyError("the section's box has zero volume")
        coords = _rejection_sample(stream, n, box, lambda c: body.contains_batch(_on_plane(c, basis, anchor)))
    except DegenerateBodyError as err:
        raise DegenerateSliceError(
            f"slice at offset {t} has negligible measure: {err}"
        ) from err
    return _on_plane(coords, basis, anchor)


def _on_plane(coords: np.ndarray, basis: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """anchor + coords @ basis: the points of the plane at slice coordinates ``coords``."""
    pts = coords @ basis
    return _rowwise(np.add, pts, anchor, out=pts)


def _slice_frame(body: ConvexBody, v, t: float):
    """(basis, box, anchor): coordinates c on {<v, x> = t} map to anchor + c @ basis.

    The rows u_j of ``slice_basis(v)`` are orthogonal to v, so the anchor is
    t v and the slice coordinate c_j of x is <u_j, x>. The (d-1)-box is the
    section's extent, by the rule of the body's own box (``bodies._extent``):
    side j is ``body.support(u_j, cuts)`` with the plane pinned by the cuts
    <v, x> >= t and <-v, x> >= -t, in closed form or over the section's
    vertices; a side no wider than VERTEX_TOL gets zero width. Raises
    DegenerateBodyError where the plane misses the body (for a body with a
    HalfBallCone in it, where it misses the body with the cone's box in
    place of the cone).

    The last frame built is kept on the body instance with its (v, t), so
    a derivative formula, which asks for the same frame in ``slice_measure``
    and then in ``sample_slice``, solves it once. Bodies are immutable, so
    the kept frame stays exact.
    """
    if body.dim < 2:
        raise DimensionError("slices need ambient dimension >= 2")
    v = _unit(v)
    key = (v.tobytes(), t)
    kept = vars(body).get("_slice_frame")
    if kept is not None and kept[0] == key:
        return kept[1]
    frame = _exact_slice_frame(body, v, t)
    vars(body)["_slice_frame"] = (key, frame)
    return frame


def _exact_slice_frame(body: ConvexBody, v: np.ndarray, t: float):
    """The frame of ``_slice_frame`` for unit v, built afresh."""
    basis = slice_basis(v)
    plane = (Halfspace(v, t), Halfspace(-v, -t))
    lo, hi = _extent(body, basis, plane)
    # a section that is a point or an edge has sides of rounding width, or ends crossed by a rounding
    return basis, BoundingBox(lo, np.where(hi - lo > VERTEX_TOL, hi, lo)), t * v


def slice_measure(stream: SampleStream, body: ConvexBody, v, t: float, n: int) -> MomentEstimate:
    """Estimate the (d-1)-volume of the section {<v, x> = t} of the body.

    Monte Carlo in slice coordinates: the hit fraction of n uniform proposals
    in the section's box from ``_slice_frame`` times ``box.volume()``, with
    the binomial standard error. A plane that misses the body gives a zero
    estimate with zero standard error.

    The hits are counted in chunks of REJECTION_BATCH proposals, each one
    ``box.uniform`` draw. The chunks take the stream's words in the order
    one draw of n would, so the estimate is the one-draw estimate, bit for
    bit, while memory stays bounded at any n. n must be positive.
    """
    _check_count(n)
    if n == 0:
        raise ValueError("sample count must be positive, got 0")
    try:
        basis, box, anchor = _slice_frame(body, v, t)
    except DegenerateBodyError:
        return MomentEstimate(0.0, 0.0, n)
    hits = 0
    for start in range(0, n, REJECTION_BATCH):
        coords = box.uniform(stream, min(REJECTION_BATCH, n - start))
        hits += int(np.count_nonzero(body.contains_batch(_on_plane(coords, basis, anchor))))
    # hits / n is the exact count over n, rounded once, as the mean of the hit mask was
    return hit_or_miss(hits / n, n, box.volume())
