"""Quasi-hyperbolic certificates for orbit segments and pseudo-orbits.

A segment of length n with a partition 0 = t_0 < ... < t_m = n is
quasi-hyperbolic at rate zeta when prefix-averaged E norms contract, the
suffix averages of F minimal norms anchored at the right end expand, and
each piece dominates at twice the rate.  The gap bound e is recorded from
the partition rather than imposed, so the certificate stays usable for
non-canonical partitions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cocycle import OrbitData
from .shadow import check_positive

__all__ = [
    "PartitionScheme",
    "canonical_partition",
    "QuasiHypCertificate",
    "check_quasi_hyperbolic",
    "check_qh_pseudo_orbit",
]


@dataclass(frozen=True)
class PartitionScheme:
    """Strictly increasing integer times from 0 to the segment length."""

    times: tuple

    def __post_init__(self):
        times = tuple(int(t) for t in self.times)
        object.__setattr__(self, "times", times)
        if len(times) < 2 or times[0] != 0:
            raise ValueError(f"partition must start at 0 with >= 2 times, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"partition times must strictly increase, got {times}")

    @property
    def n(self):
        return self.times[-1]

    @property
    def m(self):
        return len(self.times) - 1

    @property
    def gaps(self):
        return tuple(b - a for a, b in zip(self.times, self.times[1:]))

    @property
    def max_gap(self):
        return max(self.gaps)


def canonical_partition(n, k, K):
    """Partition with first gap kK+q, interior gaps K, last gap kK.

    Requires n >= 2kK.  Writing n = lK + q, the partition has m = l - 2k + 2
    pieces with interior times (k+i-1)K + q; every gap is at most (k+1)K.
    The remainder is taken positive (q = K rather than 0) whenever enough
    blocks remain, so the first piece absorbs a full extra block; n = 2kK
    keeps q = 0, the only representation with l >= 2k.
    """
    if k < 1 or K < 1:
        raise ValueError(f"need k >= 1 and K >= 1, got k={k}, K={K}")
    if n < 2 * k * K:
        raise ValueError(f"segment too short: n={n} < 2kK = {2 * k * K}")
    l, q = divmod(n, K)
    if q == 0 and l - 1 >= 2 * k:
        l, q = l - 1, K
    m = l - 2 * k + 2
    times = [0] + [(k + i - 1) * K + q for i in range(1, m)] + [n]
    return PartitionScheme(times=tuple(times))


@dataclass(frozen=True)
class QuasiHypCertificate:
    """Signed slacks of the three segment inequalities at rate zeta.

    slack_prefix[k-1] is the margin of the k-th prefix-averaged contraction
    bound, slack_suffix[k-1] of the k-th suffix-averaged expansion bound
    (anchored at t_m, read right to left), slack_ratio[j-1] of the per-piece
    domination bound.  e is the max partition gap; q_dim = dim E.
    """

    zeta: float
    e: int
    q_dim: int
    slack_prefix: tuple
    slack_suffix: tuple
    slack_ratio: tuple

    @property
    def passed(self):
        return all(
            s >= 0.0
            for s in self.slack_prefix + self.slack_suffix + self.slack_ratio
        )

    def to_dict(self):
        return {**asdict(self), "passed": self.passed}


def check_quasi_hyperbolic(system, x, n, splitting_at_x, zeta, partition):
    """Evaluate the three segment inequalities over the given partition.

    The splitting is re-evaluated at each orbit point (it must be
    Df-invariant); each piece's E and F log norms are measured between
    consecutive partition times.
    """
    check_positive("zeta", zeta)
    if partition.n != n:
        raise ValueError(f"partition covers {partition.n} steps, segment has {n}")
    times = np.asarray(partition.times)
    gaps = np.diff(times)
    data = OrbitData(system, np.asarray(x, dtype=float)[None, :], splitting_at_x,
                     n_fwd=n)
    a = data.block_logs("e", times[:-1], gaps)[:, 0]
    b = data.block_logs("f", times[:-1], gaps)[:, 0]

    prefix = np.cumsum(a) / times[1:]
    suffix = np.cumsum(b[::-1])[::-1] / (times[-1] - times[:-1])
    ratio = (a - b) / gaps
    return QuasiHypCertificate(
        zeta=zeta,
        e=int(partition.max_gap),
        q_dim=splitting_at_x.e_basis.shape[1],
        slack_prefix=tuple(-zeta - prefix),
        slack_suffix=tuple(suffix - zeta),
        slack_ratio=tuple(-2.0 * zeta - ratio),
    )


def check_qh_pseudo_orbit(system, pseudo, splitting, zeta, e, delta, k, K):
    """Pseudo-orbit check: every segment certified, every seam gap < delta.

    Each segment of the :class:`~pesinlab.shadow.PseudoOrbit` is checked
    from its first point against its canonical partition at (k, K); e
    defaults to (k+1)K, the canonical gap bound, and segments whose
    partition exceeds e fail; one given must be at least 1, since every
    partition has a gap.  The seams are ``pseudo.gaps``, so a periodic
    window's last seam wraps to the first segment; delta defaults to
    ``pseudo.delta``, and one given must be finite and positive.  Returns
    the report: ``passed``, and the first failing segment and the first
    seam at least delta, each None when none fails.
    """
    if e is None:
        e = (k + 1) * K
    elif not e >= 1:
        raise ValueError(f"e must be at least 1, got {e}")
    if delta is None:
        delta = pseudo.delta
    else:
        check_positive("delta", delta)
    certs = [check_quasi_hyperbolic(system, seg[0], n, splitting, zeta,
                                    canonical_partition(n, k, K))
             for seg, n in zip(pseudo.segments, pseudo.n_list)]
    seg_pass = [c.passed and c.e <= e for c in certs]
    gap_sizes = list(pseudo.gaps)

    failed_segment = next((i for i, ok in enumerate(seg_pass) if not ok), None)
    failed_seam = next((i for i, g in enumerate(gap_sizes) if not g < delta), None)
    return {
        "passed": failed_segment is None and failed_seam is None,
        "zeta": zeta,
        "e": int(e),
        "delta": delta,
        "segment_pass": seg_pass,
        "gaps": gap_sizes,
        "first_failed_segment": failed_segment,
        "first_failed_seam": failed_seam,
        "certificates": [c.to_dict() for c in certs],
    }

