"""Combinatorial maps: planarizations of drawings on the sphere.

A map stores darts paired into segments (alpha is dart^1), a clockwise
rotation at every planarization vertex (real graph vertices and
degree-4 crossing vertices), and a curve table.  Every curve is a drawn
graph edge, a witness arc attached to some edge, or an edge inserted by
the completion algorithms; a curve is chained from consecutively
indexed segments.

Faces are the orbits of sigma o alpha.  The face carrying a dart lies to
the right of the dart's direction; the corner gap clockwise-after dart
``g`` belongs to the face carrying ``alpha(g)``.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, repeat
from operator import eq, invert, itemgetter, ne, sub

from .errors import InputError, InternalInvariantError
from .rotation import RotationSystem, _roll_min, edge_key

EDGE = "edge"
WITNESS = "witness"
INSERTED = "inserted"
DRAWN_KINDS = (EDGE, INSERTED)


@dataclass(frozen=True)
class Curve:
    kind: str
    u: int
    v: int

    def edge(self):
        return edge_key(self.u, self.v)


class CombinatorialMap:
    """Immutable planarization.  Build via :class:`MapBuilder` or the
    parsers/generators; never mutate fields.

    A map made by :meth:`MapBuilder.freeze` is marked as laid out the way
    ``freeze`` lays maps out, which :func:`routing.with_route` relies on;
    the mark is not part of the map's value."""

    __slots__ = (
        "vkind",
        "vlabel",
        "vdarts",
        "scurve",
        "sidx",
        "curves",
        "_dvert",
        "_faces",
        "_face_of",
        "_real_by_label",
        "_meets",
        "_meeting",
        "_frozen",
    )

    def __init__(self, vkind, vlabel, vdarts, scurve, sidx, curves):
        self.vkind = tuple(vkind)
        self.vlabel = tuple(vlabel)
        self.vdarts = tuple(tuple(d) for d in vdarts)
        self.scurve = tuple(scurve)
        self.sidx = tuple(sidx)
        self.curves = tuple(curves)
        self._dvert = None
        self._faces = None
        self._face_of = None
        self._real_by_label = None
        self._meets = None
        self._meeting = None
        self._frozen = False

    # -- basic accessors ---------------------------------------------------

    @property
    def n_darts(self):
        return 2 * len(self.scurve)

    @property
    def dvert(self):
        if self._dvert is None:
            dv = [-1] * self.n_darts
            for vid, darts in enumerate(self.vdarts):
                for d in darts:
                    dv[d] = vid
            self._dvert = tuple(dv)
        return self._dvert

    @property
    def real_by_label(self) -> dict[int, int]:
        if self._real_by_label is None:
            self._real_by_label = {
                lab: vid
                for vid, (k, lab) in enumerate(zip(self.vkind, self.vlabel))
                if k == "real"
            }
        return self._real_by_label

    def real_labels(self):
        return sorted(self.real_by_label)

    def curve_segments(self, cid: int) -> list[int]:
        segs = [s for s, c in enumerate(self.scurve) if c == cid]
        segs.sort(key=lambda s: self.sidx[s])
        return segs

    def curve_points(self, cid: int) -> list[int]:
        """Vertex chain of a curve: endpoint, crossings..., endpoint."""
        segs = self.curve_segments(cid)
        pts = [self.dvert[2 * segs[0]]]
        pts += [self.dvert[2 * s + 1] for s in segs]
        return pts

    @property
    def meets(self) -> dict[tuple[int, int], int]:
        """Number of crossing vertices per unordered curve pair ``(a, b)``
        with ``a <= b``; a pair that never meets is absent, and ``(a, a)``
        counts self-crossings of curve ``a``.  Shared by every caller;
        never mutate it."""
        if self._meets is None:
            meets: dict[tuple[int, int], int] = {}
            scurve = self.scurve
            for kind, darts in zip(self.vkind, self.vdarts):
                if kind == "cross":
                    a, b = scurve[darts[0] >> 1], scurve[darts[1] >> 1]
                    k = (a, b) if a <= b else (b, a)
                    meets[k] = meets.get(k, 0) + 1
            self._meets = meets
        return self._meets

    @property
    def meeting(self) -> tuple[tuple[int, ...], ...]:
        """Per curve, the other curves it shares a crossing vertex with,
        ascending: its neighbours in :attr:`meets`.  Shared by every
        caller."""
        if self._meeting is None:
            nb: list[list[int]] = [[] for _ in self.curves]
            for a, b in self.meets:
                if a != b:
                    nb[a].append(b)
                    nb[b].append(a)
            self._meeting = tuple(tuple(sorted(x)) for x in nb)
        return self._meeting

    def shared_points(self, a: int, b: int) -> int:
        """Points curves ``a`` and ``b`` share: their common endpoints
        plus the crossing vertices they meet in."""
        ca, cb = self.curves[a], self.curves[b]
        ends = (cb.u, cb.v)
        return (
            (ca.u in ends)
            + (ca.v in ends)
            + self.meets.get((a, b) if a <= b else (b, a), 0)
        )

    # -- faces ---------------------------------------------------------------

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The orbits of sigma o alpha, each from its smallest dart, in
        order of that dart; the walk fills :attr:`face_of` too."""
        if self._faces is None:
            # phi[d] = sigma(alpha(d)), the dart after d on its face; the
            # walk overwrites each dart's entry with ~(its face id), so a
            # negative entry marks a dart already seen
            phi = [-1] * self.n_darts
            for darts in self.vdarts:
                if darts:
                    prev = darts[-1]
                    for d in darts:
                        phi[prev ^ 1] = d
                        prev = d
            out = []
            for d0 in range(self.n_darts):
                if phi[d0] < 0:
                    continue
                orbit = []
                mark = ~len(out)
                d = d0
                while (nxt := phi[d]) >= 0:
                    phi[d] = mark
                    orbit.append(d)
                    d = nxt
                out.append(tuple(orbit))
            self._faces = tuple(out)
            self._face_of = tuple(map(invert, phi))
        return self._faces

    @property
    def face_of(self) -> tuple[int, ...]:
        """The face id of each dart, filled by the :attr:`faces` walk."""
        if self._face_of is None:
            self.faces  # its walk fills _face_of
        return self._face_of

    def __eq__(self, other):
        return isinstance(other, CombinatorialMap) and (
            self.vkind,
            self.vlabel,
            self.vdarts,
            self.scurve,
            self.sidx,
            self.curves,
        ) == (
            other.vkind,
            other.vlabel,
            other.vdarts,
            other.scurve,
            other.sidx,
            other.curves,
        )

    def __hash__(self):
        return hash((self.vdarts, self.scurve, self.curves))

    def __repr__(self):
        nreal = sum(1 for k in self.vkind if k == "real")
        ncross = len(self.vkind) - nreal
        return (
            f"<CombinatorialMap real={nreal} cross={ncross} "
            f"curves={len(self.curves)}>"
        )


def is_connected(m: CombinatorialMap) -> bool:
    """Whether the planarization of ``m`` is connected, which ``m`` must
    pass :func:`validate_map` for: each component of a valid map is a
    sphere map with V - E + F = 2, so the sums over c components give
    2c."""
    return len(m.vkind) - len(m.scurve) + len(m.faces) == 2


# ---------------------------------------------------------------------------
# Mutable builder


class MapBuilder:
    """Mutable half-edge structure used to assemble and rewire maps.

    As in a map, ``rot[v]`` lists the darts at vertex v in clockwise
    order and ``dvert`` names each dart's vertex (-1 when it is at none).
    Segment s owns darts 2s (tail, toward the curve's start) and 2s+1
    (head).  Dead segments keep their ids until :meth:`freeze` compacts
    everything into canonical order.
    """

    def __init__(self):
        self.vkind: list[str] = []
        self.vlabel: list[int | None] = []
        self.rot: list[list[int]] = []
        self.dvert: list[int] = []
        self.scurve: list[int] = []
        self.curves: list[Curve] = []
        self.csegs: list[list[int]] = []

    # -- construction primitives -------------------------------------------

    def new_vertex(self, kind: str, label: int | None = None) -> int:
        self.vkind.append(kind)
        self.vlabel.append(label)
        self.rot.append([])
        return len(self.vkind) - 1

    def new_curve(self, kind: str, u: int, v: int) -> int:
        self.curves.append(Curve(kind, u, v))
        self.csegs.append([])
        return len(self.curves) - 1

    def new_segment(self, cid: int) -> int:
        s = len(self.scurve)
        self.scurve.append(cid)
        self.dvert.extend((-1, -1))
        return s

    def insert_dart_after(self, g: int, d: int):
        """Insert dart d clockwise-after dart g (same vertex)."""
        vid = self.dvert[d] = self.dvert[g]
        rot = self.rot[vid]
        rot.insert(rot.index(g) + 1, d)

    def set_rotation(self, vid: int, darts):
        self.rot[vid] = darts = list(darts)
        for d in darts:
            self.dvert[d] = vid

    def remove_dart(self, d: int):
        self.rot[self.dvert[d]].remove(d)
        self.dvert[d] = -1

    def replace_dart(self, old: int, new: int):
        """New dart takes old's angular slot."""
        vid = self.dvert[new] = self.dvert[old]
        rot = self.rot[vid]
        rot[rot.index(old)] = new
        self.dvert[old] = -1

    def kill_segment(self, s: int):
        self.scurve[s] = -1

    def curve_points(self, cid: int) -> list[int]:
        """Vertex chain of a live curve: endpoint, crossings..., endpoint
        (as :meth:`CombinatorialMap.curve_points`)."""
        segs = self.csegs[cid]
        pts = [self.dvert[2 * segs[0]]]
        pts += [self.dvert[2 * s + 1] for s in segs]
        return pts

    # -- surgery -------------------------------------------------------------

    def split_segment(self, s: int, xvid: int):
        """Split segment s at a new interior vertex.

        Returns (s1, s2, replacements): s1 spans tail..x, s2 spans x..head.
        The darts of s1/s2 at ``xvid`` are left unattached; the caller must
        set the rotation of ``xvid``.  ``replacements`` maps the two retired
        darts of s to their successors at the far endpoints.
        """
        cid = self.scurve[s]
        s1 = self.new_segment(cid)
        s2 = self.new_segment(cid)
        self.replace_dart(2 * s, 2 * s1)
        self.replace_dart(2 * s + 1, 2 * s2 + 1)
        self.dvert[2 * s1 + 1] = xvid
        self.dvert[2 * s2] = xvid
        self.kill_segment(s)
        chain = self.csegs[cid]
        k = chain.index(s)
        chain[k : k + 1] = [s1, s2]
        return s1, s2, {2 * s: 2 * s1, 2 * s + 1: 2 * s2 + 1}

    def merge_segments(self, sa: int, da: int, sb: int, db: int, cid: int):
        """Merge two segments that meet at a vertex into one fresh segment.

        ``da``/``db`` are their darts at the shared vertex; the fresh
        segment runs from sa's far end (tail) to sb's far end (head) and is
        assigned to curve ``cid``.  Chain lists are NOT updated here.
        """
        far_a = da ^ 1
        far_b = db ^ 1
        s = self.new_segment(cid)
        self.replace_dart(far_a, 2 * s)
        self.replace_dart(far_b, 2 * s + 1)
        self.remove_dart(da)
        self.remove_dart(db)
        self.kill_segment(sa)
        self.kill_segment(sb)
        return s

    @classmethod
    def from_map(cls, m: CombinatorialMap) -> "MapBuilder":
        b = cls()
        b.vkind = list(m.vkind)
        b.vlabel = list(m.vlabel)
        b.scurve = list(m.scurve)
        b.curves = list(m.curves)
        # every curve's chain from one pass: bucket by curve, sort by index
        b.csegs = [[] for _ in m.curves]
        for s, cid in enumerate(m.scurve):
            b.csegs[cid].append(s)
        for segs in b.csegs:
            segs.sort(key=m.sidx.__getitem__)
        b.rot = list(map(list, m.vdarts))
        b.dvert = list(m.dvert)
        return b

    def freeze(self) -> CombinatorialMap:
        """Compact to an immutable map with canonical ids.

        Curves keep their order and their chains are numbered segment
        by segment, so new segment ids run along the chains.
        Real vertices come first, sorted by label; then the crossing
        vertices that keep a live dart, sorted by their incident
        segments.  Every rotation starts at its smallest dart.
        """
        vkind = self.vkind
        # dmap: new dart of each old dart on a chain, else -1
        dmap = [-1] * len(self.dvert)
        scurve = []
        sidx = []
        new = 0
        for i, segs in enumerate(self.csegs):
            for s in segs:
                dmap[2 * s] = new
                dmap[2 * s + 1] = new + 1
                new += 2
            scurve += [i] * len(segs)
            sidx += range(len(segs))

        # each rotation in new darts, as the map will hold it
        rots = [_roll_min([dmap[d] for d in rot]) for rot in self.rot]
        real = []
        cross = []
        for v, kind in enumerate(vkind):
            if kind == "real":
                real.append((self.vlabel[v], v))
            elif rots[v]:
                cross.append((sorted([d >> 1 for d in rots[v]]), v))
        real.sort()
        cross.sort()
        vorder = [v for _, v in real] + [v for _, v in cross]
        return _frozen_map(
            [vkind[v] for v in vorder],
            [self.vlabel[v] for v in vorder],
            [rots[v] for v in vorder],
            scurve,
            sidx,
            self.curves,
        )


def _frozen_map(vkind, vlabel, vdarts, scurve, sidx, curves):
    """The map of these fields, marked as laid out the way
    :meth:`MapBuilder.freeze` lays maps out: curves in order, each curve's
    segments one run in chain order, real vertices first by label, then
    the crossings by their incident segments, and every rotation from its
    smallest dart.  Only ``freeze`` and :func:`routing.with_route`, whose
    maps are laid out so, call it."""
    m = CombinatorialMap(vkind, vlabel, vdarts, scurve, sidx, curves)
    m._frozen = True
    return m


# ---------------------------------------------------------------------------
# Validation


def validate_map(m: CombinatorialMap, strict: bool = True) -> list[str]:
    """Check all structural and simplicity invariants.

    Returns a list of violation descriptions (empty means valid).  With
    ``strict`` false, a pair of drawn curves of which at least one is an
    *inserted* curve is not checked for repeated intersections; the
    completion fix-up loop relies on that intermediate state.

    Two distinct edges share at most one endpoint.  So a pair of drawn
    curves can share more than one point (see
    :meth:`CombinatorialMap.shared_points`) only if the two
    meet (the pair is in :attr:`CombinatorialMap.meets`) or draw the same
    edge, and the closed curve of edge e (its edge curve plus its witness
    arc) can meet another edge f more than once only if f's curve meets
    one of the two.  The simplicity and witness checks visit only those
    pairs, so every check is linear in darts plus meeting pairs.

    Each section but the Euler check first tests the whole map in a few
    passes over its arrays, as :meth:`MapBuilder.freeze` lays them out.
    Those passes name nothing: when one finds a fault, or the map is laid
    out otherwise, the section's per-element loop runs, and it alone
    names the violations (the ``_check_*`` helpers below, and
    :func:`_witness_violation` for each witness arc), in the order the
    loop finds them.
    """
    v = []
    owned = _check_darts(m, v)
    if owned is None:
        return v
    ends = _check_chains(m, owned, v)
    if ends is None:
        return v
    _check_vertices(m, ends, v)
    if v:
        return v

    # Euler formula per connected component (sphere pieces), each named
    # in the messages by its union-find root
    nseg = len(m.scurve)
    comp = list(range(len(m.vkind)))
    for a, b in zip(owned[0::2], owned[1::2]):
        while comp[a] != a:  # path halving
            comp[a] = a = comp[comp[a]]
        while comp[b] != b:
            comp[b] = b = comp[comp[b]]
        if a != b:
            comp[a] = b
    roots = [x for x, r in enumerate(comp) if x == r]
    if len(roots) == 1:
        pieces = {roots[0]: (len(comp), nseg, len(m.faces))}
    else:
        for x, r in enumerate(comp):  # point every vertex at its root
            while comp[r] != r:
                r = comp[r]
            comp[x] = r
        segs_per = Counter(comp[a] for a in owned[0::2])
        faces_per = Counter(comp[owned[orbit[0]]] for orbit in m.faces)
        pieces = {r: (nv, segs_per[r], faces_per[r])
                  for r, nv in Counter(comp).items()}
    for r, (nv, ne, nf) in pieces.items():
        if nv - ne + nf != 2:
            v.append(
                f"component at vertex {r} violates the sphere Euler "
                f"formula: V={nv} E={ne} F={nf}"
            )

    # simplicity between drawn curves: meeting pairs and repeated edges
    curves = m.curves
    edges = [c.edge() for c in curves]
    drawn = [c.kind in DRAWN_KINDS for c in curves]
    edge_curve_of = {}
    copies: dict[tuple[int, int], list[int]] = {}
    for cid, e in enumerate(edges):
        if not drawn[cid]:
            continue
        if e in edge_curve_of:
            v.append(f"edge {e} drawn twice (curves {edge_curve_of[e]},{cid})")
        edge_curve_of[e] = cid
        copies.setdefault(e, []).append(cid)
    _check_simple(m, strict, edges, drawn, copies, v)

    # witness invariants (against original drawn edges)
    _check_witnesses(m, edges, edge_curve_of, v)
    return v


def _pick(seq, idx) -> tuple:
    """``tuple(seq[i] for i in idx)`` in one call."""
    return itemgetter(*idx)(seq) if len(idx) > 1 else tuple(seq[i] for i in idx)


def _check_darts(m, v) -> tuple | list | None:
    """The vertex of each dart, after naming in ``v`` the darts listed out
    of range or twice; None when a dart is at no vertex.

    When exactly ``m.n_darts`` darts are listed, all in range, and
    ``m.dvert`` leaves none out, each is listed once and ``m.dvert`` is
    the table."""
    nd = m.n_darts
    listed = list(chain.from_iterable(m.vdarts))
    if len(listed) == nd and (
        not listed or min(listed) >= 0 and max(listed) < nd
    ) and -1 not in m.dvert:
        return m.dvert
    owned = [-1] * nd
    for vid, darts in enumerate(m.vdarts):
        for d in darts:
            if not 0 <= d < nd:
                v.append(f"vertex {vid} lists unknown dart {d}")
                continue
            if owned[d] != -1:
                v.append(f"dart {d} appears at two vertices")
            owned[d] = vid
    missing = [d for d in range(nd) if owned[d] == -1]
    if missing:
        v.append(f"darts not attached to any vertex: {missing}")
        return None
    return owned


def _check_chains(m, owned, v) -> set | None:
    """Each curve's first tail dart and last head dart, after naming in
    ``v`` the faults of the curves' chains; None when a segment names an
    unknown curve.

    ``freeze`` lays each chain out as one run of segments in index order:
    a chain's joints pair the head of each segment but its curve's last
    with the tail of the next, and its ends are the runs' ends."""
    scurve, sidx, vkind, curves = m.scurve, m.sidx, m.vkind, m.curves
    nseg, nc = len(scurve), len(curves)
    size = Counter(scurve)
    unknown = [c for c in size if not 0 <= c < nc]
    if unknown:
        s = min(map(scurve.index, unknown))
        v.append(f"segment {s} references unknown curve {scurve[s]}")
        return None
    sizes = [size[c] for c in range(nc)]
    if (
        0 not in sizes
        and scurve == tuple(chain.from_iterable(map(repeat, range(nc), sizes)))
        and sidx == tuple(chain.from_iterable(map(range, sizes)))
    ):
        starts = list(accumulate(sizes, initial=0))
        ends = [2 * s for s in starts[:-1]] + [2 * s - 1 for s in starts[1:]]
        heads = owned[1::2]
        at = _pick(owned, ends)  # each curve's tail vertex, then head ones
        if (
            set(starts).issuperset(
                compress(range(1, nseg), map(ne, heads, owned[2::2]))
            )
            and _pick(vkind, at).count("real") == len(at)
            and _pick(vkind, heads).count("cross") == nseg - nc
            and _pick(m.vlabel, at)
            == tuple(c.u for c in curves) + tuple(c.v for c in curves)
        ):
            return set(ends)

    # each segment sits at its index in its curve's chain, so a chain
    # keeps a hole exactly when its indices are not 0..k-1
    chains = [[-1] * size[c] for c in range(nc)]
    for s, (c, i) in enumerate(zip(scurve, sidx)):
        if 0 <= i < len(chains[c]):
            chains[c][i] = s
    ends = set()
    for cid, (segs, cur) in enumerate(zip(chains, curves)):
        if not segs:
            v.append(f"curve {cid} has no segments")
            continue
        if -1 in segs:  # ends as if sorted stably by index
            segs = [s for s, c in enumerate(scurve) if c == cid]
            ends.add(2 * min(segs, key=sidx.__getitem__))
            ends.add(2 * max(reversed(segs), key=sidx.__getitem__) + 1)
            v.append(f"curve {cid} has non-consecutive segment indices")
            continue
        ends.update((2 * segs[0], 2 * segs[-1] + 1))
        for a, b in zip(segs, segs[1:]):
            mid1, mid2 = owned[2 * a + 1], owned[2 * b]
            if mid1 != mid2:
                v.append(f"curve {cid} chain broken between {a} and {b}")
            elif vkind[mid1] != "cross":
                v.append(f"curve {cid} passes through a real vertex {mid1}")
        t, h = owned[2 * segs[0]], owned[2 * segs[-1] + 1]
        for endv, want in ((t, cur.u), (h, cur.v)):
            if vkind[endv] != "real" or m.vlabel[endv] != want:
                v.append(f"curve {cid} does not end at real vertex {want}")
    return ends


def _check_vertices(m, ends, v) -> None:
    """Name in ``v`` the faults of the vertices, given the curves' end
    darts ``ends``.

    ``freeze`` puts the real vertices first; each crossing's four darts,
    gathered once, are checked in stride-4 slices."""
    scurve, sidx, vkind, vdarts = m.scurve, m.sidx, m.vkind, m.vdarts
    nreal = vkind.count("real")
    real, cross = vdarts[:nreal], vdarts[nreal:]
    if (
        nreal + vkind.count("cross") == len(vkind)
        and "real" not in vkind[nreal:]
        and all(real)
        and len(set(m.vlabel[:nreal])) == nreal
        and m.vlabel[nreal:].count(None) == len(vkind) - nreal
        and ends.issuperset(chain.from_iterable(real))
        and {4}.issuperset(map(len, cross))
    ):
        segs = [d >> 1 for d in chain.from_iterable(cross)]
        cs, ix = _pick(scurve, segs), _pick(sidx, segs)
        if (
            cs[0::4] == cs[2::4]
            and cs[1::4] == cs[3::4]
            and not any(map(eq, cs[0::4], cs[1::4]))
            and {1, -1}.issuperset(map(sub, ix[0::4], ix[2::4]))
            and {1, -1}.issuperset(map(sub, ix[1::4], ix[3::4]))
        ):
            return

    first = {}  # label -> the first real vertex carrying it
    for vid, (kind, darts) in enumerate(zip(vkind, vdarts)):
        if kind == "real":
            lab = m.vlabel[vid]
            if first.setdefault(lab, vid) != vid:
                v.append(
                    f"real vertex {vid} repeats the label {lab} of real "
                    f"vertex {first[lab]}"
                )
            if not darts:
                v.append(f"real vertex {vid} is isolated (unsupported)")
            for d in darts:
                if d not in ends:
                    v.append(
                        f"dart {d} at real vertex {vid} is not a curve end"
                    )
        elif kind == "cross":
            if m.vlabel[vid] is not None:
                v.append(f"cross vertex {vid} carries label {m.vlabel[vid]}")
            if len(darts) != 4:
                v.append(f"cross vertex {vid} has degree {len(darts)} != 4")
                continue
            cs = [scurve[d >> 1] for d in darts]
            if cs[0] != cs[2] or cs[1] != cs[3] or cs[0] == cs[1]:
                v.append(
                    f"cross vertex {vid} lacks two alternating distinct "
                    f"curves: {cs}"
                )
                continue
            for da, db in ((darts[0], darts[2]), (darts[1], darts[3])):
                ia, ib = sidx[da >> 1], sidx[db >> 1]
                if abs(ia - ib) != 1:
                    v.append(
                        f"cross vertex {vid}: curve {scurve[da >> 1]} "
                        f"segments not consecutive ({ia},{ib})"
                    )
        else:
            v.append(f"vertex {vid} has unknown kind {kind}")


def _check_simple(m, strict, edges, drawn, copies, v) -> None:
    """Name in ``v`` the pairs of drawn curves that share two or more
    points; ``copies`` lists the drawn curves of each edge.

    With no edge drawn twice, a pair shares two points only if it meets
    twice, or meets once and shares an endpoint: one read of ``meets``
    tests that."""
    curves, meet = m.curves, m.meets
    if len(copies) == sum(drawn):
        checked = drawn if strict else [c.kind == EDGE for c in curves]
        for (a, b), k in meet.items():
            if a != b and checked[a] and checked[b]:
                x, y = edges[a]
                if k > 1 or x in edges[b] or y in edges[b]:
                    break
        else:
            return

    pairs = {(a, b) for a, b in meet if a != b and drawn[a] and drawn[b]}
    for group in copies.values():
        pairs.update(combinations(group, 2))
    for a, b in sorted(pairs):
        if not strict and (
            curves[a].kind == INSERTED or curves[b].kind == INSERTED
        ):
            continue
        total = m.shared_points(a, b)
        if total > 1:
            v.append(f"curves {edges[a]} and {edges[b]} share {total} points")


def _check_witnesses(m, edges, edge_curve_of, v) -> None:
    """Name in ``v`` the first violation of each witness arc.

    Against a witness arc of edge e, :func:`_witness_violation` counts
    the edges f for which ``edge_curve_of`` names an edge curve.  The arc
    holds when e's own curve is one, the arc does not cross it, and each
    such f meets the two at most once in all.  That is so when every
    meeting of a named edge curve with another one or with a witness arc
    is one crossing away from the other's endpoints, and no named edge
    curve meets both an arc and the arc's own edge: one read of
    ``meets`` tests that."""
    curves, meet = m.curves, m.meets
    wits = [cid for cid, c in enumerate(curves) if c.kind == WITNESS]
    if not wits:
        return
    named = [False] * len(curves)
    for fid in edge_curve_of.values():
        named[fid] = curves[fid].kind == EDGE
    own = [None] * len(curves)  # each witness arc's edge curve
    for w in wits:
        eid = edge_curve_of.get(edges[w])
        if eid is None or not named[eid] or (min(w, eid), max(w, eid)) in meet:
            break
        own[w] = eid
    else:
        for (a, b), k in meet.items():
            if a == b:
                continue
            if named[a]:
                f, x = a, b
            elif named[b]:
                f, x = b, a
            else:
                continue
            eid = own[x]
            if eid is None and not named[x]:
                continue
            p, q = edges[x]
            if k > 1 or p in edges[f] or q in edges[f]:
                break
            if eid is not None and ((eid, f) if eid < f else (f, eid)) in meet:
                break
        else:
            return

    for cid in wits:
        err = _witness_violation(m, cid, edge_curve_of, edges)
        if err:
            v.append(err)


def require_valid_map(m: CombinatorialMap, strict: bool = True) -> None:
    """Raise :class:`InputError` naming the first violation that
    :func:`validate_map` reports."""
    bad = validate_map(m, strict)
    if bad:
        raise InputError(f"input map invalid: {bad[0]}")


def _witness_violation(m, wid, edge_curve_of, edges) -> str | None:
    """First violation of witness ``wid`` against the edges of
    ``edge_curve_of`` (edge -> curve id), whose iteration order decides
    which offending edge is named; ``edges`` lists every curve's edge."""
    e = edges[wid]
    eid = edge_curve_of.get(e)
    if eid is None or m.curves[eid].kind != EDGE:
        return f"witness for {e} has no underlying edge curve"
    meet = m.meets
    if meet.get((min(wid, eid), max(wid, eid)), 0) > 0:
        return f"witness for {e} crosses its own edge"
    totals = {}
    for fid in {*m.meeting[eid], *m.meeting[wid]}:
        f = edges[fid]
        if (
            fid == eid
            or edge_curve_of.get(f) != fid
            or m.curves[fid].kind != EDGE
        ):
            continue
        total = m.shared_points(eid, fid) + meet.get(
            (wid, fid) if wid < fid else (fid, wid), 0
        )
        if total > 1:
            totals[f] = total
    if not totals:
        return None
    f = next(f for f in edge_curve_of if f in totals)
    return f"closed curve of {e} meets edge {f} in {totals[f]} points"


def validate_witness(m: CombinatorialMap, e) -> bool:
    """Whether the stored witness arc for edge ``e`` is valid."""
    e = edge_key(*e)
    edges = [c.edge() for c in m.curves]
    edge_curve_of = {
        edges[cid]: cid for cid, c in enumerate(m.curves) if c.kind == EDGE
    }
    for cid, c in enumerate(m.curves):
        if c.kind == WITNESS and edges[cid] == e:
            return _witness_violation(m, cid, edge_curve_of, edges) is None
    return False


@dataclass(frozen=True)
class WitnessSet:
    """Witness curve ids per drawn edge."""

    by_edge: dict

    def complete_for(self, m: CombinatorialMap) -> bool:
        edges = {c.edge() for c in m.curves if c.kind == EDGE}
        return set(self.by_edge) == edges


def witness_set(m: CombinatorialMap) -> WitnessSet:
    by_edge = {}
    for cid, c in enumerate(m.curves):
        if c.kind == WITNESS:
            by_edge[c.edge()] = cid
    return WitnessSet(by_edge)


def crossing_pairs_of_map(m: CombinatorialMap):
    """Unordered crossing pairs of drawn edges read off the planarization."""
    out = set()
    for a, b in m.meets:
        ca, cb = m.curves[a], m.curves[b]
        if ca.kind in DRAWN_KINDS and cb.kind in DRAWN_KINDS:
            ea, eb = ca.edge(), cb.edge()
            out.add((ea, eb) if ea <= eb else (eb, ea))
    return out


def extract_rotation_system(m: CombinatorialMap) -> RotationSystem:
    """Rotation system of the drawn complete graph (witness arcs ignored)."""
    labels = m.real_labels()
    n = len(labels)
    if labels != list(range(1, n + 1)):
        raise InputError(f"real vertex labels must be 1..n, got {labels}")
    want = {(u, u2) for u in labels for u2 in labels if u < u2}
    if drawn_edges(m) != want:
        raise InputError(
            "underlying graph is not complete on its real vertices"
        )
    return RotationSystem(n, [drawn_rotation(m, lab) for lab in labels])


def drawn_edges(m: CombinatorialMap) -> set[tuple[int, int]]:
    """Edges drawn by the map's edge and inserted curves."""
    return {c.edge() for c in m.curves if c.kind in DRAWN_KINDS}


def drawn_rotation(m: CombinatorialMap, label: int) -> tuple[int, ...]:
    """Neighbours of real vertex ``label`` in clockwise order of its
    drawn curves (witness arcs skipped)."""
    row = []
    for d in m.vdarts[m.real_by_label[label]]:
        c = m.curves[m.scurve[d >> 1]]
        if c.kind in DRAWN_KINDS:
            row.append(c.u if c.v == label else c.v)
    return tuple(row)


# ---------------------------------------------------------------------------
# Two-page book drawings


def from_two_page(order, edges, pages, witnesses: bool = True):
    """Combinatorial map of a 2-page book drawing.

    ``order`` lists the vertex labels along the spine; each edge is drawn
    as a half-circle on its assigned page ('upper' or 'lower'); two chords
    on one page cross exactly when their spine intervals interleave.  Each
    edge's witness arc is its mirrored half-circle on the opposite page.
    ``pages`` is a list with one page per edge, or a dict keyed by edges
    in either endpoint order.

    Returns ``(map, witness_set)``.
    """
    order = list(order)
    if len(set(order)) != len(order):
        raise InputError("spine order contains repeated labels")
    pos = {lab: i for i, lab in enumerate(order)}
    edges = [edge_key(*e) for e in edges]
    if len(set(edges)) != len(edges):
        raise InputError("duplicate edges")
    if isinstance(pages, dict):
        pages = [_page_of(pages, u, v) for u, v in edges]
    pages = list(pages)
    if len(pages) != len(edges) or any(
        p not in ("upper", "lower") for p in pages
    ):
        raise InputError("need one page ('upper'|'lower') per edge")
    for u, v in edges:
        if u not in pos or v not in pos:
            raise InputError(f"edge ({u},{v}) uses a label not on the spine")
    touched = {x for e in edges for x in e}
    for lab in order:
        if lab not in touched:
            raise InputError(f"vertex {lab} has no incident edges")

    b = MapBuilder()
    vid_of = {lab: b.new_vertex("real", lab) for lab in sorted(order)}

    # curve records: edges then mirrored witnesses, indexed by curve id
    specs = [(EDGE, page, u, v) for (u, v), page in zip(edges, pages)]
    if witnesses:
        specs += [
            (WITNESS, "lower" if page == "upper" else "upper", u, v)
            for _, page, u, v in specs
        ]
    on_page = {"upper": [], "lower": []}  # page -> [(cid, left, right)]
    rank = []  # cid -> its place in its page's list
    for cid, (kind, page, u, v) in enumerate(specs):
        b.new_curve(kind, u, v)
        rank.append(len(on_page[page]))
        on_page[page].append((cid, *sorted((pos[u], pos[v]))))

    # Crossing k is vertex len(order) + k, and its rotation fills slots
    # 4k..4k+3 of ``crot``.  A is the curve with the smaller left end:
    # its darts toward the big and the small spine position take slots 0
    # and 2; B's take slots 1 and 3 on the upper page, 3 and 1 on the
    # lower.  Per curve, the slot offsets of its darts toward its start
    # and toward its end, when it is A and when it is B:
    as_a, as_b = [], []
    for _, page, u, v in specs:
        ascending = pos[u] < pos[v]
        as_a.append((2, 0) if ascending else (0, 2))
        as_b.append((3, 1) if ascending == (page == "upper") else (1, 3))

    # Crossing events per curve, keyed by the exact x coordinate of the
    # crossing point.  Three or more half-circles can pass through one
    # point; such ties are broken by symbolically scaling every curve's
    # height by (1 + eps*cid), which shifts the crossing of curves i, j
    # along x by a positive multiple of (t_i - t_j)/(m_j - m_i), an exact
    # rational shared by both curves (so the orders stay consistent).
    # Both rationals have the denominator (a1+b1) - (a2+b2), below 2n in
    # absolute value, so scaled by lcm(1..2n) they are exact integers.  A
    # key tied on both is ordered by crossing, so by the other curve's id.
    n = len(order)
    scale = math.lcm(*range(1, 2 * n + 1))
    step = {d: scale // d for d in range(1 - 2 * n, 2 * n) if d}
    events = [[] for _ in specs]  # cid -> [(x, tie, start slot, end slot)]
    slots = 0
    for ci, (_, page, _, _) in enumerate(specs):
        row = on_page[page]
        _, a1, b1 = row[rank[ci]]
        s1, p1 = a1 + b1, a1 * b1
        for cj, a2, b2 in row[rank[ci] + 1 :]:
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                q = step[s1 - a2 - b2]
                x = (p1 - a2 * b2) * q
                tie = (cj - ci) * q
                if a1 < a2:
                    (i0, i1), (j0, j1) = as_a[ci], as_b[cj]
                else:
                    (i0, i1), (j0, j1) = as_b[ci], as_a[cj]
                events[ci].append((x, tie, slots + i0, slots + i1))
                events[cj].append((x, tie, slots + j0, slots + j1))
                slots += 4

    # chains: each curve's segments in one run from its start u to its
    # end v, and each crossing dart in its slot
    crot = [0] * slots
    ends = {lab: [] for lab in order}  # label -> [(page, far pos, dart)]
    for cid, (_, page, u, v) in enumerate(specs):
        ev = events[cid]
        ev.sort()
        if pos[u] > pos[v]:
            ev.reverse()
        s = len(b.scurve)
        b.csegs[cid] = list(range(s, s + len(ev) + 1))
        b.scurve += repeat(cid, len(ev) + 1)
        b.dvert += repeat(-1, 2 * len(ev) + 2)
        back = 2 * s + 1
        for _, _, start, end in ev:
            crot[start] = back
            crot[end] = back + 1
            back += 2
        ends[u].append((page, pos[v], 2 * s))
        ends[v].append((page, pos[u], back))
    for k in range(0, slots, 4):
        b.set_rotation(b.new_vertex("cross"), crot[k : k + 4])

    # rotations at spine vertices: upper-left asc, lower-left desc,
    # lower-right desc, upper-right asc (by the other endpoint's position)
    for lab in order:
        p = pos[lab]
        ul, ll, lr, ur = [], [], [], []
        for page, q, d in ends[lab]:
            if page == "upper" and q < p:
                ul.append((q, d))
            elif page == "lower" and q < p:
                ll.append((q, d))
            elif page == "lower":
                lr.append((q, d))
            else:
                ur.append((q, d))
        rot = (
            [d for _, d in sorted(ul)]
            + [d for _, d in sorted(ll, reverse=True)]
            + [d for _, d in sorted(lr, reverse=True)]
            + [d for _, d in sorted(ur)]
        )
        b.set_rotation(vid_of[lab], rot)

    m = b.freeze()
    bad = validate_map(m)
    if bad:
        raise InternalInvariantError(
            f"two-page construction produced an invalid map: {bad[:3]}"
        )
    return m, witness_set(m)


def _page_of(pages: dict, u: int, v: int) -> str:
    """The page that ``pages`` gives edge (u, v), keyed in either order."""
    given = [pages[k] for k in ((u, v), (v, u)) if k in pages]
    if not given:
        raise InputError(f"no page given for edge ({u},{v})")
    if given[0] != given[-1]:
        raise InputError(f"edge ({u},{v}) is given two pages")
    return given[0]


# ---------------------------------------------------------------------------
# Text format


def serialize_cmap(m: CombinatorialMap) -> str:
    lines = ["cmap v1"]
    nreal = sum(1 for k in m.vkind if k == "real")
    lines.append(f"real {nreal}")
    for vid, darts in enumerate(m.vdarts):
        dl = " ".join(str(d) for d in darts)
        if m.vkind[vid] == "real":
            lines.append(f"vertex {vid} real {m.vlabel[vid]} : {dl}")
        else:
            lines.append(f"vertex {vid} cross : {dl}")
    for s in range(len(m.scurve)):
        lines.append(
            f"segment {2 * s} {2 * s + 1} curve {m.scurve[s]} idx {m.sidx[s]}"
        )
    for cid, c in enumerate(m.curves):
        lines.append(f"curve {cid} {c.kind} {c.u}-{c.v}")
    return "\n".join(lines) + "\n"


def parse_cmap(text: str) -> CombinatorialMap:
    verts = {}  # vid -> (kind, label, dart list)
    segs = {}  # file seg position -> (dA, dB, cid, idx)
    curvedefs = {}
    declared = []  # the counts on 'real' lines
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        try:
            if toks[0] == "cmap":
                if toks[1] != "v1":
                    raise InputError(f"unsupported cmap version {toks[1]}")
                header_seen = True
            elif toks[0] == "real":
                declared.append(int(toks[1]))
            elif toks[0] == "vertex":
                vid = int(toks[1])
                if toks[2] == "real":
                    label = int(toks[3])
                    rest = toks[4:]
                    kind = "real"
                else:
                    label = None
                    rest = toks[3:]
                    kind = "cross"
                if not rest or rest[0] != ":":
                    raise InputError("missing ':' in vertex line")
                darts = tuple(int(t) for t in rest[1:])
                if vid in verts:
                    raise InputError(f"duplicate vertex id {vid}")
                verts[vid] = (kind, label, darts)
            elif toks[0] == "segment":
                da, db = int(toks[1]), int(toks[2])
                if toks[3] != "curve" or toks[5] != "idx":
                    raise InputError("bad segment line")
                cid, idx = int(toks[4]), int(toks[6])
                segs[len(segs)] = (da, db, cid, idx)
            elif toks[0] == "curve":
                cid = int(toks[1])
                kind = toks[2]
                if kind not in (EDGE, WITNESS, INSERTED):
                    raise InputError(f"unknown curve kind {kind}")
                u, _, v = toks[3].partition("-")
                u, v = int(u), int(v)
                if u == v:
                    raise InputError(f"degenerate curve {u}-{v}")
                # endpoint order encodes the chain direction; keep it
                curvedefs[cid] = Curve(kind, u, v)
            else:
                raise InputError(f"unknown directive {toks[0]}")
        except (IndexError, ValueError) as exc:
            raise InputError(f"cmap line {lineno}: {raw!r}: {exc}") from None
    if not header_seen:
        raise InputError("missing 'cmap v1' header")
    if sorted(curvedefs) != list(range(len(curvedefs))):
        raise InputError("curve ids must be 0..k-1")
    nreal = sum(kind == "real" for kind, _, _ in verts.values())
    for k in declared:
        if k != nreal:
            raise InputError(f"'real {k}' but {nreal} real vertex lines")

    # renumber into builder form; file dart ids are arbitrary but must be
    # consistent between vertex and segment lines
    b = MapBuilder()
    vmap = {}
    for vid in sorted(verts):
        kind, label, _ = verts[vid]
        vmap[vid] = b.new_vertex(kind, label)
    for cid in range(len(curvedefs)):
        c = curvedefs[cid]
        b.new_curve(c.kind, c.u, c.v)
    dmap = {}
    chains = {cid: [] for cid in range(len(curvedefs))}
    for _, (da, db, cid, idx) in sorted(segs.items()):
        if cid not in curvedefs:
            raise InputError(f"segment references unknown curve {cid}")
        s = b.new_segment(cid)
        for old, new in ((da, 2 * s), (db, 2 * s + 1)):
            if old in dmap:
                raise InputError(f"dart {old} used by two segments")
            dmap[old] = new
        chains[cid].append((idx, s))
    for cid, items in chains.items():
        items.sort()
        if [i for i, _ in items] != list(range(len(items))):
            raise InputError(f"curve {cid} has non-consecutive indices")
        b.csegs[cid] = [s for _, s in items]
    for vid, (kind, label, darts) in verts.items():
        try:
            rot = [dmap[d] for d in darts]
        except KeyError as exc:
            raise InputError(
                f"vertex {vid} lists dart {exc.args[0]} not in any segment"
            ) from None
        if not rot:
            raise InputError(f"vertex {vid} has no darts")
        for d in darts:
            # a dart has one place in one rotation, so it is listed once
            if b.dvert[dmap[d]] != -1:
                raise InputError(f"dart {d} is listed twice in the rotations")
            b.dvert[dmap[d]] = vmap[vid]
        b.set_rotation(vmap[vid], rot)
    if len(dmap) != 2 * len(segs):
        raise InputError("dart bookkeeping mismatch")
    if -1 in b.dvert:
        d = b.dvert.index(-1)
        raise InputError(f"dart {d} not attached to any vertex")
    return b.freeze()
