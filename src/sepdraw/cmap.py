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

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalInvariantError
from .rotation import RotationSystem, edge_key

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
    parsers/generators; never mutate fields."""

    __slots__ = (
        "vkind",
        "vlabel",
        "vdarts",
        "scurve",
        "sidx",
        "curves",
        "_dvert",
        "_sigma",
        "_faces",
        "_face_of",
        "_real_by_label",
        "_meets",
    )

    def __init__(self, vkind, vlabel, vdarts, scurve, sidx, curves):
        self.vkind = tuple(vkind)
        self.vlabel = tuple(vlabel)
        self.vdarts = tuple(tuple(d) for d in vdarts)
        self.scurve = tuple(scurve)
        self.sidx = tuple(sidx)
        self.curves = tuple(curves)
        self._dvert = None
        self._sigma = None
        self._faces = None
        self._face_of = None
        self._real_by_label = None
        self._meets = None

    # -- basic accessors ---------------------------------------------------

    @property
    def n_darts(self):
        return 2 * len(self.scurve)

    def alpha(self, d: int) -> int:
        return d ^ 1

    def segment_of(self, d: int) -> int:
        return d >> 1

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
    def sigma(self):
        if self._sigma is None:
            sg = [-1] * self.n_darts
            for darts in self.vdarts:
                for i, d in enumerate(darts):
                    sg[d] = darts[(i + 1) % len(darts)]
            self._sigma = tuple(sg)
        return self._sigma

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

    def curves_at_cross(self, vid: int) -> tuple[int, int]:
        darts = self.vdarts[vid]
        return (self.scurve[darts[0] >> 1], self.scurve[darts[1] >> 1])

    @property
    def meets(self) -> dict[tuple[int, int], int]:
        """Number of crossing vertices per unordered curve pair ``(a, b)``
        with ``a <= b``; a pair that never meets is absent, and ``(a, a)``
        counts self-crossings of curve ``a``.  Shared by every caller;
        never mutate it."""
        if self._meets is None:
            meets: dict[tuple[int, int], int] = {}
            for vid, kind in enumerate(self.vkind):
                if kind == "cross":
                    a, b = self.curves_at_cross(vid)
                    k = (a, b) if a <= b else (b, a)
                    meets[k] = meets.get(k, 0) + 1
            self._meets = meets
        return self._meets

    # -- faces ---------------------------------------------------------------

    @property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        if self._faces is None:
            sg = self.sigma
            seen = [False] * self.n_darts
            out = []
            for d0 in range(self.n_darts):
                if seen[d0]:
                    continue
                orbit = []
                d = d0
                while not seen[d]:
                    seen[d] = True
                    orbit.append(d)
                    d = sg[d ^ 1]
                out.append(tuple(orbit))
            out.sort(key=lambda o: min(o))
            self._faces = tuple(out)
        return self._faces

    @property
    def face_of(self) -> tuple[int, ...]:
        if self._face_of is None:
            fo = [-1] * self.n_darts
            for fid, orbit in enumerate(self.faces):
                for d in orbit:
                    fo[d] = fid
            self._face_of = tuple(fo)
        return self._face_of

    def face_of_gap(self, g: int) -> int:
        """Face holding the corner clockwise-after dart ``g``.

        In a face orbit (..., d, phi(d), ...) the corner between the two
        boundary items is the gap after alpha(d), so gaps map to the face
        of their opposite dart.
        """
        return self.face_of[g ^ 1]

    def gaps_of_vertex(self, vid: int):
        return self.vdarts[vid]

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


def dual(m: CombinatorialMap):
    """Dual graph: one node per face, one arc per segment.

    Returns ``(n_faces, arcs)`` with arcs ``(face_a, face_b, segment,
    curve_id)``.
    """
    fo = m.face_of
    arcs = []
    for s, cid in enumerate(m.scurve):
        arcs.append((fo[2 * s], fo[2 * s + 1], s, cid))
    return len(m.faces), arcs


def dual_connected(m: CombinatorialMap) -> bool:
    n, arcs = dual(m)
    if n <= 1:
        return True
    adj = {i: set() for i in range(n)}
    for a, b, _, _ in arcs:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def is_connected(m: CombinatorialMap) -> bool:
    nv = len(m.vkind)
    if nv <= 1:
        return True
    adj = {i: set() for i in range(nv)}
    dv = m.dvert
    for s in range(len(m.scurve)):
        a, b = dv[2 * s], dv[2 * s + 1]
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == nv


# ---------------------------------------------------------------------------
# Mutable builder


class MapBuilder:
    """Mutable half-edge structure used to assemble and rewire maps.

    Rotations live in ``sigma``/``sprev`` (clockwise next/previous dart at
    the same vertex).  Segment s owns darts 2s (tail, toward the curve's
    start) and 2s+1 (head).  Dead segments keep their ids until
    :meth:`freeze` compacts everything into canonical order.
    """

    def __init__(self):
        self.vkind: list[str] = []
        self.vlabel: list[int | None] = []
        self.sigma: list[int] = []
        self.sprev: list[int] = []
        self.dvert: list[int] = []
        self.scurve: list[int] = []
        self.curves: list[list] = []  # [kind, u, v] ; kind None = dead
        self.csegs: list[list[int]] = []

    # -- construction primitives -------------------------------------------

    def new_vertex(self, kind: str, label: int | None = None) -> int:
        self.vkind.append(kind)
        self.vlabel.append(label)
        return len(self.vkind) - 1

    def new_curve(self, kind: str, u: int, v: int) -> int:
        self.curves.append([kind, u, v])
        self.csegs.append([])
        return len(self.curves) - 1

    def new_segment(self, cid: int) -> int:
        s = len(self.scurve)
        self.scurve.append(cid)
        self.sigma.extend((-1, -1))
        self.sprev.extend((-1, -1))
        self.dvert.extend((-1, -1))
        return s

    def attach_sole_dart(self, vid: int, d: int):
        self.dvert[d] = vid
        self.sigma[d] = d
        self.sprev[d] = d

    def insert_dart_after(self, g: int, d: int):
        """Insert dart d clockwise-after dart g (same vertex)."""
        self.dvert[d] = self.dvert[g]
        nxt = self.sigma[g]
        self.sigma[g] = d
        self.sprev[d] = g
        self.sigma[d] = nxt
        self.sprev[nxt] = d

    def set_rotation(self, vid: int, darts):
        darts = list(darts)
        for i, d in enumerate(darts):
            self.dvert[d] = vid
            self.sigma[d] = darts[(i + 1) % len(darts)]
            self.sprev[d] = darts[(i - 1) % len(darts)]

    def remove_dart(self, d: int):
        p, nxt = self.sprev[d], self.sigma[d]
        if nxt != d:
            self.sigma[p] = nxt
            self.sprev[nxt] = p
        self.sigma[d] = self.sprev[d] = self.dvert[d] = -1

    def replace_dart(self, old: int, new: int):
        """New dart takes old's angular slot."""
        vid = self.dvert[old]
        p, nxt = self.sprev[old], self.sigma[old]
        if nxt == old:
            self.attach_sole_dart(vid, new)
        else:
            self.dvert[new] = vid
            self.sigma[p] = new
            self.sprev[new] = p
            self.sigma[new] = nxt
            self.sprev[nxt] = new
        self.sigma[old] = self.sprev[old] = self.dvert[old] = -1

    def kill_segment(self, s: int):
        self.scurve[s] = -1

    def rotation_of(self, vid: int) -> list[int]:
        """Live darts at ``vid`` clockwise from its smallest one."""
        for d in range(len(self.dvert)):
            if self.dvert[d] == vid and self.scurve[d >> 1] >= 0:
                return self._cycle(d)
        return []

    def _cycle(self, anchor: int) -> list[int]:
        out = [anchor]
        d = self.sigma[anchor]
        while d != anchor:
            out.append(d)
            d = self.sigma[d]
        return out

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

    def clone(self) -> "MapBuilder":
        b = MapBuilder.__new__(MapBuilder)
        b.vkind = self.vkind.copy()
        b.vlabel = self.vlabel.copy()
        b.sigma = self.sigma.copy()
        b.sprev = self.sprev.copy()
        b.dvert = self.dvert.copy()
        b.scurve = self.scurve.copy()
        b.curves = [c.copy() for c in self.curves]
        b.csegs = [c.copy() for c in self.csegs]
        return b

    @classmethod
    def from_map(cls, m: CombinatorialMap) -> "MapBuilder":
        b = cls()
        b.vkind = list(m.vkind)
        b.vlabel = list(m.vlabel)
        b.scurve = list(m.scurve)
        b.curves = [[c.kind, c.u, c.v] for c in m.curves]
        b.csegs = [m.curve_segments(cid) for cid in range(len(m.curves))]
        nd = m.n_darts
        b.sigma = [-1] * nd
        b.sprev = [-1] * nd
        b.dvert = list(m.dvert)
        for darts in m.vdarts:
            for i, d in enumerate(darts):
                b.sigma[d] = darts[(i + 1) % len(darts)]
                b.sprev[d] = darts[(i - 1) % len(darts)]
        return b

    def freeze(self) -> CombinatorialMap:
        """Compact to an immutable map with canonical ids."""
        live_curves = [
            cid for cid, c in enumerate(self.curves) if c[0] is not None
        ]
        cmapid = {cid: i for i, cid in enumerate(live_curves)}
        seg_order = []
        for cid in live_curves:
            seg_order.extend(self.csegs[cid])
        smapid = {s: i for i, s in enumerate(seg_order)}

        def newdart(d):
            return 2 * smapid[d >> 1] + (d & 1)

        # live darts per vertex in one pass, smallest first
        at = [[] for _ in self.vkind]
        for d, v in enumerate(self.dvert):
            if v >= 0 and self.scurve[d >> 1] >= 0:
                at[v].append(d)

        # Vertices: real sorted by label, then crossings by incident segments.
        real = [
            (self.vlabel[v], v)
            for v, k in enumerate(self.vkind)
            if k == "real"
        ]
        real.sort()
        cross = []
        for v, k in enumerate(self.vkind):
            if k != "real":
                incid = sorted(
                    smapid[d >> 1] for d in at[v] if (d >> 1) in smapid
                )
                if incid:
                    cross.append((tuple(incid), v))
        cross.sort()
        vorder = [v for _, v in real] + [v for _, v in cross]

        vdarts = []
        for v in vorder:
            if not at[v]:
                vdarts.append(())
                continue
            rot = [newdart(d) for d in self._cycle(at[v][0])]
            k = rot.index(min(rot))
            vdarts.append(tuple(rot[k:] + rot[:k]))

        scurve = []
        sidx = []
        for cid in live_curves:
            for i, s in enumerate(self.csegs[cid]):
                assert smapid[s] == len(scurve)
                scurve.append(cmapid[cid])
                sidx.append(i)
        curves = tuple(
            Curve(self.curves[cid][0], self.curves[cid][1], self.curves[cid][2])
            for cid in live_curves
        )
        return CombinatorialMap(
            [self.vkind[v] for v in vorder],
            [self.vlabel[v] for v in vorder],
            vdarts,
            scurve,
            sidx,
            curves,
        )


# ---------------------------------------------------------------------------
# Validation


def validate_map(m: CombinatorialMap, strict: bool = True) -> list[str]:
    """Check all structural and simplicity invariants.

    Returns a list of violation descriptions (empty means valid).  With
    ``strict`` false, multiple intersections between two *inserted* curves
    are tolerated; the completion fix-up loop relies on that intermediate
    state.
    """
    v = []
    nseg = len(m.scurve)
    nd = 2 * nseg

    # dart bookkeeping
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
        return v

    # curve chains
    by_curve: dict[int, list[int]] = {c: [] for c in range(len(m.curves))}
    for s, c in enumerate(m.scurve):
        if not 0 <= c < len(m.curves):
            v.append(f"segment {s} references unknown curve {c}")
            return v
        by_curve[c].append(s)
    for cid, segs in by_curve.items():
        cur = m.curves[cid]
        if not segs:
            v.append(f"curve {cid} has no segments")
            continue
        segs.sort(key=lambda s: m.sidx[s])
        if [m.sidx[s] for s in segs] != list(range(len(segs))):
            v.append(f"curve {cid} has non-consecutive segment indices")
            continue
        for a, b in zip(segs, segs[1:]):
            mid1, mid2 = owned[2 * a + 1], owned[2 * b]
            if mid1 != mid2:
                v.append(f"curve {cid} chain broken between {a} and {b}")
            elif m.vkind[mid1] != "cross":
                v.append(f"curve {cid} passes through a real vertex {mid1}")
        t, h = owned[2 * segs[0]], owned[2 * segs[-1] + 1]
        for endv, want in ((t, cur.u), (h, cur.v)):
            if m.vkind[endv] != "real" or m.vlabel[endv] != want:
                v.append(
                    f"curve {cid} does not end at real vertex {want}"
                )

    # vertices
    for vid, darts in enumerate(m.vdarts):
        if m.vkind[vid] == "real":
            if not darts:
                v.append(f"real vertex {vid} is isolated (unsupported)")
            for d in darts:
                s = d >> 1
                cid = m.scurve[s]
                segs = by_curve[cid]
                is_end = (d == 2 * segs[0]) or (d == 2 * segs[-1] + 1)
                if not is_end:
                    v.append(
                        f"dart {d} at real vertex {vid} is not a curve end"
                    )
        elif m.vkind[vid] == "cross":
            if len(darts) != 4:
                v.append(f"cross vertex {vid} has degree {len(darts)} != 4")
                continue
            cs = [m.scurve[d >> 1] for d in darts]
            if cs[0] != cs[2] or cs[1] != cs[3] or cs[0] == cs[1]:
                v.append(
                    f"cross vertex {vid} lacks two alternating distinct "
                    f"curves: {cs}"
                )
                continue
            for da, db in ((darts[0], darts[2]), (darts[1], darts[3])):
                ia, ib = m.sidx[da >> 1], m.sidx[db >> 1]
                if abs(ia - ib) != 1:
                    v.append(
                        f"cross vertex {vid}: curve {m.scurve[da >> 1]} "
                        f"segments not consecutive ({ia},{ib})"
                    )
        else:
            v.append(f"vertex {vid} has unknown kind {m.vkind[vid]}")

    if v:
        return v

    # Euler formula per connected component (sphere pieces)
    comp = list(range(len(m.vkind)))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for s in range(nseg):
        a, b = find(owned[2 * s]), find(owned[2 * s + 1])
        if a != b:
            comp[a] = b
    faces_per = {}
    for orbit in m.faces:
        faces_per.setdefault(find(owned[orbit[0]]), 0)
        faces_per[find(owned[orbit[0]])] += 1
    verts_per: dict[int, int] = {}
    segs_per: dict[int, int] = {}
    for vid in range(len(m.vkind)):
        verts_per[find(vid)] = verts_per.get(find(vid), 0) + 1
    for s in range(nseg):
        r = find(owned[2 * s])
        segs_per[r] = segs_per.get(r, 0) + 1
    for root, nv in verts_per.items():
        ne = segs_per.get(root, 0)
        nf = faces_per.get(root, 0)
        if nv - ne + nf != 2:
            v.append(
                f"component at vertex {root} violates the sphere Euler "
                f"formula: V={nv} E={ne} F={nf}"
            )

    # simplicity between drawn curves
    meet = m.meets
    drawn = [
        cid
        for cid, c in enumerate(m.curves)
        if c.kind in DRAWN_KINDS
    ]
    seen_edges = {}
    for cid in drawn:
        e = m.curves[cid].edge()
        if e in seen_edges:
            v.append(f"edge {e} drawn twice (curves {seen_edges[e]},{cid})")
        seen_edges[e] = cid
    for i, a in enumerate(drawn):
        for b in drawn[i + 1 :]:
            if not strict and (
                m.curves[a].kind == INSERTED or m.curves[b].kind == INSERTED
            ):
                continue
            shared = len(set(m.curves[a].edge()) & set(m.curves[b].edge()))
            total = shared + meet.get((a, b), 0)
            if total > 1:
                v.append(
                    f"curves {m.curves[a].edge()} and {m.curves[b].edge()} "
                    f"share {total} points"
                )

    # witness invariants (against original drawn edges)
    for cid, c in enumerate(m.curves):
        if c.kind != WITNESS:
            continue
        err = _witness_violation(m, cid, seen_edges)
        if err:
            v.append(err)
    return v


def _witness_violation(m, wid, edge_curve_of) -> str | None:
    w = m.curves[wid]
    e = w.edge()
    eid = edge_curve_of.get(e)
    if eid is None or m.curves[eid].kind != EDGE:
        return f"witness for {e} has no underlying edge curve"
    meet = m.meets
    if meet.get((min(wid, eid), max(wid, eid)), 0) > 0:
        return f"witness for {e} crosses its own edge"
    for f, fid in edge_curve_of.items():
        if m.curves[fid].kind != EDGE or fid == eid:
            continue
        shared = len(set(e) & set(f))
        total = (
            shared
            + meet.get((min(eid, fid), max(eid, fid)), 0)
            + meet.get((min(wid, fid), max(wid, fid)), 0)
        )
        if total > 1:
            return (
                f"closed curve of {e} meets edge {f} in {total} points"
            )
    return None


def validate_witness(m: CombinatorialMap, e) -> bool:
    """Whether the stored witness arc for edge ``e`` is valid."""
    e = edge_key(*e)
    edge_curve_of = {
        c.edge(): cid for cid, c in enumerate(m.curves) if c.kind == EDGE
    }
    for cid, c in enumerate(m.curves):
        if c.kind == WITNESS and c.edge() == e:
            return _witness_violation(m, cid, edge_curve_of) is None
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


def crossing_pairs_of_map(m: CombinatorialMap, kinds=DRAWN_KINDS):
    """Unordered crossing pairs of drawn edges read off the planarization."""
    out = set()
    for a, b in m.meets:
        ca, cb = m.curves[a], m.curves[b]
        if ca.kind in kinds and cb.kind in kinds:
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
    have = {c.edge() for c in m.curves if c.kind in DRAWN_KINDS}
    if have != want:
        raise InputError(
            "underlying graph is not complete on its real vertices"
        )
    rows = []
    for lab in labels:
        vid = m.real_by_label[lab]
        row = []
        for d in m.vdarts[vid]:
            c = m.curves[m.scurve[d >> 1]]
            if c.kind not in DRAWN_KINDS:
                continue
            row.append(c.u if c.v == lab else c.v)
        rows.append(tuple(row))
    return RotationSystem(n, rows)


# ---------------------------------------------------------------------------
# Two-page book drawings


def from_two_page(order, edges, pages, witnesses: bool = True):
    """Combinatorial map of a 2-page book drawing.

    ``order`` lists the vertex labels along the spine; each edge is drawn
    as a half-circle on its assigned page ('upper' or 'lower'); two chords
    on one page cross exactly when their spine intervals interleave.  Each
    edge's witness arc is its mirrored half-circle on the opposite page.

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
        pages = [pages[e] for e in edges]
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
    vid_of = {}
    for lab in sorted(order):
        vid_of[lab] = b.new_vertex("real", lab)

    # curve records: edges then mirrored witnesses
    specs = []  # (cid, page, label_u, label_v)
    for (u, v), page in zip(edges, pages):
        specs.append((b.new_curve(EDGE, u, v), page, u, v))
    if witnesses:
        for (u, v), page in zip(edges, pages):
            other = "lower" if page == "upper" else "upper"
            specs.append((b.new_curve(WITNESS, u, v), other, u, v))

    def interval(spec):
        _, _, u, v = spec
        return (min(pos[u], pos[v]), max(pos[u], pos[v]))

    # crossing events per curve, keyed by the exact x coordinate of the
    # crossing point.  Three or more half-circles can pass through one
    # point; such ties are broken by symbolically scaling every curve's
    # height by (1 + eps*cid), which shifts the crossing of curves i, j
    # along x by a positive multiple of (t_i - t_j)/(m_j - m_i), an exact
    # rational shared by both curves (so the orders stay consistent).
    events = {cid: [] for cid, _, _, _ in specs}
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            ci, pi, *_ = specs[i]
            cj, pj, *_ = specs[j]
            if pi != pj:
                continue
            a1, b1 = interval(specs[i])
            a2, b2 = interval(specs[j])
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                x = Fraction(a1 * b1 - a2 * b2, (a1 + b1) - (a2 + b2))
                tie = Fraction(ci - cj, (a2 + b2) - (a1 + b1))
                xv = b.new_vertex("cross")
                events[ci].append(((x, tie), xv, cj))
                events[cj].append(((x, tie), xv, ci))

    # build chains; remember, per crossing vertex, the darts of each curve
    # on the small-position and large-position sides
    side_darts = {}  # (xv, cid) -> {'small': dart, 'big': dart}
    end_darts = {}  # (cid, label) -> dart at that real endpoint
    for cid, page, u, v in specs:
        ev = sorted(events[cid], key=lambda t: t[0])
        ascending = pos[u] < pos[v]
        if not ascending:
            ev.reverse()
        segs = [b.new_segment(cid) for _ in range(len(ev) + 1)]
        b.csegs[cid] = segs
        b.dvert[2 * segs[0]] = vid_of[u]
        b.dvert[2 * segs[-1] + 1] = vid_of[v]
        end_darts[(cid, u)] = 2 * segs[0]
        end_darts[(cid, v)] = 2 * segs[-1] + 1
        for k, (_, xv, _) in enumerate(ev):
            back = 2 * segs[k] + 1
            fwd = 2 * segs[k + 1]
            b.dvert[back] = xv
            b.dvert[fwd] = xv
            if ascending:
                side_darts[(xv, cid)] = {"small": back, "big": fwd}
            else:
                side_darts[(xv, cid)] = {"small": fwd, "big": back}

    # rotations at crossing vertices
    for i in range(len(specs)):
        for j in range(i + 1, len(specs)):
            ci, pi, *_ = specs[i]
            cj, pj, *_ = specs[j]
            for x, xv, other in events[ci]:
                if other != cj:
                    continue
                a1, b1 = interval(specs[i])
                a2, b2 = interval(specs[j])
                # A = curve with the smaller left endpoint
                if a1 < a2:
                    A, B = ci, cj
                else:
                    A, B = cj, ci
                if pi == "upper":
                    rot = (
                        side_darts[(xv, A)]["big"],
                        side_darts[(xv, B)]["big"],
                        side_darts[(xv, A)]["small"],
                        side_darts[(xv, B)]["small"],
                    )
                else:
                    rot = (
                        side_darts[(xv, A)]["big"],
                        side_darts[(xv, B)]["small"],
                        side_darts[(xv, A)]["small"],
                        side_darts[(xv, B)]["big"],
                    )
                b.set_rotation(xv, rot)

    # rotations at spine vertices: upper-left asc, lower-left desc,
    # lower-right desc, upper-right asc (by the other endpoint's position)
    for lab in order:
        p = pos[lab]
        ul, ll, lr, ur = [], [], [], []
        for cid, page, u, v in specs:
            if lab not in (u, v):
                continue
            q = pos[v] if u == lab else pos[u]
            d = end_darts[(cid, lab)]
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
                int(toks[1])
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
            # a dart listed twice would leave a rotation cycle that never
            # closes, and building the map would not terminate
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
