"""Tracklet decoding by aggregating detections with past forecasts.

Each frame's candidates are the current detections plus every buffered past
detection's forecast for this frame. Overlapping candidates are greedily
grouped and their boxes averaged; a group sustained only by forecasts coasts
through occlusion for a bounded number of frames. Grouping only asks whether
an IoU reaches ``MATCH_THR``, so a frame clips, in one ``iou`` call, only the
pairs whose bounding circles meet and whose clip-free ``geom.iou_bound``
reaches it. A frame-to-frame Hungarian tracker over raw detections serves as
the comparison baseline; its solver, :func:`linear_sum_assignment`, also
serves CLEAR-MOT in ``metrics``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import BoxSet, RotatedBox, iou, iou_bound, near_pairs
from .net import DetectionSet

LIVE = "live"
COASTING = "coasting"
MATCH_THR = 0.5  # IoU that joins a candidate to a group
SCORE_DECAY = 0.9  # per frame of a forecast's age
ASSOC_THR = 0.1  # least IoU of a Hungarian match
BOUND_CHUNK = 2048  # pairs per iou_bound call, so its temporaries stay small


@dataclass
class TrackletFrame:
    """One record of the tracklet dump: a track's state at one frame."""

    frame: int
    track_id: int
    box: RotatedBox
    score: float
    status: str


class TrackletDecoder:
    """Stateful per-stream decoder; ids are never reused, nor shared within a frame.

    Frames must increase from one step to the next. Groups claim ids in score
    order: each takes the smallest of its buffered ids not yet claimed at the
    frame. A group left without one takes a new id if it holds a current
    detection and is dropped otherwise. Only live emissions buffer forecasts,
    so a track coasts only while one reaches the frame: at most ``n_out - 1``
    frames.
    """

    def __init__(self, n_out):
        self.n_out = n_out
        self._buffer = []  # (frame, track_id, boxes, score) of live emissions that reach ahead
        self._frame = None
        self._next_id = 0

    def step(self, detections: DetectionSet, frame):
        """Consume one frame; returns the tracklet records emitted at it.

        The candidates are ordered by score once, and each one's joins (the
        later candidates it overlaps at ``MATCH_THR`` or more) come from at
        most one ``iou`` call, over the pairs that :func:`_join_lists` leaves
        open. The best candidate not yet grouped then leads a group of its
        joins not yet grouped, in score order.
        """
        if self._frame is not None and frame <= self._frame:
            raise ValueError(f"frame {frame} does not come after frame {self._frame}")
        self._frame = frame
        # (box, score, buffered id or -1, boxes to buffer if a current detection else None)
        candidates = [(d.boxes[0], d.score, -1, d.boxes[: self.n_out]) for d in detections.detections]
        for past, tid, boxes, score in self._buffer:
            age = frame - past
            if age < len(boxes):  # a gap in the frames can pass a forecast's reach
                candidates.append((boxes[age], score * SCORE_DECAY**age, tid, None))

        order = np.argsort([-c[1] for c in candidates], kind="stable")
        candidates = [candidates[i] for i in order]
        joins = _join_lists([c[0] for c in candidates])
        grouped = [False] * len(candidates)
        claimed = set()  # ids emitted at this frame; groups claim them in score order
        emitted = []
        for i in range(len(candidates)):
            if grouped[i]:
                continue
            members = [i, *(j for j in joins[i] if not grouped[j])]
            for j in members:
                grouped[j] = True
            group = [candidates[j] for j in members]
            free = [tid for _box, _score, tid, _boxes in group if tid >= 0 and tid not in claimed]
            current = [(boxes, score) for _box, score, _tid, boxes in group if boxes is not None]
            if free:
                tid = min(free)
            elif current:
                tid = self._next_id
                self._next_id += 1
            else:
                continue  # only repeats tracks already emitted at this frame
            claimed.add(tid)
            emitted.append(TrackletFrame(
                frame=frame, track_id=tid, box=_average_boxes([c[0] for c in group]),
                score=max(c[1] for c in group), status=LIVE if current else COASTING,
            ))
            self._buffer.extend((frame, tid, boxes, score) for boxes, score in current)

        # keep the live emissions whose forecasts reach the next frame
        self._buffer = [e for e in self._buffer if frame + 1 - e[0] < len(e[2])]
        return emitted


def _join_lists(boxes):
    """For each of a frame's boxes, in score order, the later ones it overlaps at ``MATCH_THR`` or more, ascending.

    Only the pairs whose bounding circles may meet and whose clip-free bound
    reaches the threshold are clipped, in one ``iou`` call.
    """
    joins = [[] for _ in boxes]
    if len(boxes) < 2:
        return joins
    boxes = BoxSet(boxes)
    lead, other = near_pairs(boxes)
    open_ = np.zeros(len(lead), dtype=bool)
    for k in range(0, len(lead), BOUND_CHUNK):
        part = slice(k, k + BOUND_CHUNK)
        open_[part] = iou_bound(boxes[lead[part]], boxes[other[part]]) >= MATCH_THR
    lead, other = lead[open_], other[open_]
    if len(lead):
        joined = iou(boxes[lead], boxes[other]) >= MATCH_THR
        for i, j in sorted(zip(lead[joined].tolist(), other[joined].tolist())):
            joins[i].append(j)
    return joins


def _average_boxes(boxes):
    cx = sum(b.cx for b in boxes) / len(boxes)
    cy = sum(b.cy for b in boxes) / len(boxes)
    w = sum(b.w for b in boxes) / len(boxes)
    h = sum(b.h for b in boxes) / len(boxes)
    s = sum(math.sin(b.theta) for b in boxes)
    c = sum(math.cos(b.theta) for b in boxes)
    return RotatedBox(cx, cy, w, h, math.atan2(s, c))


def decode_tracklets(detection_sets, n_out):
    """Run the decoder over an ordered sequence of per-frame DetectionSets."""
    decoder = TrackletDecoder(n_out)
    records = []
    for ds in detection_sets:
        records.extend(decoder.step(ds, ds.frame))
    return records


def hungarian_track(detection_sets):
    """Frame-to-frame optimal assignment baseline over current boxes only.

    Cost is 1 - IoU; pairs below ``ASSOC_THR`` are rejected. Unmatched
    detections spawn new ids and unmatched tracks die immediately.
    """
    records = []
    prev = []  # (track_id, box)
    next_id = 0
    for ds in detection_sets:
        dets = ds.detections
        matches = {}
        if prev and dets:
            cost = 1.0 - iou(BoxSet([b for _tid, b in prev])[:, None], [d.boxes[0] for d in dets])
            rows, cols = linear_sum_assignment(cost)
            for i, j in zip(rows, cols):
                if 1.0 - cost[i, j] >= ASSOC_THR:
                    matches[j] = prev[i][0]
        current = []
        for j, det in enumerate(dets):
            tid = matches.get(j)
            if tid is None:
                tid = next_id
                next_id += 1
            current.append((tid, det.boxes[0]))
            records.append(
                TrackletFrame(frame=ds.frame, track_id=tid, box=det.boxes[0], score=det.score, status=LIVE)
            )
        prev = current
    return records


def linear_sum_assignment(cost):
    """Rows and columns of a minimum-cost assignment of a 2-D cost matrix.

    A port of scipy's ``linear_sum_assignment`` (Crouse's shortest
    augmenting path, "On implementing 2D rectangular assignment algorithms",
    IEEE TAES 2016) that makes scipy's choices among equally good matchings:
    every column scan, tie-break, dual update and reduced cost follows its
    ``rectangular_lsap`` in the same order. The smaller side is fully
    assigned, and the rows come back in ascending order. A non-finite cost
    raises ValueError.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ValueError(f"expected a 2-D cost matrix, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix holds a non-finite entry")
    transpose = cost.shape[1] < cost.shape[0]
    if transpose:
        cost = cost.T
    nr, nc = cost.shape
    u, v = np.zeros(nr), np.zeros(nc)  # dual variables
    spc = np.zeros(nc)  # each column's shortest path cost when the scan took it
    path = np.full(nc, -1, dtype=np.intp)
    col4row = np.full(nr, -1, dtype=np.intp)
    row4col = np.full(nc, -1, dtype=np.intp)
    for cur_row in range(nr):
        # the shortest augmenting path from cur_row to a free column; the
        # columns left to scan, their path costs and their duals share one order
        cols = np.arange(nc - 1, -1, -1)  # reversed, so a constant cost gives the identity
        costs = np.full(nc, np.inf)
        v_cols = v[cols]
        rows, taken = [], []
        n_left = nc
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink < 0:
            rows.append(i)
            left, c = cols[:n_left], costs[:n_left]
            r = ((min_val + cost[i, left]) - u[i]) - v_cols[:n_left]
            shorter = r < c
            path[left[shorter]] = i
            np.copyto(c, r, where=shorter)
            # the first minimum, unless a later tied column is free: then the last of those
            ties = (c == c.min()).nonzero()[0]
            index = ties[0]
            if len(ties) > 1:
                free = ties[1:][row4col[left[ties[1:]]] < 0]
                if len(free):
                    index = free[-1]
            min_val = c[index]
            j = left[index]
            spc[j] = min_val
            taken.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            n_left -= 1
            cols[index], costs[index], v_cols[index] = cols[n_left], costs[n_left], v_cols[n_left]
        # dual update
        u[cur_row] += min_val
        rows = np.array(rows[1:], dtype=np.intp)
        u[rows] += min_val - spc[col4row[rows]]
        taken = np.array(taken, dtype=np.intp)
        v[taken] -= min_val - spc[taken]
        # augment along the path
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


# ---------------------------------------------------------------------------
# tracklet dump schema: "frame id cx cy w h theta score status"


def dump_tracklets(records, path):
    with open(path, "w") as f:
        f.write("# frame track_id cx cy w h theta score status\n")
        for r in sorted(records, key=lambda r: (r.frame, r.track_id)):
            b = r.box
            f.write(
                f"{r.frame} {r.track_id} {b.cx:.9g} {b.cy:.9g} {b.w:.9g} {b.h:.9g} "
                f"{b.theta:.9g} {r.score:.9g} {r.status}\n"
            )


def load_tracklets(path):
    """Read a file written by :func:`dump_tracklets`.

    A line without 9 fields, an int frame and id, six finite numbers and a
    status of live or coasting raises ValueError naming ``path:line``.
    """
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                if len(parts) != 9:
                    raise ValueError(f"expected 9 fields, got {len(parts)}")
                frame, tid = int(parts[0]), int(parts[1])
                cx, cy, w, h, theta, score = values = [float(p) for p in parts[2:8]]
                if not all(math.isfinite(v) for v in values):
                    raise ValueError(f"box and score must be finite, got {values}")
                if parts[8] not in (LIVE, COASTING):
                    raise ValueError(f"status must be {LIVE} or {COASTING}, got {parts[8]!r}")
                box = RotatedBox(cx, cy, w, h, theta)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
            records.append(TrackletFrame(frame=frame, track_id=tid, box=box, score=score, status=parts[8]))
    return records
