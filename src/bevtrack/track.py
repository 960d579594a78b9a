"""Tracklet decoding by aggregating detections with past forecasts.

Each frame's candidates are the current detections plus every buffered past
detection's forecast for this frame. Overlapping candidates are greedily
grouped and their boxes averaged; a group sustained only by forecasts coasts
through occlusion for a bounded number of frames. A frame-to-frame Hungarian
tracker over raw detections serves as the comparison baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geom import RotatedBox, iou
from .net import DetectionSet

LIVE = "live"
COASTING = "coasting"
MATCH_THR = 0.5  # IoU that joins a candidate to a group
SCORE_DECAY = 0.9  # per frame of a forecast's age
ASSOC_THR = 0.1  # least IoU of a Hungarian match


@dataclass
class TrackletFrame:
    """One record of the tracklet dump: a track's state at one frame."""

    frame: int
    track_id: int
    box: RotatedBox
    score: float
    status: str


@dataclass
class _Buffered:
    track_id: int
    boxes: list  # current + future boxes, as predicted at the buffered frame
    score: float


@dataclass
class _Candidate:
    box: RotatedBox
    score: float
    track_id: int  # -1 for fresh current detections
    age: int  # 0 for current detections, >= 1 for forecasts
    detection: object = None  # the originating Detection for current candidates


class TrackletDecoder:
    """Stateful per-stream decoder; ids are never reused, nor shared within a frame.

    Groups claim ids in score order: each takes the smallest of its buffered
    ids not yet claimed at the frame. A group left without one takes a new id
    if it holds a current detection and is dropped otherwise. A track coasts
    on forecasts alone for at most ``n_out - 1`` frames.
    """

    def __init__(self, n_out):
        self.n_out = n_out
        self._buffer = []  # (frame, [_Buffered])
        self._misses = {}
        self._next_id = 0

    def _new_id(self):
        tid = self._next_id
        self._next_id += 1
        return tid

    def step(self, detections: DetectionSet, frame):
        """Consume one frame; returns the tracklet records emitted at it."""
        candidates = []
        for det in detections.detections:
            candidates.append(
                _Candidate(box=det.boxes[0], score=det.score, track_id=-1, age=0, detection=det)
            )
        for past_frame, buffered in self._buffer:
            age = frame - past_frame
            for b in buffered:
                if 1 <= age < len(b.boxes):
                    candidates.append(
                        _Candidate(
                            box=b.boxes[age],
                            score=b.score * SCORE_DECAY**age,
                            track_id=b.track_id,
                            age=age,
                        )
                    )

        order = sorted(range(len(candidates)), key=lambda i: (-candidates[i].score, i))
        assigned = [False] * len(candidates)
        groups = []
        for i in order:
            if assigned[i]:
                continue
            group = [candidates[i]]
            assigned[i] = True
            for j in order:
                if not assigned[j] and iou(candidates[i].box, candidates[j].box) >= MATCH_THR:
                    group.append(candidates[j])
                    assigned[j] = True
            groups.append(group)

        emitted = []
        keep_buffered = []
        claimed = set()  # ids emitted at this frame; groups claim them in score order
        for group in groups:
            free = [c.track_id for c in group if c.track_id >= 0 and c.track_id not in claimed]
            has_current = any(c.age == 0 for c in group)
            if free:
                tid = min(free)
            elif has_current:
                tid = self._new_id()
            else:
                continue  # only repeats tracks already emitted at this frame
            box = _average_boxes([c.box for c in group])
            score = max(c.score for c in group)
            if has_current:
                self._misses[tid] = 0
                status = LIVE
            else:
                self._misses[tid] = self._misses.get(tid, 0) + 1
                if self._misses[tid] > self.n_out - 1:
                    continue
                status = COASTING
            claimed.add(tid)
            emitted.append(TrackletFrame(frame=frame, track_id=tid, box=box, score=score, status=status))
            for c in group:
                if c.age == 0:
                    keep_buffered.append(_Buffered(track_id=tid, boxes=c.detection.boxes, score=c.score))

        self._buffer.append((frame, keep_buffered))
        # keep only frames whose forecasts can still address a future frame
        self._buffer = [(f, b) for f, b in self._buffer if frame + 1 - f < self.n_out]
        # an id no longer buffered can never come back, so its miss count goes too
        buffered = {b.track_id for _f, bs in self._buffer for b in bs}
        self._misses = {tid: n for tid, n in self._misses.items() if tid in buffered}
        return emitted


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
            cost = np.ones((len(prev), len(dets)))
            for i, (_tid, pbox) in enumerate(prev):
                for j, det in enumerate(dets):
                    cost[i, j] = 1.0 - iou(pbox, det.boxes[0])
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
    records = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 9:
                raise ValueError(f"{path}:{lineno}: expected 9 fields, got {len(parts)}")
            frame, tid = int(parts[0]), int(parts[1])
            cx, cy, w, h, theta, score = (float(p) for p in parts[2:8])
            records.append(
                TrackletFrame(
                    frame=frame,
                    track_id=tid,
                    box=RotatedBox(cx, cy, w, h, theta),
                    score=score,
                    status=parts[8],
                )
            )
    return records
