"""The benchmark's workloads: inputs made from a seed, a set-up, a step, checks.

Every call into bevtrack goes through a module attribute (``sim.import_dataset``,
``net.decode``, ``T.backward`` ...) so that the traced run can replace it.
A workload's ``__init__`` makes its inputs (not timed), ``setup`` is the
program's own preparation up to and including a warm-up step (timed as
``setup_s``), ``step`` is one timed operation, ``record`` keeps what the
checks need after each step (not timed) and ``check``, once the timed
steps are over, returns the problems found and the number of operations
counted as failed.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from bevtrack import net, pipeline, sim, track, train, voxel
from bevtrack import tensor as T
from bevtrack.metrics import EvalConfig
from bevtrack.net import HeadOutput, ModelConfig
from bevtrack.sim import SimConfig
from bevtrack.train import GtObject, TrainConfig
from bevtrack.voxel import GridSpec

import checks

N_IN = N_OUT = 5
WIDTHS = (8, 16, 32, 64)
GRID_C05 = GridSpec((-12.0, 12.0), (-8.0, 8.0), (0.0, 1.6), 0.2)  # 120 x 80 x 8
GRID_DEFAULT = GridSpec((-24.0, 24.0), (-16.0, 16.0), (0.0, 1.6), 0.2)  # 240 x 160 x 8


def late_fusion(grid):
    return ModelConfig(grid=grid, n_in=N_IN, n_out=N_OUT, fusion="late", widths=WIDTHS)


class TrainC05:
    """Training iterations at the c05 configuration, on the c05 scene.

    The scene is the one acceptance criterion c05 overfits (sim seed 0); the
    benchmark's seed draws the initial weights, the sample order and the
    gradient check's direction. A seeded scene would change the vehicle
    count, and with it the cost of target assignment in set-up, from run to run.
    """

    name = "train-c05"
    frames_per_step = 2  # training samples consumed per iteration (batch 2)
    round_size = 1
    LOSS_WINDOW = 10  # iterations averaged at each end for the loss-decrease check

    def __init__(self, seed, workdir):
        self.seed = seed
        self.mcfg = late_fusion(GRID_C05)
        # iterations only places the lr milestones, beyond any run's reach
        self.tcfg = TrainConfig(iterations=1200, lr=1e-3, batch_size=2, seed=seed)
        scene = SimConfig(
            seed=0, duration=32, n_vehicles=(2, 3), spawn_x=(-8, 8), spawn_y=(-5, 5),
            speed=(0.0, 3.0), vehicle_width=(1.5, 2.5), vehicle_length=(3.0, 5.0),
            max_spawn_retries=500,
        )
        self.path = workdir / f"train-c05-seed{seed}.jsonl"
        sim.export_dataset(sim.generate_dataset(scene), self.path)
        self.files = [self.path]

    def setup(self):
        ds = sim.import_dataset(self.path)
        samples, _ = sim.make_samples(ds, GRID_C05, N_IN, N_OUT)
        model = net.Model(self.mcfg, seed=self.seed)
        anchors = net.build_anchors(self.mcfg)
        assignments = [
            train.assign_targets(anchors, s.objects, N_OUT, self.tcfg.iou_match_thr)
            for s in samples
        ]
        st = SimpleNamespace(
            samples=samples, model=model, assignments=assignments, adam=T.AdamState(),
            rng=np.random.default_rng(self.seed), order=[], it=0, losses=[],
        )
        self.step(st)
        return st

    def step(self, st):
        cfg = self.tcfg
        grads = {}
        total = 0.0
        for _ in range(cfg.batch_size):
            if not st.order:
                st.order = list(st.rng.permutation(len(st.samples)))
            idx = st.order.pop()
            tape = T.Tape()
            _, cls_t, reg_t = st.model.forward(voxel.InputTensor(st.samples[idx].occupancy), tape=tape)
            loss, comps = train.total_loss(
                cls_t, reg_t, st.assignments[idx], alpha=cfg.alpha, hnm_ratio=cfg.hnm_ratio
            )
            T.backward(loss, tape)
            for name, g in tape.param_grads.items():
                grads[name] = grads.get(name, 0.0) + g
            total += comps["total"]
        T.adam_step(st.model.params, grads, st.adam, train.lr_at(st.it, cfg))
        st.it += 1
        st.losses.append(total)

    def record(self, st):
        pass

    def check(self, st):
        losses = st.losses[1:]  # the first entry is the set-up's warm-up iteration
        problems = [f"iteration {i}: loss {v!r} is not finite" for i, v in enumerate(losses) if not math.isfinite(v)]
        k = min(self.LOSS_WINDOW, len(losses) // 2)
        if k == 0:
            problems.append(f"{len(losses)} iterations are too few to compare losses")
        else:
            first, last = np.mean(losses[:k]), np.mean(losses[-k:])
            if not last < first:
                problems.append(f"mean loss of the last {k} iterations {last:.6g} >= first {k} {first:.6g}")
        return problems + self.gradient_problems(st), 0

    def gradient_problems(self, st, eps=1e-6):
        """Tape gradient of one sample's loss against a central finite difference."""
        sample, assignment = st.samples[0], st.assignments[0]
        inp = voxel.InputTensor(sample.occupancy)

        def loss_at(params):
            _, cls_t, reg_t = net.Model(self.mcfg, params=params).forward(inp)
            return train.total_loss(cls_t, reg_t, assignment, self.tcfg.alpha, self.tcfg.hnm_ratio)[1]["total"]

        tape = T.Tape()
        _, cls_t, reg_t = st.model.forward(inp, tape=tape)
        loss, _ = train.total_loss(cls_t, reg_t, assignment, self.tcfg.alpha, self.tcfg.hnm_ratio)
        grads = T.backward(loss, tape)
        rng = np.random.default_rng([self.seed, 1])
        direction = {k: rng.standard_normal(v.shape) for k, v in st.model.params.items()}
        norm = math.sqrt(sum(float(np.sum(v * v)) for v in direction.values()))
        direction = {k: v / norm for k, v in direction.items()}
        fd = checks.directional_derivative(loss_at, st.model.params, direction, eps)
        return checks.gradient_matches(fd, grads, direction)


class Stream48x32:
    """The online per-frame loop at the default CLI grid, on a dense scene."""

    name = "stream-48x32"
    frames_per_step = 1
    round_size = 1
    SEQ_LEN = 64  # frames; the stream restarts with a fresh tracker at the end
    SCORE_THR, NMS_THR = 0.5, 0.1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.mcfg = late_fusion(GRID_DEFAULT)
        scene = SimConfig(
            seed=seed, duration=self.SEQ_LEN, n_vehicles=(14, 14), base_density=20.0,
            speed=(0.0, 2.0), ego_speed=(1.0, 2.0), spawn_x=(-22, 22), spawn_y=(-14, 14),
            max_spawn_retries=500,
        )
        self.path = workdir / f"stream-48x32-seed{seed}.jsonl"
        sim.export_dataset(sim.generate_dataset(scene), self.path)
        self.files = [self.path]

    def setup(self):
        ds = sim.import_dataset(self.path)
        st = SimpleNamespace(
            ds=ds, model=net.Model(self.mcfg, seed=self.seed),
            anchors=net.build_anchors(self.mcfg), decoder=None, t=ds.duration - 1,
            last=None, first=None, occupied=[], kept=[],
        )
        self.step(st)
        return st

    def step(self, st):
        st.t += 1
        if st.t == st.ds.duration:
            st.t = N_IN - 1
            st.decoder = track.TrackletDecoder(N_OUT)
        t = st.t
        inp = voxel.stack_temporal(st.ds.frames[t - N_IN + 1 : t + 1], GRID_DEFAULT, n_expected=N_IN)
        out, _, _ = st.model.forward(inp)
        dets = net.decode(out, st.anchors, frame=t, score_thr=self.SCORE_THR, nms_thr=self.NMS_THR)
        st.decoder.step(dets, t)
        st.last = (t, inp, out, dets)

    def record(self, st):
        t, inp, out, dets = st.last
        if st.first is None:
            st.first = (inp, out)
        st.occupied.append((t, int(np.count_nonzero(inp.occupancy))))
        st.kept.append([(d.score, d.boxes[0]) for d in dets.detections])

    def check(self, st):
        problems = []
        for which, (inp, out) in (("first", st.first), ("last", st.last[1:3])):
            cls, reg = checks.reference_forward(st.model.params, inp.occupancy, self.mcfg.num_anchors, N_OUT)
            problems += checks.close_relative(f"{which} frame cls", out.cls, cls)
            problems += checks.close_relative(f"{which} frame reg", out.reg, reg)
        g = GRID_DEFAULT
        for t, count in st.occupied:
            history = [(f.points, (f.pose.tx, f.pose.ty, f.pose.yaw)) for f in st.ds.frames[t - N_IN + 1 : t + 1]]
            want = checks.occupied_cells(history, g.x_range, g.y_range, g.z_range, g.cell)
            if count != want:
                problems.append(f"frame {t}: {count} occupied voxels, independent count {want}")
        for kept in st.kept:
            problems += checks.nms_problems(
                checks.box_array(b for _s, b in kept), [s for s, _b in kept], self.SCORE_THR, self.NMS_THR
            )
        return problems, 0


class EvalClutter:
    """Scoring cluttered detector output over several sequences at the default grid.

    A round scores N_SEQ seeded sequences and one fixed probe sequence. The
    tracklet decoder gives one track id to two tracklets of a frame as soon
    as its input is noisy (see CHANGES.md), so on seeded inputs that check
    would fail on some seeds and not others. Tracking is therefore run on
    the probe only, whose inputs do not depend on the seed: it fails its id
    check on every run and is counted as a failed operation.
    """

    name = "eval-clutter"
    N_SEQ = 4  # seeded cluttered sequences per round
    PROBE = N_SEQ  # index of the probe sequence; a round is N_SEQ + 1 steps
    CONTROL = N_SEQ + 1  # index of the clean control, scored with the checks
    PROBE_SEED = 2**20
    round_size = N_SEQ + 1
    SEQ_LEN = 10  # frames per sequence, all scored
    frames_per_step = SEQ_LEN
    N_VEHICLES = 8
    SCORE_THR, NMS_THR = 0.1, 0.1
    CLUTTER_SHARE = 0.2  # share of negative anchors given a score in [SCORE_THR, 0.5)
    REG_NOISE = 0.05  # sd of the noise added to positive anchors' regression codes
    CLUTTER_CODE_SD = 0.3  # sd of the random offset and size codes of negative anchors

    def __init__(self, seed, workdir):
        self.seed = seed
        self.mcfg = late_fusion(GRID_DEFAULT)
        self.ecfg = EvalConfig(score_thr=self.SCORE_THR, nms_thr=self.NMS_THR)
        anchors = net.build_anchors(self.mcfg)
        self.paths, self.heads = [], []
        for m in range(self.N_SEQ + 2):
            scene_seed = self.PROBE_SEED if m == self.PROBE else seed * 100 + m
            scene = SimConfig(
                seed=scene_seed, duration=self.SEQ_LEN,
                n_vehicles=(self.N_VEHICLES, self.N_VEHICLES), speed=(0.0, 4.0),
                spawn_x=(-18.0, 18.0), spawn_y=(-11.0, 11.0), max_spawn_retries=500,
            )
            ds = sim.generate_dataset(scene)
            path = workdir / f"eval-clutter-seed{seed}-{m}.jsonl"
            sim.export_dataset(ds, path)
            self.paths.append(path)
            rng = np.random.default_rng([scene_seed, 17, m])
            clean = m == self.CONTROL
            self.heads.append([self._head(ds, t, anchors, rng, clean) for t in range(ds.duration)])
        self.files = self.paths

    def _head(self, ds, t, anchors, rng, clean):
        """HeadOutput of a detector that sees frame t's ground truth, plus noise and clutter."""
        objects = []
        pose = ds.frames[t].pose
        for lab in ds.labels[t]:
            boxes = [sim.box_world_to_ego(lab.box, pose)]
            for h in range(1, N_OUT):
                fut = [l for l in ds.labels.get(t + h, []) if l.track_id == lab.track_id]
                boxes.append(sim.box_world_to_ego(fut[0].box, pose) if fut else None)
            objects.append(GtObject(track_id=lab.track_id, boxes=boxes))
        a = train.assign_targets(anchors, objects, N_OUT)
        pos = a.labels > 0.5
        if clean:
            return HeadOutput(cls=pos.astype(float), reg=a.targets.copy())
        shape = pos.shape
        clutter = rng.uniform(size=shape) < self.CLUTTER_SHARE
        cls = np.where(
            pos,
            rng.uniform(0.9, 1.0, shape),
            np.where(clutter, rng.uniform(self.SCORE_THR, 0.5, shape), rng.uniform(0.0, self.SCORE_THR, shape)),
        )
        reg = a.targets + rng.normal(0.0, self.REG_NOISE, a.targets.shape)
        junk = rng.normal(0.0, self.CLUTTER_CODE_SD, a.targets.shape)
        heading = rng.uniform(-math.pi, math.pi, junk[:, :, 0].shape)
        junk[:, :, 4], junk[:, :, 5] = np.sin(heading), np.cos(heading)
        reg = np.where(pos[:, None, None], reg, junk)
        return HeadOutput(cls=cls, reg=reg)

    def setup(self):
        datasets = [sim.import_dataset(p) for p in self.paths]
        st = SimpleNamespace(
            datasets=datasets, anchors=net.build_anchors(self.mcfg), next=0, last=None, outputs=[],
        )
        self.step(st)
        return st

    def score(self, st, m):
        ds = st.datasets[m]
        sets = [
            net.decode(h, st.anchors, frame=t, score_thr=self.SCORE_THR, nms_thr=self.NMS_THR)
            for t, h in enumerate(self.heads[m])
        ]
        det = pipeline.evaluate_detection(sets, ds, self.ecfg)
        trk, decoded = None, []
        if m in (self.PROBE, self.CONTROL):
            trk, decoded, _baseline = pipeline.evaluate_tracking(sets, ds, N_OUT, self.ecfg)
        fc = pipeline.evaluate_forecast(sets, ds, self.ecfg)
        return sets, det, trk, decoded, fc

    def step(self, st):
        st.last = (st.next, self.score(st, st.next))
        st.next = (st.next + 1) % self.round_size

    def record(self, st):
        m, (sets, _det, _trk, decoded, _fc) = st.last
        st.outputs.append((
            m,
            [(checks.box_array(d.boxes[0] for d in s.detections), [d.score for d in s.detections]) for s in sets],
            [(r.frame, r.track_id, r.status) for r in decoded],
        ))

    def check(self, st):
        problems, failed = self.control_problems(st), 0
        for m, kept, decoded in st.outputs:
            found = []
            for boxes, scores in kept:
                found += checks.nms_problems(boxes, scores, self.SCORE_THR, self.NMS_THR)
            found += checks.track_problems(decoded, N_OUT - 1)
            if m == self.PROBE:
                failed += bool(found)
            else:
                problems += found
        return problems, failed

    def control_problems(self, st):
        """Exact detector output: exact boxes, perfect AP and MOTA, zero forecast error."""
        sets, det, trk, decoded, fc = self.score(st, self.CONTROL)
        ds = st.datasets[self.CONTROL]
        problems = checks.track_problems([(r.frame, r.track_id, r.status) for r in decoded], N_OUT - 1)
        for s in sets:
            pose = ds.frames[s.frame].pose
            want = [sim.box_world_to_ego(lab.box, pose) for lab in ds.labels[s.frame]]
            problems += checks.boxes_match(s.frame, [d.boxes[0] for d in s.detections], want)
        ap = det["ap_by_iou"][0.5]
        if ap != 1.0:
            problems.append(f"control: AP@0.5 {ap} != 1")
        mot = trk["decoder"]
        if mot.mota != 1.0 or mot.idsw != 0:
            problems.append(f"control: decoder MOTA {mot.mota}, {mot.idsw} id switches")
        for h in self.ecfg.forecast_horizons:
            for kind, err in (("l1", fc.l1[h]), ("l2", fc.l2[h])):
                if err is None or not err <= 1e-9:
                    problems.append(f"control: forecast {kind} error {err} at horizon {h}")
        return problems


WORKLOADS = {w.name: w for w in (TrainC05, Stream48x32, EvalClutter)}
