"""The training step split across helper processes.

A batch's samples run in contiguous chunks, one per usable core, and
their gradients are added in sample order, so every helper count gives
the same bits as the serial step.  The count is set here by replacing
``helpers.usable_cores``; the helpers' lifetime is checked on real
child processes.
"""

import concurrent.futures
import copy
import os
import subprocess
import sys
import textwrap
import time
import warnings

import numpy as np
import pytest

import casskit
from casskit import helpers, trainer
from casskit.gstnet import gst_forward
from casskit.maskmodel import entropy_term
from casskit.ndgrad import Tensor, add, backward, mul
from casskit.optics import Mask
from casskit.trainer import TrainConfig, make_state, recon_loss, state_blobs

SRC = os.path.dirname(os.path.dirname(os.path.abspath(casskit.__file__)))


def tiny_cfg(**kw):
    base = dict(bands=2, d=1, backbone_channels=4, backbone_blocks=1,
                gst_channels=4, gst_proj_channels=2, batch=2, beta=1e-2, seed=5)
    base.update(kw)
    return TrainConfig(**base)


def tiny_problem(n_scenes, seed=0):
    rng = np.random.default_rng(seed)
    scenes = [rng.random((6, 6, 2)) for _ in range(n_scenes)]
    masks = [Mask((rng.random((6, 6)) < 0.5).astype(float)) for _ in range(2)]
    return scenes, masks


def _one_tape_epoch(state, scenes, masks, phase, lr_theta=None, lr_phi=None, frozen=None):
    """The reference step: each batch's loss on one tape, one sweep, one process."""
    cfg = state.cfg
    family = "phi_" if lr_theta is None else ""
    order, pick, eps, noise = (state.rngs[family + r] for r in ("order", "mask", "eps", "noise"))
    stepped = [(opt, lr) for opt, lr in ((state.adam_theta, lr_theta),
                                         (state.adam_phi, lr_phi)) if lr is not None]
    wrt = [t for opt, _ in stepped for _, t in opt.named]
    tot = ent_tot = 0.0
    nb = 0
    for batch in trainer._batches(scenes, cfg.batch, order):
        i = int(pick.integers(len(masks)))
        m = masks[i]
        if lr_phi is not None:
            g = gst_forward(m, state.phi)
        else:
            if i not in frozen:
                frozen[i] = Tensor(gst_forward(m, state.phi).data)
            g = frozen[i]
        loss = recon_loss(state.theta, g, batch, m, cfg, eps, noise_rng=noise)
        if lr_phi is not None:
            ent = entropy_term(g)
            if cfg.beta != 0.0:
                loss = add(loss, mul(ent, cfg.beta))
            ent_tot += float(ent.data)
        backward(loss, wrt)
        for opt, lr in stepped:
            opt.step(lr)
            opt.zero_grad()
        tot += float(loss.data)
        nb += 1
    state.epoch += 1
    state.log.append({"phase": phase, "round": -1, "epoch": state.epoch, "loss": tot / nb,
                      "entropy": None if lr_phi is None else ent_tot / nb})


def _spread(masks, g0):
    """The table of theta-only maps a control with the constant spread g0 trains under."""
    return {i: Tensor(np.full(m.values.shape, g0)) for i, m in enumerate(masks)}


def _epochs(cfg, steps, scenes, masks, epoch):
    state = make_state(cfg)
    kw = {"theta": dict(lr_theta=1e-2, frozen={}),
          "fixed": dict(lr_theta=1e-2, frozen=_spread(masks, 0.2)),
          "phi": dict(lr_phi=1e-2), "both": dict(lr_theta=1e-2, lr_phi=1e-2)}[steps]
    for _ in range(2):
        epoch(state, scenes, masks, steps, **kw)
    return state_blobs(state)


@pytest.mark.parametrize("steps, beta", [
    ("theta", 1e-2), ("fixed", 1e-2), ("phi", 1e-2), ("phi", 0.0), ("both", 1e-2),
    ("phi", -1e-2), ("both", -1e-2)])
@pytest.mark.parametrize("noise_std", [0.0, 0.02])
@pytest.mark.parametrize("batch, n_scenes", [(2, 5), (3, 4), (1, 2)])
def test_every_helper_count_gives_the_one_tape_bits(monkeypatch, steps, beta, noise_std, batch,
                                                    n_scenes):
    # batches of 2, 2, 1; of 3, 1; and of 1: partial batches and single samples
    cfg = tiny_cfg(noise_std=noise_std, batch=batch, beta=beta)
    scenes, masks = tiny_problem(n_scenes)
    want = _epochs(cfg, steps, scenes, masks, _one_tape_epoch)
    for cores in (1, 2, 3):  # no helper, one, and two
        monkeypatch.setattr(helpers, "usable_cores", lambda: cores)
        got = _epochs(cfg, steps, scenes, masks, trainer._epoch)
        assert got.keys() == want.keys()
        for name, value in want.items():
            if isinstance(value, str):
                assert got[name] == value, (cores, name)
            else:
                assert got[name].tobytes() == value.tobytes(), (cores, name)


def test_a_forked_process_starts_its_own_helpers(monkeypatch):
    monkeypatch.setattr(helpers, "usable_cores", lambda: 2)
    parents = helpers.pool(1)
    pid = os.fork()
    if pid == 0:  # the child must not write to its parent's helpers
        os._exit(0 if helpers._HELPERS == [] and helpers.pool(1) != parents else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert helpers.pool(1) == parents


def test_a_call_beyond_the_pipe_and_the_iov_limit_comes_back_bit_for_bit():
    # over 2 MiB in more than _IOV arrays each way: each writer must wait
    # for its reader, and each message takes more than one writev and readv
    rng = np.random.default_rng(3)
    arrays = [rng.standard_normal(600) for _ in range(helpers._IOV + 88)]
    assert sum(a.nbytes for a in arrays) > 2 * helpers._PIPE_BYTES
    h = helpers.pool(1)[0]
    worker = concurrent.futures.ThreadPoolExecutor(1)
    call = worker.submit(lambda: (h.submit(copy.copy, arrays), h.result())[1])
    try:
        back = call.result(timeout=60)
    except concurrent.futures.TimeoutError:
        h.proc.kill()  # the blocked pipe call then fails and closes the pool
        pytest.fail("a large helper call did not come back within 60 s")
    finally:
        worker.shutdown()
    assert len(back) == len(arrays)
    for a, b in zip(arrays, back):
        assert b.shape == a.shape and b.tobytes() == a.tobytes()


def _diverging_step(monkeypatch, cores):
    """Run a theta step whose last sample overflows; return the error it raises."""
    monkeypatch.setattr(helpers, "usable_cores", lambda: cores)
    cfg = tiny_cfg(batch=4)
    state = make_state(cfg)
    scenes, masks = tiny_problem(4)
    scenes[3] = np.full((6, 6, 2), 1e200)  # finite, but its squared error is not
    monkeypatch.setattr(trainer, "_batches", lambda scenes, batch, rng: iter([scenes]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(FloatingPointError) as err:
            trainer._epoch(state, scenes, masks, "train", lr_theta=1e-3,
                           frozen=_spread(masks, 0.1))
    return err.value


def test_a_sample_that_fails_in_a_helper_raises_as_in_process(monkeypatch):
    serial = _diverging_step(monkeypatch, 1)
    split = _diverging_step(monkeypatch, 2)
    assert "non-finite backward root" in str(serial)
    assert (type(split), str(split)) == (type(serial), str(serial))
    # the failed step closed the pool; a new helper imports casskit from our directory
    h = helpers.pool(1)[0]
    h.submit(eval, "__import__('casskit').__file__")
    assert h.result() == casskit.__file__


def test_a_dead_helper_fails_the_step_by_name_and_is_replaced(monkeypatch):
    monkeypatch.setattr(helpers, "usable_cores", lambda: 2)
    cfg = tiny_cfg()
    state = make_state(cfg)
    scenes, masks = tiny_problem(4)
    dead = helpers.pool(1)[0]
    dead.proc.kill()
    dead.proc.wait(timeout=10)
    with pytest.raises(RuntimeError, match=rf"training helper process {dead.proc.pid} "
                                           r".*killed by signal 9"):
        trainer._epoch(state, scenes, masks, "train", lr_theta=1e-3,
                       frozen=_spread(masks, 0.1))
    trainer._epoch(state, scenes, masks, "train", lr_theta=1e-3, frozen=_spread(masks, 0.1))
    assert helpers.pool(1)[0] is not dead


def _children(pid):
    """Pids of the live (not zombie) children of ``pid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        state, ppid = stat.rpartition(")")[2].split()[:2]
        if int(ppid) == pid and state != "Z":
            out.append(int(entry))
    return out


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


CHILD = textwrap.dedent("""
    import sys
    from casskit import harness, helpers, trainer

    def pause(*words):  # the test inspects this process's children meanwhile
        print(*words, flush=True)
        sys.stdin.readline()

    helpers.usable_cores = lambda: 3
    cfg = trainer.TrainConfig(bands=2, d=1, backbone_channels=4, backbone_blocks=1,
                              gst_channels=4, gst_proj_channels=2, batch=1, t_init=1,
                              t_trn=1, t_val=1, rounds=1)
    spec = harness.ScenarioSpec(scene_h=6, scene_w=6, scenes_train=4, scenes_val=2,
                                scenes_test=1, mask_base_h=12, mask_base_w=12, k_train=2,
                                k_test=1, trials=1)
    exp = harness.build_experiment(cfg, spec)
    trainer.make_state(cfg)
    harness.run_training(exp, mode="full")  # batch 1: nothing to split
    pause("set up and trained on single samples")
    exp.cfg.batch = 2
    harness.run_training(exp, mode="full")
    pause(*(h.proc.pid for h in helpers._HELPERS))
    while sys.argv[1] == "hang":
        harness.run_training(exp, mode="full")
""")


def _child_with_helpers(how):
    """A training child process, and its helpers' pids after its first split step."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", CHILD, how], env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline()
        assert _children(proc.pid) == []  # none at import, set-up or single-sample steps
        proc.stdin.write("\n")
        proc.stdin.flush()
        pids = [int(p) for p in proc.stdout.readline().split()]
        # three usable cores and batches of 2: one helper, not two
        assert len(pids) == 1 and _children(proc.pid) == pids
        proc.stdin.write("\n")
        proc.stdin.flush()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, pids


def _gone_within(pids, seconds):
    end = time.monotonic() + seconds
    while any(map(_alive, pids)) and time.monotonic() < end:
        time.sleep(0.05)
    return not any(map(_alive, pids))


def test_helpers_start_at_the_first_split_step_and_end_with_the_run():
    proc, pids = _child_with_helpers("exit")
    try:
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
    assert _gone_within(pids, 5.0)


def test_helpers_end_when_their_parent_is_killed():
    proc, pids = _child_with_helpers("hang")
    time.sleep(0.2)  # in the middle of training
    proc.kill()
    proc.wait()
    assert _gone_within(pids, 5.0)
