"""The benchmark's workloads return the same bits as when these values were pinned.

Each workload's round value, and the sha256 of the parameters it trains, are pinned at a
small size. A change that claims to keep every trained bit (a faster kernel, a flat
optimizer state) is checked here instead of by figures quoted by hand. A change that
moves the numerics on purpose re-pins them and says so. `mvh.train`'s trainer is pinned to
`encoder_train`'s values as well, so the benchmark can run its loop with no re-pin.
"""

import hashlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from mvh import autodiff as ad  # noqa: E402
from mvh import train  # noqa: E402

SEED, N_SAMPLES = 7, 20


def _sha256(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(params[name].data.tobytes())
    return h.hexdigest()


def test_encoder_train_fingerprint():
    wl = workloads.EncoderTrain(SEED, N_SAMPLES)
    assert wl.round(workloads.Meter()) == 7.45462039523801
    assert _sha256(wl.params) == "a5e5220b781a081ec22dd35547f97762748463b63f8899d2168b433b0ab58604"


def test_the_trainer_gives_the_encoder_train_pin():
    # the benchmark's encoder loop and mvh.train's are one loop, so bench can call the trainer with no re-pin
    assert train.LR == workloads.ENC_LR and train.CLIP_NORM == workloads.CLIP_NORM
    assert train.LAMBDA_CVC == workloads.LAMBDA_CVC
    data = workloads.build_corpus(SEED, N_SAMPLES)
    trainer = train.EncoderTrainer(data.config, data.concepts, SEED)
    losses = [r.bce_frontal + r.bce_lateral + train.LAMBDA_CVC * r.cvc for r in trainer.train(data.train, 3)]
    tenth = len(losses) // 10  # the benchmark's train_loss: the mean loss over the last tenth of the steps
    assert len(losses) == 48 and sum(losses[-tenth:]) / tenth == 7.45462039523801
    assert _sha256(trainer.params) == "a5e5220b781a081ec22dd35547f97762748463b63f8899d2168b433b0ab58604"


def test_attention_train_fingerprint(monkeypatch):
    trained = []  # the round's parameters are local to it: catch the dict it zeroes after each step
    zero_grads = ad.zero_grads
    monkeypatch.setattr(ad, "zero_grads", lambda params: (trained.append(params), zero_grads(params)))
    wl = workloads.AttentionTrain(SEED, N_SAMPLES)
    assert wl.train_loss == 7.45462039523801
    trained.clear()  # the set-up's encoder pass zeroes its own parameters
    assert wl.round(workloads.Meter()) == 9981.671714409516
    assert _sha256(trained[-1]) == "8350333f837d78ba7fe203952ac2d58076a014140b40acd6756ee895c16083a7"


def test_evaluate_fingerprint():
    assert workloads.Evaluate(SEED, N_SAMPLES).round(workloads.Meter()) == (0.1664008580330586,
                                                                              0.3333333333333333)
