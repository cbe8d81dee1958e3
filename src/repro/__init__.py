"""repro -- a full reproduction of "Adaptive Precision Training for Resource
Constrained Devices" (Huang, Luo, Zhou; ICDCS 2020).

The package layers, bottom to top:

* :mod:`repro.tensor`, :mod:`repro.nn`, :mod:`repro.optim` -- a from-scratch
  numpy autograd / neural-network / optimiser substrate, built on the
  grad-free forward kernels in :mod:`repro.kernels`.
* :mod:`repro.quant` -- affine quantisation, the underflow arithmetic of
  Eqs. 2-3 and the baseline quantiser family.
* :mod:`repro.core` -- Adaptive Precision Training itself: the Gavg metric
  (Eq. 4), the adjustment policy (Algorithm 1), the per-layer controller and
  the training loop (Algorithm 2).
* :mod:`repro.baselines` -- fixed-precision and published-method baselines.
* :mod:`repro.hardware` -- analytic energy / memory cost models.
* :mod:`repro.data`, :mod:`repro.models`, :mod:`repro.train` -- datasets,
  model zoo and the shared training harness.
* :mod:`repro.experiments` -- one runner per figure / table of the paper.
* :mod:`repro.runtime`, :mod:`repro.serve` -- the inference side: compile a
  trained (or quantised-exported) model into a static, autograd-free
  :class:`~repro.runtime.plan.ExecutionPlan` and serve it through the
  micro-batching :class:`~repro.serve.service.InferenceService`
  (``repro.cli serve-bench``).

Quickstart::

    from repro.core import APTConfig, APTTrainer
    from repro.data import DataLoader, make_synthetic_digits
    from repro.models import build_model

    train_set, test_set = make_synthetic_digits()
    model = build_model("tiny_convnet", num_classes=10, in_channels=1)
    trainer = APTTrainer(
        model,
        DataLoader(train_set, batch_size=64),
        DataLoader(test_set, batch_size=64, shuffle=False),
        config=APTConfig(initial_bits=6, t_min=6.0),
        input_shape=(1, 12, 12),
        lr_milestones=(6, 9),
    )
    history = trainer.fit(epochs=12)
    print(history.final_test_accuracy, trainer.controller.bitwidth_by_name())
"""

__version__ = "1.0.0"

__all__ = [
    "tensor",
    "kernels",
    "nn",
    "optim",
    "quant",
    "core",
    "baselines",
    "hardware",
    "data",
    "models",
    "train",
    "experiments",
    "runtime",
    "serve",
]
