"""The two models the workloads serve, built through the public ``repro`` API."""

from __future__ import annotations


def demo_lenet():
    """The demo LeNet of ``python -m repro.serving.server``: 1x12x12, 5 classes."""
    from repro.core import MultiExitBayesNet, MultiExitConfig
    from repro.nn.architectures import lenet5_spec

    spec = lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)
    return MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0)
    )


def vgg11_quarter():
    """VGG11 at width 0.25: 3x32x32, 10 classes, 3 exits."""
    from repro.core import MultiExitBayesNet, MultiExitConfig
    from repro.nn.architectures import vgg11_spec

    spec = vgg11_spec(input_shape=(3, 32, 32), num_classes=10, width_multiplier=0.25)
    return MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=3, mcd_layers_per_exit=1, seed=0)
    )


BUILDERS = {"demo_lenet": demo_lenet, "vgg11_quarter": vgg11_quarter}
