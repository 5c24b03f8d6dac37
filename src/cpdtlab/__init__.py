"""cpdtlab: dead-zone requantization analysis and a toy transform codec
for cascaded pixel-domain transcoding experiments.

Import names from the submodules (`cpdtlab.quantizer`, `cpdtlab.cpdt`, ...);
the package itself exports only `__version__`.
"""

__version__ = "0.1.0"
