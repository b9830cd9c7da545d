"""Deformable 3-D volume registration with a dual-stream residual network.

The package is self-contained on numpy/scipy: a small reverse-mode
autodiff engine drives factorizable convolution blocks, a trilinear
spatial transformer, a self-similarity descriptor loss, Adam training,
and deformation-field evaluation metrics.
"""

__version__ = "0.1.0"
