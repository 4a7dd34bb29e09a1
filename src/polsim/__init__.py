"""polsim: degree of polarization of two superposed, induced-coherent
signal beams, with erasable (rotation) and inerasable (idler transmission)
which-path marking, plus simulated tomography of the result."""

__version__ = "0.1.0"
