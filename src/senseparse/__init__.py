"""senseparse: a best-first semantic chart parser steered by sense advice.

The package builds logical forms (sense-typed nodes linked by semantic
role edges) over a hand-authored type ontology, and lets an external
word-sense disambiguator steer parsing through prehinting, progressive
score augmentation, or hard sense forcing.  An evaluation harness scores
parser variants against synset-level gold annotations with exact,
Wu-Palmer, and factor-similarity agreement.
"""

__version__ = "0.1.0"
